import numpy as np
import pytest

from heartbn import DataTable, Variable, classify, nb_fit, split
from heartbn.errors import SchemaMismatchError, UnknownNodeError, ZeroEvidenceError

from oracles import nb_posterior_logspace, random_net, sample_rows, wide_nb_case


def small_table() -> DataTable:
    schema = (Variable("c", "01"), Variable("x", "01"))
    rows = np.array([[1, 1], [1, 0], [0, 0], [0, 0]], dtype=np.int64)
    return DataTable(schema, rows)


class TestNbFit:
    def test_unsmoothed_frequencies(self):
        net = nb_fit(small_table(), "c", pseudo=0.0)
        assert net.cpts["c"].table[0, 1] == pytest.approx(0.5)
        assert net.cpts["x"].table[1, 1] == pytest.approx(0.5)
        assert net.cpts["x"].table[0, 1] == 0.0

    def test_additive_smoothing(self):
        net = nb_fit(small_table(), "c", pseudo=1.0)
        assert net.cpts["x"].table[0, 1] == pytest.approx(0.25)

    def test_columns_normalize_on_heart_training_split(self, heart_table):
        train, _ = split(heart_table, 0.8, seed=0)
        net = nb_fit(train, "target")
        assert net.cpts["target"].table.shape == (1, 2)
        for cpt in net.cpts.values():
            assert np.allclose(cpt.table.sum(axis=1), 1.0, atol=1e-9)

    def test_missing_class_column(self):
        with pytest.raises(SchemaMismatchError):
            nb_fit(small_table(), "zzz")

    def test_negative_pseudo_rejected(self):
        with pytest.raises(ValueError):
            nb_fit(small_table(), "c", pseudo=-1.0)


class TestNbPredict:
    def test_zero_likelihood_vetoes_class(self):
        net = nb_fit(small_table(), "c", pseudo=0.0)
        label, posterior = classify(net, "c", {"x": 1})
        assert label == 1
        assert np.allclose(posterior.probabilities, [0.0, 1.0])

    def test_empty_evidence_is_prior_argmax(self):
        net = nb_fit(small_table(), "c", pseudo=0.0)
        label, posterior = classify(net, "c", {})
        assert label == 0  # tie at 0.5/0.5 breaks toward the lower index
        assert np.allclose(posterior.probabilities, net.cpts["c"].table[0])

    def test_class_variable_rejected_in_evidence(self):
        net = nb_fit(small_table(), "c")
        with pytest.raises(ValueError):
            classify(net, "c", {"c": 1})

    def test_unknown_feature_rejected(self):
        net = nb_fit(small_table(), "c")
        with pytest.raises(UnknownNodeError):
            classify(net, "c", {"zzz": 0})

    def test_zero_evidence(self):
        # state 2 of x never occurs, so both classes have zero likelihood
        schema = (Variable("c", "01"), Variable("x", "012"))
        rows = np.array([[0, 0], [1, 1]], dtype=np.int64)
        net = nb_fit(DataTable(schema, rows), "c", pseudo=0.0)
        with pytest.raises(ZeroEvidenceError):
            classify(net, "c", {"x": 2})


class TestStarNetEquivalence:
    def test_matches_network_classifier(self):
        rng = np.random.default_rng(101)
        cases = []
        for _ in range(25):
            net = random_net(rng, 4, max_card=3, edge_prob=0.6)
            rows = sample_rows(net, rng, 120)
            data = DataTable(tuple(net.variables[n] for n in net.dag.nodes), rows)
            features = data.names[1:]
            k = int(rng.integers(0, len(features) + 1))
            evidence = {
                f: int(rng.integers(data.variable(f).cardinality))
                for f in rng.permutation(features)[:k]
            }
            cases.append((nb_fit(data, data.names[0], pseudo=1.0), evidence))
        cases.append(wide_nb_case(rng))
        for net, evidence in cases:
            class_var = net.dag.nodes[0]  # nb_fit puts the class node first
            label, post = classify(net, class_var, evidence)
            reference = nb_posterior_logspace(net, class_var, evidence)
            assert np.abs(post.probabilities - reference).max() <= 1e-10
            margin = np.sort(reference)[-1] - np.sort(reference)[-2]
            if margin > 1e-9:  # labels must agree unless the posterior is tied
                assert label == int(np.argmax(reference))

    def test_star_net_shape(self):
        star = nb_fit(small_table(), "c")
        assert star.dag.nodes == ("c", "x")
        assert star.dag.parents("x") == ("c",)
        assert star.dag.parents("c") == ()


class TestProperties:
    def test_duplicate_feature_changes_nothing_when_unobserved(self):
        rng = np.random.default_rng(7)
        schema = (Variable("c", "01"), Variable("x", "012"), Variable("y", "01"))
        rows = np.column_stack(
            [
                rng.integers(0, 2, size=100),
                rng.integers(0, 3, size=100),
                rng.integers(0, 2, size=100),
            ]
        ).astype(np.int64)
        net = nb_fit(DataTable(schema, rows), "c")
        extended = nb_fit(
            DataTable(schema + (Variable("x_copy", "012"),), np.column_stack([rows, rows[:, 1]])),
            "c",
        )
        evidence = {"x": 2, "y": 1}
        base = classify(net, "c", evidence)
        same = classify(extended, "c", evidence)
        assert np.abs(base[1].probabilities - same[1].probabilities).max() == 0.0
        # observing the duplicate shifts the posterior (double counting)
        doubled = classify(extended, "c", {**evidence, "x_copy": 2})
        assert np.abs(doubled[1].probabilities - base[1].probabilities).max() > 1e-6

    def test_more_smoothing_moves_toward_uniform(self):
        table = small_table()
        previous = None
        for pseudo in (0.1, 1.0, 10.0, 100.0):
            net = nb_fit(table, "c", pseudo=pseudo)
            distance = float(np.abs(net.cpts["x"].table - 0.5).max())
            if previous is not None:
                assert distance <= previous + 1e-12
            previous = distance
