import numpy as np
import pytest

from heartbn import DataTable, Variable, classify, nb_fit, nb_predict, split
from heartbn.errors import SchemaMismatchError, UnknownNodeError, ZeroEvidenceError

from oracles import sample_rows, random_net


def small_table() -> DataTable:
    schema = (Variable("c", "01"), Variable("x", "01"))
    rows = np.array([[1, 1], [1, 0], [0, 0], [0, 0]], dtype=np.int64)
    return DataTable(schema, rows)


class TestNbFit:
    def test_unsmoothed_frequencies(self):
        model = nb_fit(small_table(), "c", pseudo=0.0)
        assert model.prior[1] == pytest.approx(0.5)
        assert model.conditionals["x"][1, 1] == pytest.approx(0.5)
        assert model.conditionals["x"][0, 1] == 0.0

    def test_additive_smoothing(self):
        model = nb_fit(small_table(), "c", pseudo=1.0)
        assert model.conditionals["x"][0, 1] == pytest.approx(0.25)

    def test_columns_normalize_on_heart_training_split(self, heart_table):
        train, _ = split(heart_table, 0.8, seed=0)
        model = nb_fit(train, "target")
        assert model.prior.sum() == pytest.approx(1.0, abs=1e-9)
        for table in model.conditionals.values():
            assert np.allclose(table.sum(axis=1), 1.0, atol=1e-9)

    def test_missing_class_column(self):
        with pytest.raises(SchemaMismatchError):
            nb_fit(small_table(), "zzz")

    def test_negative_pseudo_rejected(self):
        with pytest.raises(ValueError):
            nb_fit(small_table(), "c", pseudo=-1.0)


class TestNbPredict:
    def test_zero_likelihood_vetoes_class(self):
        model = nb_fit(small_table(), "c", pseudo=0.0)
        label, posterior = nb_predict(model, {"x": 1})
        assert label == 1
        assert np.allclose(posterior.probabilities, [0.0, 1.0])

    def test_empty_evidence_is_prior_argmax(self):
        model = nb_fit(small_table(), "c", pseudo=0.0)
        label, posterior = nb_predict(model, {})
        assert label == 0  # tie at 0.5/0.5 breaks toward the lower index
        assert np.allclose(posterior.probabilities, model.prior)

    def test_class_variable_rejected_in_evidence(self):
        model = nb_fit(small_table(), "c")
        with pytest.raises(ValueError):
            nb_predict(model, {"c": 1})

    def test_unknown_feature_rejected(self):
        model = nb_fit(small_table(), "c")
        with pytest.raises(UnknownNodeError):
            nb_predict(model, {"zzz": 0})

    def test_zero_evidence(self):
        # state 2 of x never occurs, so both classes have zero likelihood
        schema = (Variable("c", "01"), Variable("x", "012"))
        rows = np.array([[0, 0], [1, 1]], dtype=np.int64)
        model = nb_fit(DataTable(schema, rows), "c", pseudo=0.0)
        with pytest.raises(ZeroEvidenceError):
            nb_predict(model, {"x": 2})


class TestStarNetEquivalence:
    def test_matches_network_classifier(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            net = random_net(rng, 4, max_card=3, edge_prob=0.6)
            rows = sample_rows(net, rng, 120)
            data = DataTable(tuple(net.variables[n] for n in net.dag.nodes), rows)
            class_var = data.names[0]
            model = nb_fit(data, class_var, pseudo=1.0)
            star = model.to_net()
            features = [n for n in data.names if n != class_var]
            k = int(rng.integers(0, len(features) + 1))
            evidence = {
                f: int(rng.integers(data.variable(f).cardinality))
                for f in rng.permutation(features)[:k]
            }
            nb_label, nb_post = nb_predict(model, evidence)
            net_label, net_post = classify(star, class_var, evidence)
            assert np.abs(nb_post.probabilities - net_post.probabilities).max() <= 1e-10
            margin = np.sort(net_post.probabilities)[-1] - np.sort(net_post.probabilities)[-2]
            if margin > 1e-9:  # labels must agree unless the posterior is tied
                assert nb_label == net_label

    def test_star_net_shape(self):
        model = nb_fit(small_table(), "c")
        star = model.to_net()
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
        model = nb_fit(DataTable(schema, rows), "c")
        extended = nb_fit(
            DataTable(schema + (Variable("x_copy", "012"),), np.column_stack([rows, rows[:, 1]])),
            "c",
        )
        evidence = {"x": 2, "y": 1}
        base = nb_predict(model, evidence)
        same = nb_predict(extended, evidence)
        assert np.abs(base[1].probabilities - same[1].probabilities).max() == 0.0
        # observing the duplicate shifts the posterior (double counting)
        doubled = nb_predict(extended, {**evidence, "x_copy": 2})
        assert np.abs(doubled[1].probabilities - base[1].probabilities).max() > 1e-6

    def test_more_smoothing_moves_toward_uniform(self):
        table = small_table()
        previous = None
        for pseudo in (0.1, 1.0, 10.0, 100.0):
            model = nb_fit(table, "c", pseudo=pseudo)
            distance = max(
                float(np.abs(t - 1.0 / t.shape[1]).max()) for t in model.conditionals.values()
            )
            if previous is not None:
                assert distance <= previous + 1e-12
            previous = distance
