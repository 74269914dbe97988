import numpy as np
import pytest

from heartbn import (
    Cpt,
    DataTable,
    DiscreteBayesNet,
    Variable,
    build_dag,
    classify,
    classify_rows,
    d_separated,
    markov_blanket,
    posterior_enumeration,
    posterior_ve,
    split,
)
from heartbn.errors import SchemaMismatchError, UnknownNodeError, ZeroEvidenceError
from heartbn.evaluation import METHODS, fit_model
from heartbn.inference import _min_degree_order, _sum_product

from oracles import nb_posterior_logspace, random_net, sample_rows, wide_nb_case

# P(A=1 | B=1) for the two-node fixture: 0.3*0.9 / (0.3*0.9 + 0.7*0.2)
TWO_NODE_POSTERIOR = 0.27 / 0.41


class TestFactor:
    """Factor product, summing out, evidence slicing and non-negativity."""

    def test_multiply_aligns_scopes(self):
        f = (np.array([0.4, 0.6]), ("a",))
        g = (np.arange(6, dtype=float).reshape(3, 2), ("b", "a"))
        product = _sum_product([f, g], ("a", "b"))
        expected = np.array([0.4, 0.6])[:, None] * np.arange(6, dtype=float).reshape(3, 2).T
        assert np.allclose(product, expected)

    def test_marginalize(self):
        f = (np.array([[0.1, 0.2], [0.3, 0.4]]), ("a", "b"))
        assert np.allclose(_sum_product([f], ("a",)), [0.3, 0.7])

    def test_reduce(self, two_node_net):
        # evidence on the parent slices B's CPT down to its A=1 row
        assert np.allclose(posterior_ve(two_node_net, "B", {"A": 1}).probabilities, [0.1, 0.9])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Cpt(Variable("a", "01"), (), np.array([[-0.1, 1.1]]))


class TestEnumeration:
    def test_two_node_posterior(self, two_node_net):
        post = posterior_enumeration(two_node_net, "A", {"B": 1})
        assert post[1] == pytest.approx(TWO_NODE_POSTERIOR, abs=1e-12)

    def test_empty_evidence_on_root_is_cpt_row(self, two_node_net):
        post = posterior_enumeration(two_node_net, "A", {})
        assert np.allclose(post.probabilities, [0.7, 0.3])

    def test_zero_evidence_raises(self):
        x, y = Variable("x", "01"), Variable("y", "01")
        net = DiscreteBayesNet(
            build_dag((x, y), (("x", "y"),)),
            {
                "x": Cpt(x, (), [[1.0, 0.0]]),
                "y": Cpt(y, (x,), [[1.0, 0.0], [0.5, 0.5]]),
            },
        )
        with pytest.raises(ZeroEvidenceError):
            posterior_enumeration(net, "x", {"y": 1})

    def test_query_in_evidence_rejected(self, two_node_net):
        with pytest.raises(ValueError):
            posterior_enumeration(two_node_net, "A", {"A": 0})


class TestVariableElimination:
    def test_two_node_posterior(self, two_node_net):
        post = posterior_ve(two_node_net, "A", {"B": 1})
        assert post[1] == pytest.approx(TWO_NODE_POSTERIOR, abs=1e-10)

    def test_matches_enumeration_on_random_nets(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(30):
            net = random_net(rng, int(rng.integers(3, 8)), max_card=3, allow_zeros=True)
            nodes = list(net.dag.nodes)
            query = nodes[int(rng.integers(len(nodes)))]
            others = [n for n in nodes if n != query]
            k = int(rng.integers(0, len(others) + 1))
            evidence = {
                n: int(rng.integers(net.variable(n).cardinality))
                for n in rng.permutation(others)[:k]
            }
            try:
                expected = posterior_enumeration(net, query, evidence)
            except ZeroEvidenceError:
                with pytest.raises(ZeroEvidenceError):
                    posterior_ve(net, query, evidence)
                continue
            got = posterior_ve(net, query, evidence)
            worst = max(worst, float(np.abs(got.probabilities - expected.probabilities).max()))
        assert worst <= 1e-10

    def test_d_separated_evidence_is_ignored(self, heart_net):
        prior = posterior_ve(heart_net, "target", {})
        assert d_separated(heart_net.dag, {"target"}, {"fbs"}, set())
        with_fbs = posterior_ve(heart_net, "target", {"fbs": 1})
        assert np.allclose(prior.probabilities, with_fbs.probabilities, atol=1e-10)

    def test_conditionally_separated_evidence_is_ignored(self, heart_net):
        # sex and target are separated given thal, so adding target to the
        # evidence cannot move the posterior of sex
        assert d_separated(heart_net.dag, {"sex"}, {"target"}, {"thal"})
        for thal_state in range(3):
            base = posterior_ve(heart_net, "sex", {"thal": thal_state})
            for target_state in range(2):
                extended = posterior_ve(
                    heart_net, "sex", {"thal": thal_state, "target": target_state}
                )
                assert np.abs(base.probabilities - extended.probabilities).max() <= 1e-10

    def test_separated_evidence_is_ignored_on_random_nets(self):
        from oracles import d_separated_bruteforce, random_net as make_net

        rng = np.random.default_rng(61)
        compared = 0
        while compared < 20:
            net = make_net(rng, 6, max_card=2, edge_prob=0.4)
            nodes = list(net.dag.nodes)
            sel = list(rng.permutation(nodes))
            query, extra = sel[0], sel[1]
            z = set(sel[2 : 2 + int(rng.integers(0, 3))])
            if not d_separated_bruteforce(net.dag, {query}, {extra}, z):
                continue
            z_states = {n: int(rng.integers(net.variable(n).cardinality)) for n in z}
            base = posterior_ve(net, query, z_states)
            extended = posterior_ve(
                net, query, {**z_states, extra: int(rng.integers(net.variable(extra).cardinality))}
            )
            assert np.abs(base.probabilities - extended.probabilities).max() <= 1e-10
            compared += 1

    def test_long_chain_does_not_underflow(self):
        # n0 -> n1 -> ... -> n799 with every CPT positive; the alternating
        # evidence has probability 0.62 * 0.2**798 ~ 1e-558, below the
        # smallest double, yet the root's posterior is P(n0) * P(n1 | n0)
        # normalized, since no other factor mentions n0
        nodes = [Variable(f"n{i}", "01") for i in range(800)]
        cpts = {"n0": Cpt(nodes[0], (), [[0.3, 0.7]])}
        for parent, child in zip(nodes, nodes[1:]):
            cpts[child.name] = Cpt(child, (parent,), [[0.8, 0.2], [0.2, 0.8]])
        net = DiscreteBayesNet(
            build_dag(nodes, [(a.name, b.name) for a, b in zip(nodes, nodes[1:])]), cpts
        )
        post = posterior_ve(net, "n0", {f"n{i}": i % 2 for i in range(1, 800)})
        assert np.allclose(post.probabilities, [0.06 / 0.62, 0.56 / 0.62], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n_features", [600, 1200])
    def test_wide_full_evidence_does_not_underflow(self, n_features):
        # 600 four-state likelihoods multiply to ~0.25**600 ~ 1e-361: the
        # folded einsum product underflows unless each fold is rescaled
        model, evidence = wide_nb_case(np.random.default_rng(0), n_features, 4, 400)
        expected = nb_posterior_logspace(model, evidence)
        got = posterior_ve(model.net, "w0", evidence).probabilities
        assert np.abs(got - expected).max() <= 1e-10

    def test_posterior_normalizes(self, heart_net):
        post = posterior_ve(heart_net, "target", {"thal": 2, "cp": 3, "ca": 1})
        assert post.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_evidence_node(self, two_node_net):
        with pytest.raises(UnknownNodeError):
            posterior_ve(two_node_net, "A", {"zzz": 0})


class TestEliminationOrder:
    def test_min_degree_with_ties_by_name(self):
        # the 4-cycle x-y-z-w with a leaf v on x and the kept query q on y:
        # v goes first (degree 1), then w, x, z tie at degree 2 and w wins
        # by name; eliminating w joins x and z
        scopes = [("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"), ("x", "v"), ("q", "y")]
        order = _min_degree_order(scopes, {"v", "w", "x", "y", "z"})
        assert order == ["v", "w", "x", "z", "y"]


class TestConcurrentQueries:
    def test_parallel_posteriors_match_serial(self, heart_net):
        from concurrent.futures import ThreadPoolExecutor

        queries = [
            ("target", {"thal": t, "cp": c})
            for t in range(3)
            for c in range(4)
        ]
        serial = [posterior_ve(heart_net, q, e).probabilities for q, e in queries]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(
                pool.map(lambda qe: posterior_ve(heart_net, qe[0], qe[1]).probabilities, queries)
            )
        for expected, got in zip(serial, parallel):
            assert np.array_equal(expected, got)


class TestClassify:
    def test_heart_thal2(self, heart_net):
        label, post = classify(heart_net, "target", {"thal": 2})
        assert label == 1
        assert post[1] == pytest.approx(0.7652174, abs=5e-7)

    def test_heart_thal0(self, heart_net):
        label, post = classify(heart_net, "target", {"thal": 0})
        assert label == 0
        assert post[0] == pytest.approx(0.7743902, abs=5e-7)

    def test_deterministic(self, heart_net):
        evidence = {"thal": 2, "cp": 3, "slope": 1, "ca": 2, "oldpeakC": 1}
        first = classify(heart_net, "target", evidence)
        second = classify(heart_net, "target", evidence)
        assert first[0] == second[0]
        assert np.array_equal(first[1].probabilities, second[1].probabilities)

    def test_tie_breaks_toward_lower_state(self):
        x, y = Variable("x", "01"), Variable("y", "01")
        net = DiscreteBayesNet(
            build_dag((x, y), ()),
            {"x": Cpt(x, (), [[0.5, 0.5]]), "y": Cpt(y, (), [[0.5, 0.5]])},
        )
        label, _ = classify(net, "x", {})
        assert label == 0
        labels, _ = classify_rows(net, "x", DataTable((y,), [[0], [1]]))
        assert labels.tolist() == [0, 0]

    def test_outside_blanket_is_irrelevant(self, heart_net):
        blanket = markov_blanket(heart_net.dag, "target")
        evidence = {"thal": 2, "cp": 3, "slope": 1, "ca": 2, "oldpeakC": 1}
        assert set(evidence) == blanket
        base = classify(heart_net, "target", evidence)[1].probabilities
        for outside, state in (("fbs", 1), ("restecg", 2), ("sex", 0), ("cholC", 2)):
            withit = classify(heart_net, "target", {**evidence, outside: state})[1].probabilities
            assert np.abs(withit - base).max() <= 1e-12


class TestClassifyRows:
    def test_matches_classify_on_random_nets(self):
        rng = np.random.default_rng(23)
        # (index of the class among a child's parents, number of parents)
        positions = set()
        flagged = kept = 0
        for _ in range(25):
            net = random_net(
                rng, int(rng.integers(3, 7)), max_card=4, edge_prob=0.6, allow_zeros=True
            )
            schema = tuple(net.variable(n) for n in net.dag.nodes)
            cards = [v.cardinality for v in schema]
            # sampled rows are mostly possible, uniform ones often are not
            rows = np.vstack(
                [sample_rows(net, rng, 10), rng.integers(0, cards, size=(10, len(cards)))]
            )
            table = DataTable(schema, rows)
            for class_var in net.dag.nodes:
                for child in net.dag.children(class_var):
                    parents = [v.name for v in net.cpts[child].parents]
                    positions.add((parents.index(class_var), len(parents)))
                labels, probabilities = classify_rows(net, class_var, table)
                assert probabilities.shape == (table.n_rows, net.variable(class_var).cardinality)
                for i in range(table.n_rows):
                    evidence = table.row_assignment(i, exclude=(class_var,))
                    try:
                        label, posterior = classify(net, class_var, evidence)
                    except ZeroEvidenceError:
                        assert labels[i] == -1 and not probabilities[i].any()
                        flagged += 1
                        continue
                    assert labels[i] == label
                    assert np.abs(probabilities[i] - posterior.probabilities).max() <= 1e-10
                    kept += 1
        assert any(i == 0 and n > 1 for i, n in positions)
        assert any(0 < i < n - 1 for i, n in positions)
        assert any(i == n - 1 and n > 1 for i, n in positions)
        assert flagged >= 100 and kept >= 1000

    # the pc learner legitimately reports orientation conflicts on this data
    @pytest.mark.filterwarnings("ignore::heartbn.errors.ConflictingOrientationWarning")
    @pytest.mark.parametrize("method, total", [("paper", 20), ("pc", 29)])
    def test_flags_the_heart_rows_classify_rejects(self, heart_table, method, total):
        model_kind, learner = METHODS[method]
        flagged = 0
        for seed in range(20):
            train, test = split(heart_table, 0.8, seed)
            net = fit_model(train, model_kind, learner, "mle", 10.0, 0.05, "bic", 1.0)
            labels, _ = classify_rows(net, "target", test)
            for i in range(test.n_rows):
                try:
                    label, _ = classify(net, "target", test.row_assignment(i, exclude=("target",)))
                except ZeroEvidenceError:
                    label = -1
                assert labels[i] == label
            flagged += int((labels == -1).sum())
        assert flagged == total

    def test_schema_mismatch(self, two_node_net):
        a = two_node_net.variable("A")
        with pytest.raises(SchemaMismatchError):
            classify_rows(two_node_net, "A", DataTable((a,), [[0]]))
        for states in (("no", "yes"), ("0", "1", "2")):
            with pytest.raises(SchemaMismatchError):
                classify_rows(two_node_net, "A", DataTable((a, Variable("B", states)), [[0, 1]]))

    @pytest.mark.parametrize("n_features", [600, 1200])
    def test_wide_nb_does_not_underflow(self, n_features):
        model, evidence = wide_nb_case(np.random.default_rng(0), n_features, 4, 400)
        schema = tuple(model.net.variable(n) for n in model.net.dag.nodes)
        table = DataTable(schema, [[evidence.get(v.name, 0) for v in schema]])
        labels, probabilities = classify_rows(model.net, "w0", table)
        expected = nb_posterior_logspace(model, evidence)
        assert labels[0] == np.argmax(expected)
        assert np.abs(probabilities[0] - expected).max() <= 1e-10
