import re

import numpy as np
import pytest

from heartbn import (
    Cpt,
    DataTable,
    DiscreteBayesNet,
    Posterior,
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
from heartbn import inference
from heartbn.errors import SchemaMismatchError, UnknownNodeError, ZeroEvidenceError
from heartbn.evaluation import METHODS, fit_model
from heartbn.inference import _sum_product

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

    def test_all_zero_fold_of_a_long_product_raises(self):
        # the first fold of 16 holds [1, 0] and [0, 1] over "a": its product is all zero
        factors = [(np.array([1.0, 0.0]), ("a",)), (np.array([0.0, 1.0]), ("a",))]
        factors += [(np.array([0.5, 0.5]), ("b",))] * 15
        assert len(factors) > inference._EINSUM_GROUP
        with pytest.raises(ZeroEvidenceError, match="^evidence has probability zero$"):
            _sum_product(factors, ("b",))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Cpt(Variable("a", "01"), (), np.array([[-0.1, 1.1]]))


class TestPosterior:
    @pytest.mark.parametrize(
        "probabilities",
        [
            [np.nan, np.nan],
            [np.nan, 1.0],
            [np.inf, 0.0],
            [-np.inf, 1.0],
            [-0.5, 1.5],
            [0.4, 0.4],
            [0.5, 0.25, 0.25],
        ],
        ids=["nan", "nan-beside-1", "inf", "-inf", "outside-unit", "sum-0.8", "three-states"],
    )
    def test_rejects_non_distributions(self, probabilities):
        with pytest.raises(ValueError):
            Posterior(Variable("v", ("0", "1")), probabilities)


class TestStateRule:
    """Every state index a caller passes is an int or numpy integer, not a bool, in range."""

    # entry point -> (the variable whose state it takes, a call with that state)
    ENTRY_POINTS = {
        "classify": ("B", lambda net, s: classify(net, "A", {"B": s})[1].probabilities),
        "posterior_ve": ("B", lambda net, s: posterior_ve(net, "A", {"B": s}).probabilities),
        "posterior_enumeration": (
            "B",
            lambda net, s: posterior_enumeration(net, "A", {"B": s}).probabilities,
        ),
        "Cpt.prob": ("B", lambda net, s: net.cpts["B"].prob(s, [0])),
        "Cpt.row": ("A", lambda net, s: net.cpts["B"].row([s])),
        "Posterior[]": ("A", lambda net, s: posterior_ve(net, "A", {})[s]),
    }

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("bad", [1.5, True, "2", -1, 2], ids=["1.5", "True", "'2'", "-1", "card"])
    def test_refused_naming_variable_and_value(self, two_node_net, entry, bad):
        # a cast would read 1.5 and True as state 1 and "2" as state 2, and
        # Posterior[-1] would wrap to the last state
        name, call = self.ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"state {re.escape(repr(bad))} .*'{name}'"):
            call(two_node_net, bad)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_integers_accepted(self, two_node_net, entry):
        _, call = self.ENTRY_POINTS[entry]
        for state in (0, 1):
            assert np.array_equal(call(two_node_net, np.int64(state)), call(two_node_net, state))

    def test_out_of_range_message_unchanged(self, two_node_net):
        with pytest.raises(ValueError, match=r"^state 5 out of range for 'B'$"):
            posterior_ve(two_node_net, "A", {"B": np.int64(5)})


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

    def test_all_zero_elimination_product_raises(self):
        # e1 = 1 needs h = 0 and e2 = 1 needs h = 1, yet each sliced CPT has a
        # nonzero entry: only summing out h gives an all-zero product
        q, h, e1, e2 = (Variable(name, "01") for name in ("q", "h", "e1", "e2"))
        net = DiscreteBayesNet(
            build_dag((q, h, e1, e2), (("h", "e1"), ("h", "e2"))),
            {
                "q": Cpt(q, (), np.array([[0.5, 0.5]])),
                "h": Cpt(h, (), np.array([[0.5, 0.5]])),
                "e1": Cpt(e1, (h,), np.array([[0.0, 1.0], [1.0, 0.0]])),
                "e2": Cpt(e2, (h,), np.array([[1.0, 0.0], [0.0, 1.0]])),
            },
        )
        with pytest.raises(ZeroEvidenceError, match="^evidence has probability zero$"):
            posterior_ve(net, "q", {"e1": 1, "e2": 1})
        with pytest.raises(ZeroEvidenceError):
            posterior_enumeration(net, "q", {"e1": 1, "e2": 1})

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
        net, evidence = wide_nb_case(np.random.default_rng(0), n_features, 4, 400)
        expected = nb_posterior_logspace(net, "w0", evidence)
        got = posterior_ve(net, "w0", evidence).probabilities
        assert np.abs(got - expected).max() <= 1e-10

    def test_posterior_normalizes(self, heart_net):
        post = posterior_ve(heart_net, "target", {"thal": 2, "cp": 3, "ca": 1})
        assert post.probabilities.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unknown_evidence_node(self, two_node_net):
        with pytest.raises(UnknownNodeError):
            posterior_ve(two_node_net, "A", {"zzz": 0})


class TestEliminationOrder:
    def test_min_degree_with_ties_by_name(self, monkeypatch):
        # the 4-cycle x-y-z-w with a leaf v on x and the kept query q on y,
        # each pair joined by an observed child: v goes first (degree 1),
        # then w, x, z tie at degree 2 and w wins by name; eliminating w
        # joins x and z
        pairs = [("x", "y"), ("y", "z"), ("z", "w"), ("w", "x"), ("x", "v"), ("q", "y")]
        roots = {n: Variable(n, "01") for n in "qvwxyz"}
        children = {a + b: Variable(a + b, "01") for a, b in pairs}
        cpts = {n: Cpt(v, (), [[0.4, 0.6]]) for n, v in roots.items()}
        for a, b in pairs:
            table = [[0.9, 0.1], [0.3, 0.7], [0.5, 0.5], [0.2, 0.8]]
            cpts[a + b] = Cpt(children[a + b], (roots[a], roots[b]), table)
        dag = build_dag((*roots, *children), [(n, a + b) for a, b in pairs for n in (a, b)])
        net = DiscreteBayesNet(dag, cpts)

        summed_out = []

        def spy(factors, keep):
            summed_out.extend(sorted({n for _, scope in factors for n in scope} - set(keep)))
            return _sum_product(factors, keep)

        monkeypatch.setattr(inference, "_sum_product", spy)
        evidence = dict.fromkeys(children, 1)
        posterior = posterior_ve(net, "q", evidence)
        assert summed_out == ["v", "w", "x", "z", "y"]
        expected = posterior_enumeration(net, "q", evidence).probabilities
        assert np.allclose(posterior.probabilities, expected, rtol=0, atol=1e-12)


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
        net, evidence = wide_nb_case(np.random.default_rng(0), n_features, 4, 400)
        schema = tuple(net.variable(n) for n in net.dag.nodes)
        table = DataTable(schema, [[evidence.get(v.name, 0) for v in schema]])
        labels, probabilities = classify_rows(net, "w0", table)
        expected = nb_posterior_logspace(net, "w0", evidence)
        assert labels[0] == np.argmax(expected)
        assert np.abs(probabilities[0] - expected).max() <= 1e-10
