import itertools

import numpy as np
import pytest

from heartbn import (
    DataTable,
    Variable,
    build_dag,
    ci_test,
    count_table,
    family_score,
    fit_bayesian,
    fit_mle,
    heart_network,
    hill_climb,
    hybrid_learn,
    learn_skeleton,
    orient,
    score,
    topological_order,
)
from heartbn.errors import InsufficientDataError, SchemaMismatchError

from oracles import random_net, sample_rows


def binary_table(columns: dict[str, list[int]], cards: dict[str, int] | None = None) -> DataTable:
    names = list(columns)
    cards = cards or {}
    schema = tuple(
        Variable(n, tuple(str(i) for i in range(cards.get(n, 2)))) for n in names
    )
    rows = np.array(list(zip(*(columns[n] for n in names))), dtype=np.int64)
    return DataTable(schema, rows.reshape(len(rows), len(names)))


def xy_from_net(seed: int, p_same: float = 0.95, n: int = 1000) -> DataTable:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    flip = rng.random(n) < (1.0 - p_same)
    b = np.where(flip, 1 - a, a)
    return binary_table({"A": a.tolist(), "B": b.tolist()})


def independent_table(seed: int, n: int = 1000) -> DataTable:
    rng = np.random.default_rng(seed)
    return binary_table(
        {"A": rng.integers(0, 2, size=n).tolist(), "B": rng.integers(0, 2, size=n).tolist()}
    )


class TestCountTable:
    def test_total_equals_rows(self, heart_table):
        ct = count_table(heart_table, "target", ("thal",))
        assert ct.total == heart_table.n_rows
        assert ct.counts.shape == (3, 2)

    def test_counts_nonnegative(self, heart_table):
        ct = count_table(heart_table, "cp", ("target",))
        assert (ct.counts >= 0).all()


class TestFitMle:
    def test_single_binary_column(self):
        data = binary_table({"x": [1, 1, 1, 0]})
        net = fit_mle(build_dag(("x",), ()), data)
        assert np.allclose(net.cpts["x"].table, [[0.25, 0.75]])

    def test_heart_marginals(self, heart_net):
        assert heart_net.cpts["sex"].prob(1) == pytest.approx(0.6767677, abs=5e-7)
        assert heart_net.cpts["fbs"].prob(1) == pytest.approx(0.1447811, abs=5e-7)
        assert np.allclose(
            heart_net.cpts["restecg"].table[0],
            [0.49494949, 0.01346801, 0.49158249],
            atol=5e-7,
        )

    def test_heart_conditionals(self, heart_net):
        assert heart_net.cpts["target"].prob(1, [2]) == pytest.approx(0.7652174, abs=5e-7)
        assert heart_net.cpts["thalachC"].prob(0, [0, 0]) == pytest.approx(0.1504425, abs=5e-7)

    def test_rows_sum_to_one_and_unseen_uniform(self):
        # configuration (a=1, b=1) never occurs
        data = binary_table({"a": [0, 0, 1, 1], "b": [0, 1, 0, 0], "x": [0, 1, 1, 0]})
        dag = build_dag(("a", "b", "x"), (("a", "x"), ("b", "x")))
        net = fit_mle(dag, data)
        table = net.cpts["x"].table
        assert np.allclose(table.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(table[3], [0.5, 0.5])

    def test_schema_mismatch(self):
        data = binary_table({"a": [0, 1]})
        with pytest.raises(SchemaMismatchError):
            fit_mle(build_dag(("a", "zzz"), ()), data)


class TestFitBayesian:
    def test_plug_in_formula(self):
        data = binary_table({"x": [1, 1, 1, 0]})
        net = fit_bayesian(build_dag(("x",), ()), data, ess=4.0)
        assert np.allclose(net.cpts["x"].table, [[0.375, 0.625]])

    def test_mle_limit(self):
        data = binary_table({"x": [1, 1, 1, 0]})
        dag = build_dag(("x",), ())
        mle = fit_mle(dag, data).cpts["x"].table
        smoothed = fit_bayesian(dag, data, ess=1e-8).cpts["x"].table
        assert np.abs(smoothed - mle).max() <= 1e-6

    def test_uniform_limit(self):
        data = binary_table({"x": [1, 1, 1, 0]})
        smoothed = fit_bayesian(build_dag(("x",), ()), data, ess=1e8).cpts["x"].table
        assert np.abs(smoothed - 0.5).max() <= 1e-3

    def test_rejects_nonpositive_ess(self):
        data = binary_table({"x": [0, 1]})
        with pytest.raises(ValueError):
            fit_bayesian(build_dag(("x",), ()), data, ess=0.0)


class TestScore:
    def test_deterministic_column_bic(self):
        data = binary_table({"x": [1, 1, 1, 1]})
        value = score(build_dag(("x",), ()), data, "bic")
        assert value == pytest.approx(-np.log(4.0) / 2.0, abs=1e-12)

    def test_decomposability(self):
        rng = np.random.default_rng(23)
        data = binary_table(
            {n: rng.integers(0, 2, size=50).tolist() for n in ("a", "b", "c")}
        )
        dag = build_dag(("a", "b", "c"), (("a", "b"), ("a", "c")))
        total = score(dag, data, "bic")
        by_family = sum(
            family_score(data, n, dag.parents(n), "bic") for n in dag.nodes
        )
        assert total == pytest.approx(by_family, abs=1e-12)

    def test_independent_edge_never_helps_bic(self):
        data = independent_table(seed=1, n=1000)
        empty = score(build_dag(("A", "B"), ()), data, "bic")
        with_edge = score(build_dag(("A", "B"), (("A", "B"),)), data, "bic")
        assert with_edge <= empty

    @pytest.mark.parametrize("kind", ["bic", "bdeu"])
    def test_score_equivalence_of_reversed_edge(self, kind):
        for seed in range(5):
            data = xy_from_net(seed, p_same=0.8, n=200)
            forward = score(build_dag(("A", "B"), (("A", "B"),)), data, kind)
            backward = score(build_dag(("A", "B"), (("B", "A"),)), data, kind)
            assert forward == pytest.approx(backward, abs=1e-9)

    def test_unknown_kind(self):
        data = binary_table({"x": [0, 1]})
        with pytest.raises(ValueError):
            score(build_dag(("x",), ()), data, "aic")

    @pytest.mark.parametrize("ess", [0.0, -1.0])
    def test_bdeu_rejects_nonpositive_ess(self, ess):
        data = binary_table({"x": [0, 1, 1], "y": [1, 1, 0]})
        with pytest.raises(ValueError):
            family_score(data, "x", ("y",), "bdeu", ess)


class TestHillClimb:
    def test_independent_columns_give_empty_graph(self):
        dag = hill_climb(independent_table(seed=2))
        assert dag.edges == ()

    def test_dependent_pair_gives_one_edge(self):
        dag = hill_climb(xy_from_net(seed=3))
        assert len(dag.edges) == 1
        assert set(dag.edges[0]) == {"A", "B"}

    def test_trace_strictly_increases(self):
        trace: list[float] = []
        hill_climb(xy_from_net(seed=4), trace=trace)
        assert len(trace) >= 2
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_result_always_acyclic(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            net = random_net(rng, 4, max_card=2, edge_prob=0.5)
            rows = sample_rows(net, rng, 300)
            data = DataTable(tuple(net.variables[n] for n in net.dag.nodes), rows)
            dag = hill_climb(data)
            assert len(topological_order(dag)) == len(dag.nodes)

    def test_score_equivalent_reverse_is_not_an_improvement(self):
        # reversing a lone edge changes the score by exactly zero, so the
        # search must stop after the single genuine move instead of
        # ping-ponging on rounding noise until max_iter
        rng = np.random.default_rng(97)
        for _ in range(10):
            net = random_net(rng, int(rng.integers(2, 5)), max_card=3, edge_prob=0.5)
            rows = sample_rows(net, rng, 250)
            data = DataTable(tuple(net.variables[n] for n in net.dag.nodes), rows)
            trace: list[float] = []
            hill_climb(data, trace=trace)
            assert all(b > a for a, b in zip(trace, trace[1:]))
            n = len(data.names)
            assert len(trace) - 1 <= n * (n - 1)  # far below the max_iter cap

    def test_single_column_rejected(self):
        with pytest.raises(SchemaMismatchError):
            hill_climb(binary_table({"x": [0, 1]}))

    def test_bdeu_with_zero_ess_is_rejected_not_empty(self, heart_table):
        with pytest.raises(ValueError):
            hill_climb(heart_table, kind="bdeu", ess=0.0)


class TestCiTest:
    def test_exact_independence(self):
        x = [0] * 50 + [1] * 50
        y = ([0] * 25 + [1] * 25) * 2
        result = ci_test(binary_table({"x": x, "y": y}), "x", "y")
        assert result.statistic == pytest.approx(0.0, abs=1e-12)
        assert result.p_value == pytest.approx(1.0)
        assert result.independent

    def test_deterministic_dependence(self):
        x = [0] * 50 + [1] * 50
        result = ci_test(binary_table({"x": x, "y": list(x)}), "x", "y")
        assert result.statistic == pytest.approx(100.0, abs=1e-9)
        assert result.dof == 1
        assert result.p_value < 1e-20
        assert not result.independent

    def test_conditional_independence_recovered(self):
        # x <- z -> y: dependent marginally, independent given z
        hits = 0
        marginal_dependent = 0
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            z = rng.integers(0, 2, size=2000)
            noise_x = rng.random(2000) < 0.2
            noise_y = rng.random(2000) < 0.2
            x = np.where(noise_x, 1 - z, z)
            y = np.where(noise_y, 1 - z, z)
            data = binary_table({"x": x.tolist(), "y": y.tolist(), "z": z.tolist()})
            if ci_test(data, "x", "y", ("z",)).independent:
                hits += 1
            if not ci_test(data, "x", "y").independent:
                marginal_dependent += 1
        assert hits >= 45
        assert marginal_dependent == 50

    def test_dof_reduced_by_empty_strata(self):
        # z = 2 never occurs, so only two strata contribute dof
        z = [0] * 40 + [1] * 40
        rng = np.random.default_rng(0)
        data = binary_table(
            {
                "x": rng.integers(0, 2, size=80).tolist(),
                "y": rng.integers(0, 2, size=80).tolist(),
                "z": z,
            },
            cards={"z": 3},
        )
        assert ci_test(data, "x", "y", ("z",)).dof == 2

    def test_insufficient_data(self):
        empty = DataTable(
            (Variable("x", "01"), Variable("y", "01")), np.zeros((0, 2), dtype=np.int64)
        )
        with pytest.raises(InsufficientDataError):
            ci_test(empty, "x", "y")

    def test_matches_scipy_contingency(self):
        from scipy.stats import chi2_contingency

        rng = np.random.default_rng(313)
        compared = 0
        while compared < 20:
            r_x, r_y = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            n = int(rng.integers(40, 200))
            x = rng.integers(0, r_x, size=n)
            y = rng.integers(0, r_y, size=n)
            table = np.zeros((r_x, r_y))
            np.add.at(table, (x, y), 1)
            if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
                continue
            data = binary_table(
                {"x": x.tolist(), "y": y.tolist()}, cards={"x": r_x, "y": r_y}
            )
            mine = ci_test(data, "x", "y")
            stat, p, dof, _ = chi2_contingency(table, correction=False)
            assert mine.statistic == pytest.approx(float(stat), abs=1e-9)
            assert mine.dof == int(dof)
            assert mine.p_value == pytest.approx(float(p), abs=1e-12)
            compared += 1

    def test_alpha_validated(self):
        data = binary_table({"x": [0, 1], "y": [0, 1]})
        with pytest.raises(ValueError):
            ci_test(data, "x", "y", alpha=1.5)


def chain_data(seed: int, n: int = 2000) -> DataTable:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    b = np.where(rng.random(n) < 0.15, 1 - a, a)
    c = np.where(rng.random(n) < 0.15, 1 - b, b)
    return binary_table({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()})


def collider_data(seed: int, n: int = 2000) -> DataTable:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, size=n)
    b = rng.integers(0, 2, size=n)
    c = np.where(rng.random(n) < 0.1, 1 - (a | b), a | b)
    return binary_table({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()})


class TestSkeleton:
    def test_independent_columns_empty(self):
        rng = np.random.default_rng(9)
        data = binary_table(
            {n: rng.integers(0, 2, size=1000).tolist() for n in ("A", "B", "C")}
        )
        skeleton = learn_skeleton(data)
        assert skeleton.edges == frozenset()
        assert all(len(s) == 0 for s in skeleton.sepsets.values())

    def test_chain_recovered(self):
        skeleton = learn_skeleton(chain_data(seed=41))
        assert skeleton.edges == frozenset({("A", "B"), ("B", "C")})
        assert skeleton.sepsets[("A", "C")] == frozenset({"B"})

    def test_collider_at_sepset_level_zero(self):
        skeleton = learn_skeleton(collider_data(seed=42), max_sepset=0)
        assert skeleton.has_edge("A", "C")
        assert skeleton.has_edge("B", "C")
        assert not skeleton.has_edge("A", "B")
        assert skeleton.sepsets[("A", "B")] == frozenset()

    def test_row_order_invariance(self):
        data = chain_data(seed=43)
        shuffled = data.take(np.random.default_rng(7).permutation(data.n_rows))
        first = learn_skeleton(data)
        second = learn_skeleton(shuffled)
        assert first.edges == second.edges
        assert first.sepsets == second.sepsets

    def test_sepset_iff_no_edge(self):
        skeleton = learn_skeleton(chain_data(seed=44))
        pairs = {tuple(sorted(p)) for p in itertools.combinations(skeleton.nodes, 2)}
        assert set(skeleton.sepsets) == pairs - set(skeleton.edges)


class TestOrient:
    def test_textbook_v_structure(self):
        from heartbn import Skeleton

        skeleton = Skeleton(
            ("A", "B", "C"),
            frozenset({("A", "C"), ("B", "C")}),
            {("A", "B"): frozenset()},
        )
        dag = orient(skeleton)
        assert set(dag.edges) == {("A", "C"), ("B", "C")}

    def test_chain_skeleton_falls_back_lexicographic(self):
        from heartbn import Skeleton

        skeleton = Skeleton(
            ("A", "B", "C"),
            frozenset({("A", "B"), ("B", "C")}),
            {("A", "C"): frozenset({"B"})},
        )
        dag = orient(skeleton)
        assert set(dag.edges) == {("A", "B"), ("B", "C")}
        assert len(topological_order(dag)) == 3

    def test_collider_data_end_to_end(self):
        dag = orient(learn_skeleton(collider_data(seed=45)))
        assert ("A", "C") in dag.edges
        assert ("B", "C") in dag.edges

    def test_conflicting_demands_resolved_and_reported(self):
        # three v-structures force the directed triangle a -> b -> c -> a;
        # the builder must warn and still return an acyclic graph
        from heartbn import Skeleton
        from heartbn.errors import ConflictingOrientationWarning

        names = ("a", "b", "c", "u", "v", "w")
        edges = frozenset(
            tuple(sorted(p))
            for p in (("a", "b"), ("w", "b"), ("b", "c"), ("u", "c"), ("c", "a"), ("v", "a"))
        )
        sepsets = {
            ("a", "w"): frozenset(),  # forces a -> b <- w
            ("b", "u"): frozenset(),  # forces b -> c <- u
            ("c", "v"): frozenset(),  # forces c -> a <- v
            ("a", "u"): frozenset({"c"}),
            ("b", "v"): frozenset({"a"}),
            ("c", "w"): frozenset({"b"}),
            ("u", "v"): frozenset(),
            ("u", "w"): frozenset(),
            ("v", "w"): frozenset(),
        }
        with pytest.warns(ConflictingOrientationWarning):
            dag = orient(Skeleton(names, edges, sepsets))
        assert len(topological_order(dag)) == 6
        assert {tuple(sorted(e)) for e in dag.edges} == set(edges)

    def test_opposite_v_structures_keep_lexicographic_parent(self):
        # (x, b) and (y, a) both demand an orientation of a - b, in opposite
        # directions; the tie resolves toward the smaller parent name
        from heartbn import Skeleton
        from heartbn.errors import ConflictingOrientationWarning

        names = ("a", "b", "x", "y")
        edges = frozenset({("a", "b"), ("b", "x"), ("a", "y")})
        sepsets = {
            ("a", "x"): frozenset(),  # forces a -> b <- x
            ("b", "y"): frozenset(),  # forces b -> a <- y
            ("x", "y"): frozenset({"a", "b"}),
        }
        with pytest.warns(ConflictingOrientationWarning):
            dag = orient(Skeleton(names, edges, sepsets))
        assert ("a", "b") in dag.edges

    def test_output_always_acyclic_on_random_skeletons(self):
        import warnings

        from heartbn import Skeleton

        rng = np.random.default_rng(77)
        names = tuple("ABCDEF")
        for _ in range(30):
            edges = set()
            for pair in itertools.combinations(names, 2):
                if rng.random() < 0.45:
                    edges.add(pair)
            sepsets = {}
            for pair in itertools.combinations(names, 2):
                if pair not in edges:
                    others = [n for n in names if n not in pair]
                    size = int(rng.integers(0, 3))
                    sepsets[pair] = frozenset(rng.permutation(others)[:size])
            skeleton = Skeleton(names, frozenset(edges), sepsets)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                dag = orient(skeleton)
            assert len(topological_order(dag)) == len(names)
            assert {tuple(sorted(e)) for e in dag.edges} == edges


class TestHybrid:
    def test_independent_data_empty(self):
        rng = np.random.default_rng(51)
        data = binary_table(
            {n: rng.integers(0, 2, size=800).tolist() for n in ("A", "B", "C")}
        )
        assert hybrid_learn(data).edges == ()

    def test_chain_respects_skeleton(self):
        data = chain_data(seed=52)
        skeleton = learn_skeleton(data)
        dag = hybrid_learn(data)
        for a, b in dag.edges:
            assert skeleton.has_edge(a, b)

    def test_restricted_score_not_above_unrestricted(self):
        data = chain_data(seed=53)
        restricted = score(hybrid_learn(data), data, "bic")
        unrestricted = score(hill_climb(data), data, "bic")
        assert restricted <= unrestricted + 1e-9


class TestHeartStructureFit:
    def test_full_fit_reproduces_published_rows(self, heart_table):
        # spot checks; the full table comparison lives in the acceptance suite
        net = fit_mle(heart_network(), heart_table)
        assert np.allclose(
            net.cpts["cp"].table[0], [0.10, 0.25, 0.40625, 0.24375], atol=5e-7
        )
        assert np.allclose(
            net.cpts["slope"].table[1], [0.26277372, 0.64963504, 0.08759124], atol=5e-7
        )

    def test_discretized_against_categorical_families(self, heart_table):
        # families conditioning a binned attribute on a categorical one pin
        # the cutpoints jointly, not just through the marginal bin counts
        net = fit_mle(heart_network(), heart_table)
        age_by_ca = {
            0: [0.31034483, 0.60344828, 0.08620690],
            1: [0.07692308, 0.75384615, 0.16923077],
            2: [0.02631579, 0.73684211, 0.23684211],
            3: [0.05000000, 0.65000000, 0.30000000],
        }
        for ca_state, expected in age_by_ca.items():
            assert np.allclose(net.cpts["ageC"].row([ca_state]), expected, atol=5e-7)
        bp_by_age = {
            0: [0.54098361, 0.39344262, 0.06557377],
            1: [0.25641026, 0.51794872, 0.22564103],
            2: [0.34146341, 0.21951220, 0.43902439],
        }
        for age_state, expected in bp_by_age.items():
            assert np.allclose(net.cpts["trestbpsC"].row([age_state]), expected, atol=5e-7)
        assert np.allclose(
            net.cpts["cholC"].table[0], [0.1649832, 0.3265993, 0.5084175], atol=5e-7
        )
