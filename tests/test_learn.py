import functools
import hashlib
import itertools
import math
import os
import platform
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from heartbn import (
    DataTable,
    Skeleton,
    Variable,
    build_dag,
    ci_test,
    count_table,
    d_separated,
    family_score,
    fit_bayesian,
    fit_mle,
    heart_network,
    hill_climb,
    hybrid_learn,
    learn_skeleton,
    load_model,
    nb_fit,
    orient,
    save_model,
    score,
    split,
    topological_order,
)
from heartbn import core, learn, model_io
from heartbn.errors import (
    ConflictingOrientationWarning,
    CycleDetectedError,
    InsufficientDataError,
    SchemaMismatchError,
)
from heartbn.evaluation import fit_model

import oracles
from oracles import (
    all_dags,
    assert_frozen,
    bdeu_sequential,
    bic_row_loglik,
    ci_test_per_stratum,
    count_codes_per_row,
    d_separated_bruteforce,
    hill_climb_sequential,
    markov_class,
    pc_skeleton_sequential,
    random_net,
    sample_rows,
    sample_table,
)


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


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def orient_with_messages(skeleton) -> list[str]:
    """The oriented edges, then the text of every warning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines = [repr(orient(skeleton).edges)]
    return lines + [str(w.message) for w in caught]


def no_counting(*args):
    raise AssertionError("counted a table")


def independent_table(seed: int, n: int = 1000) -> DataTable:
    rng = np.random.default_rng(seed)
    return binary_table(
        {"A": rng.integers(0, 2, size=n).tolist(), "B": rng.integers(0, 2, size=n).tolist()}
    )


class TestCountTable:
    def test_total_equals_rows(self, heart_table):
        counts = count_table(heart_table, "target", ("thal",))
        assert counts.sum() == heart_table.n_rows
        assert counts.shape == (3, 2)

    def test_counts_nonnegative(self, heart_table):
        counts = count_table(heart_table, "cp", ("target",))
        assert (counts >= 0).all()


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

    def test_missing_columns_refused_before_a_bad_kind(self):
        data = binary_table({"x": [0, 1]})
        with pytest.raises(SchemaMismatchError, match=re.escape("data lacks columns for ['a', 'z']")):
            score(build_dag(("z", "x", "a"), ()), data, "aic")

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
        # ping-ponging on rounding noise until MAX_MOVES
        rng = np.random.default_rng(97)
        for _ in range(10):
            net = random_net(rng, int(rng.integers(2, 5)), max_card=3, edge_prob=0.5)
            rows = sample_rows(net, rng, 250)
            data = DataTable(tuple(net.variables[n] for n in net.dag.nodes), rows)
            trace: list[float] = []
            hill_climb(data, trace=trace)
            assert all(b > a for a, b in zip(trace, trace[1:]))
            n = len(data.names)
            assert len(trace) - 1 <= n * (n - 1)  # far below the MAX_MOVES cap

    @pytest.mark.parametrize("kind", ["bic", "bdeu"])
    def test_matches_sequential_reference(self, kind, monkeypatch):
        # cached deltas and the ancestor matrix against rescoring and
        # walking the graph for every move at every step.  The first 40
        # cases mix state counts up to 3 on 3-8 nodes and 30-300 rows.  An
        # add updates the matrix in place; a delete or reverse rebuilds it,
        # and the second 40 cases, binary networks with some zero
        # probabilities on 50-400 rows, make enough of those to check that
        # path as well.
        rebuilds = []
        real_ancestors = learn._ancestors

        def counting(parents):
            rebuilds.append(1)
            return real_ancestors(parents)

        monkeypatch.setattr(learn, "_ancestors", counting)
        case_sets = [
            (np.random.default_rng(61), (3, 9), (30, 300), {"max_card": 3}),
            (np.random.default_rng(0), (4, 9), (50, 400), {"allow_zeros": True}),
        ]
        for rng, node_range, row_range, net_options in case_sets:
            for case in range(40):
                n_nodes = int(rng.integers(*node_range))
                net = random_net(rng, n_nodes, edge_prob=0.6, **net_options)
                rows = sample_rows(net, rng, int(rng.integers(*row_range)))
                data = DataTable(tuple(net.variables[n] for n in net.dag.nodes), rows)
                allowed = None
                if case % 3 == 2:
                    pairs = itertools.combinations(data.names, 2)
                    allowed = {frozenset(p) for p in pairs if rng.random() < 0.6}
                mine, reference = [], []
                dag = hill_climb(data, kind, 10.0, allowed, trace=mine)
                assert dag == hill_climb_sequential(data, kind, 10.0, allowed, trace=reference)
                assert mine == reference
        assert len(rebuilds) >= 10

    def test_single_column_rejected(self):
        with pytest.raises(SchemaMismatchError):
            hill_climb(binary_table({"x": [0, 1]}))

    def test_bdeu_with_zero_ess_is_rejected_not_empty(self, heart_table):
        with pytest.raises(ValueError):
            hill_climb(heart_table, kind="bdeu", ess=0.0)

    @pytest.mark.parametrize("pair", [("foo", "bar"), ("A", "foo"), ("A",), ()])
    def test_allowed_pair_not_naming_two_columns_rejected(self, pair, monkeypatch):
        monkeypatch.setattr(learn, "_stacked_counts", no_counting)
        with pytest.raises(SchemaMismatchError, match=re.escape(str(sorted(pair)))):
            hill_climb(xy_from_net(seed=3), allowed={frozenset(pair), frozenset(("A", "B"))})


    @pytest.mark.parametrize("pair", [("A", "B"), "AB"], ids=["tuple", "str"])
    def test_allowed_pair_that_is_not_a_frozenset_rejected(self, pair, monkeypatch):
        # the set comparison used to die with a bare TypeError
        monkeypatch.setattr(learn, "_stacked_counts", no_counting)
        message = f"allowed pairs must name two data columns, not [{pair!r}]"
        with pytest.raises(SchemaMismatchError, match=re.escape(message)):
            hill_climb(xy_from_net(seed=3), allowed={pair, frozenset(("A", "B"))})


class TestRepeatedColumnNames:
    """Columns (a, b, a) name one variable twice: no table holds them, so no learner sees them."""

    @pytest.mark.parametrize("learner", [hill_climb, learn_skeleton, hybrid_learn])
    def test_rejected_before_any_counting(self, learner, monkeypatch):
        rng = np.random.default_rng(3)
        monkeypatch.setattr(learn, "_stacked_counts", no_counting)
        with pytest.raises(SchemaMismatchError, match=re.escape("distinct, not ['a']")):
            learner(
                DataTable(
                    (Variable("a", "01"), Variable("b", "01"), Variable("a", "01")),
                    rng.integers(0, 2, size=(100, 3)),
                )
            )


class TestRepeatedFamilyVariables:
    """A family's child and parents, and a test's x, y and z, must be distinct variables."""

    @pytest.mark.parametrize(
        "child, parents", [("sex", ("cp", "cp")), ("sex", ("sex",)), ("sex", ("cp", "sex"))]
    )
    def test_family_rejected_before_any_counting(self, heart_table, child, parents, monkeypatch):
        monkeypatch.setattr(learn, "_stacked_counts", no_counting)
        with pytest.raises(ValueError, match="more than once"):
            count_table(heart_table, child, parents)
        with pytest.raises(ValueError, match="more than once"):
            family_score(heart_table, child, parents)

    @pytest.mark.parametrize(
        "x, y, z",
        [
            ("sex", "sex", ()),
            ("sex", "cp", ("sex",)),
            ("sex", "cp", ("cp",)),
            ("sex", "cp", ("fbs", "fbs")),
        ],
    )
    def test_ci_test_rejected_before_any_counting(self, heart_table, x, y, z, monkeypatch):
        monkeypatch.setattr(learn, "_stacked_counts", no_counting)
        with pytest.raises(ValueError, match="more than once"):
            ci_test(heart_table, x, y, z)


class TestScoreArgumentsCheckedFirst:
    """A bad kind or BDeu ess is rejected before any table is counted."""

    DATA = binary_table({"a": [0, 1, 1, 0], "b": [1, 1, 0, 0], "c": [0, 0, 1, 1]})

    @pytest.mark.parametrize(
        "kind, ess", [("aic", 10.0), ("bdeu", 0.0), ("bdeu", -1.0), ("bdeu", math.inf)]
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda data, kind, ess: hill_climb(data, kind=kind, ess=ess),
            lambda data, kind, ess: hybrid_learn(data, kind=kind, ess=ess),
            lambda data, kind, ess: score(build_dag(data.names, ()), data, kind, ess),
        ],
        ids=["hill_climb", "hybrid_learn", "score"],
    )
    def test_rejected_before_any_counting(self, call, kind, ess, monkeypatch):
        def no_counting(*args):
            raise AssertionError("counted a table before checking kind and ess")

        monkeypatch.setattr(learn, "_stacked_counts", no_counting)
        with pytest.raises(ValueError, match="^(kind|ess) must be"):
            call(self.DATA, kind, ess)


class TestFitAgainstPerNodeOracle:
    """Every fit's tables equal, bit for bit, those of a one-node-at-a-time estimator."""

    FITS = (  # (fit, its per-cell prior)
        (fit_mle, lambda q, r: 0.0),
        (lambda dag, data: fit_bayesian(dag, data, 10.0), lambda q, r: 10.0 / (r * q)),
        (lambda dag, data: fit_bayesian(dag, data, 0.5), lambda q, r: 0.5 / (r * q)),
    )

    @staticmethod
    def assert_bitwise_equal(net, expected):
        assert net.dag == expected.dag
        for node in net.dag.nodes:
            table, reference = net.cpts[node].table, expected.cpts[node].table
            assert net.cpts[node].parents == expected.cpts[node].parents, node
            assert table.shape == reference.shape, node
            assert table.tobytes() == reference.tobytes(), node

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 300])
    def test_random_dags(self, n_rows):
        # tables sampled from one network and fitted on it and on a denser
        # random DAG, whose parent configurations mostly go unseen in the
        # smaller tables, so uniform rows are among those compared
        for seed in range(6):
            rng = np.random.default_rng(seed)
            net = random_net(rng, 3 + seed, max_card=3, edge_prob=0.5)
            data = sample_table(net, n_rows, seed)
            for dag in (net.dag, oracles.random_dag(rng, 3 + seed, edge_prob=0.7)):
                for fit, cell_prior in self.FITS:
                    expected = oracles.fit_dirichlet_per_node(dag, data, cell_prior)
                    self.assert_bitwise_equal(fit(dag, data), expected)
            for pseudo in (0.0, 1.0):
                star = nb_fit(data, "n0", pseudo)
                expected = oracles.fit_dirichlet_per_node(star.dag, data, lambda q, r: pseudo)
                self.assert_bitwise_equal(star, expected)

    def test_one_family_per_batch(self):
        # from 8,193 rows on, each stacked count holds a single family
        net = random_net(np.random.default_rng(3), 5, max_card=3, edge_prob=0.6)
        data = sample_table(net, 8_193, 3)
        assert learn._batch_size(data) == 1
        for fit, cell_prior in self.FITS:
            expected = oracles.fit_dirichlet_per_node(net.dag, data, cell_prior)
            self.assert_bitwise_equal(fit(net.dag, data), expected)
        star = nb_fit(data, "n0", 1.0)
        expected = oracles.fit_dirichlet_per_node(star.dag, data, lambda q, r: 1.0)
        self.assert_bitwise_equal(star, expected)

    def test_heart_fits(self, heart_table, heart_dag):
        for fit, cell_prior in self.FITS:
            expected = oracles.fit_dirichlet_per_node(heart_dag, heart_table, cell_prior)
            self.assert_bitwise_equal(fit(heart_dag, heart_table), expected)


class TestFitChecksEachBatchOnce:
    """A fit checks all its tables in one batch, by the rules and messages of Cpt."""

    FITS = (
        lambda data: fit_mle(heart_network(), data),
        lambda data: fit_bayesian(heart_network(), data, 10.0),
        lambda data: nb_fit(data, "target", 0.0),
        lambda data: nb_fit(data, "target", 1.0),
    )

    def test_heart_split_tables_pinned(self, heart_table):
        # every table of the four fits on the 20 training splits, read-only
        # and bitwise as when each Cpt copied and checked its own table
        lines = []
        for seed in range(20):
            train, _ = split(heart_table, 0.8, seed)
            for fit in self.FITS:
                for name, cpt in fit(train).cpts.items():
                    assert_frozen(cpt.table, name)
                    lines.append(f"{name} {cpt.table.shape} {cpt.table.tobytes().hex()}")
        assert digest(lines) == "f167d64c91405fd4"

    def test_one_check_per_network(self, heart_table, monkeypatch, tmp_path):
        checked = []

        def spy(families, flat):
            checked.append(len(families))
            return check(families, flat)

        check = core._cpt_batch
        for module in (core, learn, model_io):
            monkeypatch.setattr(module, "_cpt_batch", spy)
        for fit in self.FITS:
            fit(heart_table)
        assert learn._batch_size(heart_table) >= 14
        assert checked == [14] * 4
        checked.clear()
        monkeypatch.setattr(learn, "_ROW_BUDGET", 4 * heart_table.n_rows)  # four families a batch
        nets = [fit(heart_table) for fit in self.FITS]
        assert checked == [14] * 4
        checked.clear()
        save_model(nets[0], tmp_path / "heart.model")
        load_model(tmp_path / "heart.model")
        assert checked == [14]

    def test_empty_network(self, heart_table):
        for fit in (fit_mle, lambda dag, data: fit_bayesian(dag, data, 10.0)):
            net = fit(build_dag((), ()), heart_table)
            assert net.dag.nodes == () and dict(net.cpts) == {}

    def test_a_bad_estimate_names_its_node(self):
        # a negative per-cell prior makes the unseen cell of b's table
        # negative; the batch check names b, as b's own Cpt check did
        data = binary_table({"a": [0, 1, 0, 1], "b": [0, 0, 0, 0], "c": [0, 1, 1, 0]})
        dag = build_dag(("a", "b", "c"), ())
        with pytest.raises(ValueError, match=re.escape("CPT for 'b' has entries outside [0, 1]")):
            learn._fit_dirichlet(dag, data, lambda q, r: -0.1)


class TestPriorWeights:
    """ess must be positive and finite, pseudo non-negative and finite, in every entry point."""

    DATA = binary_table({"target": [0, 1, 1, 0, 1], "y": [1, 1, 0, 0, 1]})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "name, call",
        [
            ("ess", lambda data, v: fit_bayesian(build_dag(("target",), ()), data, v)),
            ("ess", lambda data, v: family_score(data, "target", ("y",), "bdeu", v)),
            ("ess", lambda data, v: hill_climb(data, kind="bdeu", ess=v)),
            ("ess", lambda data, v: fit_model(data, "nb", None, "mle", v, 0.05, "bic", 1.0)),
            ("pseudo", lambda data, v: nb_fit(data, "target", v)),
            ("pseudo", lambda data, v: fit_model(data, "nb", None, "mle", 10.0, 0.05, "bic", v)),
        ],
        ids=[
            "fit_bayesian", "family_score", "hill_climb", "fit_model-ess", "nb_fit",
            "fit_model-pseudo",
        ],
    )
    def test_non_finite_rejected(self, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            call(self.DATA, value)


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

    def test_matches_per_stratum_oracle(self):
        # Few rows over up to three conditioning variables leave many strata
        # empty; drawing a column from a prefix of its states leaves zero
        # row or column margins.
        rng = np.random.default_rng(4)
        empty_strata = zero_margins = 0
        for _ in range(250):
            names = ["x", "y", *(f"z{i}" for i in range(int(rng.integers(0, 4))))]
            cards = {m: int(rng.integers(2, 5)) for m in names}
            n = int(rng.integers(1, 60))
            columns = {
                m: rng.integers(0, int(rng.integers(1, cards[m] + 1)), size=n).tolist()
                for m in names
            }
            data = binary_table(columns, cards)
            z = tuple(names[2:])
            mine = ci_test(data, "x", "y", z)
            reference = ci_test_per_stratum(data, "x", "y", z)
            assert mine.dof == reference.dof
            assert mine.independent == reference.independent
            assert abs(mine.statistic - reference.statistic) <= 1e-12 * reference.statistic
            assert abs(mine.p_value - reference.p_value) <= 1e-12 * reference.p_value
            configs = {tuple(row) for row in data.rows[:, 2:]}
            empty_strata += len(configs) < math.prod(cards[m] for m in z)
            zero_margins += len(set(columns["x"])) < cards["x"] or len(set(columns["y"])) < cards["y"]
        assert empty_strata >= 100 and zero_margins >= 100

    def test_survival_function_matches_scipy(self):
        # dof 1-120 and four large ones; statistics 0 and 1e-9 to 1,400, down
        # to tails of 1e-280 (smaller ones near the float64 floor are skipped)
        from scipy.stats import chi2

        statistics = np.concatenate(([0.0], np.geomspace(1e-9, 1400.0, 250)))
        smallest = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dof in [*range(1, 121), 200, 288, 500, 700]:
                for statistic, reference in zip(statistics, chi2.sf(statistics, dof)):
                    if reference < 1e-280:
                        continue
                    p_value = learn._chi2_sf(float(statistic), dof)
                    assert abs(p_value - reference) <= 1e-12 * reference, (dof, statistic)
                    smallest = min(smallest, reference)
        assert smallest < 1e-270

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.5])
    def test_independent_decides_as_the_p_value(self, alpha):
        # the decision flips between adjacent floats lo < hi, where the p-value
        # crosses alpha (found here by bisection); probed there, at their float
        # neighbours, 1e-8 either side of lo (absolute and relative) and at
        # random statistics; z is named only when a test has no dof
        def critical(dof):
            lo, hi = 0.0, float(dof)
            while learn._chi2_sf(hi, dof) > alpha:
                lo, hi = hi, 2.0 * hi
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (mid, hi) if learn._chi2_sf(mid, dof) > alpha else (lo, mid)
            return lo, hi

        def unnamed():
            raise AssertionError("z named for a test with degrees of freedom")

        rng = np.random.default_rng(int(alpha * 100))
        for dof in range(1, 201):
            lo, hi = critical(dof)
            assert hi == np.nextafter(lo, np.inf)
            assert learn._decide(lo, dof, alpha, unnamed)[1]
            assert not learn._decide(hi, dof, alpha, unnamed)[1]
            near = [
                lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
                lo - 1e-8, lo + 1e-8, lo * (1 - 1e-8), lo * (1 + 1e-8),
            ]
            for statistic in [*near, *rng.uniform(0.0, 2.0 * hi, 20)]:
                statistic = float(statistic)
                p_value = learn._chi2_sf(statistic, dof)
                decision = learn._decide(statistic, dof, alpha, unnamed)
                assert decision == (p_value, p_value > alpha), (dof, statistic)
        with pytest.raises(InsufficientDataError, match=r"every stratum of \('z',\) is empty"):
            learn._decide(0.0, 0, alpha, lambda: ("z",))

    def test_import_loads_no_scipy_stats(self):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", "import heartbn, sys; assert 'scipy.stats' not in sys.modules"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "call, loaded",
        [
            (
                "[ci_test(table, 'fbs', 'restecg', ('ca', 'thal', 'cp')),"
                " sorted(learn_skeleton(table).edges), hybrid_learn(table)]",
                "scipy == []",
            ),
            (
                "family_score(table, 'target', ('thal', 'cp'), 'bdeu', 10.0)",
                "'scipy.special' in scipy",
            ),
        ],
        ids=["ci_test", "bdeu"],
    )
    def test_first_call_in_fresh_process_loads_scipy(self, heart_table, call, loaded):
        # the PC path (ci_test, learn_skeleton, hybrid_learn) loads no scipy
        # module; a BDeu score loads scipy.special for gammaln
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "from heartbn import (\n"
            "    ci_test, clean, discretize, family_score, hybrid_learn, learn_skeleton,\n"
            "    load_cleveland,\n"
            ")\n"
            "table = discretize(clean(load_cleveland()))\n"
            "assert 'scipy' not in sys.modules\n"
            f"print(repr({call}))\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            f"assert {loaded}, scipy"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        namespace = {
            "ci_test": ci_test, "family_score": family_score, "hybrid_learn": hybrid_learn,
            "learn_skeleton": learn_skeleton, "table": heart_table,
        }
        assert result.stdout.strip() == repr(eval(call, namespace))


def random_table(rng: np.random.Generator, n_columns: int, n_rows: int) -> DataTable:
    """Columns of 2-4 states drawn uniformly; few rows leave many configurations unseen."""
    cards = {f"v{i}": int(rng.integers(2, 5)) for i in range(n_columns)}
    columns = {name: rng.integers(0, card, size=n_rows).tolist() for name, card in cards.items()}
    return binary_table(columns, cards)


class TestKernel:
    """The stacked-bincount kernel against a per-row counter and the one-family, one-test paths."""

    @pytest.mark.parametrize("n_rows", [0, 237, 20_000])
    def test_stacked_counts_match_per_row_counter(self, n_rows):
        # Random orders over columns of up to 10 states: each member reads a
        # random subset of columns in random order, in random slots of its
        # row, with -1 in the others (in every slot of the first draw's
        # first member, which reads no column at all).  The per-row
        # counter's place values are derived here: a read column's is the
        # product of the cards of the columns read after it.
        rng = np.random.default_rng(n_rows)
        cards = rng.integers(2, 11, size=6)
        schema = tuple(Variable(f"v{i}", tuple(map(str, range(c)))) for i, c in enumerate(cards))
        data = DataTable(schema, rng.integers(0, cards, size=(n_rows, 6)))
        unused = lone = last_beside_unused = 0
        for draw in range(3 if n_rows == 20_000 else 40):
            width = int(rng.integers(1, 7))
            orders = np.full((int(rng.integers(1, 3 if n_rows == 20_000 else 5)), width), -1)
            places, sizes = np.zeros((len(orders), 6)), []
            for i, (order, place) in enumerate(zip(orders, places)):
                n_read = 0 if draw == i == 0 else int(rng.integers(0, min(width, 4) + 1))
                read = rng.permutation(6)[:n_read]
                order[np.sort(rng.permutation(width)[:n_read])] = read
                size = 1
                for j in reversed(read.tolist()):
                    place[j] = size
                    size *= int(cards[j])
                sizes.append(size)
                unused += n_read == 0
                last_beside_unused += 5 in read and n_read < width
            lone += len(orders) == 1
            counted, counted_sizes = learn._stacked_counts(data, orders)
            assert counted_sizes.tolist() == sizes
            assert counted.tolist() == count_codes_per_row(data.rows, places, np.array(sizes))
        assert n_rows == 20_000 or (unused >= 3 and lone >= 3 and last_beside_unused >= 3)

    def test_one_call_counts_in_runs_of_batch_size(self, monkeypatch):
        # seven members at three a run: one bincount per run, the last run a
        # lone member, and every member's counts end to end as if counted alone
        rng = np.random.default_rng(5)
        cards = rng.integers(2, 6, size=5)
        schema = tuple(Variable(f"v{i}", tuple(map(str, range(c)))) for i, c in enumerate(cards))
        data = DataTable(schema, rng.integers(0, cards, size=(50, 5)))
        monkeypatch.setattr(learn, "_ROW_BUDGET", 3 * data.n_rows)
        assert learn._batch_size(data) == 3
        orders = np.full((7, 4), -1)
        places, sizes = np.zeros((7, 5)), []
        for order, place in zip(orders, places):
            read = rng.permutation(5)[: int(rng.integers(1, 4))]
            order[np.sort(rng.permutation(4)[: len(read)])] = read
            size = 1
            for j in reversed(read.tolist()):
                place[j] = size
                size *= int(cards[j])
            sizes.append(size)
        runs, bincount = [], np.bincount  # (members, cells) of each bincount call

        def spy(codes, minlength=0):
            runs.append((codes.size // data.n_rows, minlength))
            return bincount(codes, minlength=minlength)

        monkeypatch.setattr(np, "bincount", spy)
        counted, counted_sizes = learn._stacked_counts(data, orders)
        assert counted_sizes.tolist() == sizes
        assert counted.tolist() == count_codes_per_row(data.rows, places, np.array(sizes))
        assert runs == [(3, sum(sizes[:3])), (3, sum(sizes[3:6])), (1, sizes[6])]

    def test_layout_past_exact_float_codes_refused(self, monkeypatch):
        # 2**54 cells: codes past 2**53 are no longer exact float64 integers
        schema = tuple(Variable(f"v{i}", "01") for i in range(54))
        data = DataTable(schema, np.zeros((3, 54), dtype=np.int64))
        monkeypatch.setattr(np, "bincount", no_counting)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            count_table(data, "v0", tuple(f"v{i}" for i in range(1, 54)))
        # 2**52 + 2**52 + 2 cells over a batch of 54-column orders
        orders = np.full((3, 54), -1)
        orders[:2, 2:] = np.arange(2, 54)
        orders[2, -1] = 0
        with pytest.raises(ValueError, match=r"2\*\*53"):
            learn._stacked_counts(data, orders)

    @pytest.mark.parametrize("kind", ["bic", "bdeu"])
    def test_batched_family_scores_equal_family_score(self, kind):
        rng = np.random.default_rng(8)
        empty_parents = unseen = 0
        for n_rows in (0, 1, 7, 40, 300):
            data = random_table(rng, 6, n_rows)
            families = []
            for _ in range(60):
                child, *parents = rng.permutation(data.names)[: 1 + int(rng.integers(0, 4))]
                families.append((str(child), tuple(str(p) for p in parents)))
            batched = learn._family_scores(data, learn._orders(data, families), kind, 10.0)
            assert batched == [family_score(data, c, ps, kind, 10.0) for c, ps in families]
            empty_parents += sum(not ps for _, ps in families)
            unseen += sum((count_table(data, c, ps).sum(axis=1) == 0).any() for c, ps in families)
        assert empty_parents >= 20 and unseen >= 100

    def test_batched_ci_matches_per_stratum_oracle(self):
        # one batch per conditioning-set size, mixing state counts, so the
        # strata and state axes differ from test to test, and one batch
        # mixing x and y states 2-5 on too few rows to fill the strata.
        # Each test's figures are bitwise those of a batch of one.
        rng = np.random.default_rng(12)
        batches = []
        for n_rows in (5, 60, 400):
            data = random_table(rng, 7, n_rows)
            for size in range(4):
                draws = (rng.permutation(data.names)[: 2 + size] for _ in range(20))
                batches.append((data, [tuple(map(str, test)) for test in draws]))
        cards = {"a": 2, "b": 3, "c": 4, "d": 5, "e": 3, "f": 5}
        columns = {name: rng.integers(0, card, size=12).tolist() for name, card in cards.items()}
        mixed = [
            ("a", "d", "b", "c"), ("d", "c", "e", "f"), ("b", "e", "a", "f"),
            ("f", "a", "c", "d"), ("c", "b", "d", "a"), ("e", "d", "f", "c"),
        ]
        batches.append((binary_table(columns, cards), mixed))
        empty_strata = 0
        for data, named in batches:
            tests = np.array([[data.index(v) for v in test] for test in named])
            scored = learn._ci_batch(data, tests)
            assert scored == [learn._ci_batch(data, test[None])[0] for test in tests]
            for (x, y, *z), (statistic, dof) in zip(named, scored):
                reference = ci_test_per_stratum(data, x, y, tuple(z))
                assert dof == reference.dof
                p_value = learn._chi2_sf(statistic, dof)
                assert (p_value > 0.05) == reference.independent
                assert abs(statistic - reference.statistic) <= 1e-12 * reference.statistic
                assert abs(p_value - reference.p_value) <= 1e-12 * reference.p_value
                if named is mixed:
                    strata = math.prod(cards[v] for v in z)
                    empty_strata += strata - dof // ((cards[x] - 1) * (cards[y] - 1))
        assert {cards[t[0]] for t in mixed} == {cards[t[1]] for t in mixed} == {2, 3, 4, 5}
        assert empty_strata >= 20

    def test_test_without_dof_raises_only_when_reached(self, monkeypatch):
        # A table gives a test no degrees of freedom only when it has no
        # rows, which stops every test at once.  To put one such test among
        # others in a batch, the kernel below reports no degrees of freedom
        # for one chosen test.  learn_skeleton must raise exactly when the
        # one-at-a-time order reaches that test, though it counts more.
        net = random_net(np.random.default_rng(2), 7, max_card=3, edge_prob=0.5)
        data = sample_table(net, 200, 2)
        reached = []

        def recording(data, x, y, z=(), alpha=0.05):
            reached.append((x, y, tuple(z)))
            return ci_test_per_stratum(data, x, y, z, alpha)

        monkeypatch.setattr(oracles, "ci_test_per_stratum", recording)
        reference = pc_skeleton_sequential(data)
        real_batch = learn._ci_batch
        chosen, counted = None, []  # the loop below sets chosen, which the kernel reads

        def no_dof_on_chosen(data, tests):
            name = data.names
            named = [(name[x], name[y], tuple(name[v] for v in z)) for x, y, *z in tests.tolist()]
            counted.extend(named)
            scored = real_batch(data, tests)
            return [(s, 0 if t == chosen else d) for t, (s, d) in zip(named, scored)]

        monkeypatch.setattr(learn, "_ci_batch", no_dof_on_chosen)
        assert learn_skeleton(data) == reference
        unreached = set(counted) - set(reached)
        assert len(set(reached)) >= 30 and len(unreached) >= 10
        for chosen in sorted(set(counted)):
            if chosen in reached:
                with pytest.raises(InsufficientDataError):
                    learn_skeleton(data)
            else:
                assert learn_skeleton(data) == reference, chosen
        with pytest.raises(InsufficientDataError):
            learn_skeleton(data.take([]))


class TestScoreOracles:
    """family_score against BIC as a row log-likelihood and BDeu as a
    product of sequential predictive probabilities."""

    def test_random_heart_families(self, heart_table):
        rng = np.random.default_rng(300)
        no_parents = 0
        for case in range(300):
            data = split(heart_table, 0.8, case % 20)[0] if case % 2 else heart_table
            child, *parents = map(str, rng.permutation(data.names)[: 1 + int(rng.integers(0, 4))])
            parents = tuple(parents)
            ess = float(rng.uniform(0.5, 20.0))
            bic = family_score(data, child, parents, "bic")
            assert abs(bic - bic_row_loglik(data, child, parents)) <= 1e-13 * abs(bic)
            bdeu = family_score(data, child, parents, "bdeu", ess)
            assert abs(bdeu - bdeu_sequential(data, child, parents, ess)) <= 1e-13 * abs(bdeu)
            no_parents += not parents
        assert no_parents >= 50

    @pytest.mark.parametrize("seed", [0, 1])
    def test_scores_constant_within_markov_classes(self, seed):
        # BIC and BDeu are score equivalent: all 543 DAGs on four nodes fall
        # into 185 equivalence classes, and every DAG of a class scores the same
        rng = np.random.default_rng(seed)
        net = random_net(rng, 4, max_card=4, edge_prob=0.6)
        data = sample_table(net, 200, seed)
        dags = all_dags(tuple(data.names))
        classes: dict[tuple, list] = {}
        for dag in dags:
            classes.setdefault(markov_class(dag), []).append(dag)
        assert (len(dags), len(classes)) == (543, 185)
        for kind, ess in (("bic", 10.0), ("bdeu", 1.0), ("bdeu", 10.0)):
            for key, members in classes.items():
                values = [score(dag, data, kind, ess) for dag in members]
                spread = max(values) - min(values)
                assert spread <= 1e-12 * abs(values[0]), (kind, ess, sorted(key[0]), values)

    @pytest.mark.parametrize("restricted", [False, True], ids=["all pairs", "allowed"])
    @pytest.mark.parametrize("kind", ["bic", "bdeu"])
    def test_hill_climb_result_is_a_local_optimum(self, kind, restricted):
        # every acyclic single-edge add, delete or reverse of the result,
        # rescored with the oracle scores, gains at most MIN_IMPROVEMENT
        rng = np.random.default_rng(31 + restricted)
        for n_nodes in (3, 4, 5, 6, 7, 8) * 2:
            net = random_net(rng, n_nodes, max_card=3, edge_prob=0.5)
            data = sample_table(net, int(rng.integers(100, 800)), int(rng.integers(1 << 30)))
            ess = float(rng.uniform(0.5, 20.0))
            names = data.names
            allowed = (
                {frozenset(p) for p in itertools.combinations(names, 2) if rng.random() < 0.5}
                if restricted else None
            )
            dag = hill_climb(data, kind, ess, allowed=allowed)
            edges = set(dag.edges)
            assert allowed is None or {frozenset(e) for e in edges} <= allowed
            cache = {}

            def family(child, parents):
                key = (child, tuple(sorted(parents)))
                if key not in cache:
                    cache[key] = (
                        bic_row_loglik(data, *key) if kind == "bic"
                        else bdeu_sequential(data, *key, ess)
                    )
                return cache[key]

            def total(edge_set):
                return sum(family(c, [p for p, ch in edge_set if ch == c]) for c in names)

            here = total(edges)
            neighbours = [edges - {e} for e in edges]
            neighbours += [edges - {(a, b)} | {(b, a)} for a, b in edges]
            neighbours += [
                edges | {(a, b)}
                for a, b in itertools.permutations(names, 2)
                if (a, b) not in edges and (b, a) not in edges
                and (allowed is None or frozenset((a, b)) in allowed)
            ]
            for neighbour in neighbours:
                try:
                    build_dag(names, sorted(neighbour))
                except CycleDetectedError:
                    continue
                gain = total(neighbour) - here
                assert gain <= learn.MIN_IMPROVEMENT, (n_nodes, sorted(neighbour), gain)


def oracle_score(data: DataTable, kind: str, ess: float):
    """Total score of an edge set from the row-level family oracles, memoized per family."""

    @functools.cache
    def family(child, parents):
        if kind == "bic":
            return bic_row_loglik(data, child, parents)
        return bdeu_sequential(data, child, parents, ess)

    def total(edges) -> float:
        return sum(family(c, tuple(sorted(p for p, ch in edges if ch == c))) for c in data.names)

    return total


class TestExactOptimum:
    """hill_climb against the global optimum of its score (Silander & Myllymaki 2006)."""

    @pytest.mark.parametrize("restricted", [False, True], ids=["all pairs", "allowed"])
    @pytest.mark.parametrize("kind, ess", [("bic", 10.0), ("bdeu", 1.0), ("bdeu", 10.0)])
    def test_best_of_all_dags_on_four_nodes(self, kind, ess, restricted):
        rng = np.random.default_rng(7 + restricted)
        data = sample_table(random_net(rng, 4, max_card=3, edge_prob=0.6), 200, 7)
        pairs = [frozenset(p) for p in itertools.combinations(data.names, 2)]
        allowed = set(pairs[::2] + pairs[1:2]) if restricted else None
        total = oracle_score(data, kind, ess)
        best = max(
            total(dag.edges) for dag in all_dags(tuple(data.names))
            if allowed is None or {frozenset(e) for e in dag.edges} <= allowed
        )
        optimum, dag = oracles.exact_optimum(data, kind, ess, allowed)
        assert abs(optimum - best) <= 1e-12 * abs(best)
        assert abs(total(dag.edges) - best) <= 1e-12 * abs(best)

    @pytest.mark.parametrize("restricted", [False, True], ids=["all pairs", "allowed"])
    @pytest.mark.parametrize("kind", ["bic", "bdeu"])
    def test_hill_climb_scores_no_higher(self, kind, restricted):
        # and its trace ends at its result's score
        rng = np.random.default_rng(53 + restricted)
        for n_nodes in (3, 4, 5, 6, 7, 8):
            net = random_net(rng, n_nodes, max_card=3, edge_prob=0.5)
            data = sample_table(net, int(rng.integers(100, 600)), int(rng.integers(1 << 30)))
            ess = float(rng.uniform(0.5, 20.0))
            allowed = (
                {frozenset(p) for p in itertools.combinations(data.names, 2) if rng.random() < 0.6}
                if restricted else None
            )
            trace: list[float] = []
            dag = hill_climb(data, kind, ess, allowed, trace=trace)
            found = oracle_score(data, kind, ess)(dag.edges)
            optimum, _ = oracles.exact_optimum(data, kind, ess, allowed)
            assert found <= optimum + 1e-9 * abs(optimum), (n_nodes, found, optimum)
            assert abs(trace[-1] - found) <= 1e-9 * abs(found), (n_nodes, trace[-1], found)

    @pytest.mark.parametrize("kind", ["bic", "bdeu"])
    def test_optimum_does_not_depend_on_column_names(self, kind):
        # new names sort in the opposite order, and the columns are permuted
        rng = np.random.default_rng(71)
        data = sample_table(random_net(rng, 7, max_card=3, edge_prob=0.5), 400, 71)
        permutation = rng.permutation(len(data.names))
        schema = tuple(
            Variable(f"z{9 - j}_{data.names[j]}", data.schema[j].states) for j in permutation
        )
        renamed = DataTable(schema, data.rows[:, permutation])
        optimum, _ = oracles.exact_optimum(data, kind, 5.0)
        renamed_optimum, _ = oracles.exact_optimum(renamed, kind, 5.0)
        assert abs(renamed_optimum - optimum) <= 1e-12 * abs(optimum)


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
        skeleton = learn_skeleton(collider_data(seed=42))
        assert skeleton.has_edge("A", "C")
        assert skeleton.has_edge("B", "C")
        assert not skeleton.has_edge("A", "B")
        assert skeleton.sepsets[("A", "B")] == frozenset()

    def test_sepset_of_four_is_past_the_search(self):
        # x reaches y through four mediators, so only {a, b, c, d} separates
        # them; the search stops at MAX_SEPSET = 3 conditioning variables and
        # keeps the edge
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=5000)
        mediators = {m: np.where(rng.random(5000) < 0.2, 1 - x, x) for m in "abcd"}
        y = (rng.random(5000) < 0.05 + 0.225 * sum(mediators.values())).astype(np.int64)
        data = binary_table({"x": x, **mediators, "y": y})
        assert ci_test(data, "x", "y", tuple("abcd")).independent
        assert learn.MAX_SEPSET == 3
        assert learn_skeleton(data).has_edge("x", "y")

    def test_row_order_invariance(self):
        data = chain_data(seed=43)
        shuffled = data.take(np.random.default_rng(7).permutation(data.n_rows))
        first = learn_skeleton(data)
        second = learn_skeleton(shuffled)
        assert first.edges == second.edges
        assert first.sepsets == second.sepsets

    def test_heart_splits_match_per_stratum_oracle(self, heart_table):
        # the batched skeleton against one ci_test_per_stratum call per test
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConflictingOrientationWarning)
            for seed in range(20):
                train, _ = split(heart_table, 0.8, seed)
                skeleton = learn_skeleton(train)
                reference = pc_skeleton_sequential(train)
                assert skeleton == reference, f"seed {seed}"
                assert orient(skeleton) == orient(reference), f"seed {seed}"

    def test_conditioning_sets_come_from_current_neighborhoods(self, heart_table, monkeypatch):
        # Every test the kernel counts, reached or not, must condition on a
        # subset of x's or y's neighbors at the start of its level: the
        # sequential reference stopped one level earlier gives them.
        train, _ = split(heart_table, 0.8, 0)
        start = {level: pc_skeleton_sequential(train, max_sepset=level - 1) for level in range(4)}
        real_batch = learn._ci_batch
        counted = []

        def spy(data, tests):
            counted.extend([data.names[v] for v in test] for test in tests.tolist())
            return real_batch(data, tests)

        monkeypatch.setattr(learn, "_ci_batch", spy)
        learn_skeleton(train)
        for x, y, *z in counted:
            before = start[len(z)]
            assert before.has_edge(x, y)
            x_side, y_side = set(before.adjacent(x)) - {y}, set(before.adjacent(y)) - {x}
            assert set(z) <= x_side or set(z) <= y_side
        assert {len(z) for _, _, *z in counted} == {0, 1, 2, 3}

    def test_batches_condition_on_neighborhoods_at_their_miss(self, heart_table, monkeypatch):
        # A batch is counted when the order reaches an uncounted test, which
        # it lists first; every test in it conditions on a subset of x's or
        # y's neighbors at that moment, so none on a neighbor already removed.
        real_batch = learn._ci_batch
        batches = []

        def spy(data, tests):
            batches.append([tuple(data.names[v] for v in test) for test in tests.tolist()])
            return real_batch(data, tests)

        monkeypatch.setattr(learn, "_ci_batch", spy)
        for seed in range(3):
            train, _ = split(heart_table, 0.8, seed)
            visits: dict = {}
            batches.clear()
            assert learn_skeleton(train) == pc_skeleton_sequential(train, visits=visits)
            for batch in batches:
                assert batch[0] in visits, seed
                neighbors = visits[batch[0]]
                for a, b, *w in batch:
                    assert set(w) <= neighbors[a] - {b} or set(w) <= neighbors[b] - {a}, seed

    @pytest.mark.parametrize(
        "budget, step", [(learn._ROW_BUDGET, 69), (2370, 10)], ids=["default", "ten-per-batch"]
    )
    def test_level_zero_counts_each_pair_once_in_order(
        self, heart_table, monkeypatch, budget, step
    ):
        # no level-0 test depends on a removal, so level 0 counts every sorted
        # pair in one batch, in order, before any test of level 1; the kernel
        # splits that batch into runs of _batch_size (TestKernel)
        train, _ = split(heart_table, 0.8, 0)
        monkeypatch.setattr(learn, "_ROW_BUDGET", budget)
        real_batch = learn._ci_batch
        batches = []

        def spy(data, tests):
            batches.append([tuple(data.names[v] for v in test) for test in tests.tolist()])
            return real_batch(data, tests)

        monkeypatch.setattr(learn, "_ci_batch", spy)
        assert learn_skeleton(train) == pc_skeleton_sequential(train)
        assert learn._batch_size(train) == step
        assert batches[0] == list(itertools.combinations(sorted(train.names), 2))
        assert all(len(test) > 2 for batch in batches[1:] for test in batch)

    def test_ci_batches_count_no_padded_cell(self, heart_table, monkeypatch):
        # each test's table is laid out at its own q * r_x * r_y cells, in a
        # batch of tests whose sizes differ, and no test is counted twice
        train, _ = split(heart_table, 0.8, 0)
        real_batch, real_counts = learn._ci_batch, learn._stacked_counts
        batches, mixed = [], 0

        def recording_batch(data, tests):
            batches.append(tests)
            return real_batch(data, tests)

        def checking_counts(data, orders):
            nonlocal mixed
            tests = batches[-1]
            assert orders.tolist() == np.column_stack((tests[:, 2:], tests[:, :2])).tolist()
            counts, sizes = real_counts(data, orders)
            assert sizes.tolist() == data.cards[tests].prod(axis=1).tolist()
            assert len(counts) == sizes.sum()
            mixed += len(set(sizes.tolist())) > 1
            return counts, sizes

        monkeypatch.setattr(learn, "_ci_batch", recording_batch)
        monkeypatch.setattr(learn, "_stacked_counts", checking_counts)
        assert learn_skeleton(train) == pc_skeleton_sequential(train)
        assert len(batches) >= 5 and mixed >= 5
        counted = [tuple(test) for tests in batches for test in tests.tolist()]
        assert len(set(counted)) == len(counted)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
    def test_batches_fault_in_no_fresh_pages(self):
        # a heart batch's temporaries stay under glibc's default mmap
        # threshold; at twice the row budget they are mapped and unmapped per
        # batch, and these 20 skeletons and hill climbs take about 7,500 minor
        # faults instead of about 100
        code = (
            "import resource\n"
            "from heartbn import (\n"
            "    clean, discretize, hill_climb, learn_skeleton, load_cleveland, split,\n"
            ")\n"
            "table = discretize(clean(load_cleveland()))\n"
            "trains = [split(table, 0.8, seed)[0] for seed in range(20)]\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for train in trains:\n"
            "    learn_skeleton(train)\n"
            "    hill_climb(train)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 1000

    def test_matches_sequential_reference_across_batch_sizes(self, monkeypatch):
        # At the row budget 2**15 the cases were searched at, 237, 4,000,
        # 9,000 and 16,385 rows put 138, 8, 3 and 1 tests in a batch.  The
        # first case of each of the first three sizes was found by seeded
        # search: there a pair whose endpoint lost a neighbor earlier in the
        # level must list its subsets again, and listing them from the
        # neighborhoods at the level's start changes the skeleton.
        monkeypatch.setattr(learn, "_ROW_BUDGET", 1 << 15)
        cases = [
            (8, 237, 2), (8, 237, 0), (7, 4000, 2), (7, 4000, 0), (7, 9000, 1), (6, 9000, 0),
            (6, 16_385, 0),
        ]
        for n_nodes, n_rows, seed in cases:
            net = random_net(np.random.default_rng(seed), n_nodes, max_card=3, edge_prob=0.5)
            data = sample_table(net, n_rows, seed)
            assert learn_skeleton(data) == pc_skeleton_sequential(data), (n_nodes, n_rows, seed)

    @pytest.mark.parametrize("columns", [1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan")])
    def test_alpha_checked_before_any_test(self, columns, alpha):
        data = binary_table({f"v{i}": [0, 1, 0, 1] for i in range(columns)})
        with pytest.raises(ValueError, match="alpha"):
            learn_skeleton(data, alpha)

    def test_sepset_iff_no_edge(self):
        skeleton = learn_skeleton(chain_data(seed=44))
        pairs = {tuple(sorted(p)) for p in itertools.combinations(skeleton.nodes, 2)}
        assert set(skeleton.sepsets) == pairs - set(skeleton.edges)


class TestAgainstDSeparationOracle:
    """learn_skeleton and orient with the CI test answered by d-separation in a known DAG."""

    def test_true_skeleton_sepsets_and_v_structures(self, monkeypatch):
        # Each DAG has 3-8 nodes and at most 3 parents per node, so a node's
        # parents (always among its neighbours) separate it from every
        # non-adjacent non-descendant within max_sepset = 3.  The Markov
        # class is not compared: orient's remaining defects (no Meek rule 3,
        # a lexicographic fallback) orient some undirected edges wrongly.
        rng = np.random.default_rng(15)
        truth = {}

        def answered_by_d_separation(data, tests):
            # statistic 0 (p = 1) for a d-separated pair, else infinite (p = 0),
            # with one degree of freedom
            name = data.names
            separated = (
                d_separated(truth["dag"], {name[x]}, {name[y]}, {name[v] for v in z})
                for x, y, *z in tests.tolist()
            )
            return [(0.0 if p else math.inf, 1) for p in separated]

        monkeypatch.setattr(learn, "_ci_batch", answered_by_d_separation)
        n_sepsets = n_v_structures = 0
        for _ in range(300):
            names = [f"n{i}" for i in range(int(rng.integers(3, 9)))]
            order = rng.permutation(names).tolist()
            edges = [
                (parent, child)
                for i, child in enumerate(order)
                for parent in rng.permutation(order[:i])[: int(rng.integers(0, min(i, 3) + 1))]
            ]
            dag = truth["dag"] = build_dag(names, edges)
            data = DataTable(tuple(Variable(n, "01") for n in names), np.zeros((10, len(names))))
            skeleton = learn_skeleton(data)
            true_skeleton, v_structures = markov_class(dag)
            assert {frozenset(edge) for edge in skeleton.edges} == true_skeleton
            for (a, b), sepset in skeleton.sepsets.items():
                assert d_separated_bruteforce(dag, {a}, {b}, set(sepset)), (edges, a, b, sepset)
            with warnings.catch_warnings():
                warnings.simplefilter("error", ConflictingOrientationWarning)
                learned = orient(skeleton)
            assert v_structures <= markov_class(learned)[1], edges
            n_sepsets += sum(len(s) > 0 for s in skeleton.sepsets.values())
            n_v_structures += len(v_structures)
        assert n_sepsets >= 800 and n_v_structures >= 400


def cyclic_demands() -> Skeleton:
    # three v-structures force the directed triangle a -> b -> c -> a
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
    return Skeleton(names, edges, sepsets)


def opposite_demands() -> Skeleton:
    # (x, b) and (y, a) both demand an orientation of a - b, in opposite directions
    names = ("a", "b", "x", "y")
    edges = frozenset({("a", "b"), ("b", "x"), ("a", "y")})
    sepsets = {
        ("a", "x"): frozenset(),  # forces a -> b <- x
        ("b", "y"): frozenset(),  # forces b -> a <- y
        ("x", "y"): frozenset({"a", "b"}),
    }
    return Skeleton(names, edges, sepsets)


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

    @pytest.mark.parametrize(
        "edge", [("a", "z"), ("a", "a"), ("a", "b", "c")], ids=["unknown", "loop", "triple"]
    )
    def test_skeleton_edges_must_be_pairs_of_its_nodes(self, edge):
        from heartbn import Skeleton

        # such an edge passes a check of the sepsets alone, and orient then
        # dies with a bare KeyError on an unknown node
        with pytest.raises(ValueError, match="edges must be pairs of the nodes"):
            Skeleton(("a", "b", "c"), {edge}, dict.fromkeys([("a", "b"), ("a", "c"), ("b", "c")], ()))

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
        # the builder must warn and still return an acyclic graph
        skeleton = cyclic_demands()
        with pytest.warns(ConflictingOrientationWarning):
            dag = orient(skeleton)
        assert len(topological_order(dag)) == 6
        assert {tuple(sorted(e)) for e in dag.edges} == set(skeleton.edges)

    def test_opposite_v_structures_keep_lexicographic_parent(self):
        # the tie resolves toward the smaller parent name
        with pytest.warns(ConflictingOrientationWarning):
            dag = orient(opposite_demands())
        assert ("a", "b") in dag.edges

    @pytest.mark.parametrize(
        "skeleton, message",
        [
            (cyclic_demands(), "orientation b -> c would close a cycle; reversed"),
            (opposite_demands(), "both directions forced for edge ('a', 'b'); keeping a -> b"),
        ],
        ids=["cycle", "both-directions"],
    )
    def test_warnings_point_at_the_caller(self, skeleton, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            orient(skeleton)
        assert [(str(w.message), w.filename) for w in caught] == [(message, __file__)]

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

    def test_orientations_pinned_on_random_skeletons(self):
        # Random skeletons with random separating sets, node order shuffled
        # so that it differs from name order; the digest pins every edge and
        # every warning text, conflicts included.
        rng = np.random.default_rng(5)
        lines, warned = [], 0
        for _ in range(2000):
            size = int(rng.integers(3, 9))
            names = tuple(str(n) for n in rng.permutation(list("abcdefgh"))[:size])
            density = rng.uniform(0.2, 0.8)
            edges = {p for p in itertools.combinations(names, 2) if rng.random() < density}
            sepsets = {
                pair: frozenset(n for n in names if n not in pair and rng.random() < 0.3)
                for pair in itertools.combinations(names, 2)
                if pair not in edges
            }
            result = orient_with_messages(Skeleton(names, frozenset(edges), sepsets))
            warned += len(result) > 1
            lines += result
        assert warned > 500
        assert digest(lines) == "e19a0ff97e55d2b7"


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


class TestPaperNetworkAsGroundTruth:
    """Rows sampled from the paper's network, fitted without a zero cell, have a known class."""

    @pytest.mark.parametrize("seed", range(3))
    def test_score_searches_land_in_the_true_class(self, heart_table, seed):
        net = fit_bayesian(heart_network(), heart_table, 10.0)
        assert all(cpt.table.min() > 0.0 for cpt in net.cpts.values())
        truth = markov_class(heart_network())
        assert (len(truth[0]), len(truth[1])) == (12, 1)
        data = sample_table(net, 5000, seed)
        assert markov_class(hill_climb(data)) == truth
        assert markov_class(hybrid_learn(data)) == truth


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

    def test_learned_structures_on_heart_splits(self, heart_table):
        # One digest over every learner's output on 20 training splits: hc
        # BIC edges and score trace, hc BDeu edges, PC edges and warning
        # texts, hybrid edges.  Trace values are rounded to 1e-6, far above
        # rounding noise and far below any real score difference.
        lines = []
        for seed in range(20):
            train, _ = split(heart_table, 0.8, seed)
            trace: list[float] = []
            lines.append(repr(hill_climb(train, trace=trace).edges))
            lines.append(" ".join(f"{value:.6f}" for value in trace))
            lines.append(repr(hill_climb(train, kind="bdeu", ess=10.0).edges))
            lines += orient_with_messages(learn_skeleton(train))
            lines.append(repr(hybrid_learn(train).edges))
        assert digest(lines) == "59ab24cb66403dee"
