import copy
import itertools
import pickle
import re

import numpy as np
import pytest

from heartbn import (
    Cpt,
    Dag,
    DataTable,
    DiscreteBayesNet,
    Posterior,
    Skeleton,
    Variable,
    build_dag,
    d_separated,
    load_model,
    markov_blanket,
    posterior_ve,
    save_model,
    topological_order,
)
from heartbn import core
from heartbn.errors import CycleDetectedError, DuplicateEdgeError, UnknownNodeError

from oracles import (
    all_assignments, assert_frozen, d_separated_bruteforce, joint_probability, random_dag,
    random_net,
)


class TestVariable:
    def test_states_and_index(self):
        v = Variable("x", ("a", "b", "c"))
        assert v.cardinality == 3
        assert v.state_index("b") == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="^variable name must be non-empty$"):
            Variable("", ("a", "b"))

    def test_unknown_label_names_the_variable_and_its_states(self):
        with pytest.raises(ValueError) as err:
            Variable("x", ("a", "b")).state_index("c")
        assert str(err.value) == "'c' is not a state of 'x' (states: ('a', 'b'))"

    def test_needs_two_states(self):
        with pytest.raises(ValueError):
            Variable("x", ("only",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Variable("x", ("a", "a"))


def assert_refused(error, message, nodes, edges):
    """``build_dag`` and a direct ``Dag(...)`` refuse the graph alike."""
    for route in (build_dag, Dag):
        with pytest.raises(error) as err:
            route(nodes, edges)
        assert str(err.value) == message, route


class TestBuildDag:
    def test_two_node_chain(self):
        dag = build_dag(("A", "B"), (("A", "B"),))
        assert dag.parents("B") == ("A",)
        assert dag.children("A") == ("B",)

    def test_two_cycle_rejected(self):
        # a direct Dag(...) used to accept it, and fit_mle fitted it into a
        # network whose saved model file load_model refused
        assert_refused(
            CycleDetectedError, "graph contains a directed cycle",
            ("A", "B"), (("A", "B"), ("B", "A")),
        )

    def test_self_loop_rejected(self):
        assert_refused(CycleDetectedError, "self-loop on 'A'", ("A",), (("A", "A"),))

    def test_longer_cycle_rejected(self):
        assert_refused(
            CycleDetectedError, "graph contains a directed cycle",
            "ABC", (("A", "B"), ("B", "C"), ("C", "A")),
        )

    def test_unknown_endpoint(self):
        # a direct Dag(...) died with a bare KeyError
        assert_refused(
            UnknownNodeError, "edge ('A', 'B') references an undeclared node", ("A",), (("A", "B"),)
        )

    def test_duplicate_edge(self):
        assert_refused(
            DuplicateEdgeError, "duplicate edge ('A', 'B')", ("A", "B"), (("A", "B"), ("A", "B"))
        )

    def test_duplicate_names(self):
        # a direct Dag(...) kept the repeated node
        assert_refused(ValueError, "node names must be unique", ("A", "A"), ())

    def test_direct_construction_reads_variables_and_lists_as_build_dag_does(self):
        nodes = (Variable("A", "01"), "B", Variable("C", "xyz"))
        dag = Dag(nodes, [["A", "B"], ["C", "B"]])
        assert dag == build_dag(nodes, (("A", "B"), ("C", "B")))
        assert dag.nodes == ("A", "B", "C") and dag.edges == (("A", "B"), ("C", "B"))
        assert dag.parents("B") == ("A", "C") and dag.children("C") == ("B",)

    def test_parent_maps_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            Dag(("A", "B"), (("A", "B"),), {"B": ("A",)})
        with pytest.raises(TypeError):
            Dag(("A", "B"), (), _parents={"B": ("A",)})


class TestTopologicalOrder:
    def test_chain(self):
        dag = build_dag("ABC", (("A", "B"), ("B", "C")))
        assert topological_order(dag) == ["A", "B", "C"]

    def test_isolated_nodes_lexicographic(self):
        assert topological_order(build_dag(("B", "A"), ())) == ["A", "B"]

    def test_heart_order(self, heart_dag):
        order = topological_order(heart_dag)
        assert order.index("sex") < order.index("thal") < order.index("target")

    def test_parents_precede_children(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dag = random_dag(rng, 6)
            order = topological_order(dag)
            pos = {n: i for i, n in enumerate(order)}
            assert all(pos[a] < pos[b] for a, b in dag.edges)


class TestDSeparation:
    def test_serial_blocked_by_middle(self):
        dag = build_dag("ACB", (("A", "C"), ("C", "B")))
        assert d_separated(dag, {"A"}, {"B"}, {"C"})
        assert not d_separated(dag, {"A"}, {"B"}, set())

    def test_diverging_blocked_by_middle(self):
        dag = build_dag("ACB", (("C", "A"), ("C", "B")))
        assert d_separated(dag, {"A"}, {"B"}, {"C"})
        assert not d_separated(dag, {"A"}, {"B"}, set())

    def test_converging_blocks_unless_conditioned(self):
        dag = build_dag("ACB", (("A", "C"), ("B", "C")))
        assert d_separated(dag, {"A"}, {"B"}, set())
        assert not d_separated(dag, {"A"}, {"B"}, {"C"})

    def test_collider_descendant_opens_path(self):
        dag = build_dag("ACBD", (("A", "C"), ("B", "C"), ("C", "D")))
        assert not d_separated(dag, {"A"}, {"B"}, {"D"})

    def test_heart_examples(self, heart_dag):
        assert d_separated(heart_dag, {"sex"}, {"target"}, {"thal"})
        assert d_separated(heart_dag, {"fbs"}, {"target"}, set())
        assert not d_separated(heart_dag, {"sex"}, {"target"}, set())

    def test_unknown_node(self, heart_dag):
        with pytest.raises(UnknownNodeError):
            d_separated(heart_dag, {"nope"}, {"target"}, set())

    def test_overlapping_sets_rejected(self, heart_dag):
        with pytest.raises(ValueError):
            d_separated(heart_dag, {"sex"}, {"sex"}, set())

    def test_overlap_message_names_the_shared_nodes(self, heart_dag):
        with pytest.raises(ValueError) as err:
            d_separated(heart_dag, {"sex", "cp"}, {"target"}, {"cp", "sex"})
        assert str(err.value) == "x, y and z must be pairwise disjoint, but share ['cp', 'sex']"

    def test_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            dag = random_dag(rng, 6)
            nodes = list(dag.nodes)
            for _ in range(10):
                sel = rng.permutation(nodes)
                x, y = {sel[0]}, {sel[1]}
                z = set(sel[2 : 2 + int(rng.integers(0, 3))])
                assert d_separated(dag, x, y, z) == d_separated(dag, y, x, z)

    def test_matches_bruteforce_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            dag = random_dag(rng, 6)
            nodes = list(dag.nodes)
            for a, b in itertools.combinations(nodes, 2):
                rest = [n for n in nodes if n not in (a, b)]
                for size in (0, 1, 2):
                    for z in itertools.combinations(rest, size):
                        expected = d_separated_bruteforce(dag, {a}, {b}, set(z))
                        assert d_separated(dag, {a}, {b}, set(z)) == expected

    def test_multi_node_sets_match_bruteforce(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            dag = random_dag(rng, 7)
            nodes = list(dag.nodes)
            for _ in range(20):
                sel = list(rng.permutation(nodes))
                nx = int(rng.integers(1, 3))
                ny = int(rng.integers(1, 3))
                nz = int(rng.integers(0, 3))
                x = set(sel[:nx])
                y = set(sel[nx : nx + ny])
                z = set(sel[nx + ny : nx + ny + nz])
                expected = d_separated_bruteforce(dag, x, y, z)
                assert d_separated(dag, x, y, z) == expected

    def test_empty_set_is_trivially_separated(self, heart_dag):
        assert d_separated(heart_dag, set(), {"target"}, {"thal"})


@pytest.mark.parametrize(
    "argument, name, query, answer",
    [
        ("x", "ab", lambda dag, table, names: d_separated(dag, names, {"c"}, ()), True),
        ("y", "ab", lambda dag, table, names: d_separated(dag, {"c"}, names, ()), True),
        ("z", "c", lambda dag, table, names: d_separated(dag, {"a"}, {"b"}, names), True),
        ("exclude", "target", lambda dag, table, names: "target" in table.row_assignment(0, names), False),
    ],
    ids=["x", "y", "z", "exclude"],
)
def test_a_bare_string_is_not_a_set_of_names(argument, name, query, answer, heart_table):
    # a str used to be read as the set of its characters: d_separated(dag,
    # "ab", {"c"}, ()) answered for {a, b}, not node "ab", and
    # row_assignment(i, exclude="target") kept target
    dag = build_dag(["a", "b", "c", "ab"], [("a", "c"), ("c", "b")])
    with pytest.raises(TypeError, match=f"^{argument} must be a collection of names, not a str"):
        query(dag, heart_table, name)
    assert query(dag, heart_table, {name}) is answer


class TestMarkovBlanket:
    def test_chain_middle(self):
        dag = build_dag("ABC", (("A", "B"), ("B", "C")))
        assert markov_blanket(dag, "B") == {"A", "C"}

    def test_isolated(self):
        dag = build_dag(("A", "B"), ())
        assert markov_blanket(dag, "A") == set()

    def test_heart_target(self, heart_dag):
        assert markov_blanket(heart_dag, "target") == {"thal", "cp", "slope", "ca", "oldpeakC"}

    def test_unknown_node(self, heart_dag):
        with pytest.raises(UnknownNodeError):
            markov_blanket(heart_dag, "nope")


class TestCpt:
    def test_config_index_last_parent_fastest(self):
        a = Variable("a", ("0", "1"))
        b = Variable("b", ("0", "1", "2"))
        x = Variable("x", ("0", "1"))
        table = np.tile([0.5, 0.5], (6, 1))
        cpt = Cpt(x, (a, b), table)
        assert cpt.n_configs == 6
        assert cpt.config_index((0, 0)) == 0
        assert cpt.config_index((0, 2)) == 2
        assert cpt.config_index((1, 0)) == 3
        assert cpt.config_index((1, 2)) == 5

    @pytest.mark.parametrize("parent_states", [(), (0,), (0, 1, 0)])
    def test_config_index_needs_one_state_per_parent(self, parent_states):
        a, b, x = Variable("a", "01"), Variable("b", "012"), Variable("x", "01")
        cpt = Cpt(x, (a, b), np.tile([0.5, 0.5], (6, 1)))
        with pytest.raises(ValueError, match="^one state per parent required$"):
            cpt.config_index(parent_states)

    def test_shape_validated(self):
        # the shape comes from the family; a batch takes it from there, so
        # only a table handed to Cpt(...) can have the wrong one
        x, a = Variable("x", ("0", "1")), Variable("a", ("0", "1", "2"))
        for parents, table, message in [
            ((), [[0.2, 0.3, 0.5]], "CPT for 'x' must have shape (1, 2), got (1, 3)"),
            ((a,), np.full((2, 3), 1 / 3), "CPT for 'x' must have shape (3, 2), got (2, 3)"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message) + "$"):
                Cpt(x, parents, table)

    def test_rows_must_normalize(self):
        x = Variable("x", ("0", "1"))
        with pytest.raises(ValueError):
            Cpt(x, (), np.array([[0.6, 0.6]]))

    def test_entries_in_unit_interval(self):
        x = Variable("x", ("0", "1"))
        with pytest.raises(ValueError):
            Cpt(x, (), np.array([[-0.2, 1.2]]))

    def test_zero_entries_allowed(self):
        x = Variable("x", ("0", "1"))
        cpt = Cpt(x, (), np.array([[0.0, 1.0]]))
        assert cpt.prob(0) == 0.0

    @pytest.mark.parametrize(
        "row, message",
        [
            ([-0.2, 1.2], "has entries outside [0, 1]"),
            ([-1e-12, 1.0], "has entries outside [0, 1]"),
            ([0.5, 1.5], "has entries outside [0, 1]"),
            ([np.inf, 0.0], "has entries outside [0, 1]"),
            ([-np.inf, 1.0], "has entries outside [0, 1]"),
            ([np.nan, 2.0], "has entries outside [0, 1]"),
            ([np.nan, 0.5], "rows for 'x' must each sum to 1"),
            ([np.nan, np.nan], "rows for 'x' must each sum to 1"),
            ([0.5, 0.5 + 2e-9], "rows for 'x' must each sum to 1"),
            ([0.5, 0.5 - 2e-9], "rows for 'x' must each sum to 1"),
            ([0.5, 0.5 + 0.5e-9], None),
            ([0.5, 0.5 - 0.5e-9], None),
        ],
    )
    def test_validation_messages(self, row, message):
        # the second row is valid, so only the first one can trip a check; the
        # batch route checks the table as the middle one of three, as a fit does
        x, a = Variable("x", ("0", "1")), Variable("a", ("0", "1"))
        b = Variable("b", ("0", "1", "2"))
        table = np.array([row, [0.25, 0.75]])
        tables = [np.array([[0.5, 0.5]]), table, np.full((2, 3), 1 / 3)]
        families = [(a, ()), (x, (a,)), (b, (a,))]
        flat = np.concatenate(tables, axis=None)
        if message is None:
            assert Cpt(x, (a,), table).table.tolist() == table.tolist()
            cpts = core._cpt_batch(families, flat)
            assert [cpt.table.tolist() for cpt in cpts] == [t.tolist() for t in tables]
        else:
            with pytest.raises(ValueError, match=re.escape(message)) as single:
                Cpt(x, (a,), table)
            with pytest.raises(ValueError) as batch:
                core._cpt_batch(families, flat)
            assert str(batch.value) == str(single.value) and "'x'" in str(single.value)

    def test_a_batch_of_no_tables(self):
        assert core._cpt_batch([], np.empty(0)) == []

    @pytest.mark.parametrize(
        "tables, message",
        [
            # x breaks only the row rule; y, later, breaks the range rule
            ([[[0.5, 0.6]], [[-0.5, 1.5]]], "CPT rows for 'x' must each sum to 1"),
            # x is valid, so the later table is named, for either rule
            ([[[0.5, 0.5]], [[0.5, 0.6]]], "CPT rows for 'y' must each sum to 1"),
            ([[[0.5, 0.5]], [[np.nan, 2.0]]], "CPT for 'y' has entries outside [0, 1]"),
            # a NaN does not hide x's entry above 1; y, later, breaks the row rule
            ([[[np.nan, 2.0]], [[0.5, 0.6]]], "CPT for 'x' has entries outside [0, 1]"),
        ],
    )
    def test_batch_error_is_the_first_tables(self, tables, message):
        x, y = Variable("x", ("0", "1")), Variable("y", ("0", "1"))
        arrays = [np.array(t, dtype=float) for t in tables]
        flat = np.concatenate(arrays, axis=None)
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            core._cpt_batch([(x, ()), (y, ())], flat)


class TestDiscreteBayesNet:
    def test_parent_order_must_match_dag(self):
        a, b = Variable("a", "01"), Variable("b", "01")
        x = Variable("x", "01")
        dag = build_dag((a, b, x), (("a", "x"), ("b", "x")))
        good = {
            "a": Cpt(a, (), [[0.5, 0.5]]),
            "b": Cpt(b, (), [[0.5, 0.5]]),
            "x": Cpt(x, (b, a), np.tile([0.5, 0.5], (4, 1))),
        }
        with pytest.raises(ValueError):
            DiscreteBayesNet(dag, good)

    def test_parent_states_must_be_the_parents_own(self):
        # b's CPT over a 3-state a used to be accepted: posterior_ve then died
        # with a broadcast error, enumeration read 2 of b's 3 parent rows and
        # save_model wrote a file that load_model refused
        a2, a3, b = Variable("a", "01"), Variable("a", "012"), Variable("b", "01")
        cpts = {"a": Cpt(a2, (), [[0.5, 0.5]]), "b": Cpt(b, (a3,), np.full((3, 2), 0.5))}
        with pytest.raises(ValueError, match=r"CPT stored under 'b' has family .*'0', '1', '2'"):
            DiscreteBayesNet(build_dag((a2, b), (("a", "b"),)), cpts)

    def test_cpt_for_another_variable_rejected(self):
        a, b = Variable("a", "01"), Variable("b", "01")
        cpts = {"a": Cpt(b, (), [[0.5, 0.5]]), "b": Cpt(a, (), [[0.5, 0.5]])}
        with pytest.raises(ValueError, match="CPT stored under 'a' has family"):
            DiscreteBayesNet(build_dag((a, b), ()), cpts)

    def test_missing_cpt_rejected(self):
        a, b = Variable("a", "01"), Variable("b", "01")
        dag = build_dag((a, b), ())
        with pytest.raises(ValueError):
            DiscreteBayesNet(dag, {"a": Cpt(a, (), [[0.5, 0.5]])})


class TestImmutable:
    """Nothing the library checked can be changed afterwards.

    The fitted tables, ``DataTable`` and ``clean()`` are covered where they
    are tested; this covers the rest.
    """

    def test_tables_posteriors_and_mappings_refuse_writes(self, heart_net, tmp_path):
        x = Variable("x", "01")
        direct = Cpt(x, (), [[0.5, 0.5]])
        assert_frozen(direct.table, "Cpt(...)")
        assert direct.prob(0) == 0.5
        save_model(heart_net, tmp_path / "heart.model")
        loaded = load_model(tmp_path / "heart.model")
        for name, cpt in loaded.cpts.items():
            assert_frozen(cpt.table, f"load_model {name}")
        assert_frozen(posterior_ve(loaded, "target", {"thal": 2}).probabilities, "Posterior")
        # a CPT stored under another name would skip the parent check
        with pytest.raises(TypeError):
            loaded.cpts["target"] = loaded.cpts["thal"]
        sepsets = {("a", "c"): (), ("b", "c"): ()}
        skeleton = Skeleton(("a", "b", "c"), frozenset({("a", "b")}), sepsets)
        with pytest.raises(TypeError):
            skeleton.sepsets["a", "c"] = frozenset({"b"})
        with pytest.raises(TypeError):
            skeleton.sepsets["a", "b"] = frozenset()

    def test_networks_and_skeletons_still_copy_and_pickle(self, heart_net, heart_table):
        # a mapping proxy cannot be pickled, and numpy rebuilds an array as a
        # writable copy; all of them rebuild through their checks
        skeleton = Skeleton(("a", "b", "c"), {("a", "c"), ("b", "c")}, {("b", "a"): {"c"}})
        for copied in (copy.deepcopy(skeleton), pickle.loads(pickle.dumps(skeleton))):
            assert copied == skeleton
            with pytest.raises(TypeError):
                copied.sepsets["a", "b"] = frozenset()
        for copied in (copy.deepcopy(heart_net), pickle.loads(pickle.dumps(heart_net))):
            assert copied.dag == heart_net.dag and list(copied.cpts) == list(heart_net.cpts)
            for name, cpt in copied.cpts.items():
                assert cpt.table.tobytes() == heart_net.cpts[name].table.tobytes(), name
                assert_frozen(cpt.table, f"copied {name}")
            with pytest.raises(TypeError):
                copied.cpts["target"] = copied.cpts["thal"]
        posterior = posterior_ve(heart_net, "target", {"thal": 2})
        rebuilds = {"deepcopy": copy.deepcopy, "pickle": lambda v: pickle.loads(pickle.dumps(v))}
        for how, rebuilt in rebuilds.items():
            cpt = rebuilt(heart_net.cpts["thal"])
            assert cpt.table.tobytes() == heart_net.cpts["thal"].table.tobytes()
            assert_frozen(cpt.table, f"{how} Cpt")
            table = rebuilt(heart_table)
            assert table.rows.tobytes() == heart_table.rows.tobytes()
            assert_frozen(table.rows, f"{how} DataTable rows")
            assert_frozen(table.cards, f"{how} DataTable cards")
            copied = rebuilt(posterior)
            assert copied.probabilities.tobytes() == posterior.probabilities.tobytes()
            assert_frozen(copied.probabilities, f"{how} Posterior")

    def test_equality_is_identity_for_holders_of_arrays(self, heart_net, heart_table):
        # a value-wise == compared arrays inside a tuple and raised ValueError
        x = Variable("x", "01")
        for make in (
            lambda: Cpt(x, (), [[0.5, 0.5]]),
            lambda: DataTable((x,), [[0], [1]]),
            lambda: Posterior(x, [0.5, 0.5]),
        ):
            a, b = make(), make()
            assert a == a and a != b and len({a, b}) == 2
        assert heart_table == heart_table
        # networks still compare their CPT mappings, now Cpt by Cpt identity
        assert DiscreteBayesNet(heart_net.dag, dict(heart_net.cpts)) == heart_net
        assert copy.deepcopy(heart_net) != heart_net


class TestJointProbability:
    def test_two_node_product(self, two_node_net):
        assert joint_probability(two_node_net, {"A": 1, "B": 1}) == pytest.approx(0.27)

    def test_zero_entry_gives_zero(self):
        x = Variable("x", "01")
        net = DiscreteBayesNet(build_dag((x,), ()), {"x": Cpt(x, (), [[0.0, 1.0]])})
        assert joint_probability(net, {"x": 0}) == 0.0

    def test_incomplete_assignment(self, two_node_net):
        with pytest.raises(ValueError, match=r"misses \['B'\]"):
            joint_probability(two_node_net, {"A": 1})

    def test_sums_to_one_random_nets(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            net = random_net(rng, int(rng.integers(3, 6)), max_card=3)
            total = sum(joint_probability(net, a) for a in all_assignments(net))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_sums_to_one_ten_binary_nodes(self):
        net = random_net(np.random.default_rng(8), 10, max_card=2, edge_prob=0.3)
        total = sum(joint_probability(net, a) for a in all_assignments(net))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_blanket_screens_off_the_rest(self):
        # conditioning on a node's full Markov blanket makes the states of
        # every other node irrelevant to its conditional distribution
        from heartbn import posterior_enumeration

        rng = np.random.default_rng(21)
        for _ in range(8):
            net = random_net(rng, 5, max_card=2, edge_prob=0.5)
            for node in net.dag.nodes:
                blanket = markov_blanket(net.dag, node)
                outside = [n for n in net.dag.nodes if n != node and n not in blanket]
                if not outside:
                    continue
                base = {n: int(rng.integers(net.variable(n).cardinality)) for n in blanket}
                rest = {n: int(rng.integers(net.variable(n).cardinality)) for n in outside}
                reference = posterior_enumeration(net, node, {**base, **rest})
                flipped = dict(rest)
                name = outside[int(rng.integers(len(outside)))]
                flipped[name] = (rest[name] + 1) % net.variable(name).cardinality
                other = posterior_enumeration(net, node, {**base, **flipped})
                assert np.abs(
                    reference.probabilities - other.probabilities
                ).max() <= 1e-12


class TestHeartNetwork:
    def test_size(self, heart_dag):
        assert len(heart_dag.nodes) == 14
        assert len(heart_dag.edges) == 12

    def test_conditioning_sets(self, heart_dag):
        assert heart_dag.parents("oldpeakC") == ("slope", "target")
        assert heart_dag.parents("thalachC") == ("slope", "exang")
        assert heart_dag.parents("target") == ("thal",)
        assert heart_dag.parents("thal") == ("sex",)
        assert heart_dag.has_edge("thal", "target")
        assert not heart_dag.has_edge("target", "thal")
        assert not heart_dag.has_edge("nosuch", "target")
        assert not heart_dag.has_edge("thal", "nosuch")

    def test_isolated_nodes(self, heart_dag):
        for name in ("fbs", "restecg", "cholC"):
            assert heart_dag.parents(name) == ()
            assert heart_dag.children(name) == ()

    def test_acyclic(self, heart_dag):
        assert len(topological_order(heart_dag)) == 14
