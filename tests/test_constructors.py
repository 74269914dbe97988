"""The constructor boundary: every argument of the data model's classes, one at a time.

Each of ``Variable``, ``Dag``, ``Cpt``, ``DataTable``, ``Skeleton`` and
``DiscreteBayesNet`` is first built from valid arguments.  Then one argument
at a time is replaced by each value of its pool of hostile values: a wrong
type, a bool for a number, NaN, an empty or repeated name, a ragged or 0-d
array, a name that is not a node, a string where a collection of names
belongs.  The constructor must raise a ``ValueError`` or ``HeartBnError``
whose message names the argument.  A bare ``AttributeError``, ``TypeError``
or numpy error fails the test, and so does a hostile value accepted by
silent coercion.
"""

import math

import numpy as np
import pytest

from heartbn import Cpt, Dag, DataTable, DiscreteBayesNet, Skeleton, Variable, build_dag
from heartbn.errors import HeartBnError

A, B = Variable("a", "01"), Variable("b", "01")
HALF = [[0.5, 0.5]]

VALID = {
    Variable: {"name": "a", "states": ("0", "1")},
    Dag: {"nodes": ("a", "b"), "edges": (("a", "b"),)},
    Cpt: {"variable": B, "parents": (A,), "table": HALF * 2},
    DataTable: {"schema": (A, B), "rows": [[0, 1], [1, 0]]},
    Skeleton: {"nodes": ("a", "b", "c"), "edges": {("a", "b")},
               "sepsets": {("a", "c"): {"b"}, ("b", "c"): ()}},
    DiscreteBayesNet: {"dag": build_dag((A, B), (("a", "b"),)),
                       "cpts": {"a": Cpt(A, (), HALF), "b": Cpt(B, (A,), HALF * 2)}},
}

# (class, argument) -> (a pattern the refusal must match, naming the argument; hostile values)
HOSTILE = {
    (Variable, "name"): ("^variable name", [1, True, None, "", ("a",)]),
    (Variable, "states"): ("state", [5, True, None, ("0",), ("0", "0"), (0, 1), ("0", None),
                                     {"0", "1"}, {"0": 0, "1": 1}]),
    (Dag, "nodes"): ("^node", [5, None, ("a", "a"), ("a", ""), (1, "b"), (True, "b"),
                               (None, "b"), (math.nan, "b"), (["a"], "b")]),
    (Dag, "edges"): ("edge|self-loop", [5, None, [("a",)], [("a", "b", "a")], ["ab"],
                                        [("a", "zz")], [("a", "a")], [("a", "b"), ("a", "b")],
                                        [(["a"], "b")]]),
    (Cpt, "variable"): ("^CPT variable", ["a", None, 1, (A,)]),
    (Cpt, "parents"): ("parents|family", [A, "a", None, ("b",), (A, A), (B,), [None]]),
    (Cpt, "table"): ("^CPT (for|rows)", [[[True, False]] * 2, [["0.5", "0.5"]] * 2,
                                         [[0.5, 0.5], [1.0]], np.float64(1.0),
                                         [[math.nan, math.nan]] * 2, None, "x", HALF,
                                         [[0.6, 0.6]] * 2]),
    (DataTable, "schema"): ("^schema|^column names", [A, ("a", "b"), None, (A, A), (A, "b"),
                                                      (A, None)]),
    (DataTable, "rows"): ("^rows|^column '", [[[0, 1], [1]], np.int64(0), [[True, False]] * 2,
                                              [[math.nan, 0]], [["0", "1"]], None, [[0, 2]],
                                              [[-1, 0]], [[0.5, 0]]]),
    (Skeleton, "nodes"): ("^node", [None, 5, ("a", "a", "b", "c"), ("a", "b", ""),
                                    (1, "b", "c")]),
    (Skeleton, "edges"): ("^edges", [None, {("a", "zz")}, {("a", "a")}, {"ab"},
                                     {("a", "b", "c")}, {(1, "b")}]),
    (Skeleton, "sepsets"): ("sepsets|separating set", [
        None, 5, [(("a", "c"), ())], {("a", "c"): "b", ("b", "c"): ()},
        {("a", "c"): None, ("b", "c"): ()}, {("a", "c"): {"zz"}, ("b", "c"): ()},
        {("a", "c"): {"a"}, ("b", "c"): ()}, {("a", "c"): (), ("b", "c"): (), ("a", "b"): ()},
        {("a", "c"): ()}, {"ac": (), "bc": ()}, {("a", ("c",)): (), ("b", "c"): ()},
        {("a", "c"): [["b"]], ("b", "c"): ()},
    ]),
    (DiscreteBayesNet, "dag"): ("^dag|^CPT", ["x", None, A, build_dag((A,), ()),
                                              build_dag((A, B), ())]),
    (DiscreteBayesNet, "cpts"): ("^cpts|^CPT", [
        None, [Cpt(A, (), HALF)], {"a": 1, "b": 2}, {"a": Cpt(A, (), HALF)},
        {"a": Cpt(A, (), HALF), "b": Cpt(B, (), HALF)},
        {"a": Cpt(A, (), HALF), "b": Cpt(B, (A,), HALF * 2), "zz": Cpt(A, (), HALF)},
    ]),
}
PROBES = [
    pytest.param(cls, argument, value, id=f"{cls.__name__}.{argument}[{i}]")
    for (cls, argument), (_, pool) in HOSTILE.items()
    for i, value in enumerate(pool)
]


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_valid_arguments_build(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("cls, argument, value", PROBES)
def test_hostile_argument_is_refused_by_name(cls, argument, value):
    with pytest.raises((ValueError, HeartBnError), match=HOSTILE[cls, argument][0]):
        cls(**{**VALID[cls], argument: value})


def test_idioms_keep_working():
    # a str of one-character labels or names, as the demos and tests write them
    assert Variable("A", "01").states == ("0", "1")
    assert build_dag("ABC", (("A", "B"), ("B", "C"))).nodes == ("A", "B", "C")
    assert Dag((Variable("A", "01"), "B"), [["A", "B"]]).edges == (("A", "B"),)
    assert Cpt(B, [A], HALF * 2).parents == (A,)
    assert DataTable([A, B], np.array([[0, 1]], dtype=np.uint8)).rows.tolist() == [[0, 1]]
    skeleton = Skeleton(["a", "b"], frozenset(), {("b", "a"): ["a", "b"][:0]})
    assert skeleton.sepsets == {("a", "b"): frozenset()}
