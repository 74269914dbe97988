"""Graph and probability data model for discrete Bayesian networks.

A network is a directed acyclic graph over named categorical variables plus
one conditional probability table per node.  Everything here is immutable
after construction, so values can be shared freely across threads: every
array the library hands out lies in its own ``bytes`` copy (:func:`_frozen`),
so neither it nor any view or base of it can be made writable again, and a
network's CPTs and a skeleton's separating sets are read-only mappings.  A
fit and a model file check all their CPTs as one batch (:func:`_cpt_batch`).
A :class:`Dag` checks itself, however it is built, and a network checks
each family whole, the parents' states too.  Every graph walk is
:func:`_reachable`, d-separation's too, and a set of names is never a bare
string (:func:`_name_set`).  :func:`_state` checks each state index a caller
passes: an ``int`` or numpy integer, not a bool, in range; anything else
(``1.5``, ``True``, ``"2"``) is a ``ValueError``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import CycleDetectedError, DuplicateEdgeError, UnknownNodeError

ROW_SUM_TOL = 1e-9


def _frozen(array: np.ndarray, order: str = "C") -> np.ndarray:
    """``array`` copied once into immutable ``bytes``: an array over them, laid out in ``order``."""
    return np.ndarray(array.shape, array.dtype, array.tobytes(order), 0, None, order)


@dataclass(frozen=True)
class Variable:
    """A named categorical variable with an ordered list of state labels.

    The state index of a label is its position in ``states``.
    """

    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(str(s) for s in self.states))
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if len(self.states) < 2:
            raise ValueError(f"variable {self.name!r} needs at least 2 states")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"variable {self.name!r} has duplicate state labels")

    @property
    def cardinality(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        try:
            return self.states.index(str(label))
        except ValueError:
            raise ValueError(
                f"{label!r} is not a state of {self.name!r} (states: {self.states})"
            ) from None


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over variable names, checked however it is built.

    ``nodes`` and ``edges`` keep declaration order; in particular
    ``parents(n)`` lists parents in the order their edges were declared,
    which fixes the parent order of the node's CPT.  ``nodes`` may be names
    or :class:`Variable` objects; names must be unique (``ValueError``).  An
    undeclared endpoint raises :class:`UnknownNodeError`, a repeated edge
    :class:`DuplicateEdgeError`, and a self-loop or any other cycle
    :class:`CycleDetectedError`.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    _parents: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = tuple(getattr(n, "name", n) for n in self.nodes)
        if len(set(nodes)) != len(nodes):
            raise ValueError("node names must be unique")
        edges = tuple((a, b) for a, b in self.edges)
        parents: dict[str, list[str]] = {n: [] for n in nodes}
        children: dict[str, list[str]] = {n: [] for n in nodes}
        for a, b in edges:
            if a not in parents or b not in parents:
                raise UnknownNodeError(f"edge ({a!r}, {b!r}) references an undeclared node")
            if a == b:
                raise CycleDetectedError(f"self-loop on {a!r}")
            if a in parents[b]:
                raise DuplicateEdgeError(f"duplicate edge ({a!r}, {b!r})")
            parents[b].append(a)
            children[a].append(b)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_parents", {k: tuple(v) for k, v in parents.items()})
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})
        topological_order(self)  # raises CycleDetectedError on a cycle

    def _check(self, name: str) -> str:
        if name not in self._parents:
            raise UnknownNodeError(f"unknown node {name!r}")
        return name

    def parents(self, name: str) -> tuple[str, ...]:
        return self._parents[self._check(name)]

    def children(self, name: str) -> tuple[str, ...]:
        return self._children[self._check(name)]

    def has_edge(self, parent: str, child: str) -> bool:
        return parent in self._parents.get(child, ())

    def descendants(self, name: str) -> set[str]:
        """All nodes reachable from ``name`` by directed paths (excluding itself)."""
        return _reachable(self.children, self.children(name))


def build_dag(nodes: Iterable, edges: Iterable[tuple[str, str]]) -> Dag:
    """The :class:`Dag` over ``nodes`` and ``edges``, which checks itself."""
    return Dag(nodes, edges)


def topological_order(dag: Dag) -> list[str]:
    """Topological order with lexicographic tie-breaking (deterministic)."""
    indegree = {n: len(dag._parents[n]) for n in dag.nodes}
    ready = [n for n in dag.nodes if indegree[n] == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for c in dag._children[n]:
            indegree[c] -= 1
            if indegree[c] == 0:
                heapq.heappush(ready, c)
    if len(order) != len(dag.nodes):
        raise CycleDetectedError("graph contains a directed cycle")
    return order


def _reachable(step: Callable[[Hashable], Iterable], starts: Iterable) -> set:
    """``starts`` together with every state reached from them through ``step``.

    With ``step`` giving a node's parents this is the ancestral set of
    ``starts``; with children, their descendants.
    """
    found = set(starts)
    stack = list(found)
    while stack:
        for n in step(stack.pop()):
            if n not in found:
                found.add(n)
                stack.append(n)
    return found


def _name_set(names: Iterable[str], argument: str) -> set[str]:
    """``names`` as a set; a bare ``str`` is a ``TypeError``, not the set of its characters."""
    if isinstance(names, str):
        raise TypeError(f"{argument} must be a collection of names, not a str ({names!r})")
    return set(names)


def d_separated(dag: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]) -> bool:
    """Return True iff every undirected path between ``x`` and ``y`` is blocked by ``z``.

    A serial or diverging connection through a node blocks when that node is
    conditioned on; a converging connection blocks unless the collider or one
    of its descendants is conditioned on.  The walk is :func:`_reachable` over
    (node, up) states, up if the trail entered from a child (Koller & Friedman
    2009, Algorithm 3.1): linear in the graph size, unlike path enumeration.
    """
    xs, ys, zs = _name_set(x, "x"), _name_set(y, "y"), _name_set(z, "z")
    for n in xs | ys | zs:
        dag._check(n)
    if shared := xs & ys | xs & zs | ys & zs:
        raise ValueError(f"x, y and z must be pairwise disjoint, but share {sorted(shared)}")
    if not xs or not ys:
        return True

    # From a child a trail goes on unless n is observed; from a parent, down
    # unless n is observed, and up again, n a collider, if n is in anc.
    anc = _reachable(dag.parents, zs)

    def step(state: tuple[str, bool]) -> list:  # called when the walk first reaches state
        n, up = state
        ups = [(p, True) for p in dag._parents[n]] if (n not in zs if up else n in anc) else []
        return ups + ([] if n in zs else [(c, False) for c in dag._children[n]])

    return ys.isdisjoint(n for n, _ in _reachable(step, [(n, True) for n in xs]))


def markov_blanket(dag: Dag, node: str) -> set[str]:
    """Parents, children and children's other parents of ``node``."""
    dag._check(node)
    blanket = set(dag._parents[node]) | set(dag._children[node])
    for child in dag._children[node]:
        blanket.update(dag._parents[child])
    blanket.discard(node)
    return blanket


def _state(variable: Variable, state) -> int:
    """``state`` as an index of ``variable``: an int or numpy integer, not a bool, in range."""
    if not isinstance(state, (int, np.integer)) or isinstance(state, bool):
        raise ValueError(f"state {state!r} of {variable.name!r} is not an integer state index")
    if not 0 <= state < variable.cardinality:
        raise ValueError(f"state {state} out of range for {variable.name!r}")
    return int(state)


def _table_shape(variable: Variable, parents: Sequence[Variable]) -> tuple[int, int]:
    """(q, r): the product of the parents' cards and the variable's."""
    return math.prod(p.cardinality for p in parents), variable.cardinality


@dataclass(frozen=True, eq=False)
class Cpt:
    """Conditional probability table P(variable | parents).

    ``table`` has one row per parent configuration and one column per state
    of ``variable``.  Parent configurations are indexed with parents in
    declared order and the LAST parent's state varying fastest, so
    ``config_index((s1, s2))`` for parents (A, B) is ``s1 * card(B) + s2``.
    A node without parents has exactly one configuration row.

    The table must have that (q, r) shape; it is then a batch of one of
    :func:`_cpt_batch`, which checks its entries and makes it read-only.
    """

    variable: Variable
    parents: tuple[Variable, ...]
    table: np.ndarray

    def __post_init__(self):
        parents, table = tuple(self.parents), np.asarray(self.table, dtype=float)
        shape = _table_shape(self.variable, parents)
        if table.shape != shape:
            name = self.variable.name
            raise ValueError(f"CPT for {name!r} must have shape {shape}, got {table.shape}")
        (cpt,) = _cpt_batch([(self.variable, parents)], table.ravel())
        self.__dict__.update(vars(cpt))

    def __reduce__(self):  # copy and pickle rebuild it, so its table stays frozen
        return Cpt, (self.variable, self.parents, self.table)

    @property
    def n_configs(self) -> int:
        return self.table.shape[0]

    def config_index(self, parent_states: Sequence[int]) -> int:
        if len(parent_states) != len(self.parents):
            raise ValueError("one state per parent required")
        idx = 0
        for parent, s in zip(self.parents, parent_states):
            idx = idx * parent.cardinality + _state(parent, s)
        return idx

    def row(self, parent_states: Sequence[int] = ()) -> np.ndarray:
        return self.table[self.config_index(parent_states)]

    def prob(self, state: int, parent_states: Sequence[int] = ()) -> float:
        return float(self.table[self.config_index(parent_states), _state(self.variable, state)])


def _cpt_batch(
    families: Sequence[tuple[Variable, tuple[Variable, ...]]], flat: np.ndarray
) -> list[Cpt]:
    """The :class:`Cpt` of each (variable, parents) family over its table in ``flat``.

    The one route that checks CPT entries.  ``flat`` holds the tables end to
    end, each shaped by its family (:func:`_table_shape`).  Every entry must
    lie in [0, 1] and every row sum to 1 within :data:`ROW_SUM_TOL`, else a
    ``ValueError`` names the first table that breaks a rule, the first rule
    if both (a NaN entry breaks only the second).  Each table is a view of
    one :func:`_frozen` copy of ``flat``; ``parents`` must be tuples.
    """
    shapes = [_table_shape(variable, parents) for variable, parents in families]
    flat = _frozen(flat)
    q, r = np.array(shapes, dtype=np.intp).reshape(-1, 2).T
    widths = r.repeat(q)  # one entry per row
    deviations = np.abs(np.add.reduceat(flat, widths.cumsum() - widths) - 1.0)
    outside = (flat < 0.0) | (flat > 1.0)
    unnormalized = ~(deviations <= ROW_SUM_TOL)  # NaN <= ROW_SUM_TOL is false
    if outside.any() or unnormalized.any():
        tables = np.arange(len(families))
        first_outside = tables.repeat(q * r)[outside].min(initial=len(families))
        first = min(first_outside, tables.repeat(q)[unnormalized].min(initial=len(families)))
        name = families[first][0].name
        if first == first_outside:
            raise ValueError(f"CPT for {name!r} has entries outside [0, 1]")
        raise ValueError(f"CPT rows for {name!r} must each sum to 1")
    cpts, start = [], 0
    for (variable, parents), (q, r) in zip(families, shapes):
        cpt = object.__new__(Cpt)
        table = flat[start : start + q * r].reshape(q, r)
        cpt.__dict__.update(variable=variable, parents=parents, table=table)
        cpts.append(cpt)
        start += q * r
    return cpts


@dataclass(frozen=True)
class DiscreteBayesNet:
    """A :class:`Dag` plus one :class:`Cpt` per node.

    The joint distribution is the chain-rule product of per-node tables:
    P(x1..xn) = prod_i P(xi | parents(xi)).  Each node's CPT must hold its
    whole family, else ``ValueError``: a variable of the node's name, then
    its DAG parents in order, each the same :class:`Variable` as that parent's CPT.
    """

    dag: Dag
    cpts: Mapping[str, Cpt]

    def __post_init__(self):
        cpts = dict(self.cpts)
        if set(cpts) != set(self.dag.nodes):
            missing = set(self.dag.nodes) - set(cpts)
            extra = set(cpts) - set(self.dag.nodes)
            raise ValueError(f"CPTs must cover exactly the DAG nodes (missing {missing}, extra {extra})")
        for name, cpt in cpts.items():
            got = (cpt.variable.name, cpt.parents)
            family = (name, tuple(cpts[p].variable for p in self.dag.parents(name)))
            if got != family:
                raise ValueError(f"CPT stored under {name!r} has family {got}, the network's is {family}")
        object.__setattr__(self, "cpts", MappingProxyType(cpts))

    def __reduce__(self):  # copy and pickle rebuild it: a mapping proxy cannot be pickled
        return DiscreteBayesNet, (self.dag, dict(self.cpts))

    @property
    def variables(self) -> dict[str, Variable]:
        return {name: cpt.variable for name, cpt in self.cpts.items()}

    def variable(self, name: str) -> Variable:
        return self.cpts[self.dag._check(name)].variable

    def validate_assignment(self, assignment: Mapping[str, int]) -> None:
        for name, state in assignment.items():
            _state(self.variable(name), state)
