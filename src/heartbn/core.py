"""Graph and probability data model for discrete Bayesian networks.

A network is a directed acyclic graph over named categorical variables plus
one conditional probability table per node.  Everything here is immutable
after construction, so values can be shared freely across threads: every
array the library hands out lies in its own ``bytes`` copy (:func:`_frozen`),
so neither it nor any view or base of it can be made writable again, and a
network's CPTs and a skeleton's separating sets are read-only mappings.  A
fit and a model file check all their CPTs as one batch (:func:`_cpt_batch`).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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
    """Directed acyclic graph over variable names.

    ``nodes`` and ``edges`` keep declaration order; in particular
    ``parents(n)`` lists parents in the order their edges were declared,
    which fixes the parent order of the node's CPT.
    Construct through :func:`build_dag`, which validates.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    _parents: dict = field(repr=False, compare=False, default_factory=dict)
    _children: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for a, b in self.edges:
            parents[b].append(a)
            children[a].append(b)
        object.__setattr__(self, "_parents", {k: tuple(v) for k, v in parents.items()})
        object.__setattr__(self, "_children", {k: tuple(v) for k, v in children.items()})

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
        return _reachable(self._children, self.children(name))


def build_dag(nodes: Iterable, edges: Iterable[tuple[str, str]]) -> Dag:
    """Validate and build a :class:`Dag`.

    ``nodes`` may be names or :class:`Variable` objects.  Raises
    :class:`UnknownNodeError` for undeclared endpoints,
    :class:`DuplicateEdgeError` for repeated edges and
    :class:`CycleDetectedError` if no topological order exists
    (a self-loop is a cycle of length one).
    """
    names = tuple(getattr(n, "name", n) for n in nodes)
    if len(set(names)) != len(names):
        raise ValueError("node names must be unique")
    known = set(names)
    edge_list: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for a, b in edges:
        if a not in known or b not in known:
            raise UnknownNodeError(f"edge ({a!r}, {b!r}) references an undeclared node")
        if a == b:
            raise CycleDetectedError(f"self-loop on {a!r}")
        if (a, b) in seen:
            raise DuplicateEdgeError(f"duplicate edge ({a!r}, {b!r})")
        seen.add((a, b))
        edge_list.append((a, b))
    dag = Dag(names, tuple(edge_list))
    topological_order(dag)  # raises CycleDetectedError on a cycle
    return dag


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


def _reachable(step: Mapping[str, Iterable[str]], starts: Iterable[str]) -> set[str]:
    """``starts`` together with every node reached from them through ``step``.

    With ``step`` mapping each node to its parents this is the ancestral set
    of ``starts``; with children, their descendants.
    """
    found = set(starts)
    stack = list(found)
    while stack:
        for n in step[stack.pop()]:
            if n not in found:
                found.add(n)
                stack.append(n)
    return found


def d_separated(dag: Dag, x: Iterable[str], y: Iterable[str], z: Iterable[str]) -> bool:
    """Return True iff every undirected path between ``x`` and ``y`` is blocked by ``z``.

    A serial or diverging connection through a node blocks when that node is
    conditioned on; a converging connection blocks unless the collider or one
    of its descendants is conditioned on.  Implemented as reachability over
    (node, direction) states, which is equivalent to enumerating paths but
    linear in the graph size.
    """
    xs, ys, zs = set(x), set(y), set(z)
    for n in xs | ys | zs:
        dag._check(n)
    if xs & ys or xs & zs or ys & zs:
        raise ValueError("x, y and z must be pairwise disjoint")
    if not xs or not ys:
        return True

    # Ancestors of z (including z): colliders in this set are unblocked.
    anc = _reachable(dag._parents, zs)

    # Walk (node, direction): "up" = arrived from a child, "down" = from a parent.
    visited: set[tuple[str, str]] = set()
    agenda: deque[tuple[str, str]] = deque((s, "up") for s in xs)
    while agenda:
        node, direction = agenda.popleft()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node not in zs and node in ys:
            return False
        if direction == "up" and node not in zs:
            for p in dag._parents[node]:
                agenda.append((p, "up"))
            for c in dag._children[node]:
                agenda.append((c, "down"))
        elif direction == "down":
            if node not in zs:
                for c in dag._children[node]:
                    agenda.append((c, "down"))
            if node in anc:
                for p in dag._parents[node]:
                    agenda.append((p, "up"))
    return True


def markov_blanket(dag: Dag, node: str) -> set[str]:
    """Parents, children and children's other parents of ``node``."""
    dag._check(node)
    blanket = set(dag._parents[node]) | set(dag._children[node])
    for child in dag._children[node]:
        blanket.update(dag._parents[child])
    blanket.discard(node)
    return blanket


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
            s = int(s)
            if not 0 <= s < parent.cardinality:
                raise ValueError(f"state {s} out of range for {parent.name!r}")
            idx = idx * parent.cardinality + s
        return idx

    def row(self, parent_states: Sequence[int] = ()) -> np.ndarray:
        return self.table[self.config_index(parent_states)]

    def prob(self, state: int, parent_states: Sequence[int] = ()) -> float:
        state = int(state)
        if not 0 <= state < self.variable.cardinality:
            raise ValueError(f"state {state} out of range for {self.variable.name!r}")
        return float(self.table[self.config_index(parent_states), state])


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
    P(x1..xn) = prod_i P(xi | parents(xi)).
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
            if cpt.variable.name != name:
                raise ValueError(f"CPT stored under {name!r} is for {cpt.variable.name!r}")
            declared = tuple(p.name for p in cpt.parents)
            if declared != self.dag.parents(name):
                raise ValueError(
                    f"CPT parents for {name!r} are {declared}, DAG says {self.dag.parents(name)}"
                )
        object.__setattr__(self, "cpts", MappingProxyType(cpts))

    def __reduce__(self):  # copy and pickle rebuild it: a mapping proxy cannot be pickled
        return DiscreteBayesNet, (self.dag, dict(self.cpts))

    @property
    def variables(self) -> dict[str, Variable]:
        return {name: cpt.variable for name, cpt in self.cpts.items()}

    def variable(self, name: str) -> Variable:
        if name not in self.cpts:
            raise UnknownNodeError(f"unknown node {name!r}")
        return self.cpts[name].variable

    def validate_assignment(self, assignment: Mapping[str, int]) -> None:
        for name, state in assignment.items():
            var = self.variable(name)
            if not 0 <= int(state) < var.cardinality:
                raise ValueError(f"state {state} out of range for {name!r}")
