"""Parameter estimation and structure learning from complete categorical data.

Parameters: every fit is one Dirichlet estimator,
P(x | pa) = (N(x, pa) + a) / (N(pa) + a * r), for a child with r states and
q parent configurations, where the per-cell prior ``a`` sets the method.
:func:`fit_mle` uses a = 0 (relative frequencies), :func:`fit_bayesian` uses
a = ess / (r * q) (a uniform prior of total weight ``ess`` spread over each
CPT), and Naive Bayes uses a = pseudo.  A parent configuration with no
weight at all becomes a uniform row.

Structure: :func:`hill_climb` greedily optimizes a decomposable score (BIC
or BDeu) over add/delete/reverse moves; :func:`learn_skeleton` removes edges
by chi-squared independence tests and :func:`orient` turns the result into a
DAG; :func:`hybrid_learn` restricts the hill climb to the learned skeleton.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .core import Cpt, Dag, DiscreteBayesNet, Variable, build_dag
from .dataset import DataTable
from .errors import (
    ConflictingOrientationWarning,
    InsufficientDataError,
    SchemaMismatchError,
)

SCORE_KINDS = ("bic", "bdeu")

# Smallest score gain counted as an improvement.  Score-equivalent moves
# (reversing a lone edge, say) differ by zero exactly, but their computed
# deltas carry rounding noise around 1e-13; accepting that noise makes the
# search ping-pong between equivalent structures until MAX_MOVES.
MIN_IMPROVEMENT = 1e-9

# Accepted moves after which hill_climb stops even short of a local optimum.
MAX_MOVES = 200


@dataclass(frozen=True)
class CountTable:
    """Sufficient statistics N(x, parent-config) for one family.

    ``counts`` has one row per parent configuration (last declared parent
    varying fastest) and one column per child state.
    """

    variable: Variable
    parents: tuple[Variable, ...]
    counts: np.ndarray

    @property
    def config_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def count_table(data: DataTable, child: str, parents: tuple[str, ...] = ()) -> CountTable:
    """Count child states within each parent configuration."""
    child_var = data.variable(child)
    parent_vars = tuple(data.variable(p) for p in parents)
    r = child_var.cardinality
    q = math.prod(p.cardinality for p in parent_vars)
    config = np.zeros(data.n_rows, dtype=np.int64)
    for p in parent_vars:
        config = config * p.cardinality + data.column(p.name)
    flat = np.bincount(config * r + data.column(child), minlength=q * r)
    return CountTable(child_var, parent_vars, flat.reshape(q, r))


def _require_nodes(dag: Dag, data: DataTable) -> None:
    missing = set(dag.nodes) - set(data.names)
    if missing:
        raise SchemaMismatchError(f"data lacks columns for {sorted(missing)}")


def _fit_dirichlet(dag: Dag, data: DataTable, cell_prior) -> DiscreteBayesNet:
    """CPTs (N(x, pa) + a) / (N(pa) + a * r), a = cell_prior(q, r); zero-weight rows are uniform."""
    _require_nodes(dag, data)
    cpts = {}
    for node in dag.nodes:
        ct = count_table(data, node, dag.parents(node))
        q, r = ct.counts.shape
        a = cell_prior(q, r)
        denominators = ct.config_totals + a * r
        table = np.full((q, r), 1.0 / r)
        seen = denominators > 0
        table[seen] = (ct.counts[seen] + a) / denominators[seen, None]
        cpts[node] = Cpt(ct.variable, ct.parents, table)
    return DiscreteBayesNet(dag, cpts)


def fit_mle(dag: Dag, data: DataTable) -> DiscreteBayesNet:
    """Relative-frequency CPTs; unseen parent configurations become uniform rows."""
    return _fit_dirichlet(dag, data, lambda q, r: 0.0)


def fit_bayesian(dag: Dag, data: DataTable, ess: float) -> DiscreteBayesNet:
    """Dirichlet-smoothed CPTs with equivalent sample size ``ess``.

    Each entry becomes (N(x, pa) + ess / (r * q)) / (N(pa) + ess / q): the
    prior weight is spread uniformly over the whole table, so estimates
    shrink toward uniform and approach the MLE as ess -> 0.
    """
    if not ess > 0.0:
        raise ValueError("ess must be positive")
    return _fit_dirichlet(dag, data, lambda q, r: ess / (r * q))


def family_score(
    data: DataTable, child: str, parents: tuple[str, ...], kind: str = "bic", ess: float = 10.0
) -> float:
    """Decomposable score contribution of one (child, parents) family."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"kind must be one of {SCORE_KINDS}")
    if kind == "bdeu" and not ess > 0.0:
        raise ValueError("ess must be positive")
    ct = count_table(data, child, parents)
    counts = ct.counts.astype(float)
    q, r = counts.shape
    if kind == "bic":
        row_totals = np.broadcast_to(ct.config_totals.astype(float)[:, None], counts.shape)
        positive = counts > 0
        ll = float((counts[positive] * np.log(counts[positive] / row_totals[positive])).sum())
        n = data.n_rows
        penalty = 0.5 * math.log(n) * q * (r - 1) if n > 0 else 0.0
        return ll - penalty
    from scipy.special import gammaln  # imported on first use: scipy more than doubles import time

    alpha_row = ess / q
    alpha_cell = ess / (q * r)
    totals = ct.config_totals.astype(float)
    score = float(np.sum(gammaln(alpha_row) - gammaln(alpha_row + totals)))
    score += float(np.sum(gammaln(alpha_cell + counts) - gammaln(alpha_cell)))
    return score


def score(dag: Dag, data: DataTable, kind: str = "bic", ess: float = 10.0) -> float:
    """Total network score: the sum of its family scores."""
    _require_nodes(dag, data)
    return sum(family_score(data, node, dag.parents(node), kind, ess) for node in dag.nodes)


def _creates_cycle(parent_sets: Mapping[str, Iterable[str]], parent: str, child: str) -> bool:
    """Would adding parent -> child close a directed cycle?"""
    stack = [parent]
    seen = set()
    while stack:
        n = stack.pop()
        if n == child:
            return True
        if n in seen:
            continue
        seen.add(n)
        stack.extend(parent_sets[n])
    return False


def hill_climb(
    data: DataTable,
    kind: str = "bic",
    ess: float = 10.0,
    allowed: set[frozenset[str]] | None = None,
    trace: list[float] | None = None,
) -> Dag:
    """Greedy structure search from the empty graph.

    Each step applies the best strictly improving add / delete / reverse of
    a single edge (improvements below :data:`MIN_IMPROVEMENT` count as ties),
    rejecting moves that would create a cycle, and stops at a local optimum
    or after :data:`MAX_MOVES` accepted moves.  ``allowed`` limits edges to
    the given unordered pairs.  The search is deterministic.  When ``trace``
    is given, the running score is appended after every accepted move.
    """
    if len(data.names) < 2:
        raise SchemaMismatchError("structure search needs at least two columns")
    names = sorted(data.names)
    parent_sets: dict[str, frozenset[str]] = {n: frozenset() for n in names}
    cache: dict[tuple[str, frozenset[str]], float] = {}

    def fam(child: str, parents: frozenset[str]) -> float:
        if (child, parents) not in cache:
            cache[child, parents] = family_score(data, child, tuple(sorted(parents)), kind, ess)
        return cache[child, parents]

    current = sum(fam(n, parent_sets[n]) for n in names)
    if trace is not None:
        trace.append(current)

    for _ in range(MAX_MOVES):
        # a move maps each child it changes to that child's new parent set
        best_delta, best_move = MIN_IMPROVEMENT, None
        for a, b in itertools.permutations(names, 2):
            if b in parent_sets[a] or a in parent_sets[b]:
                continue
            pair_ok = allowed is None or frozenset((a, b)) in allowed
            if not pair_ok or _creates_cycle(parent_sets, a, b):
                continue
            new_b = parent_sets[b] | {a}
            delta = fam(b, new_b) - fam(b, parent_sets[b])
            if delta > best_delta:
                best_delta, best_move = delta, {b: new_b}
        edges_now = [(p, c) for c in names for p in sorted(parent_sets[c])]
        for p, c in edges_now:
            new_c = parent_sets[c] - {p}
            delta = fam(c, new_c) - fam(c, parent_sets[c])
            if delta > best_delta:
                best_delta, best_move = delta, {c: new_c}
        for p, c in edges_now:
            new_c, new_p = parent_sets[c] - {p}, parent_sets[p] | {c}
            if _creates_cycle({**parent_sets, c: new_c}, c, p):
                continue
            delta = fam(c, new_c) + fam(p, new_p) - fam(c, parent_sets[c]) - fam(p, parent_sets[p])
            if delta > best_delta:
                best_delta, best_move = delta, {c: new_c, p: new_p}
        if best_move is None:
            break
        parent_sets.update(best_move)
        current += best_delta
        if trace is not None:
            trace.append(current)

    edges = sorted((p, c) for c in names for p in parent_sets[c])
    return build_dag(tuple(data.names), tuple(edges))


@dataclass(frozen=True)
class CITestResult:
    """Outcome of a conditional chi-squared independence test."""

    statistic: float
    dof: int
    p_value: float
    independent: bool


def ci_test(
    data: DataTable, x: str, y: str, z: tuple[str, ...] = (), alpha: float = 0.05
) -> CITestResult:
    """Pearson chi-squared test of x independent of y within each stratum of z.

    Vectorized over strata: strata with zero counts are dropped, each kept
    one adds (r_x - 1)(r_y - 1) degrees of freedom, and the p-value is the
    chi-squared survival function (``scipy.special.chdtrc``).  Independence
    is declared when the p-value exceeds ``alpha``.
    """
    from scipy.special import chdtrc  # imported on first use, as in family_score

    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    r_x, r_y = data.variable(x).cardinality, data.variable(y).cardinality
    tables = count_table(data, y, (*z, x)).counts.reshape(-1, r_x, r_y)
    totals = tables.sum(axis=(1, 2))
    tables, totals = tables[totals > 0].astype(float), totals[totals > 0, None, None]
    dof = len(tables) * (r_x - 1) * (r_y - 1)
    if dof == 0:
        raise InsufficientDataError(f"every stratum of {z} is empty")
    expected = tables.sum(axis=2)[:, :, None] * tables.sum(axis=1)[:, None, :] / totals
    mask = expected > 0
    statistic = float(((tables[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    p_value = float(chdtrc(dof, statistic))
    return CITestResult(statistic, dof, p_value, p_value > alpha)


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency plus the separating sets found for removed edges.

    Exactly the node pairs without an edge carry a separating set.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # pairs stored sorted
    sepsets: dict[tuple[str, str], frozenset[str]]

    def __post_init__(self):
        object.__setattr__(
            self, "edges", frozenset(tuple(sorted(pair)) for pair in self.edges)
        )
        object.__setattr__(
            self,
            "sepsets",
            {tuple(sorted(pair)): frozenset(s) for pair, s in self.sepsets.items()},
        )
        all_pairs = {tuple(sorted(p)) for p in itertools.combinations(self.nodes, 2)}
        if set(self.sepsets) != all_pairs - self.edges:
            raise ValueError("sepsets must cover exactly the non-adjacent node pairs")

    def adjacent(self, name: str) -> tuple[str, ...]:
        return tuple(sorted(b if a == name else a for a, b in self.edges if name in (a, b)))

    def has_edge(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.edges


def learn_skeleton(data: DataTable, alpha: float = 0.05, max_sepset: int = 3) -> Skeleton:
    """Constraint-based edge removal, starting from the complete graph.

    For conditioning-set sizes 0..max_sepset, each remaining edge (x, y) is
    tested against subsets of the current neighborhoods of x and of y; the
    first separating set found removes the edge and is recorded.  Pairs and
    subsets are visited in lexicographic order, so the result is
    deterministic and independent of data row order.
    """
    names = tuple(data.names)
    edges = {tuple(sorted(p)) for p in itertools.combinations(names, 2)}
    neighbors = {n: set(names) - {n} for n in names}
    sepsets: dict[tuple[str, str], frozenset[str]] = {}

    for level in range(max_sepset + 1):
        for x, y in sorted(edges):
            # subsets of either neighborhood, each once, x's side first
            candidates = dict.fromkeys(
                itertools.chain(
                    itertools.combinations(sorted(neighbors[x] - {y}), level),
                    itertools.combinations(sorted(neighbors[y] - {x}), level),
                )
            )
            for subset in candidates:
                if ci_test(data, x, y, subset, alpha).independent:
                    edges.discard((x, y))
                    neighbors[x].discard(y)
                    neighbors[y].discard(x)
                    sepsets[(x, y)] = frozenset(subset)
                    break
    return Skeleton(names, frozenset(edges), sepsets)


def orient(skeleton: Skeleton) -> Dag:
    """Orient a skeleton into a DAG.

    V-structures x -> c <- y are set whenever x - c - y with x, y
    non-adjacent and c outside their separating set; two propagation rules
    are then applied to closure (orient b - c as b -> c when some a -> b has
    a, c non-adjacent; orient a - c as a -> c when a -> b -> c exists).
    Remaining undirected edges fall back to lexicographic direction.  Every
    orientation is checked against the growing graph and reversed if it
    would close a cycle, so the output is always acyclic; genuinely
    conflicting demands are reported as warnings and resolved toward the
    lexicographically smaller parent.
    """
    undirected = set(skeleton.edges)
    directed: dict[tuple[str, str], tuple[str, str]] = {}  # sorted pair -> (parent, child)

    def points(parent: str, child: str) -> bool:
        return directed.get(tuple(sorted((parent, child)))) == (parent, child)

    def demand(parent: str, child: str) -> None:
        pair = tuple(sorted((parent, child)))
        if pair in directed:
            if directed[pair] != (parent, child):
                resolved = (min(parent, child), max(parent, child))
                warnings.warn(
                    f"both directions forced for edge {pair}; keeping {resolved[0]} -> {resolved[1]}",
                    ConflictingOrientationWarning,
                    stacklevel=2,
                )
                directed[pair] = resolved
            return
        directed[pair] = (parent, child)
        undirected.discard(pair)

    def forced(a: str, b: str) -> tuple[str, str] | None:
        """The direction a propagation rule forces on the undirected a - b, if any."""
        # rule 1: parent -> x - y with parent, y non-adjacent forces x -> y
        for parent, child in directed.values():
            for x, y in ((a, b), (b, a)):
                if child == x and not skeleton.has_edge(parent, y):
                    return x, y
        # rule 2: x -> mid -> y forces x -> y
        for mid in skeleton.nodes:
            for x, y in ((a, b), (b, a)):
                if points(x, mid) and points(mid, y):
                    return x, y
        return None

    # v-structures; adjacent() is sorted, so (x, y) keys the separating set
    # that every non-adjacent pair has
    for c in skeleton.nodes:
        for x, y in itertools.combinations(skeleton.adjacent(c), 2):
            if not skeleton.has_edge(x, y) and c not in skeleton.sepsets[x, y]:
                demand(x, c)
                demand(y, c)

    # propagation to closure
    changed = True
    while changed:
        changed = False
        for a, b in sorted(undirected):
            edge = forced(a, b)
            if edge:
                demand(*edge)
                changed = True

    # assemble acyclically: forced orientations first, then lexicographic fallback
    parent_sets: dict[str, set[str]] = {n: set() for n in skeleton.nodes}

    def add_edge(parent: str, child: str, demanded: bool) -> None:
        if _creates_cycle(parent_sets, parent, child):
            if demanded:
                warnings.warn(
                    f"orientation {parent} -> {child} would close a cycle; reversed",
                    ConflictingOrientationWarning,
                    stacklevel=2,
                )
            parent, child = child, parent
        parent_sets[child].add(parent)

    for pair in sorted(directed):
        add_edge(*directed[pair], demanded=True)
    for a, b in sorted(undirected):
        add_edge(a, b, demanded=False)

    edges = sorted((p, c) for c in skeleton.nodes for p in parent_sets[c])
    return build_dag(skeleton.nodes, tuple(edges))


def hybrid_learn(
    data: DataTable, alpha: float = 0.05, kind: str = "bic", ess: float = 10.0
) -> Dag:
    """Score-based search restricted to the constraint-learned skeleton.

    The skeleton is :func:`learn_skeleton` at ``alpha`` (separating sets of
    up to three variables); :func:`hill_climb` then searches over its edges,
    for at most :data:`MAX_MOVES` accepted moves.
    """
    allowed = {frozenset(pair) for pair in learn_skeleton(data, alpha).edges}
    return hill_climb(data, kind=kind, ess=ess, allowed=allowed)
