"""Parameter estimation and structure learning from complete categorical data.

Parameters: every fit is one Dirichlet estimator,
P(x | pa) = (N(x, pa) + a) / (N(pa) + a * r), for a child with r states and
q parent configurations, where the per-cell prior ``a`` sets the method.
:func:`fit_mle` uses a = 0 (relative frequencies), :func:`fit_bayesian` uses
a = ess / (r * q) (a uniform prior of total weight ``ess`` spread over each
CPT), and :func:`nb_fit` uses a = pseudo on the Naive Bayes network, the
star class -> each feature, which :func:`~heartbn.inference.classify`
classifies like any network.  A parent configuration with no weight at all
becomes a uniform row.  A fit resolves each family's names once, counts
all its families in one kernel call and estimates them in one elementwise
pass, entry for entry bitwise as one family at a time; the estimates then
become CPTs in one call of the route every :class:`~heartbn.core.Cpt` takes,
:func:`~heartbn.core._cpt_batch`, which checks the tables together and
leaves each a read-only view of one copy.

Structure: :func:`hill_climb` greedily optimizes a decomposable score (BIC
or BDeu) over add/delete/reverse moves; :func:`learn_skeleton` removes edges
by chi-squared independence tests and :func:`orient` turns the result into a
DAG; :func:`hybrid_learn` restricts the hill climb to the learned skeleton.

Tests: one rule, :func:`_decide`, decides every test that :func:`ci_test`
and :func:`learn_skeleton` reach: no degrees of freedom raise
:class:`InsufficientDataError`, else independence is p > alpha.  The
p-value is the chi-squared survival function in closed form (:func:`_chi2_sf`,
from ``math`` alone), so the PC path loads no scipy; only BDeu's
``gammaln`` imports it, on first use.

Counting: one kernel, :func:`_stacked_counts`, counts a batch of any
number of families (or CI tests) and alone splits it into runs of
:func:`_batch_size`, one ``np.bincount`` each.  A layout is the list of
columns it reads, slowest first, the last varying fastest and -1 marking
an unused slot: a family's parents then its child (from parent lists for
the fits and :func:`score`, from parent masks in :func:`hill_climb`), a CI
test's conditioning set, then x, then y.  The kernel codes a run with one
exact float64 matrix product, each member from its own offset, and every
member fills exactly its own cells: a CI test's q * r_x * r_y, with no
padding.  :func:`_scores` sums each family's terms as one 1-D array, so a
score is bitwise the same in any batch.  A fit, a score call and the
skeleton's level 0 are one batch each; :func:`count_table`,
:func:`family_score` and :func:`ci_test` are batches of one.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .core import Dag, DiscreteBayesNet, _cpt_batch, _node_names, _reachable, build_dag
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

# Largest conditioning set learn_skeleton tests.
MAX_SEPSET = 3

# Rows one stacked bincount may count: 69 families or CI tests a run on a
# 237-row heart split, whose 237 x 69 codes stay under glibc's 128 KiB mmap
# threshold, and one at a time from 8,193 rows up (so on 20,000).
_ROW_BUDGET = 1 << 14


def _batch_size(data: DataTable) -> int:
    """Members (families or CI tests) per run: the most whose codes one ``np.bincount`` may hold."""
    return max(1, _ROW_BUDGET // max(data.n_rows, 1))


def _stacked_counts(data: DataTable, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count any number of code layouts over the same rows, one ``np.bincount`` per run.

    Row i of ``orders`` is member i's layout: the data columns it reads,
    slowest first, the last varying fastest, with -1 marking an unused
    slot.  A column's place value is the product of the cards of the used
    slots after it, and member i's counts fill the next ``sizes[i]`` cells,
    the product of all its cards.  Returns ``(counts, sizes)``.  A run of
    :func:`_batch_size` members is coded with one float64 matrix product,
    exact because every code stays below 2**53 (a larger total is refused).
    A lone member (every run on many rows) adds up only the int64 columns
    it reads, which at 20,000 rows takes half the time of a product.
    """
    dims = np.where(orders < 0, 1.0, data.cards[orders])
    spans = np.multiply.accumulate(dims[:, ::-1], axis=1)[:, ::-1]  # product of dims[:, j:]
    sizes = spans[:, 0]
    starts = np.concatenate(([0.0], np.add.accumulate(sizes)))  # member i's cells from starts[i]
    if starts[-1] > 2.0**53:
        raise ValueError(f"{starts[-1]:.4g} cells exceed the 2**53 codes a float64 holds exactly")
    places = spans / dims
    step, counts = _batch_size(data), np.empty(int(starts[-1]), dtype=np.intp)
    for first, last in ((i, min(i + step, len(orders))) for i in range(0, len(orders), step)):
        cells = slice(int(starts[first]), int(starts[last]))
        if last - first == 1:
            codes = np.zeros(data.n_rows, dtype=np.intp)
            for j, place in zip(orders[first].tolist(), places[first].tolist()):
                if j >= 0:
                    codes += data.rows[:, j] * int(place)
        else:
            # place values by data column, plus a last column the unused slots fill
            by_column = np.zeros((last - first, len(data.cards) + 1))
            by_column[np.arange(last - first)[:, None], orders[first:last]] = places[first:last]
            offsets = starts[first:last] - starts[first]  # from the run's first cell
            codes = (data.rows.astype(float) @ by_column[:, :-1].T + offsets).astype(np.intp)
        counts[cells] = np.bincount(codes.ravel(), minlength=cells.stop - cells.start)
        del codes  # freed before the next run codes its rows, so the heap top is reused
    return counts, sizes.astype(np.int64)


def _orders(data: DataTable, families: list[tuple[str, tuple[str, ...]]]) -> np.ndarray:
    """Layouts of (child, parents) families: the parents in declared order, then the child."""
    width = 1 + max((len(parents) for _, parents in families), default=0)
    rows = [
        [-1] * (width - 1 - len(parents)) + [*map(data.index, parents), data.index(child)]
        for child, parents in families
    ]
    return np.array(rows, dtype=np.intp).reshape(len(families), width)


def _family_counts(data: DataTable, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The families' counts end to end, and a (q, r) row per family."""
    flat, sizes = _stacked_counts(data, orders)
    r = data.cards[orders[:, -1]]
    return flat, np.column_stack((sizes // r, r))


def _require_distinct(*names: str) -> None:
    if len(set(names)) < len(names):
        raise ValueError(f"{names} names a variable more than once")


def count_table(data: DataTable, child: str, parents: tuple[str, ...] = ()) -> np.ndarray:
    """N(x, parent-config) as a (q, r) array: child states counted within each parent configuration.

    One row per parent configuration (last declared parent varying fastest),
    one column per child state.  The child and its parents must be distinct.
    """
    _require_distinct(child, *parents)
    counts, shapes = _family_counts(data, _orders(data, [(child, parents)]))
    return counts.reshape(shapes[0])


def _dag_orders(dag: Dag, data: DataTable) -> np.ndarray:
    """Layouts of every family of ``dag``, in node order; a node without a column is refused."""
    missing = set(dag.nodes) - set(data.names)
    if missing:
        raise SchemaMismatchError(f"data lacks columns for {sorted(missing)}")
    return _orders(data, [(node, dag.parents(node)) for node in dag.nodes])


def _fit_dirichlet(dag: Dag, data: DataTable, cell_prior) -> DiscreteBayesNet:
    """CPTs (N(x, pa) + a) / (N(pa) + a * r), a = cell_prior(q, r); zero-weight rows are uniform.

    A family's variables are read off its count layout, so its names are resolved once.
    """
    orders = _dag_orders(dag, data)
    families = [
        (data.schema[child], tuple(data.schema[j] for j in parents if j >= 0))
        for *parents, child in orders.tolist()
    ]
    flat, shapes = _family_counts(data, orders)
    q, r = shapes.T
    a = np.full(len(shapes), cell_prior(q, r), dtype=float)  # one per family, then per cell
    widths = r.repeat(q)  # one entry per parent configuration
    totals = np.add.reduceat(flat, widths.cumsum() - widths)  # N(pa)
    denominators = (totals + (a * r).repeat(q)).repeat(widths)  # over each row's cells
    uniform = (1.0 / widths).repeat(widths)
    numerators = flat + a.repeat(q * r)
    tables = np.divide(numerators, denominators, out=uniform, where=denominators > 0)
    return DiscreteBayesNet(dag, dict(zip(dag.nodes, _cpt_batch(families, tables))))


def fit_mle(dag: Dag, data: DataTable) -> DiscreteBayesNet:
    """Relative-frequency CPTs; unseen parent configurations become uniform rows."""
    return _fit_dirichlet(dag, data, lambda q, r: 0.0)


def _check_ess(ess: float) -> None:
    if not 0.0 < ess < math.inf:
        raise ValueError("ess must be positive and finite")


def fit_bayesian(dag: Dag, data: DataTable, ess: float) -> DiscreteBayesNet:
    """Dirichlet-smoothed CPTs with equivalent sample size ``ess``.

    Each entry becomes (N(x, pa) + ess / (r * q)) / (N(pa) + ess / q): the
    prior weight is spread uniformly over the whole table, so estimates
    shrink toward uniform and approach the MLE as ess -> 0.
    """
    _check_ess(ess)
    return _fit_dirichlet(dag, data, lambda q, r: ess / (r * q))


def _check_pseudo(pseudo: float) -> None:
    if not 0.0 <= pseudo < math.inf:
        raise ValueError("pseudo must be non-negative and finite")


def nb_fit(data: DataTable, class_var: str, pseudo: float = 1.0) -> DiscreteBayesNet:
    """The star network class -> each feature, its CPTs from (optionally smoothed) frequencies.

    The class node comes first, then the features in column order.  Every
    count N becomes (N + pseudo) / (total + pseudo * cardinality); pseudo = 0
    is the plain relative frequency, and a class never seen with pseudo = 0
    gets uniform conditionals.
    """
    _check_pseudo(pseudo)
    features = tuple(name for name in data.names if name != class_var)
    dag = build_dag((class_var,) + features, tuple((class_var, f) for f in features))
    return _fit_dirichlet(dag, data, lambda q, r: pseudo)


def _scores(flat: np.ndarray, shapes: np.ndarray, n_rows: int, kind: str, ess: float) -> list:
    """Scores of families whose count tables, (q, r) rows of ``shapes``, lie end to end in ``flat``.

    The terms are computed elementwise over all families at once, but each
    family's terms are summed as one contiguous 1-D array, so a score is
    bitwise the same in any batch.
    """
    q, r = shapes.T
    widths = r.repeat(q)  # one entry per parent configuration
    totals = np.add.reduceat(flat, widths.cumsum() - widths)
    counts = flat.astype(float)
    cell_ends = (q * r).cumsum()
    if kind == "bic":
        positive = flat > 0
        cells = counts[positive]
        terms = cells * np.log(cells / totals.repeat(widths)[positive].astype(float))
        ends = positive.cumsum()[cell_ends - 1].tolist()
        log_n = math.log(n_rows) if n_rows > 0 else 0.0
        return [
            float(np.add.reduce(terms[start:end])) - 0.5 * log_n * q_ * (r_ - 1)
            for start, end, (q_, r_) in zip([0, *ends], ends, shapes.tolist())
        ]
    from scipy.special import gammaln  # imported on first use: scipy more than doubles import time

    alpha_row = np.repeat(ess / q, q)
    alpha_cell = np.repeat(ess / (q * r), q * r)
    row_terms = gammaln(alpha_row) - gammaln(alpha_row + totals.astype(float))
    cell_terms = gammaln(alpha_cell + counts) - gammaln(alpha_cell)
    row_ends, cell_ends = q.cumsum().tolist(), cell_ends.tolist()
    return [
        float(np.add.reduce(row_terms[a:b])) + float(np.add.reduce(cell_terms[c:d]))
        for a, b, c, d in zip([0, *row_ends], row_ends, [0, *cell_ends], cell_ends)
    ]


def _check_score(kind: str, ess: float) -> None:
    if kind not in SCORE_KINDS:
        raise ValueError(f"kind must be one of {SCORE_KINDS}")
    if kind == "bdeu":
        _check_ess(ess)


def _family_scores(data: DataTable, orders: np.ndarray, kind: str, ess: float) -> list[float]:
    """Scores of the families of ``orders``; callers check ``kind`` and ``ess`` first."""
    return _scores(*_family_counts(data, orders), data.n_rows, kind, ess)


def family_score(
    data: DataTable, child: str, parents: tuple[str, ...], kind: str = "bic", ess: float = 10.0
) -> float:
    """Decomposable score contribution of one (child, parents) family."""
    _check_score(kind, ess)
    counts = count_table(data, child, parents)
    return _scores(counts.ravel(), np.array([counts.shape]), data.n_rows, kind, ess)[0]


def score(dag: Dag, data: DataTable, kind: str = "bic", ess: float = 10.0) -> float:
    """Total network score: the sum of its family scores, counted together."""
    orders = _dag_orders(dag, data)  # missing columns are refused before a bad kind
    _check_score(kind, ess)
    return sum(_family_scores(data, orders, kind, ess))


def _ancestors(parents: np.ndarray) -> np.ndarray:
    """anc[i, j]: i is a proper ancestor of j, given parents[child, parent] (Warshall's closure)."""
    anc = parents.T.copy()
    for k in range(len(anc)):
        anc |= anc[:, k, None] & anc[k]
    return anc


def hill_climb(
    data: DataTable,
    kind: str = "bic",
    ess: float = 10.0,
    allowed: set[frozenset[str]] | None = None,
    trace: list[float] | None = None,
) -> Dag:
    """Greedy structure search from the empty graph.

    Each step applies the add / delete / reverse of a single edge with the
    largest computed gain, if that gain exceeds :data:`MIN_IMPROVEMENT`,
    rejecting moves that would create a cycle, and stops at a local optimum
    or after :data:`MAX_MOVES` accepted moves.  ``allowed`` limits edges to
    the given unordered pairs, each a frozenset of two column names, else
    :class:`SchemaMismatchError`.  The search is deterministic.  When ``trace``
    is given, the running score is appended after every accepted move.

    The search is incremental.  The empty graph's families are scored in one
    call.  Per child it caches the score of its family with each candidate
    parent added and with each parent removed; a move clears only the
    children it changes, and the families a step still lacks are laid out
    from parent masks and counted together.  An ancestor matrix rules out
    cycles: an added edge p -> c ORs in one outer product (p and its
    ancestors now precede c and its descendants), and only a delete or a
    reverse rebuilds it.  A step's gains fill one array, adds at (parent,
    child) before deletes and reverses at (child, parent), and one argmax
    takes the first of the largest.  So only exactly equal gains go to the
    first move in the order add (parent-major), delete, reverse
    (child-major), with nodes in name order; unequal gains less than
    :data:`MIN_IMPROVEMENT` apart are decided by rounding noise.  An edge
    and its reverse often gain nearly equally and the choice steers the
    rest of the search, so renaming the columns of the 20 heart splits (ten
    random permutations of their sorted order) changed the learned Markov
    class on 1 to 6 of them.
    """
    if len(data.names) < 2:
        raise SchemaMismatchError("structure search needs at least two columns")
    names = sorted(data.names)
    n = len(names)
    columns = np.array([data.index(name) for name in names])
    pairs_ok = ~np.eye(n, dtype=bool)
    if allowed is not None:
        # a pair that is not a frozenset is shown as given: a tuple as a tuple
        bad = sorted((sorted(p) if isinstance(p, frozenset) else p for p in allowed
                      if not isinstance(p, frozenset) or len(p) != 2 or not p <= set(names)), key=str)
        if bad:
            raise SchemaMismatchError(f"allowed pairs must name two data columns, not {bad}")
        pairs_ok &= np.array([[frozenset((a, b)) in allowed for a in names] for b in names])
    parents = np.zeros((n, n), dtype=bool)  # parents[c, p]: edge p -> c
    _check_score(kind, ess)
    tables = [count_table(data, name) for name in names]
    shapes = np.array([t.shape for t in tables])
    start = _scores(np.concatenate(tables, axis=None), shapes, data.n_rows, kind, ess)
    current = sum(start)
    now = np.array(start)  # now[c]: score of c's family
    # plus[c, p] / minus[c, p]: score of c's family with p added / removed; NaN until needed
    plus, minus = cache = np.full((2, n, n), np.nan)
    if trace is not None:
        trace.append(current)

    anc = np.zeros((n, n), dtype=bool)  # anc[i, j]: i is a proper ancestor of j
    gains = np.empty((3, n, n))  # add at (parent, child), delete and reverse at (child, parent)
    for _ in range(MAX_MOVES):
        # add p -> c: no edge either way, and c is not an ancestor of p
        can_add = pairs_ok & ~(parents | parents.T | anc)
        # reverse p -> c: p is not an ancestor of another parent of c
        can_reverse = parents & ~(parents @ anc.T)
        # the plus (k = 0) and minus (k = 1) scores this step needs and lacks
        k, c, p = np.nonzero(np.stack([can_add | can_reverse.T, parents]) & np.isnan(cache))
        masks = parents[c]
        masks[np.arange(len(c)), p] ^= True
        # each family's parents in name order, then its child
        orders = np.column_stack((np.where(masks, columns, -1), columns[c]))
        cache[k, c, p] = _family_scores(data, orders, kind, ess)

        gains.fill(-np.inf)
        np.subtract(plus.T, now, out=gains[0], where=can_add.T)
        np.subtract(minus, now[:, None], out=gains[1], where=parents)
        np.add(minus, plus.T, out=gains[2], where=can_reverse)
        np.subtract(gains[2], now[:, None], out=gains[2], where=can_reverse)
        np.subtract(gains[2], now, out=gains[2], where=can_reverse)
        best = int(np.argmax(gains))  # the first of the largest, in the order of the tie rule
        best_delta = float(gains.flat[best])
        if not best_delta > MIN_IMPROVEMENT:
            break
        move, (i, j) = best // (n * n), divmod(best % (n * n), n)
        if move == 0:  # add (parent, child)
            parents[j, i] = True
            changed = {j: plus[j, i]}
            # i and its ancestors now precede j and its descendants
            up, down = anc[:, i].copy(), anc[j].copy()
            up[i] = down[j] = True
            anc |= np.outer(up, down)
        else:  # (child, parent)
            parents[i, j] = False
            changed = {i: minus[i, j]}
            if move == 2:  # reverse
                parents[j, i] = True
                changed[j] = plus[j, i]
            anc = _ancestors(parents)
        for c, value in changed.items():
            now[c] = value
            plus[c] = minus[c] = np.nan
        current += best_delta
        if trace is not None:
            trace.append(current)

    edges = sorted((names[p], names[c]) for c, p in zip(*np.nonzero(parents)))
    return build_dag(tuple(data.names), tuple(edges))


@dataclass(frozen=True)
class CITestResult:
    """Outcome of a conditional chi-squared independence test."""

    statistic: float
    dof: int
    p_value: float
    independent: bool


def _chi2_sf(statistic: float, dof: int) -> float:
    """P(chi-squared with ``dof`` degrees of freedom > ``statistic``), from ``math`` alone.

    With x = statistic / 2 this is the regularized upper incomplete gamma
    function Q(dof / 2, x) in closed form: erfc(sqrt(x)) when dof is odd,
    plus x**(i + a) e**-x / Gamma(i + a + 1) for i < dof // 2, with a = 1/2
    for odd dof and 0 for even.  Each term takes its log from ``math.lgamma``
    directly (accumulating it term by term compounds the rounding), which
    keeps the relative error near 1e-13 up to several hundred degrees of
    freedom and far into the tail.
    """
    x = statistic / 2.0
    if x <= 0.0:
        return 1.0
    a = (dof % 2) / 2
    total = math.erfc(math.sqrt(x)) if a else 0.0
    log_x = math.log(x)
    for i in range(dof // 2):
        total += math.exp((i + a) * log_x - x - math.lgamma(i + a + 1.0))
    return total


def _decide(statistic: float, dof: int, alpha: float, z) -> tuple[float, bool]:
    """(p-value, p-value > alpha) of a reached test; without dof, every stratum of ``z()`` is empty."""
    if dof == 0:
        raise InsufficientDataError(f"every stratum of {z()} is empty")
    p_value = _chi2_sf(statistic, dof)
    return p_value, p_value > alpha


def _ci_batch(data: DataTable, tests: np.ndarray) -> list[tuple[float, int]]:
    """(statistic, dof) of each column-index test (x, y, *z), one per row.

    One kernel call (:func:`_stacked_counts`) lays each test's q * r_x * r_y
    cells end to end in the layout (*z, x, y): y fastest, then x, then the
    strata, so a test's q is its size over r_x * r_y and no cell is padded.
    x margins and stratum totals are sums of consecutive cells
    (``np.add.reduceat``), y margins a weighted ``np.bincount``; all are
    sums of integer counts, so exact.  Expected counts are gathered per
    cell, and each test's deviations are summed as one array, so a test's
    figures are bitwise the same in any batch.  No p-value is computed
    here: :func:`_decide` turns a reached test's figures into one.
    """
    r_x, r_y = data.cards[tests[:, 0]], data.cards[tests[:, 1]]
    # z with its last variable fastest, then x, then y fastest of all
    flat, sizes = _stacked_counts(data, tests[:, [*range(2, tests.shape[1]), 0, 1]])
    strata = sizes // (r_x * r_y)  # q per test
    x_runs, y_runs = r_x.repeat(strata), r_y.repeat(strata)  # x and y states per stratum
    widths = y_runs.repeat(x_runs)  # cells of each (stratum, x state) row
    row_starts = widths.cumsum() - widths
    x_margins = np.add.reduceat(flat, row_starts)
    totals = np.add.reduceat(x_margins, x_runs.cumsum() - x_runs)
    # a cell's y margin sits at its stratum's first y margin plus its y state
    y_starts = (y_runs.cumsum() - y_runs).repeat(x_runs)
    y_index = np.arange(len(flat)) + (y_starts - row_starts).repeat(widths)
    y_margins = np.bincount(y_index, weights=flat)
    scale = np.where(totals > 0, totals, 1.0).repeat(x_runs)
    expected = x_margins.repeat(widths) * y_margins[y_index] / scale.repeat(widths)
    deviations = (flat - expected) ** 2 / np.where(expected > 0, expected, 1.0)
    statistic = np.add.reduceat(deviations, sizes.cumsum() - sizes)
    nonempty = np.add.reduceat((totals > 0).astype(np.intp), strata.cumsum() - strata)
    dof = nonempty * (r_x - 1) * (r_y - 1)
    return list(zip(statistic.tolist(), dof.tolist()))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")


def ci_test(
    data: DataTable, x: str, y: str, z: tuple[str, ...] = (), alpha: float = 0.05
) -> CITestResult:
    """Pearson chi-squared test of x independent of y within each stratum of z.

    Vectorized over strata: strata with zero counts are dropped, and each
    kept one adds (r_x - 1)(r_y - 1) degrees of freedom.  :func:`_decide`
    decides, as in :func:`learn_skeleton`: the p-value is the chi-squared
    survival function (:func:`_chi2_sf`, no scipy), independence is declared
    when it exceeds ``alpha``, and a test without degrees of freedom raises
    :class:`InsufficientDataError`.  x, y and z must be distinct.  This is
    a batch of one for :func:`learn_skeleton`'s kernel.
    """
    _require_distinct(x, y, *z)
    test = np.array([[data.index(x), data.index(y), *map(data.index, z)]])
    _check_alpha(alpha)
    ((statistic, dof),) = _ci_batch(data, test)
    return CITestResult(statistic, dof, *_decide(statistic, dof, alpha, lambda: tuple(z)))


@dataclass(frozen=True)
class Skeleton:
    """Undirected adjacency plus the separating sets found for removed edges.

    ``nodes`` are distinct non-empty names, ``edges`` pairs of them, and
    exactly the node pairs without an edge carry a separating set, a
    collection of other nodes; anything else is a ``ValueError``.
    """

    nodes: tuple[str, ...]
    edges: frozenset[tuple[str, str]]  # pairs stored sorted
    sepsets: Mapping[tuple[str, str], frozenset[str]]  # read-only

    def __post_init__(self):
        nodes = _node_names(self.nodes)
        if not isinstance(self.sepsets, Mapping):
            raise ValueError(f"sepsets must map node pairs to sets of names, not {self.sepsets!r}")
        try:  # a str would be read as its letters
            items = (*self.edges, *self.sepsets, *self.sepsets.values())
            strings = any(isinstance(item, str) for item in items)
            edges = frozenset(tuple(sorted(pair)) for pair in self.edges)
            sepsets = {tuple(sorted(pair)): frozenset(s) for pair, s in self.sepsets.items()}
        except TypeError:  # no collection, names that do not sort together, an unhashable name
            strings = True
        if strings:
            raise ValueError("edges and sepsets must hold pairs and sets of node names")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "sepsets", MappingProxyType(sepsets))
        all_pairs = {tuple(sorted(p)) for p in itertools.combinations(self.nodes, 2)}
        if not self.edges <= all_pairs or set(self.sepsets) != all_pairs - self.edges:
            raise ValueError("edges must be pairs of the nodes, sepsets exactly the other pairs")
        if not frozenset().union(*sepsets.values()) <= set(nodes) or any(
            a in s or b in s for (a, b), s in sepsets.items()
        ):
            raise ValueError("a separating set must name nodes other than its pair")

    def __reduce__(self):  # copy and pickle rebuild it: a mapping proxy cannot be pickled
        return Skeleton, (self.nodes, self.edges, dict(self.sepsets))

    def adjacent(self, name: str) -> tuple[str, ...]:
        return tuple(sorted(b if a == name else a for a, b in self.edges if name in (a, b)))

    def has_edge(self, a: str, b: str) -> bool:
        return tuple(sorted((a, b))) in self.edges


def learn_skeleton(data: DataTable, alpha: float = 0.05) -> Skeleton:
    """Constraint-based edge removal, starting from the complete graph.

    For conditioning-set sizes 0..:data:`MAX_SEPSET`, each remaining edge
    (x, y) is tested against subsets of the current neighborhoods of x and
    of y; the first separating set found removes the edge and is recorded.
    Pairs and subsets are visited in lexicographic order, so the result is
    deterministic and independent of data row order.

    Level 0 is one batch: its tests, one per pair, depend on no removal,
    so all pairs are counted together and decided in order.  From level 1
    a pair walks its listing: the subsets of x's neighborhood then y's, as
    they stand, each once.  Reaching an uncounted test counts one batch:
    the first :func:`_batch_size` uncounted tests of the listings of this
    pair and every later pair of the level, listed then.  A reached test
    is decided as :func:`ci_test` decides it (:func:`_decide`: no degrees
    of freedom raise InsufficientDataError, else it separates iff
    p > alpha), so the result is exactly that of testing one at a time.
    """
    _check_alpha(alpha)
    names = tuple(sorted(data.names))  # a node is its rank here, so ranks sort as names do
    columns = np.array([data.index(name) for name in names], dtype=np.intp)
    step = _batch_size(data)
    neighbors = [[m for m in range(len(names)) if m != n] for n in range(len(names))]
    sepsets: dict[tuple[str, str], frozenset[str]] = {}
    scored: dict[tuple, tuple[float, int]] = {}  # (x, y, z) -> (statistic, dof) once counted

    def separates(x: int, y: int, z: tuple[int, ...], statistic: float, dof: int) -> bool:
        """Decide a reached test; a separating z removes the edge x - y and is recorded."""
        if not _decide(statistic, dof, alpha, lambda: tuple(names[v] for v in z))[1]:
            return False
        neighbors[x].remove(y)
        neighbors[y].remove(x)
        sepsets[names[x], names[y]] = frozenset(names[v] for v in z)
        return True

    def listing(x: int, y: int) -> dict[tuple[int, ...], None]:
        """The current level's subsets of x's neighbors then y's, as they stand, each once."""
        x_side = itertools.combinations([v for v in neighbors[x] if v != y], level)
        y_side = itertools.combinations([v for v in neighbors[y] if v != x], level)
        return dict.fromkeys(itertools.chain(x_side, y_side))

    pairs = np.transpose(np.triu_indices(len(names), 1))  # level 0: each pair's () test, in order
    for (x, y), result in zip(pairs.tolist(), _ci_batch(data, columns[pairs])):
        separates(x, y, (), *result)
    for level in range(1, MAX_SEPSET + 1):
        pairs = [(x, y) for x, near in enumerate(neighbors) for y in near if x < y]
        for k, (x, y) in enumerate(pairs):
            for z in listing(x, y):
                if (x, y, z) not in scored:  # count the first uncounted tests from here on
                    uncounted = (
                        (p, q, w) for p, q in pairs[k:] for w in listing(p, q) if (p, q, w) not in scored
                    )
                    batch = list(itertools.islice(uncounted, step))
                    tests = columns[np.array([(p, q, *w) for p, q, w in batch])]
                    scored.update(zip(batch, _ci_batch(data, tests)))
                if separates(x, y, z, *scored[x, y, z]):
                    break
    edges = [(names[x], names[y]) for x, near in enumerate(neighbors) for y in near if x < y]
    return Skeleton(tuple(data.names), frozenset(edges), sepsets)


def orient(skeleton: Skeleton) -> Dag:
    """Orient a skeleton into a DAG.

    V-structures x -> c <- y are set whenever x - c - y with x, y
    non-adjacent and c outside their separating set; two propagation rules
    are then applied to closure (orient b - c as b -> c when some a -> b has
    a, c non-adjacent; orient a - c as a -> c when a -> b -> c exists).
    Remaining undirected edges fall back to lexicographic direction.  Every
    orientation is checked against the growing graph and reversed if it
    would close a cycle, so the output is always acyclic; genuinely
    conflicting demands are resolved toward the lexicographically smaller
    parent and reported as warnings at the line that called this function.
    The orientations are one map from sorted pair to arrow; an edge without
    a key is undirected.  Rule 1 reads the arrows in the order first
    demanded, which picks the direction when both are forced.
    """
    directed: dict[tuple[str, str], tuple[str, str]] = {}  # sorted pair -> (parent, child)

    def demand(parent: str, child: str) -> None:
        pair = tuple(sorted((parent, child)))
        if directed.setdefault(pair, (parent, child)) != (parent, child):
            warnings.warn(
                f"both directions forced for edge {pair}; keeping {pair[0]} -> {pair[1]}",
                ConflictingOrientationWarning,
                stacklevel=3,
            )
            directed[pair] = pair

    def forced(a: str, b: str) -> tuple[str, str] | None:
        """The direction a propagation rule forces on the undirected a - b, if any."""
        # rule 1: parent -> x - y with parent, y non-adjacent forces x -> y
        for parent, child in directed.values():
            for x, y in ((a, b), (b, a)):
                if child == x and not skeleton.has_edge(parent, y):
                    return x, y
        # rule 2: x -> mid -> y forces x -> y
        arrows = set(directed.values())
        for mid in skeleton.nodes:
            for x, y in ((a, b), (b, a)):
                if (x, mid) in arrows and (mid, y) in arrows:
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
        for a, b in sorted(skeleton.edges - directed.keys()):
            edge = forced(a, b)
            if edge:
                demand(*edge)
                changed = True

    # assemble acyclically: forced orientations first, then lexicographic fallback
    parent_sets: dict[str, set[str]] = {n: set() for n in skeleton.nodes}
    for pair in sorted(directed) + sorted(skeleton.edges - directed.keys()):
        parent, child = directed.get(pair, pair)
        if child in _reachable(parent_sets.__getitem__, (parent,)):  # an ancestor of parent
            if pair in directed:
                warnings.warn(
                    f"orientation {parent} -> {child} would close a cycle; reversed",
                    ConflictingOrientationWarning,
                    stacklevel=2,
                )
            parent, child = child, parent
        parent_sets[child].add(parent)

    edges = sorted((p, c) for c in skeleton.nodes for p in parent_sets[c])
    return build_dag(skeleton.nodes, tuple(edges))


def hybrid_learn(
    data: DataTable, alpha: float = 0.05, kind: str = "bic", ess: float = 10.0
) -> Dag:
    """Score-based search restricted to the constraint-learned skeleton.

    The skeleton is :func:`learn_skeleton` at ``alpha`` (separating sets of
    up to :data:`MAX_SEPSET` variables); :func:`hill_climb` then searches
    over its edges, for at most :data:`MAX_MOVES` accepted moves.
    """
    _check_score(kind, ess)
    allowed = {frozenset(pair) for pair in learn_skeleton(data, alpha).edges}
    return hill_climb(data, kind=kind, ess=ess, allowed=allowed)
