"""Independent reference implementations used only by the tests.

The d-separation oracle enumerates every undirected simple path and applies
the blocking rules literally, deliberately ignoring the library's
reachability algorithm.  The Naive Bayes oracle accumulates the class
posterior in log space straight from the model's tables, without the
library's inference, and the joint oracle multiplies one CPT entry per node
of a complete assignment.  The chi-squared oracle tests one stratum at a time
and takes its p-value from ``scipy.stats``; the PC skeleton oracle calls it
once per test, in the library's documented order, without batching, and
the hill-climb oracle rescans and rescores every move at every step.  The
score oracles compute BIC as a row log-likelihood under the family's MLE
and BDeu as a product of sequential predictive probabilities, without
``gammaln``; the Dirichlet fit oracle estimates one node's table at a
time from its ``count_table``; the code counter counts one row at a time
in Python integers, from per-column place values that a test derives
itself from the kernel's column orders.  The DAG enumerator lists every
DAG on a few nodes, and ``markov_class`` keys each by its skeleton and
v-structures, which identify its Markov equivalence class; with the
d-separation oracle it also checks structure learning run on a CI test
that d-separation answers.  ``exact_optimum`` finds the best-scoring DAG
by dynamic programming over column subsets, a bound for the hill climb: on
up to 8 columns, or under BIC, which bounds the parent sets worth scoring,
on all 14 heart columns.  The generators produce small random DAGs and
networks for randomized comparisons, and two ancestral samplers draw rows
from a network: one row at a time, or one node at a time for all rows.
``assert_frozen`` tries to make an array writable again, and then each
``.base`` under it, down to the buffer that holds the data.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import chi2

from heartbn import (
    CITestResult, Cpt, Dag, DataTable, DiscreteBayesNet, Skeleton, Variable, build_dag,
    count_table, nb_fit,
)
from heartbn.errors import CycleDetectedError, InsufficientDataError, ZeroEvidenceError


def undirected_paths(dag: Dag, start: str, end: str):
    """All simple paths between two nodes, ignoring edge direction."""
    neighbors: dict[str, set[str]] = {n: set() for n in dag.nodes}
    for a, b in dag.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)

    def extend(path):
        last = path[-1]
        if last == end:
            yield list(path)
            return
        for nxt in sorted(neighbors[last]):
            if nxt not in path:
                yield from extend(path + [nxt])

    yield from extend([start])


def path_blocked(dag: Dag, path: list[str], z: set[str]) -> bool:
    """Apply the serial / diverging / converging blocking rules to one path."""
    edges = set(dag.edges)
    for i in range(1, len(path) - 1):
        prev, mid, nxt = path[i - 1], path[i], path[i + 1]
        collider = (prev, mid) in edges and (nxt, mid) in edges
        if collider:
            influenced = {mid} | dag.descendants(mid)
            if not influenced & z:
                return True
        elif mid in z:
            return True
    return False


def d_separated_bruteforce(dag: Dag, x: set[str], y: set[str], z: set[str]) -> bool:
    for a in x:
        for b in y:
            for path in undirected_paths(dag, a, b):
                if not path_blocked(dag, path, z):
                    return False
    return True


def joint_probability(net: DiscreteBayesNet, assignment: dict[str, int]) -> float:
    """Chain-rule probability of a complete assignment, one CPT entry per node."""
    net.validate_assignment(assignment)
    missing = set(net.dag.nodes) - set(assignment)
    if missing:
        raise ValueError(f"assignment misses {sorted(missing)}")
    prob = 1.0
    for name in net.dag.nodes:
        cpt = net.cpts[name]
        prob *= cpt.prob(assignment[name], [assignment[p.name] for p in cpt.parents])
    return prob


def nb_posterior_logspace(
    net: DiscreteBayesNet, class_var: str, evidence: dict[str, int]
) -> np.ndarray:
    """P(class | evidence) from log P(c) + sum log P(x_i | c) over the observed features.

    ``net`` is a star network: the class CPT has one row, and each feature's
    CPT has one row per class state.
    """
    with np.errstate(divide="ignore"):
        log_post = np.log(net.cpts[class_var].table[0])
        for name, state in evidence.items():
            log_post = log_post + np.log(net.cpts[name].table[:, int(state)])
    if np.all(np.isneginf(log_post)):
        raise ZeroEvidenceError("all class posteriors are zero under this evidence")
    shifted = np.exp(log_post - log_post.max())
    return shifted / shifted.sum()


def ci_test_per_stratum(
    data: DataTable, x: str, y: str, z: tuple[str, ...] = (), alpha: float = 0.05
) -> CITestResult:
    """Pearson chi-squared test of x and y given z, summed one stratum at a time.

    Each stratum's r_x by r_y table is counted straight from the rows (strata
    in row-major order over z); empty strata are skipped, every other one adds
    (r_x - 1)(r_y - 1) degrees of freedom, and the p-value is
    ``scipy.stats.chi2.sf``.
    """
    r_x, r_y = data.variable(x).cardinality, data.variable(y).cardinality
    z_cards = [data.variable(v).cardinality for v in z]
    stratum = np.zeros(data.n_rows, dtype=np.int64)
    for v, card in zip(z, z_cards):
        stratum = stratum * card + data.column(v)
    tables = np.zeros((math.prod(z_cards), r_x, r_y))
    np.add.at(tables, (stratum, data.column(x), data.column(y)), 1)

    statistic = 0.0
    dof = 0
    for table in tables:
        n = table.sum()
        if n == 0:
            continue
        dof += (r_x - 1) * (r_y - 1)
        expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / n
        mask = expected > 0
        statistic += float(((table[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    if dof == 0:
        raise InsufficientDataError(f"every stratum of {z} is empty")
    p_value = float(chi2.sf(statistic, dof))
    return CITestResult(statistic, dof, p_value, p_value > alpha)


def _family_configs(data: DataTable, child: str, parents: tuple[str, ...]):
    """Each row's (parent configuration, child state) as Python ints, and q, r."""
    child_column = data.column(child).tolist()
    parent_columns = [data.column(p).tolist() for p in parents]
    configs = [0] * data.n_rows
    for p, column in zip(parents, parent_columns):
        card = data.variable(p).cardinality
        configs = [j * card + v for j, v in zip(configs, column)]
    q = math.prod(data.variable(p).cardinality for p in parents)
    return list(zip(configs, child_column)), q, data.variable(child).cardinality


def bic_row_loglik(data: DataTable, child: str, parents: tuple[str, ...]) -> float:
    """BIC of one family: sum over rows of log P(child | parents) under the
    family's MLE, minus 1/2 log N times q (r - 1) free parameters."""
    rows, q, r = _family_configs(data, child, parents)
    cells: dict[tuple[int, int], int] = {}
    configs: dict[int, int] = {}
    for j, k in rows:
        cells[j, k] = cells.get((j, k), 0) + 1
        configs[j] = configs.get(j, 0) + 1
    loglik = sum(math.log(cells[j, k] / configs[j]) for j, k in rows)
    log_n = math.log(data.n_rows) if data.n_rows else 0.0
    return loglik - 0.5 * log_n * q * (r - 1)


def bdeu_sequential(data: DataTable, child: str, parents: tuple[str, ...], ess: float) -> float:
    """BDeu of one family as the log of a product of predictive probabilities:
    each row in turn adds log((N_jk + a_jk) / (N_j + a_j)) from the counts of
    the rows before it, with a_jk = ess / (q r) and a_j = ess / q."""
    rows, q, r = _family_configs(data, child, parents)
    a_cell, a_config = ess / (q * r), ess / q
    cells: dict[tuple[int, int], int] = {}
    configs: dict[int, int] = {}
    total = 0.0
    for j, k in rows:
        total += math.log((cells.get((j, k), 0) + a_cell) / (configs.get(j, 0) + a_config))
        cells[j, k] = cells.get((j, k), 0) + 1
        configs[j] = configs.get(j, 0) + 1
    return total


def fit_dirichlet_per_node(dag: Dag, data: DataTable, cell_prior) -> DiscreteBayesNet:
    """CPTs (N(x, pa) + a) / (N(pa) + a * r), a = cell_prior(q, r) from Python ints,
    one node at a time; a parent configuration without weight is a uniform row.

    The library's fits estimate a batch of families elementwise and must give
    these tables bit for bit.
    """
    cpts = {}
    for node in dag.nodes:
        counts = count_table(data, node, dag.parents(node))
        q, r = counts.shape
        a = cell_prior(q, r)
        denominators = counts.sum(axis=1) + a * r
        table = np.full((q, r), 1.0 / r)
        seen = denominators > 0
        table[seen] = (counts[seen] + a) / denominators[seen, None]
        parents = tuple(map(data.variable, dag.parents(node)))
        cpts[node] = Cpt(data.variable(node), parents, table)
    return DiscreteBayesNet(dag, cpts)


def count_codes_per_row(rows: np.ndarray, places: np.ndarray, sizes: np.ndarray) -> list[int]:
    """The counting kernel's flat result, one row and one member at a time:
    member i's code for a row is the sum of each value times its place,
    counted at its offset, the sum of the sizes before it."""
    counts = [0] * int(sum(int(s) for s in sizes))
    offset = 0
    for place_row, size in zip(places.tolist(), sizes.tolist()):
        place_row = [int(v) for v in place_row]
        for row in rows.tolist():
            counts[offset + sum(v * w for v, w in zip(row, place_row))] += 1
        offset += int(size)
    return counts


def hill_climb_sequential(
    data: DataTable, kind: str = "bic", ess: float = 10.0, allowed=None, trace=None
) -> Dag:
    """Greedy add / delete / reverse search scoring each move with ``family_score``.

    Every step scans all moves in the library's documented order (adds by
    parent then child, then deletes and reverses by child then parent),
    tests each for a cycle by walking up the parent sets, and keeps the
    first move with the largest gain above ``MIN_IMPROVEMENT``.  Each
    family's ``family_score`` is computed once and memoized by (child,
    sorted parents).
    """
    from heartbn.learn import MAX_MOVES, MIN_IMPROVEMENT, family_score

    names = sorted(data.names)
    parent_sets = {n: frozenset() for n in names}
    cache: dict[tuple[str, tuple[str, ...]], float] = {}

    def fam(child, parents):
        key = (child, tuple(sorted(parents)))
        if key not in cache:
            cache[key] = family_score(data, *key, kind, ess)
        return cache[key]

    def closes_cycle(sets, parent, child):
        stack, seen = [parent], set()
        while stack:
            node = stack.pop()
            if node == child:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(sets[node])
        return False

    current = sum(fam(n, parent_sets[n]) for n in names)
    if trace is not None:
        trace.append(current)
    for _ in range(MAX_MOVES):
        best_delta, best_move = MIN_IMPROVEMENT, None
        for a, b in itertools.permutations(names, 2):
            if b in parent_sets[a] or a in parent_sets[b]:
                continue
            if allowed is not None and frozenset((a, b)) not in allowed:
                continue
            if closes_cycle(parent_sets, a, b):
                continue
            delta = fam(b, parent_sets[b] | {a}) - fam(b, parent_sets[b])
            if delta > best_delta:
                best_delta, best_move = delta, {b: parent_sets[b] | {a}}
        edges_now = [(p, c) for c in names for p in sorted(parent_sets[c])]
        for p, c in edges_now:
            delta = fam(c, parent_sets[c] - {p}) - fam(c, parent_sets[c])
            if delta > best_delta:
                best_delta, best_move = delta, {c: parent_sets[c] - {p}}
        for p, c in edges_now:
            new_c, new_p = parent_sets[c] - {p}, parent_sets[p] | {c}
            if closes_cycle({**parent_sets, c: new_c}, c, p):
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


def pc_skeleton_sequential(
    data: DataTable, alpha: float = 0.05, max_sepset: int = 3, visits: dict | None = None
) -> Skeleton:
    """The PC skeleton with one :func:`ci_test_per_stratum` call per test.

    Levels, pairs and conditioning subsets are visited in the library's
    documented order: for each level, each remaining pair in sorted order
    tries the subsets of x's current neighborhood, then y's, and the first
    independent one removes the edge.  ``visits``, if given, maps each test
    (x, y, *subset) the order reaches to the neighborhoods at that moment.
    """
    names = tuple(data.names)
    edges = {tuple(sorted(p)) for p in itertools.combinations(names, 2)}
    neighbors = {n: set(names) - {n} for n in names}
    sepsets: dict[tuple[str, str], frozenset[str]] = {}
    for level in range(max_sepset + 1):
        for x, y in sorted(edges):
            candidates = dict.fromkeys(
                itertools.chain(
                    itertools.combinations(sorted(neighbors[x] - {y}), level),
                    itertools.combinations(sorted(neighbors[y] - {x}), level),
                )
            )
            for subset in candidates:
                if visits is not None:
                    visits[x, y, *subset] = {n: frozenset(near) for n, near in neighbors.items()}
                if ci_test_per_stratum(data, x, y, subset, alpha).independent:
                    edges.discard((x, y))
                    neighbors[x].discard(y)
                    neighbors[y].discard(x)
                    sepsets[(x, y)] = frozenset(subset)
                    break
    return Skeleton(names, frozenset(edges), sepsets)


def wide_nb_case(
    rng: np.random.Generator, n_features: int = 70, n_states: int = 2, n_rows: int = 80
) -> tuple[DiscreteBayesNet, dict[str, int]]:
    """A Naive Bayes star network fitted on uniform random rows and full evidence on its features.

    The class ``w0`` and every feature have ``n_states`` states.  The 71
    factors of the default case exceed what one einsum call accepts (32
    operands in NumPy 1.x, 64 in 2.x), so classifying it exercises the
    folded product; hundreds of four-state features make the unscaled
    product underflow.
    """
    states = tuple(str(s) for s in range(n_states))
    schema = tuple(Variable(f"w{i}", states) for i in range(n_features + 1))
    net = nb_fit(DataTable(schema, rng.integers(0, n_states, size=(n_rows, len(schema)))), "w0")
    return net, {v.name: int(rng.integers(n_states)) for v in schema[1:]}


def all_dags(names: tuple[str, ...]) -> list[Dag]:
    """Every DAG on ``names``: each pair is absent or oriented either way,
    and assignments with a cycle are dropped (543 DAGs on 4 nodes)."""
    pairs = list(itertools.combinations(names, 2))
    dags = []
    for choice in itertools.product(("none", "forward", "backward"), repeat=len(pairs)):
        edges = [
            (a, b) if how == "forward" else (b, a)
            for (a, b), how in zip(pairs, choice)
            if how != "none"
        ]
        try:
            dags.append(build_dag(names, edges))
        except CycleDetectedError:
            continue
    return dags


def markov_class(dag: Dag) -> tuple[frozenset, frozenset]:
    """The skeleton and the v-structures (a -> c <- b, a and b not adjacent):
    two DAGs are Markov equivalent exactly when these agree (Verma & Pearl
    1990)."""
    skeleton = frozenset(frozenset(edge) for edge in dag.edges)
    v_structures = frozenset(
        (frozenset((a, b)), c)
        for c in dag.nodes
        for a, b in itertools.combinations(dag.parents(c), 2)
        if frozenset((a, b)) not in skeleton
    )
    return skeleton, v_structures


def exact_optimum(
    data: DataTable, kind: str = "bic", ess: float = 10.0, allowed=None, bound: bool = True
) -> tuple[float, Dag]:
    """The highest total score of any DAG on the columns of ``data``, and a DAG that has it.

    The dynamic program of Silander & Myllymaki (2006): the candidate
    families are scored in one ``_family_scores`` batch; then each child's
    best parent set within every candidate set, as a running maximum over
    subsets; then the best network on every column subset, as the best
    network on the subset without one sink plus that sink's best family
    among the rest.  With ``allowed``, a parent must form one of its
    unordered pairs with the child.

    A BIC family gains at most N log r in log-likelihood over the empty
    family (a child's entropy is at most log r), so a parent set whose
    penalty increase, (log N / 2)(q - 1)(r - 1), exceeds N log r scores
    below the empty family, and so does every superset (after de Campos &
    Ji 2011, with a looser bound).  With ``bound`` such sets are not
    scored, which takes BIC to all 14 heart columns; BDeu, or BIC without
    ``bound``, scores every family and stops at 8 columns.
    """
    from heartbn.learn import _family_scores, _orders

    names, n = data.names, len(data.names)
    pruned = bound and kind == "bic"
    if n > (16 if pruned else 8):
        raise ValueError("exact_optimum takes at most 16 columns under the BIC bound, else 8")
    cards, n_rows = data.cards.tolist(), data.n_rows
    log_n = math.log(n_rows) if n_rows > 0 else 0.0

    def never_best(child: int, q: int) -> bool:
        r = cards[child]
        return pruned and 0.5 * log_n * (q - 1) * (r - 1) > n_rows * math.log(r)

    def members(mask: int) -> tuple[str, ...]:
        return tuple(names[i] for i in range(n) if mask >> i & 1)

    families = []  # (child, parent mask); a pruned set's supersets are never reached
    for child in range(n):
        options = [
            p for p in range(n)
            if p != child and (allowed is None or {names[child], names[p]} in allowed)
        ]
        stack = [(0, 1, 0)]  # (parent mask, q, first option that may join)
        while stack:
            mask, q, first = stack.pop()
            families.append((child, mask))
            for i in range(first, len(options)):
                if not never_best(child, q * cards[options[i]]):
                    stack.append((mask | 1 << options[i], q * cards[options[i]], i + 1))
    orders = _orders(data, [(names[child], members(mask)) for child, mask in families])
    local = np.full((n, 1 << n), -np.inf)
    children, masks = np.array(families, dtype=np.intp).T
    local[children, masks] = _family_scores(data, orders, kind, ess)
    # best[c, s]: the best score of c's families with parents within s; arg: its parent mask
    best, arg = local, np.tile(np.arange(1 << n), (n, 1))
    for u in range(n):
        pair, pair_arg = best.reshape(n, -1, 2, 1 << u), arg.reshape(n, -1, 2, 1 << u)
        without = pair[:, :, 0] > pair[:, :, 1]
        pair[:, :, 1] = np.where(without, pair[:, :, 0], pair[:, :, 1])
        pair_arg[:, :, 1] = np.where(without, pair_arg[:, :, 0], pair_arg[:, :, 1])
    best, arg = best.tolist(), arg.tolist()
    network, sink_of = [0.0] * (1 << n), [0] * (1 << n)  # column subset -> best score, its sink
    for subset in range(1, 1 << n):
        network[subset] = -math.inf
        for sink in (i for i in range(n) if subset >> i & 1):
            rest = subset & ~(1 << sink)
            total = network[rest] + best[sink][rest]
            if total > network[subset]:
                network[subset], sink_of[subset] = total, sink
    edges, subset = [], (1 << n) - 1
    while subset:
        sink = sink_of[subset]
        subset &= ~(1 << sink)
        edges += [(parent, names[sink]) for parent in members(arg[sink][subset])]
    return network[-1], build_dag(names, sorted(edges))


def random_dag(rng: np.random.Generator, n_nodes: int, edge_prob: float = 0.4) -> Dag:
    names = [f"n{i}" for i in range(n_nodes)]
    order = list(rng.permutation(n_nodes))
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.random() < edge_prob:
            a, b = order[i], order[j]
            edges.append((names[a], names[b]))
    return build_dag(names, edges)


def random_net(
    rng: np.random.Generator,
    n_nodes: int,
    max_card: int = 2,
    edge_prob: float = 0.4,
    allow_zeros: bool = False,
) -> DiscreteBayesNet:
    dag = random_dag(rng, n_nodes, edge_prob)
    variables = {
        n: Variable(n, tuple(str(s) for s in range(int(rng.integers(2, max_card + 1)))))
        for n in dag.nodes
    }
    cpts = {}
    for n in dag.nodes:
        parents = tuple(variables[p] for p in dag.parents(n))
        q = int(np.prod([p.cardinality for p in parents], dtype=int)) if parents else 1
        raw = rng.random((q, variables[n].cardinality))
        if allow_zeros:
            raw[rng.random(raw.shape) < 0.15] = 0.0
            raw[raw.sum(axis=1) == 0.0, 0] = 1.0
        cpts[n] = Cpt(variables[n], parents, raw / raw.sum(axis=1, keepdims=True))
    return DiscreteBayesNet(dag, cpts)


def all_assignments(net: DiscreteBayesNet):
    names = list(net.dag.nodes)
    cards = [net.variable(n).cardinality for n in names]
    for combo in itertools.product(*(range(c) for c in cards)):
        yield dict(zip(names, combo))


def sample_rows(net: DiscreteBayesNet, rng: np.random.Generator, n: int) -> "np.ndarray":
    """Ancestral sampling, returning rows in dag-node order."""
    from heartbn import topological_order

    order = topological_order(net.dag)
    pos = {name: i for i, name in enumerate(net.dag.nodes)}
    rows = np.zeros((n, len(net.dag.nodes)), dtype=np.int64)
    for i in range(n):
        assignment: dict[str, int] = {}
        for name in order:
            cpt = net.cpts[name]
            row = cpt.row([assignment[p.name] for p in cpt.parents])
            state = int(rng.choice(len(row), p=row))
            assignment[name] = state
            rows[i, pos[name]] = state
    return rows


def sample_table(net: DiscreteBayesNet, n_rows: int, seed: int) -> DataTable:
    """Ancestral sampling one node at a time for all rows, columns in dag-node order."""
    from heartbn import topological_order

    rng = np.random.default_rng(seed)
    columns = {}
    for name in topological_order(net.dag):
        cpt = net.cpts[name]
        config = np.zeros(n_rows, dtype=np.int64)
        for parent in cpt.parents:
            config = config * parent.cardinality + columns[parent.name]
        thresholds = cpt.table.cumsum(axis=1)[config, :-1]
        columns[name] = (rng.random((n_rows, 1)) >= thresholds).sum(axis=1)
    nodes = net.dag.nodes
    rows = np.column_stack([columns[n] for n in nodes])
    return DataTable(tuple(net.variables[n] for n in nodes), rows)


def assert_frozen(array: np.ndarray, what: str) -> None:
    """Fail unless ``array`` and each ``.base`` under it refuse writes, down to a ``bytes`` buffer."""
    level = array
    while isinstance(level, np.ndarray):
        try:
            level.setflags(write=True)
        except ValueError:
            level = level.base
        else:
            raise AssertionError(f"{what}: an array of its .base chain can be made writable")
    assert isinstance(level, bytes), f"{what}: data held by {type(level).__name__}, not bytes"
