"""Independent reference implementations used only by the tests.

The d-separation oracle enumerates every undirected simple path and applies
the blocking rules literally, deliberately ignoring the library's
reachability algorithm.  The Naive Bayes oracle accumulates the class
posterior in log space straight from the model's tables, without the
library's inference.  The chi-squared oracle tests one stratum at a time
and takes its p-value from ``scipy.stats``.  The generators produce small
random DAGs and networks for randomized comparisons.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.stats import chi2

from heartbn import (
    CITestResult, Cpt, Dag, DataTable, DiscreteBayesNet, NbModel, Variable, build_dag, nb_fit,
)
from heartbn.errors import InsufficientDataError, ZeroEvidenceError


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


def nb_posterior_logspace(model: NbModel, evidence: dict[str, int]) -> np.ndarray:
    """P(class | evidence) from log P(c) + sum log P(x_i | c) over the observed features."""
    with np.errstate(divide="ignore"):
        log_post = np.log(model.prior)
        for name, state in evidence.items():
            log_post = log_post + np.log(model.conditionals[name][:, int(state)])
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


def wide_nb_case(
    rng: np.random.Generator, n_features: int = 70, n_states: int = 2, n_rows: int = 80
) -> tuple[NbModel, dict[str, int]]:
    """A Naive Bayes model fitted on uniform random rows and full evidence on its features.

    The class ``w0`` and every feature have ``n_states`` states.  The 71
    factors of the default case exceed what one einsum call accepts (32
    operands in NumPy 1.x, 64 in 2.x), so classifying it exercises the
    folded product; hundreds of four-state features make the unscaled
    product underflow.
    """
    states = tuple(str(s) for s in range(n_states))
    schema = tuple(Variable(f"w{i}", states) for i in range(n_features + 1))
    model = nb_fit(DataTable(schema, rng.integers(0, n_states, size=(n_rows, len(schema)))), "w0")
    return model, {v.name: int(rng.integers(n_states)) for v in schema[1:]}


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
