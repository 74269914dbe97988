"""Synthetic networks, an ancestral sampler and independent reference checks.

Everything here is the benchmark's own code.  It uses heartbn's data model
(Variable, Cpt, DiscreteBayesNet, DataTable) to hand inputs to the program,
but none of heartbn's inference or learning, so the checks stay independent
of the code they check.
"""

from __future__ import annotations

import hashlib

import numpy as np

from heartbn import core
from heartbn.dataset import DataTable

# Floor mixed into every CPT row: each entry is at least FLOOR / r, so every
# assignment, and hence every evidence set, has nonzero probability.
FLOOR = 0.1


def random_network(
    rng: np.random.Generator,
    n_nodes: int,
    max_parents: int = 2,
    cards: tuple[int, int] = (2, 4),
    prefix: str = "X",
) -> core.DiscreteBayesNet:
    """Random sparse network with strictly positive CPTs.

    Node i draws 0..min(max_parents, i) parents among nodes 0..i-1, so index
    order is topological.  Cardinalities are uniform on ``cards``
    (inclusive); CPT rows are Dirichlet(1) draws mixed with a uniform floor.
    """
    names = [f"{prefix}{i:02d}" for i in range(n_nodes)]
    variables = [
        core.Variable(name, tuple(str(s) for s in range(int(rng.integers(cards[0], cards[1] + 1)))))
        for name in names
    ]
    edges = []
    cpts = {}
    for i, var in enumerate(variables):
        k = int(rng.integers(0, min(max_parents, i) + 1))
        parent_idx = sorted(int(p) for p in rng.choice(i, size=k, replace=False)) if k else []
        parents = tuple(variables[p] for p in parent_idx)
        edges.extend((p.name, var.name) for p in parents)
        q = int(np.prod([p.cardinality for p in parents], dtype=int)) if parents else 1
        r = var.cardinality
        table = (1.0 - FLOOR) * rng.dirichlet(np.ones(r), size=q) + FLOOR / r
        cpts[var.name] = core.Cpt(var, parents, table / table.sum(axis=1, keepdims=True))
    return core.DiscreteBayesNet(core.build_dag(variables, edges), cpts)


def sample(net: core.DiscreteBayesNet, n_rows: int, rng: np.random.Generator) -> DataTable:
    """Vectorized ancestral sampling: one column per node in topological order.

    Each node's parent configuration selects a CPT row; a uniform draw is
    located in that row's cumulative sums.
    """
    columns: dict[str, np.ndarray] = {}
    for name in core.topological_order(net.dag):
        cpt = net.cpts[name]
        config = np.zeros(n_rows, dtype=np.int64)
        for parent in cpt.parents:
            config = config * parent.cardinality + columns[parent.name]
        cumulative = np.cumsum(cpt.table, axis=1)[config]
        u = rng.random(n_rows)
        state = (cumulative <= u[:, None]).sum(axis=1)
        columns[name] = np.minimum(state, cpt.variable.cardinality - 1)
    schema = tuple(net.cpts[name].variable for name in net.dag.nodes)
    return DataTable(schema, np.column_stack([columns[name] for name in net.dag.nodes]))


def _ancestral_set(dag: core.Dag, seeds) -> set[str]:
    out = set(seeds)
    stack = list(out)
    while stack:
        for parent in dag.parents(stack.pop()):
            if parent not in out:
                out.add(parent)
                stack.append(parent)
    return out


def reference_posterior(net: core.DiscreteBayesNet, query: str, evidence: dict) -> np.ndarray:
    """Exact P(query | evidence), computed independently of heartbn.inference.

    Nodes outside the ancestral set of the query and evidence sum to one
    and are dropped; evidence axes are sliced away.  The remaining hidden
    nodes are summed out one at a time, each with a single einsum over the
    factors that mention it, in min-degree order.
    """
    relevant = _ancestral_set(net.dag, {query, *evidence})
    axis = {name: i for i, name in enumerate(net.dag.nodes)}
    factors: list[tuple[np.ndarray, list[int]]] = []
    for name in net.dag.nodes:
        if name not in relevant:
            continue
        cpt = net.cpts[name]
        scope = [p.name for p in cpt.parents] + [name]
        values = cpt.table.reshape([v.cardinality for v in cpt.parents] + [cpt.variable.cardinality])
        values = values[tuple(evidence.get(v, slice(None)) for v in scope)]
        factors.append((values, [axis[v] for v in scope if v not in evidence]))

    neighbours: dict[int, set[int]] = {}
    for _, scope in factors:
        for a in scope:
            neighbours.setdefault(a, set()).update(scope)
    hidden = {axis[n] for n in relevant if n != query and n not in evidence}
    while hidden:
        var = min(hidden, key=lambda a: (len(neighbours[a]), a))
        hidden.discard(var)
        joined = [f for f in factors if var in f[1]]
        factors = [f for f in factors if var not in f[1]]
        out = sorted(set().union(*(scope for _, scope in joined)) - {var})
        operands = [x for f in joined for x in f]
        factors.append((np.einsum(*operands, out), out))
        for a in neighbours.pop(var):
            if a in neighbours:
                neighbours[a] |= set(out)
                neighbours[a].discard(var)
    operands = [x for f in factors for x in f]
    unnormalized = np.einsum(*operands, [axis[query]])
    return unnormalized / unnormalized.sum()


def d_separated_moral(dag: core.Dag, x: set, y: set, z: set) -> bool:
    """d-separation by the moralized ancestral graph (Lauritzen's criterion).

    x and y are d-separated by z iff they are disconnected in the moral
    graph of the ancestral set of x | y | z once z is removed.
    """
    keep = _ancestral_set(dag, x | y | z)
    neighbours: dict[str, set[str]] = {n: set() for n in keep}
    for child in keep:
        parents = dag.parents(child)
        for p in parents:
            neighbours[p].add(child)
            neighbours[child].add(p)
        for i, a in enumerate(parents):
            for b in parents[i + 1:]:
                neighbours[a].add(b)
                neighbours[b].add(a)
    seen = set(x)
    stack = list(x)
    while stack:
        for n in neighbours[stack.pop()]:
            if n in z or n in seen:
                continue
            if n in y:
                return False
            seen.add(n)
            stack.append(n)
    return True


def shd(learned: core.Dag, truth: core.Dag) -> int:
    """Structural Hamming distance between two DAGs over the same nodes.

    Each node pair counts once: a missing or extra adjacency, or an
    adjacency present in both with opposite directions.
    """
    a = {frozenset(e): e for e in learned.edges}
    b = {frozenset(e): e for e in truth.edges}
    return sum(1 for pair in a.keys() | b.keys() if a.get(pair) != b.get(pair))


def edge_digest(dag: core.Dag) -> str:
    """Short stable digest of a DAG's sorted edge list."""
    text = ";".join(f"{p}>{c}" for p, c in sorted(dag.edges))
    return hashlib.sha256(text.encode()).hexdigest()[:12]
