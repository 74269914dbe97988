"""Exact posterior queries and classification.

Two routes compute P(query | evidence): :func:`posterior_enumeration` sums
the chain-rule joint over every completion (the reference implementation)
and :func:`posterior_ve` runs variable elimination over the CPT arrays (the
production path).  They agree to within 1e-10 and both raise
:class:`ZeroEvidenceError` when the evidence has probability exactly zero.
:func:`classify` answers one query through :func:`posterior_ve`;
:func:`classify_rows` classifies every row of a table at once when all
other nodes are observed, which needs no elimination at all.

Inside elimination a factor is a plain ``(values, scope)`` pair: an array
with one axis per variable name in the ``scope`` tuple.  A factor left with
no variable raises if zero and is dropped if not; any other product, all-zero
or not, flows on to the final normalizer, which raises if zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import ROW_SUM_TOL, Cpt, DiscreteBayesNet, Variable, _frozen, _reachable, _state
from .dataset import DataTable
from .errors import SchemaMismatchError, ZeroEvidenceError

# NumPy 1.x takes at most 32 einsum operands; bigger products are folded in
# groups of this many factors.
_EINSUM_GROUP = 16


@dataclass(frozen=True, eq=False)
class Posterior:
    """A normalized distribution over one variable's states."""

    variable: Variable
    probabilities: np.ndarray

    def __post_init__(self):
        probs = _frozen(np.asarray(self.probabilities, dtype=float))
        if probs.shape != (self.variable.cardinality,):
            raise ValueError("one probability per state required")
        if not (np.all((probs >= 0.0) & (probs <= 1.0)) and abs(probs.sum() - 1.0) <= ROW_SUM_TOL):
            raise ValueError("posterior must be a distribution over the states")
        object.__setattr__(self, "probabilities", probs)

    def __reduce__(self):  # copy and pickle rebuild it, so its array stays frozen
        return Posterior, (self.variable, self.probabilities)

    def __getitem__(self, state: int) -> float:
        return float(self.probabilities[_state(self.variable, state)])


def _check_query(net: DiscreteBayesNet, query: str, evidence: Mapping[str, int]) -> None:
    net.variable(query)
    if query in evidence:
        raise ValueError(f"query {query!r} may not appear in the evidence")
    net.validate_assignment(evidence)


def posterior_enumeration(
    net: DiscreteBayesNet, query: str, evidence: Mapping[str, int]
) -> Posterior:
    """P(query | evidence) by summing the chain-rule joint over all completions."""
    _check_query(net, query, evidence)
    variables = net.variables
    hidden = [n for n in net.dag.nodes if n != query and n not in evidence]
    q_var = variables[query]
    totals = np.zeros(q_var.cardinality)
    assignment = dict(evidence)
    node_order = net.dag.nodes
    cpts = net.cpts
    for q_state in range(q_var.cardinality):
        assignment[query] = q_state
        acc = 0.0
        for combo in itertools.product(*(range(variables[h].cardinality) for h in hidden)):
            assignment.update(zip(hidden, combo))
            p = 1.0
            for name in node_order:
                cpt = cpts[name]
                p *= cpt.table[
                    cpt.config_index([assignment[v.name] for v in cpt.parents]),
                    assignment[name],
                ]
                if p == 0.0:
                    break
            acc += p
        totals[q_state] = acc
    normalizer = totals.sum()
    if normalizer == 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return Posterior(q_var, totals / normalizer)


def _cpt_factor(cpt: Cpt) -> tuple[np.ndarray, tuple[str, ...]]:
    """A CPT as a ``(values, scope)`` factor: one axis per parent, then the child's."""
    family = cpt.parents + (cpt.variable,)
    return cpt.table.reshape([v.cardinality for v in family]), tuple(v.name for v in family)


def _sum_product(factors: list, keep: tuple[str, ...]) -> np.ndarray:
    """Product of the ``(values, scope)`` factors with every variable outside ``keep`` summed out.

    The result has one axis per name in ``keep``.  Names are relabelled
    0, 1, ... for each einsum call, so one call sees only its own variables.
    More than ``_EINSUM_GROUP`` factors are folded in groups, each fold with
    a nonzero peak rescaled to a maximum of one so that a long product cannot
    underflow; the result is then the product up to a positive constant.
    """
    while len(factors) > _EINSUM_GROUP:
        head = factors[:_EINSUM_GROUP]
        scope = tuple(dict.fromkeys(n for _, s in head for n in s))
        values = _sum_product(head, scope)
        factors = [(values / (values.max() or 1.0), scope)] + factors[_EINSUM_GROUP:]
    labels: dict[str, int] = {}
    operands: list = []
    for values, scope in factors:
        operands += [values, [labels.setdefault(n, len(labels)) for n in scope]]
    return np.einsum(*operands, [labels[n] for n in keep])


def _factor(values: np.ndarray, scope: tuple[str, ...]) -> list:
    """``[(values, scope)]``; with no variable left, ``[]`` if nonzero, else it raises."""
    if not scope and values == 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return [(values, scope)] if scope else []


def posterior_ve(net: DiscreteBayesNet, query: str, evidence: Mapping[str, int]) -> Posterior:
    """P(query | evidence) by variable elimination.

    Only the query, the evidence and their ancestors take part: every other
    node's CPT sums out to one (barren-node pruning).  Each CPT is sliced on
    the evidence, and hidden variables are summed out one einsum each, picked
    as they go by fewest neighbours in the factor interaction graph
    (min-degree, ties broken by name).  A product with a nonzero peak is
    rescaled to a maximum of one, so long products do not underflow.  A
    fully observed family or an elimination that keeps no variable leaves a
    constant: zero raises, else it is dropped.  Every other all-zero product
    is kept unscaled, and the normalizer raises if it is zero.
    """
    _check_query(net, query, evidence)
    relevant = _reachable(net.dag.parents, (query, *evidence))
    factors = []
    for name in net.dag.nodes:
        if name not in relevant:
            continue
        values, scope = _cpt_factor(net.cpts[name])
        values = values[tuple(int(evidence[n]) if n in evidence else slice(None) for n in scope)]
        factors += _factor(values, tuple(n for n in scope if n not in evidence))

    # each variable's neighbours in the factor interaction graph, itself included
    neighbours: dict[str, set[str]] = {}
    for _, scope in factors:
        for name in scope:
            neighbours.setdefault(name, set()).update(scope)
    hidden = relevant - {query} - set(evidence)
    while hidden:
        name = min(hidden, key=lambda n: (len(neighbours[n]), n))
        hidden.remove(name)
        related = [f for f in factors if name in f[1]]
        factors = [f for f in factors if name not in f[1]]
        keep = tuple(dict.fromkeys(n for _, scope in related for n in scope if n != name))
        values = _sum_product(related, keep)
        factors += _factor(values / (values.max() or 1.0), keep)
        for n in keep:  # the new factor joins them all
            neighbours[n].discard(name)
            neighbours[n].update(keep)

    values = _sum_product(factors, (query,))
    normalizer = values.sum()
    if normalizer == 0.0:
        raise ZeroEvidenceError("evidence has probability zero")
    return Posterior(net.variable(query), values / normalizer)


def classify(
    net: DiscreteBayesNet, class_var: str, evidence: Mapping[str, int]
) -> tuple[int, Posterior]:
    """Most probable state of ``class_var`` given the evidence.

    Variables absent from the evidence are marginalized out.  Ties break
    toward the lower state index, so the result is deterministic.
    """
    posterior = posterior_ve(net, class_var, evidence)
    return int(np.argmax(posterior.probabilities)), posterior


def classify_rows(
    net: DiscreteBayesNet, class_var: str, table: DataTable
) -> tuple[np.ndarray, np.ndarray]:
    """Classify every row of ``table`` from the columns of all other nodes.

    Every node except ``class_var`` must have a column whose
    :class:`Variable` equals the node's, else :class:`SchemaMismatchError`;
    the class column and columns outside the network are ignored.  With
    every other node observed, P(class | row) is proportional to the
    product of the CPT entries of the families that contain the class (its
    own and its children's), so each family takes one gather over all rows
    and nothing is eliminated.  The product is rescaled per row to a
    maximum of one after each family, so it cannot underflow.

    Returns ``(labels, probabilities)``: one label per row, ties broken
    toward the lower state as in :func:`classify`, and an ``(n_rows, r)``
    array of posteriors.  A row whose evidence has probability zero (a
    family without the class gathers a zero, or every class state's product
    is zero) gets label -1 and an all-zero posterior row; these are exactly
    the rows for which :func:`posterior_ve` raises :class:`ZeroEvidenceError`.
    """
    columns = {}
    for name in net.dag.nodes:
        if name != class_var:
            column, node = table.variable(name), net.variable(name)
            if column != node:
                raise SchemaMismatchError(
                    f"column {name!r} has states {column.states}, the network's node {node.states}"
                )
            columns[name] = table.column(name)
    scores = np.ones((table.n_rows, net.variable(class_var).cardinality))
    possible = np.ones(table.n_rows, dtype=bool)
    for cpt in net.cpts.values():
        values, scope = _cpt_factor(cpt)
        if class_var not in scope:
            possible &= values[tuple(columns[n] for n in scope)] > 0.0
            continue
        # the class axis goes last so that the index arrays lead and the row
        # axis comes out first; adjacent index arrays after a slice would
        # leave it in place, giving (r, n_rows) for a class first parent
        values = np.moveaxis(values, scope.index(class_var), -1)
        scores *= values[tuple(columns[n] for n in scope if n != class_var)]
        peak = scores.max(axis=1, keepdims=True)
        scores /= np.where(peak > 0.0, peak, 1.0)
    totals = scores.sum(axis=1)
    possible &= totals > 0.0
    probabilities = np.zeros_like(scores)
    probabilities[possible] = scores[possible] / totals[possible, None]
    labels = np.where(possible, probabilities.argmax(axis=1), -1)
    return labels, probabilities
