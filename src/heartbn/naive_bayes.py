"""Naive Bayes over categorical features.

The classifier assumes features are independent given the class, which
makes it exactly a star-shaped Bayesian network (class -> each feature).
:func:`nb_fit` fits that network with the shared Dirichlet estimator of
:mod:`heartbn.learn`, using the additive pseudo-count as the per-cell prior:
every count N becomes (N + pseudo) / (total + pseudo * cardinality).  It
returns the star :class:`~heartbn.core.DiscreteBayesNet` itself, class node
first, so the model serializes in the shared network format.
:func:`nb_predict` classifies on that network with the shared inference of
:mod:`heartbn.inference`.
"""

from __future__ import annotations

import math
from typing import Mapping

from .core import DiscreteBayesNet, build_dag
from .dataset import DataTable
from .inference import Posterior, classify
from .learn import _fit_dirichlet


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


def nb_predict(net: DiscreteBayesNet, evidence: Mapping[str, int]) -> tuple[int, Posterior]:
    """Most probable class of the star network ``net`` given feature evidence.

    The class is the first node, and every edge must run from it to one of
    the other nodes, in node order.  The posterior is proportional to
    P(c) * prod P(x_i | c) over the supplied features; absent features are
    skipped.  It is computed by :func:`~heartbn.inference.classify`, so ties
    break toward the lower class index.
    """
    c, *features = net.dag.nodes
    if net.dag.edges != tuple((c, f) for f in features):
        raise ValueError("a Naive Bayes network must be the star class -> each feature")
    return classify(net, c, evidence)
