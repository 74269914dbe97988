"""Naive Bayes over categorical features.

The classifier assumes features are independent given the class, which
makes it exactly a star-shaped Bayesian network (class -> each feature).
:func:`nb_fit` fits that network with the shared Dirichlet estimator of
:mod:`heartbn.learn`, using the additive pseudo-count as the per-cell prior:
every count N becomes (N + pseudo) / (total + pseudo * cardinality).
:func:`nb_predict` classifies on that network with the shared inference of
:mod:`heartbn.inference`, and :meth:`NbModel.to_net` returns it, so the model
serializes in the shared network format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import DiscreteBayesNet, Variable, build_dag
from .dataset import DataTable
from .inference import Posterior, classify
from .learn import _fit_dirichlet


@dataclass(frozen=True)
class NbModel:
    """A fitted star network: the class node first, then one child per feature.

    ``prior`` is P(class); ``conditionals[name]`` has one row per class
    state and one column per feature state.  Rows sum to one.
    """

    net: DiscreteBayesNet
    pseudo: float

    def __post_init__(self):
        c, *features = self.net.dag.nodes
        if self.net.dag.edges != tuple((c, f) for f in features):
            raise ValueError("a Naive Bayes network must be the star class -> each feature")

    @property
    def class_var(self) -> Variable:
        return self.net.variable(self.net.dag.nodes[0])

    @property
    def features(self) -> tuple[Variable, ...]:
        return tuple(self.net.variable(name) for name in self.net.dag.nodes[1:])

    @property
    def prior(self) -> np.ndarray:
        return self.net.cpts[self.class_var.name].table[0]

    @property
    def conditionals(self) -> dict[str, np.ndarray]:
        return {v.name: self.net.cpts[v.name].table for v in self.features}

    def to_net(self) -> DiscreteBayesNet:
        """The equivalent star-shaped network (class -> each feature)."""
        return self.net


def nb_fit(data: DataTable, class_var: str, pseudo: float = 1.0) -> NbModel:
    """Estimate prior and conditionals by (optionally smoothed) frequencies.

    Every count N becomes (N + pseudo) / (total + pseudo * cardinality);
    pseudo = 0 is the plain relative frequency, and a class never seen with
    pseudo = 0 gets uniform conditionals.
    """
    if pseudo < 0.0:
        raise ValueError("pseudo must be non-negative")
    features = tuple(name for name in data.names if name != class_var)
    dag = build_dag((class_var,) + features, tuple((class_var, f) for f in features))
    return NbModel(_fit_dirichlet(dag, data, lambda q, r: pseudo), float(pseudo))


def nb_predict(model: NbModel, evidence: Mapping[str, int]) -> tuple[int, Posterior]:
    """Most probable class given feature evidence.

    The posterior is proportional to P(c) * prod P(x_i | c) over the
    supplied features; absent features are skipped.  It is computed by
    :func:`~heartbn.inference.classify` on the star network, so ties break
    toward the lower class index.
    """
    return classify(model.net, model.class_var.name, evidence)
