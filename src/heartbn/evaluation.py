"""Model fitting, confusion matrix, classification metrics and the repeated-split harness.

The positive class is state 1 (disease present).  :func:`fit_model` is the
one dispatch from a model description to a fitted network, Naive Bayes
included.  ``run_experiment`` repeats a seeded train/test split, fits the
requested model on the training rows, classifies all test rows at once with
:func:`~heartbn.inference.classify_rows` using all non-target columns as
evidence, sends only the rows whose evidence is impossible through a
per-row fallback, and reports one confusion matrix and metric set per seed
plus aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DiscreteBayesNet, markov_blanket
from .dataset import DataTable, split
from .errors import ZeroEvidenceError
from .heart import heart_network
from .inference import classify, classify_rows
from .learn import (
    SCORE_KINDS, fit_bayesian, fit_mle, hill_climb, hybrid_learn, learn_skeleton, orient,
)
from .naive_bayes import nb_fit

MODEL_KINDS = ("bn-paper", "bn-learned", "nb")
LEARNERS = ("hc", "pc", "hybrid")
ESTIMATORS = ("mle", "bayes")
# Command-line --method name -> (model kind, structure learner).
METHODS = {
    "paper": ("bn-paper", None),
    **{name: ("bn-learned", name) for name in LEARNERS},
    "nb": ("nb", None),
}


@dataclass(frozen=True)
class ConfusionMatrix:
    """Binary confusion counts; rows of the underlying table are the actual labels."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f1: float


def confusion(predicted: Sequence[int], actual: Sequence[int]) -> ConfusionMatrix:
    """Count TP/FP/FN/TN for binary labels (positive class = 1)."""
    if len(predicted) != len(actual):
        raise ValueError("predicted and actual must have equal length")
    tp = fp = fn = tn = 0
    for p, a in zip(predicted, actual):
        if p not in (0, 1) or a not in (0, 1):
            raise ValueError("labels must be binary (0 or 1)")
        if a == 1:
            if p == 1:
                tp += 1
            else:
                fn += 1
        else:
            if p == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp, fp, fn, tn)


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, precision, recall and F1; degenerate ratios default to 0."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if cm.tp + cm.fp > 0 else 0.0
    recall = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return Metrics(accuracy, precision, recall, f1)


def degenerate_fields(cm: ConfusionMatrix) -> list[str]:
    """Metric names whose denominator was zero (reported as 0 by convention)."""
    out = []
    if cm.tp + cm.fp == 0:
        out.append("precision")
    if cm.tp + cm.fn == 0:
        out.append("recall")
    if cm.tp == 0:  # precision and recall are both 0
        out.append("f1")
    return out


def _fallback_classify(net: DiscreteBayesNet, evidence: dict[str, int]) -> int:
    """Classification when the full evidence has probability zero.

    States the training data never produced make the whole record impossible
    under an MLE-fitted model even when the offending variable is irrelevant
    to the class.  Variables outside the class's Markov blanket cannot
    change the posterior, so the evidence is first restricted to the
    blanket; if that drops nothing (a Naive Bayes blanket is every feature)
    or is still impossible, the class prior decides.
    """
    blanket = markov_blanket(net.dag, "target")
    reduced = {k: v for k, v in evidence.items() if k in blanket}
    if len(reduced) < len(evidence):
        try:
            return classify(net, "target", reduced)[0]
        except ZeroEvidenceError:
            pass
    return classify(net, "target", {})[0]


def fit_model(
    train: DataTable, model_kind: str, learner: str | None, estimator: str,
    ess: float, alpha: float, score_kind: str, pseudo: float,
) -> DiscreteBayesNet:
    """Fit one network of ``model_kind`` on ``train`` with class variable ``target``.

    "nb" yields the fitted Naive Bayes star network.  ``learner`` is used
    only by "bn-learned".  Every value is validated before any work,
    including values the chosen model does not use.
    """
    if model_kind not in MODEL_KINDS:
        raise ValueError(f"model_kind must be one of {MODEL_KINDS}")
    if model_kind == "bn-learned" and learner not in LEARNERS:
        raise ValueError(f"learner must be one of {LEARNERS}")
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}")
    if score_kind not in SCORE_KINDS:
        raise ValueError(f"score_kind must be one of {SCORE_KINDS}")
    if not ess > 0.0:
        raise ValueError("ess must be positive")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not pseudo >= 0.0:
        raise ValueError("pseudo must be non-negative")

    if model_kind == "nb":
        return nb_fit(train, "target", pseudo).net
    if model_kind == "bn-paper":
        dag = heart_network()
    elif learner == "hc":
        dag = hill_climb(train, kind=score_kind, ess=ess)
    elif learner == "pc":
        dag = orient(learn_skeleton(train, alpha))
    else:
        dag = hybrid_learn(train, alpha, kind=score_kind, ess=ess)
    if estimator == "mle":
        return fit_mle(dag, train)
    return fit_bayesian(dag, train, ess)


def run_experiment(
    table: DataTable,
    model_kind: str,
    ratio: float,
    seeds: Sequence[int],
    estimator: str = "mle",
    ess: float = 10.0,
    learner: str | None = "hc",
    alpha: float = 0.05,
    score_kind: str = "bic",
    pseudo: float = 1.0,
) -> dict:
    """Repeated-split evaluation; returns a JSON-ready report.

    Each seed's test rows are classified from all non-target columns in one
    :func:`~heartbn.inference.classify_rows` call.  Rows whose evidence has
    probability zero under the fitted model go through
    :func:`_fallback_classify` (Markov blanket, then class prior) and are
    counted in ``zero_evidence_rows``.
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    per_seed = []
    for seed in sorted(int(s) for s in seeds):
        train, test = split(table, ratio, seed)
        net = fit_model(train, model_kind, learner, estimator, ess, alpha, score_kind, pseudo)
        predicted, _ = classify_rows(net, "target", test)
        impossible = np.flatnonzero(predicted == -1)
        for i in impossible:
            predicted[i] = _fallback_classify(net, test.row_assignment(i, exclude=("target",)))
        cm = confusion(predicted.tolist(), [int(v) for v in test.column("target")])
        m = metrics(cm)
        per_seed.append(
            {
                "seed": seed,
                "confusion": {"tp": cm.tp, "fp": cm.fp, "fn": cm.fn, "tn": cm.tn},
                "metrics": {
                    "accuracy": m.accuracy,
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                },
                "degenerate_metrics": degenerate_fields(cm),
                "zero_evidence_rows": len(impossible),
            }
        )
    aggregate = {"mean": {}, "stddev": {}}
    for field in ("accuracy", "precision", "recall", "f1"):
        values = np.array([entry["metrics"][field] for entry in per_seed])
        aggregate["mean"][field] = float(values.mean())
        aggregate["stddev"][field] = float(values.std())
    return {
        "model_kind": model_kind,
        "ratio": ratio,
        "estimator": estimator if model_kind != "nb" else None,
        "learner": learner if model_kind == "bn-learned" else None,
        "per_seed": per_seed,
        "aggregate": aggregate,
    }
