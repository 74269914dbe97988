"""Model fitting, confusion counts, classification metrics and the repeated-split harness.

The positive class is state 1 (disease present).  :func:`fit_model` is the
one dispatch from a model description to a fitted network, Naive Bayes
(:func:`~heartbn.learn.nb_fit`'s star network) included, and every model
classifies through the same inference.  :func:`confusion` and
:func:`metrics` return plain dicts, keyed in the order the report prints
them.  ``run_experiment`` repeats a seeded train/test split, fits the
requested model on the training rows, classifies all test rows at once
with :func:`~heartbn.inference.classify_rows` using all non-target columns
as evidence, sends only the rows whose evidence is impossible through a
per-row fallback, and reports one confusion dict and metric dict per seed
plus aggregates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DiscreteBayesNet, markov_blanket
from .dataset import DataTable, split
from .errors import ZeroEvidenceError
from .heart import heart_network
from .inference import classify, classify_rows
from .learn import (
    _check_alpha, _check_ess, _check_pseudo, _check_score, fit_bayesian, fit_mle, hill_climb,
    hybrid_learn, learn_skeleton, nb_fit, orient,
)

MODEL_KINDS = ("bn-paper", "bn-learned", "nb")
LEARNERS = ("hc", "pc", "hybrid")
ESTIMATORS = ("mle", "bayes")
# Command-line --method name -> (model kind, structure learner).
METHODS = {
    "paper": ("bn-paper", None),
    **{name: ("bn-learned", name) for name in LEARNERS},
    "nb": ("nb", None),
}


def confusion(predicted: Sequence[int], actual: Sequence[int]) -> dict[str, int]:
    """Count ``{"tp", "fp", "fn", "tn"}`` for binary labels (positive class = 1)."""
    if len(predicted) != len(actual):
        raise ValueError("predicted and actual must have equal length")
    pairs = list(zip(predicted, actual))
    if not all(p in (0, 1) and a in (0, 1) for p, a in pairs):
        raise ValueError("labels must be binary (0 or 1)")
    cells = {"tp": (1, 1), "fp": (1, 0), "fn": (0, 1), "tn": (0, 0)}  # (predicted, actual)
    return {name: pairs.count(cell) for name, cell in cells.items()}


def metrics(cm: dict[str, int]) -> dict[str, float]:
    """``{"accuracy", "precision", "recall", "f1"}`` of a :func:`confusion` dict;
    degenerate ratios default to 0."""
    tp, fp, fn, tn = cm["tp"], cm["fp"], cm["fn"], cm["tn"]
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty confusion matrix")
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"accuracy": (tp + tn) / total, "precision": precision, "recall": recall, "f1": f1}


def degenerate_fields(cm: dict[str, int]) -> list[str]:
    """Metric names whose denominator was zero (reported as 0 by convention)."""
    out = []
    if cm["tp"] + cm["fp"] == 0:
        out.append("precision")
    if cm["tp"] + cm["fn"] == 0:
        out.append("recall")
    if cm["tp"] == 0:  # precision and recall are both 0
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
    _check_score(score_kind, ess)
    _check_ess(ess)
    _check_alpha(alpha)
    _check_pseudo(pseudo)

    if model_kind == "nb":
        return nb_fit(train, "target", pseudo)
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


def _check_seeds(seeds: Sequence[int]) -> None:
    """Refuse anything but distinct non-negative ints; a bool, float or string is not converted."""
    if (
        not seeds
        or not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool) for s in seeds)
        or min(seeds) < 0
        or len(set(seeds)) < len(seeds)
    ):
        raise ValueError(f"seeds must be one or more distinct non-negative integers, got {seeds}")


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
    """Repeated-split evaluation over ``seeds``; returns a JSON-ready report.

    The seeds, one or more distinct non-negative integers, are checked
    before the first split and run in ascending order.  Each seed's test
    rows are classified from all non-target columns in one
    :func:`~heartbn.inference.classify_rows` call.  Rows whose evidence has
    probability zero under the fitted model go through :func:`_fallback_classify`
    (Markov blanket, then class prior) and are counted in ``zero_evidence_rows``.
    """
    seeds = list(seeds)
    _check_seeds(seeds)
    per_seed = []
    for seed in sorted(map(int, seeds)):
        train, test = split(table, ratio, seed)
        net = fit_model(train, model_kind, learner, estimator, ess, alpha, score_kind, pseudo)
        predicted, _ = classify_rows(net, "target", test)
        impossible = np.flatnonzero(predicted == -1)
        for i in impossible:
            predicted[i] = _fallback_classify(net, test.row_assignment(i, exclude=("target",)))
        cm = confusion(predicted.tolist(), [int(v) for v in test.column("target")])
        per_seed.append(
            {
                "seed": seed,
                "confusion": cm,
                "metrics": metrics(cm),
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
