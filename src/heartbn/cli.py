"""Command-line interface.

Subcommands: preprocess, learn, evaluate, predict, dsep, export-dot.
Exit codes: 0 on success, 1 on usage errors (including malformed or
out-of-range option values), 2 on data or model errors; every failure
prints a one-line diagnostic to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import dataset as ds
from .core import d_separated
from .errors import HeartBnError
from .evaluation import ESTIMATORS, METHODS, fit_model, run_experiment
from .inference import classify
from .learn import SCORE_KINDS
from .model_io import export_dot, load_model, save_model

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _checked(convert, accept, requirement: str):
    """argparse type: ``convert(text)`` if that succeeds and ``accept``s it, else a usage error."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value

    return parse


_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
_NON_NEGATIVE = _checked(float, lambda v: 0.0 <= v < math.inf, "a non-negative finite number")
_OPEN_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "a number strictly between 0 and 1")
_SEEDS = _checked(
    lambda text: [int(part) for part in text.split(",") if part.strip()],
    lambda seeds: seeds and min(seeds) >= 0 and len(set(seeds)) == len(seeds),
    "a comma-separated list of distinct non-negative integers",
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="heartbn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--data", required=True, help="discretized CSV from 'preprocess'")
    model.add_argument("--method", required=True, choices=METHODS)
    model.add_argument("--estimator", default="mle", choices=ESTIMATORS)
    model.add_argument("--score", default="bic", choices=SCORE_KINDS)
    model.add_argument("--ess", type=_POSITIVE, default=10.0)
    model.add_argument("--alpha", type=_OPEN_UNIT, default=0.05)
    model.add_argument("--pseudo", type=_NON_NEGATIVE, default=1.0)

    p = sub.add_parser("preprocess", help="raw table -> cleaned, discretized CSV")
    p.add_argument("--input", required=True, help="raw comma-separated file ('?' = missing)")
    p.add_argument("--output", required=True, help="destination CSV with header row")
    p.add_argument("--cutpoints", help="JSON file {attribute: [thresholds]}")

    p = sub.add_parser("learn", help="fit a model and write a model file", parents=[model])
    p.add_argument("--out", required=True, help="destination model file")

    p = sub.add_parser("evaluate", help="repeated-split evaluation report", parents=[model])
    p.add_argument("--ratio", type=_OPEN_UNIT, default=0.8)
    p.add_argument("--seeds", required=True, type=_SEEDS, help="comma-separated seed list")
    p.add_argument("--report", required=True, help="destination JSON report")

    p = sub.add_parser("predict", help="classify from evidence")
    p.add_argument("--model", required=True)
    p.add_argument("--evidence", required=True, help='e.g. "thal=2,cp=3"')
    p.add_argument("--target", default="target", help="class variable name")

    p = sub.add_parser("dsep", help="test d-separation in a model's graph")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True, help="comma-separated node set")
    p.add_argument("--y", required=True, help="comma-separated node set")
    p.add_argument("--given", default="", help="comma-separated conditioning set")

    p = sub.add_parser("export-dot", help="write the model's graph as DOT")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    return parser


def _parse_evidence(spec: str, net) -> dict[str, int]:
    evidence: dict[str, int] = {}
    if not spec.strip():
        return evidence
    for item in spec.split(","):
        if "=" not in item:
            raise ValueError(f"evidence item {item!r} is not name=state")
        name, _, state = item.partition("=")
        name, state = name.strip(), state.strip()
        if name in evidence:
            raise ValueError(f"evidence names {name!r} more than once")
        var = net.variable(name)
        if state in var.states:
            evidence[name] = var.state_index(state)
        elif state.isdecimal() and int(state) < var.cardinality:
            evidence[name] = int(state)  # fall back to a bare state index
        else:
            raise ValueError(
                f"{state!r} is not a state of {name!r}: give one of the labels "
                f"{', '.join(var.states)} or an index 0-{var.cardinality - 1}"
            )
    return evidence


def _names(spec: str) -> set[str]:
    return {part.strip() for part in spec.split(",") if part.strip()}


def _cmd_preprocess(args) -> int:
    cutpoints = ds.load_cutpoints(args.cutpoints) if args.cutpoints else ds.DEFAULT_CUTPOINTS
    table = ds.discretize(ds.clean(ds.load_raw(args.input)), cutpoints)
    ds.write_table_csv(table, args.output)
    return 0


def _model_options(args) -> dict:
    """Keyword arguments of fit_model and run_experiment from the shared model options."""
    model_kind, learner = METHODS[args.method]
    return dict(model_kind=model_kind, learner=learner, estimator=args.estimator, ess=args.ess,
                alpha=args.alpha, score_kind=args.score, pseudo=args.pseudo)


def _cmd_learn(args) -> int:
    save_model(fit_model(ds.read_table_csv(args.data), **_model_options(args)), args.out)
    return 0


def _cmd_evaluate(args) -> int:
    table = ds.read_table_csv(args.data)
    report = run_experiment(table, ratio=args.ratio, seeds=args.seeds, **_model_options(args))
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_predict(args) -> int:
    net = load_model(args.model)
    evidence = _parse_evidence(args.evidence, net)
    label_index, posterior = classify(net, args.target, evidence)
    label = net.variable(args.target).states[label_index]
    probs = " ".join(f"{p:.7g}" for p in posterior.probabilities)
    print(f"{label} {probs}")
    return 0


def _cmd_dsep(args) -> int:
    net = load_model(args.model)
    result = d_separated(net.dag, _names(args.x), _names(args.y), _names(args.given))
    print("true" if result else "false")
    return 0


def _cmd_export_dot(args) -> int:
    net = load_model(args.model)
    export_dot(net.dag, args.out)
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "learn": _cmd_learn,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "dsep": _cmd_dsep,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (HeartBnError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"heartbn {args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
