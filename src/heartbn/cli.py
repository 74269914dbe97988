"""Command-line interface.

Subcommands: preprocess, learn, evaluate, predict, dsep, export-dot.
Exit codes: 0 on success, 1 on usage errors (among them an option value
that the library function using it rejects; the message quotes its rule),
2 on data or model errors.  Every failure, and each library warning
shown, prints one line to standard error.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import dataset as ds
from .core import d_separated
from .errors import HeartBnError
from .evaluation import CLASS_COLUMN, ESTIMATORS, METHODS, _check_seeds, fit_model, run_experiment
from .inference import classify
from .learn import SCORE_KINDS, _check_alpha, _check_ess, _check_pseudo
from .model_io import export_dot, load_model, save_model

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 on usage problems, with one line on standard error."""

    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _glued(argv: list[str]) -> list[str]:
    """``argv`` with ``--option value`` written ``--option=value`` where the value starts with
    ``-``, which argparse would read as an option name.  Every option here but ``--help`` takes
    one value; ``-h`` and a token that starts with ``--`` stay option names."""
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token.startswith("-") and not token.startswith("--") and token != "-h"
                and prev.startswith("--") and "=" not in prev and prev not in ("--", "--help")):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def _checked(convert, check):
    """argparse type: ``convert(text)``, which the library's ``check`` must accept."""

    def parse(text: str):
        try:
            value = convert(text)
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        return value

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="heartbn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--data", required=True, help="discretized CSV from 'preprocess'")
    model.add_argument("--method", required=True, choices=METHODS)
    model.add_argument("--estimator", default="mle", choices=ESTIMATORS)
    model.add_argument("--score", default="bic", choices=SCORE_KINDS)
    model.add_argument("--ess", type=_checked(float, _check_ess), default=10.0)
    model.add_argument("--alpha", type=_checked(float, _check_alpha), default=0.05)
    model.add_argument("--pseudo", type=_checked(float, _check_pseudo), default=1.0)

    p = sub.add_parser("preprocess", help="raw table -> cleaned, discretized CSV")
    p.add_argument("--input", required=True, help="raw comma-separated file ('?' = missing)")
    p.add_argument("--output", required=True, help="destination CSV with header row")
    p.add_argument("--cutpoints", help="JSON file {attribute: [thresholds]}")
    p.set_defaults(run=_cmd_preprocess)

    p = sub.add_parser("learn", help="fit a model and write a model file", parents=[model])
    p.add_argument("--out", required=True, help="destination model file")
    p.set_defaults(run=_cmd_learn)

    p = sub.add_parser("evaluate", help="repeated-split evaluation report", parents=[model])
    p.add_argument("--ratio", type=_checked(float, ds._check_ratio), default=0.8)
    seeds = _checked(_parse_seeds, _check_seeds)
    p.add_argument("--seeds", required=True, type=seeds, help="comma-separated seed list")
    p.add_argument("--report", required=True, help="destination JSON report")
    p.set_defaults(run=_cmd_evaluate)

    p = sub.add_parser("predict", help="classify from evidence")
    p.add_argument("--model", required=True)
    p.add_argument("--evidence", required=True, help='e.g. "thal=2,cp=3"')
    p.add_argument("--target", default=CLASS_COLUMN, help="class variable name")
    p.set_defaults(run=_cmd_predict)

    p = sub.add_parser("dsep", help="test d-separation in a model's graph")
    p.add_argument("--model", required=True)
    nodes = _checked(_names, _check_nodes)
    p.add_argument("--x", required=True, type=nodes, help="comma-separated node set")
    p.add_argument("--y", required=True, type=nodes, help="comma-separated node set")
    p.add_argument("--given", default="", type=_names, help="comma-separated conditioning set")
    p.set_defaults(run=_cmd_dsep)

    p = sub.add_parser("export-dot", help="write the model's graph as DOT")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_export_dot)
    return parser


def _parse_seeds(text: str) -> list[int]:
    """Comma-separated seeds, spaces stripped and empty items skipped; a seed's digits are
    counted, leading zeros aside, before it is converted."""
    seeds = []
    for item in (item.strip() for item in text.split(",") if item.strip()):
        seed = ds._index_below(item, 10**100)
        if seed is None:
            raise ValueError(f"seed {item!r} is not a number of at most 100 digits 0-9")
        seeds.append(seed)
    return seeds


def _parse_evidence(spec: str, net) -> dict[str, int]:
    """Comma-separated name=state items, spaces stripped; empty items skipped."""
    evidence: dict[str, int] = {}
    for item in filter(str.strip, spec.split(",")):
        if "=" not in item:
            raise ValueError(f"evidence item {item!r} is not name=state")
        name, _, state = item.partition("=")
        name, state = name.strip(), state.strip()
        if name in evidence:
            raise ValueError(f"evidence names {name!r} more than once")
        var = net.variable(name)
        index = ds._index_below(state, var.cardinality)
        if state in var.states:
            evidence[name] = var.state_index(state)
        elif index is not None:
            evidence[name] = index  # fall back to a bare state index
        else:
            raise ValueError(
                f"{state!r} is not a state of {name!r}: give one of the labels "
                f"{', '.join(var.states)} or an index 0-{var.cardinality - 1}"
            )
    return evidence


def _names(spec: str) -> set[str]:
    return {part.strip() for part in spec.split(",") if part.strip()}


def _check_nodes(names: set[str]) -> None:
    if not names:
        raise ValueError("must name one or more nodes")


def _cmd_preprocess(args) -> None:
    cutpoints = ds.load_cutpoints(args.cutpoints) if args.cutpoints else ds.DEFAULT_CUTPOINTS
    table = ds.discretize(ds._clean_file(args.input), cutpoints)
    ds.write_table_csv(table, args.output)


def _model_options(args) -> dict:
    """Keyword arguments of fit_model and run_experiment from the shared model options."""
    model_kind, learner = METHODS[args.method]
    return dict(model_kind=model_kind, learner=learner, estimator=args.estimator, ess=args.ess,
                alpha=args.alpha, score_kind=args.score, pseudo=args.pseudo)


def _cmd_learn(args) -> None:
    save_model(fit_model(ds.read_table_csv(args.data), **_model_options(args)), args.out)


def _cmd_evaluate(args) -> None:
    table = ds.read_table_csv(args.data)
    report = run_experiment(table, ratio=args.ratio, seeds=args.seeds, **_model_options(args))
    ds._write_json(report, args.report)


def _cmd_predict(args) -> None:
    net = load_model(args.model)
    evidence = _parse_evidence(args.evidence, net)
    label_index, posterior = classify(net, args.target, evidence)
    label = net.variable(args.target).states[label_index]
    probs = " ".join(f"{p:.7g}" for p in posterior.probabilities)
    print(f"{label} {probs}")


def _cmd_dsep(args) -> None:
    separated = d_separated(load_model(args.model).dag, args.x, args.y, args.given)
    print("true" if separated else "false")


def _cmd_export_dot(args) -> None:
    export_dot(load_model(args.model).dag, args.out)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_glued(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    prefix = f"heartbn {args.command}"
    with warnings.catch_warnings():  # the filters still decide which warnings show
        warnings.showwarning = lambda text, *_: print(f"{prefix}: warning: {text}", file=sys.stderr)
        try:
            args.run(args)
        except (HeartBnError, OSError, ValueError, KeyError) as exc:
            print(f"{prefix}: {exc}", file=sys.stderr)
            return DATA_ERROR
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
