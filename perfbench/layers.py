"""Per-layer metrics of the traced run.

Self time is a span's duration minus the time its child spans cover, so
each ``*.self_s`` is time spent in that function's own code and in code no
traced function covers.  The comment before each group names the
end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import tracer

# (metric, unit, "calls" | "self", traced functions), measured per traced pass.
SPAN_METRICS = (
    # pass_s on heart-eval (through run_experiment's splits)
    ("dataset.split.calls", "count", "calls", ("dataset.split",)),
    ("dataset.split.self_s", "s", "self", ("dataset.split",)),
    # synth-learn (hc and hybrid); a small share of heart-eval
    ("learn.count_table.calls", "count", "calls", ("learn.count_table",)),
    ("learn.count_table.self_s", "s", "self", ("learn.count_table",)),
    ("learn.family_score.calls", "count", "calls", ("learn.family_score",)),
    ("learn.family_score.self_s", "s", "self", ("learn.family_score",)),
    ("learn.hill_climb.self_s", "s", "self", ("learn.hill_climb",)),
    # synth-learn (pc and hybrid); heart-eval's pc configuration
    ("learn.ci_test.calls", "count", "calls", ("learn.ci_test",)),
    ("learn.ci_test.self_s", "s", "self", ("learn.ci_test",)),
    ("learn.learn_skeleton.self_s", "s", "self", ("learn.learn_skeleton",)),
    ("learn.orient.self_s", "s", "self", ("learn.orient",)),
    # every workload that fits parameters
    ("learn.fit.self_s", "s", "self", ("learn.fit_mle", "learn.fit_bayesian")),
    # heart-eval and synth-query
    ("inference.posterior_ve.calls", "count", "calls", ("inference.posterior_ve",)),
    ("inference.posterior_ve.self_s", "s", "self", ("inference.posterior_ve",)),
    ("inference.classify.self_s", "s", "self", ("inference.classify",)),
    # heart-eval's nb configuration
    ("naive_bayes.nb_fit.self_s", "s", "self", ("naive_bayes.nb_fit",)),
    ("naive_bayes.nb_predict.calls", "count", "calls", ("naive_bayes.nb_predict",)),
    ("naive_bayes.nb_predict.self_s", "s", "self", ("naive_bayes.nb_predict",)),
    # heart-eval: harness overhead (row dicts, confusion, metrics)
    ("evaluation.run_experiment.self_s", "s", "self", ("evaluation.run_experiment",)),
    # synth-query's d-separation batch and heart-eval's fallback;
    # build_dag on every learned structure
    ("core.d_separated.calls", "count", "calls", ("core.d_separated",)),
    ("core.d_separated.self_s", "s", "self", ("core.d_separated",)),
    ("core.markov_blanket.calls", "count", "calls", ("core.markov_blanket",)),
    ("core.markov_blanket.self_s", "s", "self", ("core.markov_blanket",)),
    ("core.build_dag.calls", "count", "calls", ("core.build_dag",)),
    ("core.build_dag.self_s", "s", "self", ("core.build_dag",)),
    # cli
    ("model_io.save_model.self_s", "s", "self", ("model_io.save_model",)),
    ("model_io.load_model.self_s", "s", "self", ("model_io.load_model",)),
)

# setup_s on every workload that reads the Cleveland table.
SETUP_METRICS = (
    ("dataset.prepare.self_s", "s", "self",
     ("dataset.load_raw", "dataset.load_cleveland", "dataset.clean", "dataset.discretize")),
)

# (metric, unit, traced functions it needs), computed from span relations.
RATIO_METRICS = (
    # family scores computed per edge in hill_climb's result: wasted search work
    ("learn.hill_climb.scores_per_edge", "ratio", ("learn.family_score", "learn.hill_climb")),
    # CI tests run per edge learn_skeleton removed
    ("learn.learn_skeleton.tests_per_removal", "ratio", ("learn.ci_test", "learn.learn_skeleton")),
    # ZeroEvidenceError raised by posterior_ve; heart-eval's fallback path
    ("inference.zero_evidence", "count", ("inference.posterior_ve",)),
)

# Span notes: what a call's return value contributes to RATIO_METRICS.
NOTES = {
    "learn.hill_climb": lambda dag: len(dag.edges),
    "learn.learn_skeleton": lambda sk: len(sk.nodes) * (len(sk.nodes) - 1) // 2 - len(sk.edges),
}

# Measured by the workloads, not from spans.
OTHER_METRICS = (
    # quality counts that a performance change must leave unchanged
    ("learn.orient.conflicts", "count"),
    ("learn.shd.hc", "count"),
    ("learn.shd.pc", "count"),
    ("learn.shd.hybrid", "count"),
    ("evaluation.zero_evidence_rows", "count"),
    ("model_io.model_bytes", "bytes"),
    # cli: a fresh `python -c "import heartbn"`, and each command's process
    ("cli.import_s", "s"),
    ("cli.preprocess.wall_s", "s"),
    ("cli.learn.wall_s", "s"),
    ("cli.predict.wall_s", "s"),
    ("cli.dsep.wall_s", "s"),
    ("cli.evaluate.wall_s", "s"),
    # task times of the untraced passes of the traced run
    ("paper_eval_s", "s"),
    ("nb_eval_s", "s"),
    ("hc_eval_s", "s"),
    ("pc_eval_s", "s"),
    ("hybrid_eval_s", "s"),
    ("hc_learn_s", "s"),
    ("pc_learn_s", "s"),
    ("hybrid_learn_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("query_samples", "count"),
    ("cli_predict_s", "s"),
    ("cli_pipeline_s", "s"),
    ("error_rate", "ratio"),
    # the tracer itself: traced minus untraced wall time of the same pass,
    # and the traced pass split into span self time plus harness time
    ("trace.untraced_wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.span_self_s", "s"),
    ("trace.harness_s", "s"),
    ("trace.accounted_share", "ratio"),
)

PER_LAYER = tuple(
    (name, unit)
    for name, unit, *_ in SETUP_METRICS + SPAN_METRICS + RATIO_METRICS + OTHER_METRICS
)


def absent(traced: list[str]) -> list[str]:
    """Metrics whose traced functions no longer exist in the program."""
    have = set(traced)
    out = [m for m, _, _, fns in SETUP_METRICS + SPAN_METRICS if not set(fns) & have]
    out += [m for m, _, fns in RATIO_METRICS if not set(fns) <= have]
    return out


def span_metrics(spans: list[tracer.Span], specs=SPAN_METRICS) -> dict[str, float]:
    summary = tracer.summarize(spans)
    return {
        metric: sum(summary[f]["calls" if kind == "calls" else "self_s"] for f in fns if f in summary)
        for metric, _, kind, fns in specs
    }


def ratio_metrics(spans: list[tracer.Span]) -> dict[str, float]:
    def noted(name):
        return sum(s.note or 0 for s in spans if s.name == name)

    edges = noted("learn.hill_climb")
    removed = noted("learn.learn_skeleton")
    scores = tracer.under(spans, "learn.family_score", "learn.hill_climb")
    tests = tracer.under(spans, "learn.ci_test", "learn.learn_skeleton")
    zero = sum(s.name == "inference.posterior_ve" and s.error == "ZeroEvidenceError" for s in spans)
    return {
        "learn.hill_climb.scores_per_edge": scores / edges if edges else 0.0,
        "learn.learn_skeleton.tests_per_removal": tests / removed if removed else 0.0,
        "inference.zero_evidence": zero,
    }


def accounting(spans: list[tracer.Span], wall_s: float) -> dict[str, float]:
    """Split a traced pass into span self time and harness time."""
    own = sum(tracer.self_times(spans).values())
    roots = sum(s.duration for s in spans if s.parent is None)
    harness = wall_s - roots
    return {
        "trace.span_self_s": own,
        "trace.harness_s": harness,
        "trace.accounted_share": (own + harness) / wall_s if wall_s else 0.0,
    }
