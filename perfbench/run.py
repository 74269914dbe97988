"""heartbn benchmark: one workload per process.

    python3 perfbench/run.py --workload heart-eval --seed 1 --seconds 45 --trace 0

Run from the repository root.  The program is used from ``src/`` as it
stands; nothing is installed.  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off; with ``--trace 1`` it measures the
per-layer metrics, each traced pass preceded by the same pass untraced.
Human-readable lines come first; the last line of standard output is the
JSON result.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads, for this process and every process it starts:
# the load comes from one process with no extra threads.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("heart-eval", "synth-learn", "synth-query", "cli")
SETUP_PROBES = 3  # fresh set-ups per run; setup_s is their median
IMPORT_PROBES = 3
HARD_STOP_S = 140.0  # no new pass starts after this, whatever --seconds says


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any process it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timed_process(argv: list[str]) -> tuple[float, int]:
    from workloads import child_env

    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(ROOT), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return elapsed, proc.returncode


def run_pass(workload, inputs, check, in_process=False, tracer=None):
    """One pass, traced if a tracer is given, then its checks, untraced.

    ConflictingOrientationWarnings are counted instead of printed.
    """
    from heartbn.errors import ConflictingOrientationWarning

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConflictingOrientationWarning)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.run_pass(inputs, in_process=in_process)
        finally:
            if tracer is not None:
                tracer.uninstall()
        result.total_s = time.perf_counter() - start
    result.counts["learn.orient.conflicts"] = sum(
        issubclass(w.category, ConflictingOrientationWarning) for w in caught
    )
    workload.check(result.outputs, check)
    result.outputs = []  # checked; free the memory
    return result


def keep_going(started: float, deadline: float, rounds: list[float], ops: int, workload) -> bool:
    """Start another round only if a round of the usual length ends by the deadline.

    A run makes at least one round, and as many as ``workload.min_ops`` needs.
    """
    now = time.perf_counter()
    if not rounds:
        return True
    if now - started > HARD_STOP_S:
        return False
    return ops < workload.min_ops or now + stats.median(rounds) <= deadline


def end_to_end(workload, seed: int, seconds: float, started: float):
    from workloads import CheckResult

    check = CheckResult()
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
             "--seed", str(seed), "--setup-probe"]
    setup_times, setup_cals = [], []
    for _ in range(SETUP_PROBES):
        setup_cals.append(calibrate.calibrate())
        elapsed, code = timed_process(probe)
        check.expect(code == 0, f"set-up probe exited {code}")
        setup_times.append(elapsed)

    workload.setup()
    workload.warmup()
    passes, rounds = [], []
    deadline = time.perf_counter() + seconds
    while keep_going(started, deadline, rounds, sum(len(p.ops) for p in passes), workload):
        begin = time.perf_counter()
        passes.append(run_pass(workload, workload.next_inputs(), check))
        rounds.append(time.perf_counter() - begin)
    workload.final_checks(check)

    norm = calibrate.normalized
    ops = [norm(s, c) * 1000.0 for p in passes for s, c in zip(p.ops, p.cals)]
    raw_ops = [s * 1000.0 for p in passes for s in p.ops]
    cals = [c for p in passes for c in p.cals]
    values = {
        "setup_s": (stats.median([norm(t, c) for t, c in zip(setup_times, setup_cals)]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "pass_s": (stats.median([sum(map(norm, p.ops, p.cals)) for p in passes]), "s"),
    }
    lines = [
        f"passes: {len(passes)}; one op = {workload.op}",
        f"calibration (ms): median {stats.median(cals) * 1000:.4g}, min {min(cals) * 1000:.4g}, "
        f"max {max(cals) * 1000:.4g} (reference {calibrate.REFERENCE_S * 1000:.4g})",
        f"raw: setup_s median {stats.median(setup_times):.4f} {[round(t, 4) for t in setup_times]}; "
        f"pass_s median {stats.median([p.wall_s for p in passes]):.4f}",
        f"raw op latency (ms): {stats.describe(raw_ops, 50)}; {stats.describe(raw_ops, 99)}",
        f"normalized op latency (ms): {stats.describe(ops, 50)}; {stats.describe(ops, 99)}; "
        f"highest percentile with {stats.MIN_BEYOND} samples beyond: {stats.highest_supported(len(ops))}",
    ]
    for task in sorted({t for p in passes for t in p.tasks}):
        times = [t for p in passes for t in p.tasks.get(task, [])]
        lines.append(f"task {task}: median {stats.median(times):.6g} (n={len(times)})")
    return values, check, lines


def traced_run(workload, seed: int, seconds: float, started: float):
    from workloads import CheckResult

    check = CheckResult()
    values: dict[str, float] = {name: 0.0 for name, _ in layers.PER_LAYER}
    lines = []

    if workload.spawns_processes:
        probe = [sys.executable, "-c", "import heartbn"]
        times = []
        for _ in range(IMPORT_PROBES):
            elapsed, code = timed_process(probe)
            check.expect(code == 0, f"import probe exited {code}")
            times.append(elapsed)
        values["cli.import_s"] = stats.median(times)

    tracer = tracing.Tracer(notes=layers.NOTES)
    traced_names = tracer.install()
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()
    values.update(layers.span_metrics(setup_spans, layers.SETUP_METRICS))
    workload.warmup()
    workload.layer_batch = True

    e2e, per_pass, rounds, all_spans = [], [], [], list(setup_spans)
    rows: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    while keep_going(started, deadline, rounds, sum(len(p.ops) for p in per_pass), workload):
        begin = time.perf_counter()
        inputs = workload.next_inputs()
        plain = run_pass(workload, inputs, check)
        e2e.append(plain)
        base = run_pass(workload, inputs, check, in_process=True) if workload.spawns_processes else plain
        traced = run_pass(workload, inputs, check, in_process=True, tracer=tracer)
        spans = tracer.take()
        all_spans += spans
        row = layers.span_metrics(spans)
        row.update(layers.ratio_metrics(spans))
        row.update(layers.accounting(spans, traced.total_s))
        row.update(traced.counts)
        row["trace.wall_s"] = traced.total_s
        row["trace.untraced_wall_s"] = base.total_s
        row["trace.overhead_s"] = traced.total_s - base.total_s
        row["trace.overhead_share"] = row["trace.overhead_s"] / base.total_s
        per_pass.append(traced)
        for key, value in row.items():
            rows.setdefault(key, []).append(value)
        rounds.append(time.perf_counter() - begin)
    workload.final_checks(check)
    for key, series in rows.items():
        if key in values:
            values[key] = stats.median(series)

    tasks: dict[str, list[float]] = {}
    for p in e2e:
        for task, times in p.tasks.items():
            tasks.setdefault(task, []).extend(times)
    for task, times in tasks.items():
        if task == "query_ms":
            values["query_p50_ms"] = stats.percentile(times, 50)
            values["query_p99_ms"] = stats.percentile(times, 99)
            values["query_samples"] = len(times)
            lines.append(f"query latency (ms, untraced passes): {stats.describe(times, 50)}; "
                         f"{stats.describe(times, 99)}")
        elif task in values:
            values[task] = stats.median(times)
    if workload.spawns_processes:
        values["cli_predict_s"] = stats.median(tasks["cli.predict.wall_s"])
        values["cli_pipeline_s"] = stats.median([p.wall_s for p in e2e])
    for key, value in check.notes.items():
        if key in values:
            values[key] = value
    values["error_rate"] = len(check.failures) / max(check.attempted, 1)

    missing = layers.absent(traced_names)
    summary = tracing.summarize(all_spans)
    lines.append(f"traced passes: {len(per_pass)}; traced functions: {len(traced_names)}")
    lines.append("absent (traced function no longer exists): " + (", ".join(missing) or "none"))
    lines.append("not exercised by this workload: " + (", ".join(
        m for m, _, _, fns in layers.SPAN_METRICS
        if m not in missing and not any(f in summary for f in fns)
    ) or "none"))
    for name in sorted(summary, key=lambda n: -summary[n]["self_s"]):
        entry = summary[name]
        lines.append(f"span {name}: calls={entry['calls']} self_s={entry['self_s']:.6f} "
                     f"total_s={entry['total_s']:.6f} errors={entry['errors'] or '-'}")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.jsonl.gz"
    tracing.write_jsonl(all_spans, trace_path)
    lines.append(f"spans written to {trace_path.relative_to(ROOT)} ({len(all_spans)} spans)")

    units = dict(layers.PER_LAYER)
    return {k: (v, units[k]) for k, v in values.items()}, check, lines


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="heartbn benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "heartbn" / "__init__.py").is_file():
        print(f"perfbench: no heartbn sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from heartbn.errors import ConflictingOrientationWarning
    from workloads import WORKLOADS

    warnings.simplefilter("ignore", ConflictingOrientationWarning)  # counted per pass instead
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        if args.setup_probe:
            workload.setup()
            return 0
        if args.trace:
            values, check, lines = traced_run(workload, args.seed, args.seconds, started)
        else:
            values, check, lines = end_to_end(workload, args.seed, args.seconds, started)
    finally:
        workload.close()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("meta: " + json.dumps(metadata(), sort_keys=True))
    for line in lines:
        print(line)
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"checks: {check.attempted} attempted, {len(check.failures)} failed")
    for failure in check.failures[:20]:
        print(f"FAILED: {failure}")
    for key, value in sorted(check.notes.items()):
        print(f"note {key} = {value}")
    result = {
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
