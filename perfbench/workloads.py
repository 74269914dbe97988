"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, runs
one pass of its fixed task list in ``run_pass`` and checks the outputs of a
pass in ``check``, outside every timed region.  ``next_inputs`` draws the
seeded inputs of the next pass before it starts, untimed and untraced.
heartbn functions are always called through their module
(``evaluation.run_experiment``), so a tracer that rebinds module
attributes sees the calls.

Why these four (each likely optimisation does most of its work in one
workload and little in another):

* heart-eval: the paper's experiment as users run it; full evidence, so
  per-row inference overhead dominates, with structure learning a minor
  share and the zero-evidence fallback exercised.
* synth-learn: structure and parameter learning on 20,000 sampled rows;
  learning dominates and inference is absent.
* synth-query: single classify queries with partial evidence on a 40-node
  network; many hidden variables are eliminated per query.
* cli: one fresh process per command; start-up, import, CSV and model-file
  I/O, which no other workload measures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
from calibrate import SpeedClock
from heartbn import cli, core, dataset, errors, evaluation, heart, inference, learn, model_io

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

RATIO = 0.8
SEEDS = tuple(range(20))
# (task metric, model kind, learner) of the five paper configurations.
HEART_CONFIGS = (
    ("paper_eval_s", "bn-paper", "hc"),
    ("nb_eval_s", "nb", "hc"),
    ("hc_eval_s", "bn-learned", "hc"),
    ("pc_eval_s", "bn-learned", "pc"),
    ("hybrid_eval_s", "bn-learned", "hybrid"),
)


def report_text(report: dict) -> str:
    """A report exactly as ``heartbn evaluate`` writes it."""
    return json.dumps(report, indent=2) + "\n"


@dataclass
class PassResult:
    wall_s: float
    ops: list[float] = field(default_factory=list)  # latency of each unit operation, s
    cals: list[float] = field(default_factory=list)  # host calibration next to each op, s
    tasks: dict[str, list[float]] = field(default_factory=dict)  # task metric -> times, s
    outputs: list = field(default_factory=list)  # (label, output or exception)
    counts: dict[str, float] = field(default_factory=dict)
    total_s: float = 0.0  # whole run_pass call, including untimed extras; set by the runner


@dataclass
class CheckResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def _timed(fn):
    """(result or raised exception, seconds)."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        result = exc
    return result, time.perf_counter() - start


class Workload:
    name = ""
    op = ""  # what one entry of PassResult.ops times
    min_ops = 1
    spawns_processes = False
    layer_batch = False  # extra layer-only calls, made in the traced run

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.clock = SpeedClock()

    def _op(self, result: PassResult, fn):
        """Run one operation, recording its latency and the host calibration next to it."""
        calibration = self.clock.current()
        out, seconds = _timed(fn)
        result.ops.append(seconds)
        result.cals.append(calibration)
        return out, seconds

    def setup(self) -> None:
        pass

    def warmup(self) -> None:
        pass

    def next_inputs(self):
        return None

    def run_pass(self, inputs, in_process: bool = False) -> PassResult:
        raise NotImplementedError

    def check(self, outputs, result: CheckResult) -> None:
        raise NotImplementedError

    def final_checks(self, result: CheckResult) -> None:
        pass

    def close(self) -> None:
        pass


class HeartEval(Workload):
    name = "heart-eval"
    op = "one 20-seed run_experiment call"

    def setup(self):
        self.table = dataset.discretize(dataset.clean(dataset.load_cleveland()))
        self.golden = {
            label: (GOLDEN / f"{label}.json").read_text(encoding="utf-8")
            for label, _, _ in HEART_CONFIGS
        }

    def warmup(self):
        for _, kind, learner in HEART_CONFIGS:
            evaluation.run_experiment(self.table, kind, RATIO, SEEDS[:1], learner=learner)

    def next_inputs(self):
        return self.rng.permutation(len(HEART_CONFIGS))

    def run_pass(self, order, in_process=False):
        result = PassResult(0.0)
        start = time.perf_counter()
        for i in order:
            label, kind, learner = HEART_CONFIGS[i]
            report, seconds = self._op(
                result, lambda: evaluation.run_experiment(self.table, kind, RATIO, SEEDS, learner=learner)
            )
            result.tasks[label] = [seconds]
            result.outputs.append((label, report))
        result.wall_s = time.perf_counter() - start
        result.counts["evaluation.zero_evidence_rows"] = sum(
            entry["zero_evidence_rows"]
            for _, report in result.outputs if isinstance(report, dict)
            for entry in report["per_seed"]
        )
        return result

    def check(self, outputs, result):
        for label, report in outputs:
            if isinstance(report, Exception):
                result.expect(False, f"{label}: {type(report).__name__}: {report}")
            else:
                result.expect(report_text(report) == self.golden[label],
                              f"{label}: report differs from golden/{label}.json")


LEARN_TASKS = (
    ("hc_learn_s", "hc", lambda data: learn.hill_climb(data)),
    ("pc_learn_s", "pc", lambda data: learn.orient(learn.learn_skeleton(data))),
    ("hybrid_learn_s", "hybrid", lambda data: learn.hybrid_learn(data)),
)


class SynthLearn(Workload):
    name = "synth-learn"
    op = "one structure learn plus fit_mle"
    n_nodes = 30
    n_rows = 20_000

    def setup(self):
        self.truth = synth.random_network(self.rng, self.n_nodes)
        self.data = synth.sample(self.truth, self.n_rows, self.rng)
        self.digests: dict[str, str] = {}

    def run_pass(self, inputs, in_process=False):
        result = PassResult(0.0)
        start = time.perf_counter()
        for label, short, learner in LEARN_TASKS:
            out, seconds = self._op(result, lambda: self._learn_and_fit(learner))
            result.tasks[label] = [seconds]
            result.outputs.append((short, out))
        result.wall_s = time.perf_counter() - start
        return result

    def _learn_and_fit(self, learner):
        dag = learner(self.data)
        return dag, learn.fit_mle(dag, self.data)

    def check(self, outputs, result):
        names = set(self.data.names)
        for short, out in outputs:
            if isinstance(out, Exception):
                result.expect(False, f"{short}: {type(out).__name__}: {out}")
                continue
            dag, net = out
            ok = (
                isinstance(dag, core.Dag)
                and len(dag.nodes) == len(names) and set(dag.nodes) == names
                and set(net.cpts) == names
            )
            if ok:
                try:
                    core.build_dag(dag.nodes, dag.edges)
                except errors.HeartBnError:
                    ok = False
            result.expect(ok, f"{short}: output is not a DAG over the {len(names)} data columns")
            if not ok:
                continue
            if short == "hc":
                empty = core.build_dag(dag.nodes, ())
                result.expect(
                    learn.score(dag, self.data) >= learn.score(empty, self.data),
                    "hc: learned DAG scores below the empty graph",
                )
            digest = synth.edge_digest(dag)
            first = self.digests.setdefault(short, digest)
            result.expect(digest == first, f"{short}: structure changed between passes")
            result.notes[f"learn.shd.{short}"] = synth.shd(dag, self.truth.dag)
            result.notes[f"{short}.edges"] = len(dag.edges)
            result.notes[f"{short}.digest"] = digest


class SynthQuery(Workload):
    name = "synth-query"
    op = "one classify query"
    min_ops = 1000  # nearest-rank p99 then has at least ten samples beyond it
    n_nodes = 40
    block = 250  # queries per pass
    max_evidence = 20
    n_rows = 4096
    n_oracle = 12  # queries checked against posterior_enumeration per run

    def setup(self):
        self.net = synth.random_network(self.rng, self.n_nodes, prefix="Q")
        self.rows = synth.sample(self.net, self.n_rows, self.rng).rows
        self.small = synth.random_network(self.rng, 8, cards=(2, 3), prefix="S")
        self.small_rows = synth.sample(self.small, 64, self.rng).rows

    @staticmethod
    def _query(rng, net, rows, max_evidence):
        nodes = net.dag.nodes
        q = int(rng.integers(len(nodes)))
        others = [j for j in range(len(nodes)) if j != q]
        k = int(rng.integers(0, max_evidence + 1))
        chosen = sorted(int(j) for j in rng.choice(others, size=k, replace=False))
        row = rows[int(rng.integers(len(rows)))]
        evidence = {nodes[j]: int(row[j]) for j in chosen}
        rest = [nodes[j] for j in others if nodes[j] not in evidence]
        return nodes[q], evidence, rest[int(rng.integers(len(rest)))]

    def next_inputs(self):
        return [self._query(self.rng, self.net, self.rows, self.max_evidence) for _ in range(self.block)]

    def run_pass(self, queries, in_process=False):
        result = PassResult(0.0)
        start = time.perf_counter()
        for q, evidence, _ in queries:
            out, seconds = self._op(result, lambda: inference.classify(self.net, q, evidence))
            result.outputs.append(("query", (q, evidence, out)))
        result.wall_s = time.perf_counter() - start
        result.tasks["query_ms"] = [s * 1000.0 for s in result.ops]
        if self.layer_batch:
            dag = self.net.dag
            for q, evidence, y in queries:
                blanket = core.markov_blanket(dag, q)
                separated = core.d_separated(dag, {q}, {y}, set(evidence))
                result.outputs.append(("dsep", (q, evidence, y, blanket, separated)))
        return result

    def check(self, outputs, result):
        dag = self.net.dag
        for kind, out in outputs:
            if kind == "query":
                q, evidence, answer = out
                if isinstance(answer, Exception):
                    result.expect(False, f"query {q}: {type(answer).__name__}: {answer}")
                    continue
                label, posterior = answer
                probs = posterior.probabilities
                reference = synth.reference_posterior(self.net, q, evidence)
                result.expect(
                    label == int(np.argmax(probs)) and np.max(np.abs(probs - reference)) <= 1e-9,
                    f"query {q} | {evidence}: {list(probs)} != reference {list(reference)}",
                )
            else:
                q, evidence, y, blanket, separated = out
                parents = set(dag.parents(q))
                children = {c for p, c in dag.edges if p == q}
                spouses = {p for p, c in dag.edges if c in children and p != q}
                result.expect(blanket == parents | children | spouses, f"markov_blanket({q})")
                result.expect(
                    separated == synth.d_separated_moral(dag, {q}, {y}, set(evidence)),
                    f"d_separated({q}, {y} | {sorted(evidence)})",
                )

    def final_checks(self, result):
        """A subset on a small network against the enumeration oracle."""
        rng = np.random.default_rng([self.seed, 1])  # independent of how many passes ran
        for _ in range(self.n_oracle):
            q, evidence, _ = self._query(rng, self.small, self.small_rows, 4)
            try:
                ve = inference.posterior_ve(self.small, q, evidence).probabilities
                enum = inference.posterior_enumeration(self.small, q, evidence).probabilities
            except errors.HeartBnError as exc:
                result.expect(False, f"small-net query {q}: {type(exc).__name__}: {exc}")
                continue
            reference = synth.reference_posterior(self.small, q, evidence)
            result.expect(
                np.max(np.abs(ve - enum)) <= 1e-9 and np.max(np.abs(reference - enum)) <= 1e-9,
                f"small-net query {q} | {evidence}: ve, enumeration and reference disagree",
            )


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child process that imports heartbn from ``root/src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Cli(Workload):
    name = "cli"
    op = "one CLI command process"
    spawns_processes = True
    predicts = 3  # predict commands per pass

    def setup(self):
        self.tmp = self.root / ".bench_out" / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.root)
        table = dataset.discretize(dataset.clean(dataset.load_cleveland()))
        self.model = learn.fit_mle(heart.heart_network(), table)
        expected_csv, expected_model = self.tmp / "expected.csv", self.tmp / "expected-model.json"
        dataset.write_table_csv(table, expected_csv)
        model_io.save_model(self.model, expected_model)
        self.expected_files = {
            "data.csv": expected_csv.read_text(encoding="utf-8"),
            "model.json": expected_model.read_text(encoding="utf-8"),
            "report.json": (GOLDEN / "nb_eval_s.json").read_text(encoding="utf-8"),
        }
        self.table = table

    def _predict_case(self):
        table = self.table
        row = table.rows[int(self.rng.integers(table.n_rows))]
        features = [j for j, v in enumerate(table.schema) if v.name != "target"]
        k = int(self.rng.integers(1, len(features) + 1))
        chosen = sorted(int(j) for j in self.rng.choice(features, size=k, replace=False))
        evidence = {table.schema[j].name: int(row[j]) for j in chosen}
        spec = ",".join(f"{n}={self.model.variable(n).states[s]}" for n, s in evidence.items())
        label, posterior = inference.classify(self.model, "target", evidence)
        probs = " ".join(f"{p:.7g}" for p in posterior.probabilities)
        return spec, f"{self.model.variable('target').states[label]} {probs}\n"

    def _dsep_case(self):
        nodes = list(self.model.dag.nodes)
        picked = [nodes[int(j)] for j in self.rng.permutation(len(nodes))[: 2 + int(self.rng.integers(0, 4))]]
        x, y, given = picked[0], picked[1], set(picked[2:])
        expected = "true" if synth.d_separated_moral(self.model.dag, {x}, {y}, given) else "false"
        return x, y, ",".join(sorted(given)), expected + "\n"

    def next_inputs(self):
        t = self.tmp
        data, model, report = str(t / "data.csv"), str(t / "model.json"), str(t / "report.json")
        cmds = [
            ("preprocess", ["preprocess", "--input", str(dataset.cleveland_path()), "--output", data], None),
            ("learn", ["learn", "--data", data, "--method", "paper", "--out", model], None),
        ]
        for _ in range(self.predicts):
            spec, expected = self._predict_case()
            cmds.append(("predict", ["predict", "--model", model, "--evidence", spec], expected))
        x, y, given, expected = self._dsep_case()
        cmds.append(("dsep", ["dsep", "--model", model, "--x", x, "--y", y, "--given", given], expected))
        seeds = ",".join(str(s) for s in SEEDS)
        cmds.append(("evaluate", ["evaluate", "--data", data, "--method", "nb", "--seeds", seeds,
                                  "--report", report], None))
        return cmds

    def _run(self, argv, in_process):
        if in_process:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buffer.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "heartbn.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def run_pass(self, commands, in_process=False):
        for stale in ("data.csv", "model.json", "report.json"):
            (self.tmp / stale).unlink(missing_ok=True)
        result = PassResult(0.0)
        start = time.perf_counter()
        for command, argv, expected in commands:
            out, seconds = self._op(result, lambda: self._run(argv, in_process))
            result.tasks.setdefault(f"cli.{command}.wall_s", []).append(seconds)
            result.outputs.append((command, (argv, out, expected)))
        result.wall_s = time.perf_counter() - start
        for name in ("data.csv", "model.json", "report.json"):
            path = self.tmp / name
            text = path.read_text(encoding="utf-8") if path.exists() else None
            result.outputs.append(("file", (name, text)))
        model = self.tmp / "model.json"
        result.counts["model_io.model_bytes"] = model.stat().st_size if model.exists() else 0
        return result

    def check(self, outputs, result):
        for command, out in outputs:
            if command == "file":
                name, text = out
                result.expect(text == self.expected_files[name], f"{name} differs from the expected bytes")
                continue
            argv, answer, expected = out
            if isinstance(answer, Exception):
                result.expect(False, f"{command}: {type(answer).__name__}: {answer}")
                continue
            code, stdout = answer
            result.expect(code == 0, f"{' '.join(argv)} exited {code}")
            if expected is not None:
                result.expect(stdout == expected, f"{command} printed {stdout!r}, expected {expected!r}")

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (HeartEval, SynthLearn, SynthQuery, Cli)}
