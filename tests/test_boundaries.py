"""The file boundary: generated inputs for every reader, and exact bytes for every writer.

Each reader gets its file with one token replaced by each text of a fixed
pool of hostile texts, every token in turn (QuickCheck-style generated
inputs, enumerated rather than sampled, so every run sees the same cases).
A read either succeeds and its result round-trips through the matching
writer, or raises a ``HeartBnError`` or ``ValueError`` whose message starts
with the file's path.  Any other exception type fails the test.

The command line's list options get the same pool: one name, state or seed
of ``--evidence``, ``--seeds``, ``--given``, ``--x`` or ``--y`` at a time.
A run exits 0, or exits 1 (usage) or 2 (data) with one line on standard
error that names the option, or quotes a node or variable the text names.
"""

import json
import re

import numpy as np
import pytest

from heartbn import (
    Cpt,
    DataTable,
    DiscreteBayesNet,
    Variable,
    build_dag,
    clean,
    cleveland_path,
    discretize,
    fit_mle,
    heart_network,
    load_model,
    load_raw,
    save_model,
)
from heartbn.cli import main
from heartbn.dataset import (
    DEFAULT_CUTPOINTS,
    RAW_COLUMNS,
    load_cutpoints,
    read_table_csv,
    save_cutpoints,
    write_table_csv,
)
from heartbn.errors import HeartBnError
from heartbn.model_io import export_dot

# a JSON string, a run of other text, or one punctuation character
TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[^\s,:\[\]{}"]+|[,:\[\]{}]')

# replacement texts; None stands for the file's first name or key (repeated
# where it lands) and "," marks the token kept with an extra comma
POOL = ("", " ", "-1", "1.5", "nan", "1e400", "\u0663", "0x1", "9" * 5000, '"', "?",
        None, ",", "null", "true", "[]")


def mutants(text: str, token_pattern: re.Pattern = TOKEN):
    """Copies of ``text`` with one token replaced, for every token and every text of the pool."""
    tokens = list(token_pattern.finditer(text))
    first_name = next(t.group() for t in tokens if t.group() not in ",:[]{}")
    for token in tokens:
        for new in POOL:
            if new is None:
                new = first_name
            elif new == ",":
                new = token.group() + ","
            yield text[: token.start()] + new + text[token.end():]


def three_node_net() -> DiscreteBayesNet:
    a, b, c = Variable("a", ("lo", "hi")), Variable("b", ("0", "1")), Variable("c", ("x", "y", "z"))
    dag = build_dag((a, b, c), (("a", "b"), ("a", "c"), ("b", "c")))
    return DiscreteBayesNet(dag, {
        "a": Cpt(a, (), np.array([[0.25, 0.75]])),
        "b": Cpt(b, (a,), np.array([[0.125, 0.875], [0.0, 1.0]])),  # cells "0" and "1"
        "c": Cpt(c, (a, b), np.array([[0.5, 0.25, 0.25]] * 4)),
    })


def same_table(first: DataTable, second: DataTable) -> bool:
    return first.schema == second.schema and np.array_equal(first.rows, second.rows)


def raw_round_trip(path, scratch):
    raw = load_raw(path)
    try:
        table = discretize(clean(raw))
    except HeartBnError as exc:  # clean reads no file: its message names the row and column
        assert re.match(r"row \d+: .*'(" + "|".join(RAW_COLUMNS) + r")'", str(exc)), exc
        return
    write_table_csv(table, scratch)
    assert same_table(read_table_csv(scratch), table)


def table_round_trip(path, scratch):
    table = read_table_csv(path)
    write_table_csv(table, scratch)
    assert same_table(read_table_csv(scratch), table)


def cutpoints_round_trip(path, scratch):
    cfg = load_cutpoints(path)
    save_cutpoints(cfg, scratch)
    assert load_cutpoints(scratch) == cfg


def model_round_trip(path, scratch):
    save_model(load_model(path), scratch)
    once = scratch.read_bytes()
    assert json.loads(once) == json.loads(path.read_text())  # nothing coerced, e.g. true to "1"
    save_model(load_model(scratch), scratch)
    assert scratch.read_bytes() == once


def bundled_head(tmp_path):
    return "\n".join(cleveland_path().read_text().splitlines()[:6]) + "\n"


def heart_csv(tmp_path):
    path = tmp_path / "heart.csv"
    write_table_csv(discretize(clean(load_raw(cleveland_path()))).take(range(6)), path)
    return path.read_text()


def cutpoint_file(tmp_path):
    path = tmp_path / "cuts.json"
    save_cutpoints(DEFAULT_CUTPOINTS, path)
    return path.read_text()


def model_file(tmp_path):
    path = tmp_path / "net.model"
    save_model(three_node_net(), path)
    return path.read_text()


@pytest.mark.parametrize(
    "make, round_trip",
    [
        (bundled_head, raw_round_trip),
        (heart_csv, table_round_trip),
        (lambda tmp_path: "a,b,c\n0,1,2\n1,0,1\n2,2,0\n", table_round_trip),
        (cutpoint_file, cutpoints_round_trip),
        (model_file, model_round_trip),
    ],
    ids=["load_raw-clean", "heart-csv", "plain-csv", "cutpoints", "model"],
)
def test_mutated_file_reads_or_names_itself(tmp_path, make, round_trip):
    path, scratch = tmp_path / "input", tmp_path / "written"
    outcomes = set()
    for text in mutants(make(tmp_path)):
        path.write_text(text, encoding="utf-8")
        try:
            round_trip(path, scratch)
            outcomes.add("read")
        except (HeartBnError, ValueError) as exc:
            assert str(exc).startswith(f"{path}: "), (text, exc)
            outcomes.add(HeartBnError if isinstance(exc, HeartBnError) else ValueError)
    # the pool leaves some files readable and breaks others in the library's own terms
    assert {"read", HeartBnError} <= outcomes


CYCLE = (
    '{"format_version": 1, "nodes": ['
    '{"name": "a", "states": ["0", "1"], "parents": ["b"], "cpt": ["0.5", "0.5", "0.5", "0.5"]}, '
    '{"name": "b", "states": ["0", "1"], "parents": ["a"], "cpt": ["0.5", "0.5", "0.5", "0.5"]}]}'
)
TEXT_CELL = (
    '{"format_version": 1, "nodes": '
    '[{"name": "a", "states": ["0", "1"], "parents": [], "cpt": ["x", "1"]}]}'
)


# each message named no file before every reader raised its errors inside _reading
@pytest.mark.parametrize(
    "command, text, message",
    [
        ("preprocess", None, "line 2, column 14: 13 cells for 14 columns"),
        ("learn", "a,b,a\n0,1,0\n1,0,1\n", "column names must be distinct, not ['a']"),
        ("cutpoints", '{"age": [1, 2], "zzz": [3]}', "unknown attributes in cutpoint file: ['zzz']"),
        ("cutpoints", '{"age": [3, 2]}', "age thresholds must strictly increase"),
        ("predict", CYCLE, "graph contains a directed cycle"),
        ("predict", TEXT_CELL,
         "model node 'a': a cpt cell is not a number (could not convert string to float: 'x')"),
    ],
    ids=["short-raw-row", "repeated-header", "unknown-cutpoint", "decreasing-cutpoints",
         "cyclic-model", "text-cpt-cell"],
)
def test_content_error_names_the_file(tmp_path, capsys, command, text, message):
    path = tmp_path / "input"
    if text is None:  # the bundled file's first row, then its second short of the diagnosis
        head, row = cleveland_path().read_text().splitlines()[:2]
        text = f"{head}\n{row.rsplit(',', 1)[0]}\n"
    path.write_text(text)
    out = str(tmp_path / "out")
    argv = {
        "preprocess": ["preprocess", "--input", str(path), "--output", out],
        "learn": ["learn", "--data", str(path), "--method", "nb", "--out", out],
        "cutpoints": ["preprocess", "--input", str(cleveland_path()), "--output", out,
                      "--cutpoints", str(path)],
        "predict": ["predict", "--model", str(path), "--evidence", "a=1"],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"heartbn {argv[0]}: {path}: {message}\n"


# an option's names, states and seeds; the start text of each list option
CLI_TOKEN = re.compile(r"[^,=]+")
CLI_OPTIONS = {
    "--evidence": ("predict", "thal=2,cp=3"),
    "--seeds": ("evaluate", "0,1"),
    "--given": ("dsep", "target,cp"),
    "--x": ("dsep", "slope"),
    "--y": ("dsep", "exang"),
}


@pytest.mark.parametrize("option", list(CLI_OPTIONS))
def test_mutated_option_runs_or_names_itself(tmp_path, capsys, heart_table, option):
    command, text = CLI_OPTIONS[option]
    model, data = tmp_path / "paper.model", tmp_path / "heart.csv"
    save_model(fit_mle(heart_network(), heart_table), model)
    write_table_csv(heart_table.take(range(60)), data)
    argv = {
        "predict": ["predict", "--model", str(model), "--evidence", text],
        "evaluate": ["evaluate", "--data", str(data), "--method", "nb", "--seeds", text,
                     "--report", str(tmp_path / "report.json")],
        "dsep": ["dsep", "--model", str(model), "--x", "slope", "--y", "exang",
                 "--given", "target,cp"],
    }[command]
    slot = argv.index(option) + 1
    codes = set()
    for value in mutants(text, CLI_TOKEN):
        code = main([*argv[:slot], value, *argv[slot + 1:]])
        err = capsys.readouterr().err
        codes.add(code)
        if code == 0:
            assert not err, (value, err)
            continue
        assert err.endswith("\n") and err.count("\n") == 1, (value, err)
        if code == 1:
            assert err.startswith(f"heartbn {command}: error: argument {option}: "), (value, err)
        else:  # the names of its items; a blank item is skipped, so it names nothing
            names = {item.partition("=")[0].strip() for item in value.split(",") if item.strip()}
            assert code == 2 and err.startswith(f"heartbn {command}: "), (value, err)
            assert any(repr(name) in err for name in names), (value, err)
    # the pool leaves some runs working and breaks others
    assert 0 in codes and len(codes) > 1


def evaluate_report(path, net):
    data = path.with_name("tiny.csv")
    data.write_text("a,target\n0,0\n0,1\n1,1\n1,1\n0,0\n1,0\n0,0\n1,1\n0,0\n1,1\n")
    argv = ["evaluate", "--data", str(data), "--method", "nb", "--ratio", "0.6", "--seeds", "0"]
    assert main([*argv, "--report", str(path)]) == 0


MODEL_BYTES = b"""{
  "format_version": 1,
  "nodes": [
    {
      "name": "A",
      "states": [
        "0",
        "1"
      ],
      "parents": [],
      "cpt": [
        "0.69999999999999996",
        "0.29999999999999999"
      ]
    },
    {
      "name": "B",
      "states": [
        "0",
        "1"
      ],
      "parents": [
        "A"
      ],
      "cpt": [
        "0.80000000000000004",
        "0.20000000000000001",
        "0.10000000000000001",
        "0.90000000000000002"
      ]
    }
  ]
}
"""

CUTPOINT_BYTES = b"""{
  "age": [
    45.0,
    64.0
  ],
  "trestbps": [
    120.0,
    140.0
  ],
  "chol": [
    200.0,
    240.0
  ],
  "thalach": [
    200.0
  ],
  "oldpeak": [
    2.0
  ]
}
"""

REPORT_BYTES = b"""{
  "model_kind": "nb",
  "ratio": 0.6,
  "estimator": null,
  "learner": null,
  "per_seed": [
    {
      "seed": 0,
      "confusion": {
        "tp": 1,
        "fp": 0,
        "fn": 1,
        "tn": 2
      },
      "metrics": {
        "accuracy": 0.75,
        "precision": 1.0,
        "recall": 0.5,
        "f1": 0.6666666666666666
      },
      "degenerate_metrics": [],
      "zero_evidence_rows": 0
    }
  ],
  "aggregate": {
    "mean": {
      "accuracy": 0.75,
      "precision": 1.0,
      "recall": 0.5,
      "f1": 0.6666666666666666
    },
    "stddev": {
      "accuracy": 0.0,
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0
    }
  }
}
"""


# the files a user keeps and compares: any change to these bytes is a format change
@pytest.mark.parametrize(
    "write, expected",
    [
        (lambda path, net: write_table_csv(
            DataTable((Variable("x", "01"), Variable("y", "012")), np.array([[0, 2], [1, 0]])), path),
         b"x,y\n0,2\n1,0\n"),
        (lambda path, net: save_cutpoints(DEFAULT_CUTPOINTS, path), CUTPOINT_BYTES),
        (lambda path, net: export_dot(build_dag(['say "hi"', "C:\\dir"], [('say "hi"', "C:\\dir")]), path),
         b'digraph G {\n  "say \\"hi\\"";\n  "C:\\\\dir";\n  "say \\"hi\\"" -> "C:\\\\dir";\n}\n'),
        (lambda path, net: save_model(net, path), MODEL_BYTES),
        (evaluate_report, REPORT_BYTES),
    ],
    ids=["table-csv", "cutpoints", "dot", "model", "evaluate-report"],
)
def test_written_bytes(tmp_path, two_node_net, write, expected):
    path = tmp_path / "written"
    write(path, two_node_net)
    assert path.read_bytes() == expected
