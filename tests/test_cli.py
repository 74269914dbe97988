import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from heartbn import (
    cleveland_path,
    fit_bayesian,
    fit_mle,
    heart_network,
    hill_climb,
    hybrid_learn,
    learn_skeleton,
    load_model,
    nb_fit,
    orient,
    save_model,
)
from heartbn.cli import _parse_seeds, main
from heartbn.dataset import RAW_COLUMNS, read_table_csv

STRUCTURES = {
    "paper": lambda table: heart_network(),
    "hc": lambda table: hill_climb(table),
    "pc": lambda table: orient(learn_skeleton(table)),
    "hybrid": lambda table: hybrid_learn(table),
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """preprocess + learn once; downstream commands reuse the files."""
    root = tmp_path_factory.mktemp("cli")
    table_csv = root / "heart.csv"
    model_path = root / "paper.model"
    assert main(["preprocess", "--input", str(cleveland_path()), "--output", str(table_csv)]) == 0
    assert main([
        "learn", "--data", str(table_csv), "--method", "paper",
        "--estimator", "mle", "--out", str(model_path),
    ]) == 0
    return {"root": root, "table": table_csv, "model": model_path}


class TestPreprocess:
    def test_output_table(self, pipeline):
        table = read_table_csv(pipeline["table"])
        assert table.n_rows == 297
        assert "thalachC" in table.names

    def test_custom_cutpoints_file(self, pipeline, tmp_path):
        cuts = tmp_path / "cuts.json"
        cuts.write_text(json.dumps({"chol": [180.0, 260.0]}))
        out = tmp_path / "table.csv"
        code = main([
            "preprocess", "--input", str(cleveland_path()),
            "--output", str(out), "--cutpoints", str(cuts),
        ])
        assert code == 0
        table = read_table_csv(out)
        assert table.n_rows == 297

    @pytest.mark.parametrize("col, cell", [("cp", "inf"), ("cp", "nan"), ("age", "nan")])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, col, cell):
        # inf in a categorical column used to escape as an OverflowError
        # traceback, and a NaN age was silently binned
        rows = cleveland_path().read_text().splitlines()[:2]
        fields = rows[1].split(",")
        fields[RAW_COLUMNS.index(col)] = cell
        raw = tmp_path / "raw.data"
        raw.write_text(rows[0] + "\n" + ",".join(fields) + "\n")
        out = tmp_path / "out.csv"
        assert main(["preprocess", "--input", str(raw), "--output", str(out)]) == 2
        column = RAW_COLUMNS.index(col) + 1
        assert capsys.readouterr().err == (
            f"heartbn preprocess: {raw}: line 2, column {column}: "
            f"{cell!r} in column {col!r} is not a finite number\n"
        )
        assert not out.exists()

    def test_bad_code_names_its_file_line(self, tmp_path, capsys):
        # the blank line 2 is skipped, so the bad cp code is on line 3 of the
        # file but in the 2nd row; the error used to say "row 2"
        rows = cleveland_path().read_text().splitlines()[:2]
        fields = rows[1].split(",")
        fields[RAW_COLUMNS.index("cp")] = "9.0"
        raw = tmp_path / "raw.data"
        raw.write_text(rows[0] + "\n\n" + ",".join(fields) + "\n")
        out = tmp_path / "out.csv"
        assert main(["preprocess", "--input", str(raw), "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"heartbn preprocess: {raw}: line 3, column 3: code '9.0' outside the domain of 'cp'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ['{"age": 50}', "5", '{"age": [null, 3]}', '{"age": [NaN, 60]}']
    )
    def test_malformed_cutpoints_file_is_data_error(self, tmp_path, capsys, text):
        cuts = tmp_path / "cuts.json"
        cuts.write_text(text)
        code = main([
            "preprocess", "--input", str(cleveland_path()),
            "--output", str(tmp_path / "out.csv"), "--cutpoints", str(cuts),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("heartbn preprocess: ") and err.count("\n") == 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main([
            "preprocess", "--input", str(tmp_path / "nope.data"),
            "--output", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert capsys.readouterr().err.strip()


class TestLearn:
    def test_model_file_reproduces_published_ratios_bit_for_bit(self, pipeline):
        doc = json.loads(pipeline["model"].read_text())
        assert doc["format_version"] == 1
        by_name = {node["name"]: node for node in doc["nodes"]}
        assert by_name["sex"]["cpt"] == [f"{96 / 297:.17g}", f"{201 / 297:.17g}"]
        assert by_name["target"]["parents"] == ["thal"]
        # P(target | thal=2) row, flattened row-major
        assert by_name["target"]["cpt"][4:6] == [f"{27 / 115:.17g}", f"{88 / 115:.17g}"]

    def test_nb_method(self, pipeline, tmp_path):
        out = tmp_path / "nb.model"
        code = main(["learn", "--data", str(pipeline["table"]), "--method", "nb", "--out", str(out)])
        assert code == 0
        net = load_model(out)
        assert net.dag.parents("thal") == ("target",)

    def test_hc_method(self, pipeline, tmp_path):
        out = tmp_path / "hc.model"
        code = main(["learn", "--data", str(pipeline["table"]), "--method", "hc", "--out", str(out)])
        assert code == 0
        assert load_model(out).dag.nodes

    @pytest.mark.filterwarnings("ignore::heartbn.errors.ConflictingOrientationWarning")
    @pytest.mark.parametrize("estimator", ["mle", "bayes"])
    @pytest.mark.parametrize("method", ["paper", "hc", "pc", "hybrid", "nb"])
    def test_model_file_matches_direct_library_calls(self, pipeline, tmp_path, method, estimator):
        out = tmp_path / "cli.model"
        code = main([
            "learn", "--data", str(pipeline["table"]), "--method", method,
            "--estimator", estimator, "--out", str(out),
        ])
        assert code == 0
        table = read_table_csv(pipeline["table"])
        if method == "nb":
            net = nb_fit(table, "target")
        elif estimator == "mle":
            net = fit_mle(STRUCTURES[method](table), table)
        else:
            net = fit_bayesian(STRUCTURES[method](table), table, 10.0)
        expected = tmp_path / "direct.model"
        save_model(net, expected)
        assert out.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "bad_line",
        ["0,1", "0,1,1,0", "0,x,1", "0,1_0,1", "0,-1,1", "+1,0,1", "0,\u0661,1", "0,100000,1"],
    )
    def test_malformed_data_row_is_data_error(self, tmp_path, capsys, bad_line):
        data = tmp_path / "table.csv"
        data.write_text(f"a,b,c\n1,0,1\n\n{bad_line}\n")
        out = tmp_path / "x.model"
        assert main(["learn", "--data", str(data), "--method", "nb", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"heartbn learn: {data}: line 4, column ") and err.count("\n") == 1
        assert not out.exists()

    def test_heart_cell_beyond_its_states_is_data_error(self, tmp_path, capsys):
        # sex has 2 states; this used to exit 2 naming the column only
        data = tmp_path / "table.csv"
        data.write_text("sex,target\n5,1\n")
        out = tmp_path / "x.model"
        assert main(["learn", "--data", str(data), "--method", "hc", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"heartbn learn: {data}: line 2, column 1: state index 5 is not below 2\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("a, b\n1,0\n", "{data}: line 1, column 2: header name ' b' has surrounding space"),
            ("a,b\n", "{data}: a header and no data rows"),
            ("a,,b\n1,0,1\n", "{data}: line 1, column 2: empty header name"),
        ],
    )
    def test_unusable_header_is_data_error(self, tmp_path, capsys, text, message):
        # the first two files used to learn a model: one with a node " b"
        # that "--evidence b=1" cannot name, one of uniform CPTs fit to no
        # rows; the third failed with a message naming no file or column
        data = tmp_path / "table.csv"
        data.write_text(text)
        out = tmp_path / "x.model"
        assert main(["learn", "--data", str(data), "--method", "hc", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"heartbn learn: {message.format(data=data)}\n"
        assert not out.exists()

    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, capsys):
        # a "CSV UTF-8" file from a spreadsheet starts with U+FEFF; it used to
        # learn a node '\ufeffa' that "--evidence a=1" could not name
        data = tmp_path / "table.csv"
        data.write_bytes(b"\xef\xbb\xbfa,b\n0,1\n1,1\n1,0\n0,0\n")
        out = tmp_path / "x.model"
        assert main(["learn", "--data", str(data), "--method", "hc", "--out", str(out)]) == 0
        assert load_model(out).dag.nodes == ("a", "b")
        capsys.readouterr()
        assert main(["predict", "--model", str(out), "--evidence", "a=1", "--target", "b"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("method", ["paper", "nb", "hc"])
    def test_repeated_column_is_data_error(self, pipeline, tmp_path, capsys, method):
        # the heart table with its thal column repeated at the end
        thal = RAW_COLUMNS.index("thal")
        lines = pipeline["table"].read_text().splitlines()
        data = tmp_path / "table.csv"
        data.write_text("".join(f"{line},{line.split(',')[thal]}\n" for line in lines))
        out = tmp_path / "x.model"
        assert main(["learn", "--data", str(data), "--method", method, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"heartbn learn: {data}: column names must be distinct, not ['thal']\n"
        )
        assert not out.exists()

    def test_bad_method_is_usage_error(self, pipeline, tmp_path):
        code = main([
            "learn", "--data", str(pipeline["table"]),
            "--method", "bogus", "--out", str(tmp_path / "x.model"),
        ])
        assert code == 1


class TestPredict:
    def test_published_posterior(self, pipeline, capsys):
        code = main(["predict", "--model", str(pipeline["model"]), "--evidence", "thal=2"])
        assert code == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "1"
        assert float(out[2]) == pytest.approx(0.7652174, abs=5e-7)

    def test_thal0_prefers_absence(self, pipeline, capsys):
        code = main(["predict", "--model", str(pipeline["model"]), "--evidence", "thal=0"])
        assert code == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "0"
        assert float(out[1]) == pytest.approx(0.7743902, abs=5e-7)

    def test_unknown_evidence_variable_is_data_error(self, pipeline, capsys):
        code = main(["predict", "--model", str(pipeline["model"]), "--evidence", "bogus=1"])
        assert code == 2
        assert capsys.readouterr().err.strip()

    def test_repeated_evidence_variable_is_data_error(self, pipeline, capsys):
        code = main(["predict", "--model", str(pipeline["model"]), "--evidence", "thal=1,thal=2"])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.count("\n") == 1 and "'thal'" in captured.err

    # an Arabic-Indic or a full-width digit is no index, as in a table file;
    # "thal=\u0662" used to read as thal=2, and 5,000 nines hit int()'s digit
    # limit, whose message named neither the variable nor its states
    @pytest.mark.parametrize(
        "state", ["1.5", "", "3", "-1", "\u0662", "\uff12", pytest.param("9" * 5000, id="5000-nines")]
    )
    def test_unknown_evidence_state_names_variable_and_states(self, pipeline, capsys, state):
        code = main(["predict", "--model", str(pipeline["model"]), "--evidence", f"thal={state}"])
        assert code == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            f"heartbn predict: {state!r} is not a state of 'thal': "
            "give one of the labels 0, 1, 2 or an index 0-2\n"
        )

    # a cpt of the wrong size, or with a cell that is no number, used to exit
    # with numpy's reshape message or float()'s, which name no node
    @pytest.mark.parametrize("cpt", [["1"], ["x", "1"]])
    def test_bad_cpt_is_data_error_naming_its_node(self, tmp_path, capsys, cpt):
        node = {"name": "a", "states": ["0", "1"], "parents": [], "cpt": cpt}
        model = tmp_path / "bad.model"
        model.write_text(json.dumps({"format_version": 1, "nodes": [node]}))
        assert main(["predict", "--model", str(model), "--evidence", "a=1"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith(f"heartbn predict: {model}: model node 'a'")
        assert captured.err.count("\n") == 1


class TestDsep:
    def test_isolated_node_separated(self, pipeline, capsys):
        code = main([
            "dsep", "--model", str(pipeline["model"]), "--x", "fbs", "--y", "target",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_conditioning_set(self, pipeline, capsys):
        code = main([
            "dsep", "--model", str(pipeline["model"]),
            "--x", "sex", "--y", "target", "--given", "thal",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_connected_pair(self, pipeline, capsys):
        code = main([
            "dsep", "--model", str(pipeline["model"]), "--x", "thal", "--y", "target",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "false"

    @pytest.mark.parametrize(
        "option, text", [("--x", ","), ("--y", " "), ("--x", ""), ("--y", " , ,")]
    )
    def test_set_naming_no_node_is_usage_error(self, pipeline, capsys, option, text):
        # d_separated answers True for an empty set, so these used to print true
        names = {"--x": "thal", "--y": "target", option: text}
        argv = ["dsep", "--model", str(pipeline["model"])]
        assert main([*argv, *(item for pair in names.items() for item in pair)]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            f"heartbn dsep: error: argument {option}: {text!r}: must name one or more nodes\n"
        )

    @pytest.mark.parametrize("given", ["", ",", " "])
    def test_empty_given_conditions_on_nothing(self, pipeline, capsys, given):
        argv = ["dsep", "--model", str(pipeline["model"]), "--x", "thal", "--y", "target"]
        assert main([*argv, "--given", given]) == 0
        assert capsys.readouterr().out == "false\n"


    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            '{"format_version": 1, "nodes": 5}',
            '{"format_version": 1, "nodes": ["x"]}',
            '{"format_version": 1, "nodes": [{"name": "a", "states": ["0", "1"],'
            ' "parents": [], "cpt": [null, null]}]}',
            '{"format_version": 1, "nodes": [{"name": ["a"], "states": ["0", "1"],'
            ' "parents": [], "cpt": ["0.5", "0.5"]}]}',
        ],
    )
    def test_malformed_model_file_is_data_error(self, tmp_path, capsys, doc):
        # each of these used to end in an AttributeError or TypeError traceback
        model = tmp_path / "bad.model"
        model.write_text(doc)
        assert main(["dsep", "--model", str(model), "--x", "a", "--y", "b"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("heartbn dsep: ") and captured.err.count("\n") == 1


class TestExportDot:
    def test_twelve_edge_statements(self, pipeline, tmp_path):
        out = tmp_path / "heart.dot"
        code = main(["export-dot", "--model", str(pipeline["model"]), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("digraph")
        assert sum(1 for line in text.splitlines() if "->" in line) == 12


class TestEvaluate:
    def test_report_written(self, pipeline, tmp_path):
        report_path = tmp_path / "report.json"
        code = main([
            "evaluate", "--data", str(pipeline["table"]), "--method", "paper",
            "--ratio", "0.8", "--seeds", "0,1", "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["model_kind"] == "bn-paper"
        assert len(report["per_seed"]) == 2

    def test_identical_runs_are_byte_identical(self, pipeline, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code = main([
                "evaluate", "--data", str(pipeline["table"]), "--method", "nb",
                "--ratio", "0.8", "--seeds", "7", "--report", str(path),
            ])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEvidenceLabels:
    def test_state_labels_resolve_through_the_model(self, tmp_path, capsys):
        import numpy as np

        from heartbn import Cpt, DiscreteBayesNet, Variable, build_dag, save_model

        rain = Variable("rain", ("dry", "wet"))
        lawn = Variable("lawn", ("dry", "soaked"))
        net = DiscreteBayesNet(
            build_dag((rain, lawn), (("rain", "lawn"),)),
            {
                "rain": Cpt(rain, (), np.array([[0.8, 0.2]])),
                "lawn": Cpt(lawn, (rain,), np.array([[0.9, 0.1], [0.05, 0.95]])),
            },
        )
        path = tmp_path / "rain.model"
        save_model(net, path)
        code = main([
            "predict", "--model", str(path), "--target", "rain",
            "--evidence", "lawn=soaked",
        ])
        assert code == 0
        out = capsys.readouterr().out.split()
        assert out[0] == "wet"
        expected = 0.2 * 0.95 / (0.2 * 0.95 + 0.8 * 0.1)
        assert float(out[2]) == pytest.approx(expected, abs=1e-6)

    @staticmethod
    def predict_rain(tmp_path, capsys, evidence: str) -> tuple[int, str, str]:
        """(exit code, stdout, stderr) of predict rain from ``evidence`` on rain -> lawn."""
        import numpy as np

        from heartbn import Cpt, DiscreteBayesNet, Variable, build_dag, save_model

        rain, lawn = Variable("rain", ("dry", "wet")), Variable("lawn", ("dry", "soaked"))
        net = DiscreteBayesNet(
            build_dag((rain, lawn), (("rain", "lawn"),)),
            {
                "rain": Cpt(rain, (), np.array([[0.8, 0.2]])),
                "lawn": Cpt(lawn, (rain,), np.array([[0.9, 0.1], [0.05, 0.95]])),
            },
        )
        save_model(net, tmp_path / "rain.model")
        argv = ["predict", "--model", str(tmp_path / "rain.model"), "--target", "rain"]
        code = main([*argv, "--evidence", evidence])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_bare_index_on_labelled_model_is_that_state(self, tmp_path, capsys):
        # 1 is no label of lawn, so it is read as lawn's state 1, "soaked"
        assert self.predict_rain(tmp_path, capsys, "lawn=1") == (
            self.predict_rain(tmp_path, capsys, "lawn=soaked")
        )
        assert self.predict_rain(tmp_path, capsys, "lawn=1")[1].split()[0] == "wet"

    @pytest.mark.parametrize("evidence", ["", " ", "\t"], ids=["empty", "space", "tab"])
    def test_blank_evidence_is_the_prior(self, tmp_path, capsys, evidence):
        assert self.predict_rain(tmp_path, capsys, evidence) == (0, "dry 0.8 0.2\n", "")

    def test_item_without_equals_is_data_error(self, tmp_path, capsys):
        assert self.predict_rain(tmp_path, capsys, "lawn") == (
            2, "", "heartbn predict: evidence item 'lawn' is not name=state\n"
        )


NINES = "9" * 5000


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        assert capsys.readouterr().err.strip()

    def test_unknown_flag(self, capsys):
        assert main(["dsep", "--model", "x", "--x", "a", "--y", "b", "--frob"]) == 1
        assert capsys.readouterr().err.strip()

    def test_no_arguments(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--method", "paper", "--seeds", "0", "--ratio", "1.5"],
            ["evaluate", "--method", "paper", "--seeds", "0", "--ratio", "0"],
            ["evaluate", "--method", "paper", "--seeds", "0", "--ratio", "x"],
            ["evaluate", "--method", "paper", "--seeds", "a,b"],
            ["evaluate", "--method", "paper", "--seeds", ","],
            ["evaluate", "--method", "paper", "--seeds", "-1"],
            ["evaluate", "--method", "paper", "--seeds", "3,3"],
            # int() reads these as seeds 10, 2 and 3; a seed is ASCII digits
            ["evaluate", "--method", "paper", "--seeds", "1_0"],
            ["evaluate", "--method", "paper", "--seeds", "0,+2"],
            ["evaluate", "--method", "paper", "--seeds", "\u0663"],
            ["evaluate", "--method", "nb", "--seeds", "0", "--pseudo", "-1"],
            ["evaluate", "--method", "pc", "--seeds", "0", "--alpha", "1"],
            ["learn", "--method", "nb", "--pseudo", "nan"],
            ["learn", "--method", "pc", "--alpha", "0"],
            ["learn", "--method", "hc", "--alpha", "x"],
            ["learn", "--method", "paper", "--estimator", "bayes", "--ess", "0"],
            ["learn", "--method", "hc", "--score", "bdeu", "--ess", "-1"],
            ["learn", "--method", "paper", "--estimator", "bayes", "--ess", "inf"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-2]}={argv[-1]}",
    )
    def test_bad_option_value(self, argv, tmp_path, capsys):
        files = (
            ["--report", str(tmp_path / "r.json")] if argv[0] == "evaluate"
            else ["--out", str(tmp_path / "m.model")]
        )
        assert main([*argv, "--data", str(tmp_path / "heart.csv"), *files]) == 1
        assert capsys.readouterr().err.strip()
        assert not list(tmp_path.iterdir())

    def test_seed_digit_bound(self):
        # the bound counts digits after any leading zeros
        assert _parse_seeds("9" * 100 + ", 0" + "0" * 5000 + "7") == [10**100 - 1, 7]
        with pytest.raises(ValueError, match="^seed '1(0){100}' is not a number of at most"):
            _parse_seeds("1" + "0" * 100)

    @pytest.mark.parametrize(
        "argv, rule",
        [
            (["evaluate", "--method", "paper", "--seeds", "0", "--ratio", "1"],
             "argument --ratio: '1': ratio must lie strictly between 0 and 1"),
            (["evaluate", "--method", "paper", "--seeds", "3,3"],
             "argument --seeds: '3,3': seeds must be one or more distinct non-negative "
             "integers, got [3, 3]"),
            # 5,000 nines used to reach int(), which quoted Python's own digit limit
            (["evaluate", "--method", "paper", "--seeds", NINES],
             f"argument --seeds: {NINES!r}: seed {NINES!r} is not a number of at most 100 "
             "digits 0-9"),
            (["learn", "--method", "paper", "--estimator", "bayes", "--ess", "0"],
             "argument --ess: '0': ess must be positive and finite"),
            (["learn", "--method", "pc", "--alpha", "0"],
             "argument --alpha: '0': alpha must lie strictly between 0 and 1"),
            (["learn", "--method", "nb", "--pseudo", "nan"],
             "argument --pseudo: 'nan': pseudo must be non-negative and finite"),
        ],
        ids=["ratio", "seeds", "seed-digits", "ess", "alpha", "pseudo"],
    )
    def test_usage_error_quotes_the_library_rule(self, argv, rule, tmp_path, capsys):
        # the option is checked by the library function that uses its value
        files = (
            ["--report", str(tmp_path / "r.json")] if argv[0] == "evaluate"
            else ["--out", str(tmp_path / "m.model")]
        )
        assert main([*argv, "--data", str(tmp_path / "heart.csv"), *files]) == 1
        assert capsys.readouterr().err.endswith(f"heartbn {argv[0]}: error: {rule}\n")
        assert not list(tmp_path.iterdir())


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter importing heartbn from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


class TestStartup:
    """Commands that need no BDeu score never import scipy, chi-squared tests included."""

    def test_import_loads_no_scipy(self):
        result = run_fresh(f"import sys, heartbn.cli; print({SCIPY_MODULES})")
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_commands_load_no_scipy(self, tmp_path):
        table, model = str(tmp_path / "heart.csv"), str(tmp_path / "paper.model")
        commands = [
            ["preprocess", "--input", str(cleveland_path()), "--output", table],
            ["learn", "--data", table, "--method", "paper", "--out", model],
            *(
                ["learn", "--data", table, "--method", method, "--out", str(tmp_path / method)]
                for method in ("pc", "hybrid")
            ),
            ["predict", "--model", model, "--evidence", "thal=2,cp=3"],
            ["dsep", "--model", model, "--x", "fbs", "--y", "target"],
            ["export-dot", "--model", model, "--out", str(tmp_path / "heart.dot")],
            ["evaluate", "--data", table, "--method", "nb", "--seeds", "0,1",
             "--report", str(tmp_path / "report.json")],
        ]
        code = (
            "import json, sys\n"
            "from heartbn.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            f"print(json.dumps([codes, {SCIPY_MODULES}]))"
        )
        result = run_fresh(code, json.dumps(commands))
        assert result.returncode == 0, result.stderr
        codes, scipy_modules = json.loads(result.stdout.splitlines()[-1])
        assert codes == [0] * len(commands)
        assert scipy_modules == []


class TestWarnings:
    # orient's ConflictingOrientationWarning used to print Python's format:
    # a source path and line number, then a line of library source.  Each of
    # evaluate's seeds 0, 1 and 2 warns, with a message of its own.
    @pytest.mark.parametrize(
        "command, args",
        [
            ("learn", ["--method", "pc", "--out"]),
            ("evaluate", ["--method", "pc", "--seeds", "0,1,2", "--report"]),
        ],
        ids=["learn", "evaluate"],
    )
    def test_library_warning_is_one_cli_line(self, pipeline, tmp_path, command, args):
        result = run_fresh(
            "import sys\nfrom heartbn.cli import main\nsys.exit(main(sys.argv[1:]))",
            command, "--data", str(pipeline["table"]), *args, str(tmp_path / "pc.out"),
        )
        assert result.returncode == 0, result.stderr
        lines = result.stderr.splitlines()
        assert lines
        assert all(line.startswith(f"heartbn {command}: warning: ") for line in lines), lines

    def test_warning_state_restored(self, pipeline, tmp_path):
        before = (warnings.showwarning, list(warnings.filters))
        out = tmp_path / "pc.model"
        argv = ["learn", "--data", str(pipeline["table"]), "--method", "pc", "--out", str(out)]
        assert main(argv) == 0
        assert (warnings.showwarning, warnings.filters) == before
