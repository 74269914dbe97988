import json

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
from heartbn.cli import main
from heartbn.dataset import read_table_csv

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
            net = nb_fit(table, "target").to_net()
        elif estimator == "mle":
            net = fit_mle(STRUCTURES[method](table), table)
        else:
            net = fit_bayesian(STRUCTURES[method](table), table, 10.0)
        expected = tmp_path / "direct.model"
        save_model(net, expected)
        assert out.read_bytes() == expected.read_bytes()

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
