import json
import re

import numpy as np
import pytest

from heartbn import build_dag, load_model, nb_fit, save_model, split, to_dot
from heartbn.model_io import model_document, model_from_document


class TestModelRoundTrip:
    def test_bit_exact_probabilities(self, heart_net, tmp_path):
        path = tmp_path / "heart.model"
        save_model(heart_net, path)
        loaded = load_model(path)
        assert loaded.dag.nodes == heart_net.dag.nodes
        assert set(loaded.dag.edges) == set(heart_net.dag.edges)
        for name in heart_net.dag.nodes:
            assert np.array_equal(loaded.cpts[name].table, heart_net.cpts[name].table)
            assert loaded.cpts[name].variable.states == heart_net.cpts[name].variable.states

    def test_parent_order_preserved(self, heart_net, tmp_path):
        path = tmp_path / "heart.model"
        save_model(heart_net, path)
        loaded = load_model(path)
        assert loaded.dag.parents("oldpeakC") == ("slope", "target")
        assert loaded.dag.parents("thalachC") == ("slope", "exang")

    def test_stored_strings_have_at_least_15_significant_digits(self, heart_net):
        doc = model_document(heart_net)
        sex = next(node for node in doc["nodes"] if node["name"] == "sex")
        assert sex["cpt"][1] == f"{201 / 297:.17g}"
        digits = sex["cpt"][1].replace("-", "").replace(".", "").lstrip("0")
        assert len(digits) >= 15

    def test_unknown_version_rejected(self, heart_net, tmp_path):
        path = tmp_path / "heart.model"
        save_model(heart_net, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"format_version": 1},
            {"format_version": 1, "nodes": 5},
            {"format_version": 1, "nodes": ["x"]},
            {"format_version": 1, "nodes": [{"name": "a", "states": ["0", "1"], "parents": []}]},
            {"format_version": 1,
             "nodes": [{"name": "a", "states": ["0", "1"], "parents": [], "cpt": [None, None]}]},
            {"format_version": 1,
             "nodes": [{"name": ["a"], "states": ["0", "1"], "parents": [], "cpt": ["1", "0"]}]},
            {"format_version": 1,
             "nodes": [{"name": "a", "states": ["0", "1"], "parents": [["b"]], "cpt": []}]},
        ],
        ids=repr,
    )
    def test_wrong_shape_rejected(self, doc):
        with pytest.raises(ValueError):
            model_from_document(doc)

    # these used to raise numpy's or float()'s message, which names no node,
    # or (booleans, an int to isinstance) load as 1.0 and 0.0
    @pytest.mark.parametrize(
        "cpt, message",
        [
            (["1"], "model node 'a' has 1 cpt cells, not 2"),
            (["1", "0", "0"], "model node 'a' has 3 cpt cells, not 2"),
            (["x", "1"], "model node 'a': a cpt cell is not a number .*'x'"),
            ([True, False], "model node 'a': a cpt cell is not a number .*true is a JSON boolean"),
        ],
        ids=["short", "long", "not-a-number", "boolean"],
    )
    def test_bad_cpt_cells_name_their_node(self, cpt, message):
        node = {"name": "a", "states": ["0", "1"], "parents": [], "cpt": cpt}
        with pytest.raises(ValueError, match=message):
            model_from_document({"format_version": 1, "nodes": [node]})

    def test_empty_network(self, tmp_path):
        net = model_from_document({"format_version": 1, "nodes": []})
        assert net.dag.nodes == () and dict(net.cpts) == {}
        save_model(net, tmp_path / "empty.model")
        assert load_model(tmp_path / "empty.model").dag.nodes == ()

    def test_cell_errors_come_before_probability_errors(self):
        # the tables are checked as one batch once every node's cells are read,
        # so b's cell count is reported although a, earlier, has a bad row
        a = {"name": "a", "states": ["0", "1"], "parents": [], "cpt": ["0.5", "0.6"]}
        b = {"name": "b", "states": ["0", "1"], "parents": ["a"], "cpt": ["1", "0"]}
        with pytest.raises(ValueError, match=re.escape("model node 'b' has 2 cpt cells, not 4")):
            model_from_document({"format_version": 1, "nodes": [a, b]})
        b["cpt"] = ["1", "0", "0.5", "0.5"]
        with pytest.raises(ValueError, match=re.escape("CPT rows for 'a' must each sum to 1")):
            model_from_document({"format_version": 1, "nodes": [a, b]})
        a["cpt"], b["cpt"][0] = ["0.5", "0.5"], "-1"
        with pytest.raises(ValueError, match=re.escape("CPT for 'b' has entries outside [0, 1]")):
            model_from_document({"format_version": 1, "nodes": [a, b]})

    def test_nb_model_uses_same_format(self, heart_table, tmp_path):
        train, _ = split(heart_table, 0.8, seed=0)
        star = nb_fit(train, "target")
        path = tmp_path / "nb.model"
        save_model(star, path)
        loaded = load_model(path)
        assert loaded.dag.parents("thal") == ("target",)
        assert np.array_equal(loaded.cpts["thal"].table, star.cpts["thal"].table)


class TestDot:
    def test_heart_dot_has_12_edge_lines(self, heart_dag):
        text = to_dot(heart_dag)
        edge_lines = [ln for ln in text.splitlines() if "->" in ln]
        assert len(edge_lines) == 12
        assert '  "thal" -> "target";' in edge_lines

    def test_isolated_nodes_are_declared(self, heart_dag):
        text = to_dot(heart_dag)
        for name in ("fbs", "restecg", "cholC"):
            assert f'  "{name}";' in text

    def test_plain_digraph_syntax(self, heart_dag):
        text = to_dot(heart_dag)
        assert text.startswith("digraph G {")
        assert text.rstrip().endswith("}")

    def test_quotes_and_backslashes_in_names_are_escaped(self):
        # a quote in a name used to end its ID early, and a trailing backslash
        # to escape the closing quote; both are backslash-escaped now
        dag = build_dag(('a"b', "a\\"), (('a"b', "a\\"),))
        assert to_dot(dag) == r'''digraph G {
  "a\"b";
  "a\\";
  "a\"b" -> "a\\";
}
'''
