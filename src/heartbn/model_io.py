"""Model file format and DOT export.

A network is stored as a versioned JSON document::

    {"format_version": 1,
     "nodes": [{"name": ..., "states": [...], "parents": [...],
                "cpt": ["0.123...", ...]}, ...]}

``cpt`` is the table flattened row-major over parent configurations (last
declared parent varying fastest).  Probabilities are written as decimal
strings with 17 significant digits, which round-trips every float64
bit-exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .core import Cpt, Dag, DiscreteBayesNet, Variable, build_dag

FORMAT_VERSION = 1


def model_document(net: DiscreteBayesNet) -> dict:
    """JSON-ready dictionary for a network (nodes in declaration order)."""
    nodes = []
    for name in net.dag.nodes:
        cpt = net.cpts[name]
        nodes.append(
            {
                "name": name,
                "states": list(cpt.variable.states),
                "parents": [p.name for p in cpt.parents],
                "cpt": [f"{p:.17g}" for p in cpt.table.reshape(-1)],
            }
        )
    return {"format_version": FORMAT_VERSION, "nodes": nodes}


def save_model(net: DiscreteBayesNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_document(net), fh, indent=2)
        fh.write("\n")


def model_from_document(doc: dict) -> DiscreteBayesNet:
    """The network of a model document; ``ValueError`` if the document has the wrong shape."""
    if not isinstance(doc, dict):
        raise ValueError("a model document is a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    if not isinstance(doc.get("nodes"), list):
        raise ValueError("a model document's nodes are a list")
    for i, node in enumerate(doc["nodes"]):
        if not (
            isinstance(node, dict)
            and isinstance(node.get("name"), str)
            and all(isinstance(node.get(key), list) for key in ("states", "parents", "cpt"))
            and all(isinstance(parent, str) for parent in node["parents"])
            and all(isinstance(cell, (str, int, float)) for cell in node["cpt"])
        ):
            raise ValueError(
                f"model node {i} needs a string name and lists of states, parent names and cpt cells"
            )
    variables: dict[str, Variable] = {}
    for node in doc["nodes"]:
        variables[node["name"]] = Variable(node["name"], tuple(node["states"]))
    names = [node["name"] for node in doc["nodes"]]
    edges = []
    for node in doc["nodes"]:
        for parent in node["parents"]:
            edges.append((parent, node["name"]))
    dag = build_dag(tuple(names), tuple(edges))
    cpts = {}
    for node in doc["nodes"]:
        var = variables[node["name"]]
        parents = tuple(variables[p] for p in node["parents"])
        shape = (math.prod(p.cardinality for p in parents), var.cardinality)
        cells = len(node["cpt"])
        if cells != math.prod(shape):
            raise ValueError(f"model node {var.name!r} has {cells} cpt cells, not {math.prod(shape)}")
        try:
            for cell in node["cpt"]:
                if isinstance(cell, bool):  # an int to isinstance and float() alike
                    raise ValueError(f"{str(cell).lower()} is a JSON boolean")
            table = np.array([float(cell) for cell in node["cpt"]], dtype=float)
        except ValueError as exc:
            raise ValueError(f"model node {var.name!r}: a cpt cell is not a number ({exc})") from None
        cpts[var.name] = Cpt(var, parents, table.reshape(shape))
    return DiscreteBayesNet(dag, cpts)


def load_model(path) -> DiscreteBayesNet:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_document(json.load(fh))


def to_dot(dag: Dag) -> str:
    """Plain DOT digraph named G: one statement per node, one edge line per edge."""
    def quoted(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph G {"]
    for node in dag.nodes:
        lines.append(f"  {quoted(node)};")
    for parent, child in dag.edges:
        lines.append(f"  {quoted(parent)} -> {quoted(child)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(dag: Dag, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_dot(dag))
