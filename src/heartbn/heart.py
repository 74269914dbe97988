"""The fixed heart-disease network used throughout the package.

The structure was recovered by hand from the conditioning sets of the
published conditional probability tables for the processed Cleveland data:
every table of the form P(child | parents) contributes one edge per parent.
Three attributes (fbs, restecg, cholC) carry marginals only and are isolated;
sex is a root with one child.
"""

from __future__ import annotations

from .core import Dag, build_dag
from .dataset import heart_schema

# Discretized attribute names, in the column order of the processed table.
HEART_NODES = tuple(v.name for v in heart_schema())

# Edge declaration order fixes CPT parent order: thalachC is conditioned on
# (slope, exang) and oldpeakC on (slope, target), in that order.
HEART_EDGES = (
    ("target", "cp"),
    ("cp", "exang"),
    ("target", "slope"),
    ("target", "ca"),
    ("sex", "thal"),
    ("thal", "target"),
    ("ca", "ageC"),
    ("ageC", "trestbpsC"),
    ("slope", "thalachC"),
    ("exang", "thalachC"),
    ("slope", "oldpeakC"),
    ("target", "oldpeakC"),
)


def heart_network() -> Dag:
    """14-node, 12-edge network over the discretized heart attributes."""
    return build_dag(HEART_NODES, HEART_EDGES)
