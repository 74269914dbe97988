"""Discrete Bayesian networks for the Cleveland heart-disease data.

The package provides the graph/CPT data model, exact inference, parameter
and structure learning, a Naive Bayes baseline, the preprocessing pipeline
for the bundled Cleveland table and a repeated-split evaluation harness.
"""

from .core import (
    Cpt,
    Dag,
    DiscreteBayesNet,
    Variable,
    build_dag,
    d_separated,
    joint_probability,
    markov_blanket,
    topological_order,
)
from .dataset import (
    CleanTable,
    CutpointConfig,
    DataTable,
    DEFAULT_CUTPOINTS,
    RawTable,
    clean,
    cleveland_path,
    discretize,
    heart_schema,
    load_cleveland,
    load_raw,
    split,
)
from .evaluation import ConfusionMatrix, Metrics, confusion, metrics, run_experiment
from .heart import heart_network
from .inference import (
    Posterior,
    classify,
    classify_rows,
    posterior_enumeration,
    posterior_ve,
)
from .learn import (
    CITestResult,
    CountTable,
    Skeleton,
    ci_test,
    count_table,
    family_score,
    fit_bayesian,
    fit_mle,
    hill_climb,
    hybrid_learn,
    learn_skeleton,
    orient,
    score,
)
from .model_io import export_dot, load_model, save_model, to_dot
from .naive_bayes import NbModel, nb_fit, nb_predict

__all__ = [
    "Cpt",
    "Dag",
    "DiscreteBayesNet",
    "Variable",
    "build_dag",
    "d_separated",
    "joint_probability",
    "markov_blanket",
    "topological_order",
    "CleanTable",
    "CutpointConfig",
    "DataTable",
    "DEFAULT_CUTPOINTS",
    "RawTable",
    "clean",
    "cleveland_path",
    "discretize",
    "heart_schema",
    "load_cleveland",
    "load_raw",
    "split",
    "ConfusionMatrix",
    "Metrics",
    "confusion",
    "metrics",
    "run_experiment",
    "heart_network",
    "Posterior",
    "classify",
    "classify_rows",
    "posterior_enumeration",
    "posterior_ve",
    "CITestResult",
    "CountTable",
    "Skeleton",
    "ci_test",
    "count_table",
    "family_score",
    "fit_bayesian",
    "fit_mle",
    "hill_climb",
    "hybrid_learn",
    "learn_skeleton",
    "orient",
    "score",
    "export_dot",
    "load_model",
    "save_model",
    "to_dot",
    "NbModel",
    "nb_fit",
    "nb_predict",
]

__version__ = "0.1.0"
