"""Discrete Bayesian networks for the Cleveland heart-disease data.

The package provides the graph/CPT data model, exact inference, parameter
and structure learning, a Naive Bayes baseline (the star network that
``nb_fit`` fits, classified like any other), the preprocessing pipeline
for the bundled Cleveland table and a repeated-split evaluation harness.
"""

from .core import (
    Cpt,
    Dag,
    DiscreteBayesNet,
    Variable,
    build_dag,
    d_separated,
    markov_blanket,
    topological_order,
)
from .dataset import (
    CutpointConfig,
    DataTable,
    DEFAULT_CUTPOINTS,
    clean,
    cleveland_path,
    discretize,
    heart_schema,
    load_cleveland,
    load_raw,
    split,
)
from .evaluation import confusion, metrics, run_experiment
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
    Skeleton,
    ci_test,
    count_table,
    family_score,
    fit_bayesian,
    fit_mle,
    hill_climb,
    hybrid_learn,
    learn_skeleton,
    nb_fit,
    orient,
    score,
)
from .model_io import export_dot, load_model, save_model, to_dot

__all__ = [
    "Cpt",
    "Dag",
    "DiscreteBayesNet",
    "Variable",
    "build_dag",
    "d_separated",
    "markov_blanket",
    "topological_order",
    "CutpointConfig",
    "DataTable",
    "DEFAULT_CUTPOINTS",
    "clean",
    "cleveland_path",
    "discretize",
    "heart_schema",
    "load_cleveland",
    "load_raw",
    "split",
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
    "Skeleton",
    "ci_test",
    "count_table",
    "family_score",
    "fit_bayesian",
    "fit_mle",
    "hill_climb",
    "hybrid_learn",
    "learn_skeleton",
    "nb_fit",
    "orient",
    "score",
    "export_dot",
    "load_model",
    "save_model",
    "to_dot",
]

__version__ = "0.1.0"
