"""Spectral structural importance for weighted temporal networks.

The package measures how much each node supports the spectrum of a weighted
network (several per-node importance schemes, plus an edge variant and a
directed variant), tracks those measures across temporal snapshots, and fits
benchmarked models that predict node activity in the next snapshot from the
measures of the current one.
"""

from .errors import DataError, NumericalError, StructimError
from .graphs import STRENGTH_MODES, Snapshot, TemporalNetwork
from .ingest import load_network, load_snapshots_text, write_edge_csv
from .generators import BASE_PRESENCE, barbell, repeat_snapshot, synthetic_temporal
from .spectral import Spectrum, eig_sym, select_eigencomponent
from .importance import (
    DIRECTED_SCHEME,
    SCHEMES,
    ImportanceVector,
    edge_importance,
    importance_components,
    node_importance,
    node_importance_directed,
)
from .netstats import (
    TTestResult,
    detect_communities,
    eigenvector_centrality,
    mean_diff_ttest,
    modularity,
    pagerank,
    pearson,
)
from .features import (
    FEATURE_COLUMNS,
    MEASURE_COLUMNS,
    TARGETS,
    FeatureTable,
    build_features,
    build_table,
    prune_correlated,
    snapshot_measures,
)
from .model import (
    EvaluationReport,
    LinearModel,
    LogisticModel,
    StandardizationConstants,
    apply_standardization,
    auc_score,
    binom_ci,
    bootstrap_auc_ci,
    evaluate,
    fit_linear,
    fit_logistic,
    null_edge_presence,
    null_prior_predictor,
    null_shuffle_regression,
    permutation_importance,
    r2_score,
    shap_linear,
    standardize,
)
from .pipeline import (
    L2_GRID,
    PredictionResult,
    build_horizon_tables,
    forward_chain_folds,
    run_prediction,
    time_ordered_select,
)

__version__ = "0.1.0"

__all__ = [
    "BASE_PRESENCE",
    "DIRECTED_SCHEME",
    "DataError",
    "EvaluationReport",
    "FEATURE_COLUMNS",
    "FeatureTable",
    "ImportanceVector",
    "L2_GRID",
    "LinearModel",
    "LogisticModel",
    "MEASURE_COLUMNS",
    "NumericalError",
    "PredictionResult",
    "SCHEMES",
    "STRENGTH_MODES",
    "Snapshot",
    "Spectrum",
    "StandardizationConstants",
    "StructimError",
    "TARGETS",
    "TTestResult",
    "TemporalNetwork",
    "apply_standardization",
    "auc_score",
    "barbell",
    "binom_ci",
    "bootstrap_auc_ci",
    "build_features",
    "build_horizon_tables",
    "build_table",
    "detect_communities",
    "edge_importance",
    "eig_sym",
    "eigenvector_centrality",
    "evaluate",
    "fit_linear",
    "fit_logistic",
    "forward_chain_folds",
    "importance_components",
    "load_network",
    "load_snapshots_text",
    "mean_diff_ttest",
    "modularity",
    "node_importance",
    "node_importance_directed",
    "null_edge_presence",
    "null_prior_predictor",
    "null_shuffle_regression",
    "pagerank",
    "pearson",
    "permutation_importance",
    "prune_correlated",
    "r2_score",
    "repeat_snapshot",
    "run_prediction",
    "select_eigencomponent",
    "shap_linear",
    "snapshot_measures",
    "standardize",
    "synthetic_temporal",
    "time_ordered_select",
    "write_edge_csv",
]
