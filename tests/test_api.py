"""The package's public surface."""

import inspect
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import structim
from structim.errors import ArgumentError

from conftest import clique, network_from

PUBLIC = (
    "BASE_PRESENCE", "DIRECTED_SCHEME", "DataError", "EvaluationReport", "FEATURE_COLUMNS",
    "FeatureTable", "ImportanceVector", "L2_GRID", "LinearModel", "LogisticModel",
    "MEASURE_COLUMNS", "NumericalError", "PredictionResult", "SCHEMES", "STRENGTH_MODES",
    "SingularTriplet", "Snapshot", "Spectrum", "StandardizationConstants", "StructimError",
    "TARGETS", "TTestResult", "TemporalNetwork", "apply_standardization", "auc_score",
    "barbell", "binom_ci", "bootstrap_auc_ci", "build_features", "build_horizon_tables",
    "build_table", "detect_communities", "edge_importance", "eig_sym", "eigenvector_centrality",
    "evaluate", "fit_linear", "fit_logistic", "forward_chain_folds", "importance_components",
    "leading_singular", "load_network", "load_snapshots_text",
    "mean_diff_ttest", "modularity", "node_importance", "node_importance_directed",
    "null_edge_presence", "null_prior_predictor", "null_shuffle_regression", "oversample",
    "pagerank", "pearson", "permutation_importance", "pool", "prune_correlated", "r2_score",
    "repeat_snapshot", "run_prediction", "select_eigencomponent", "shap_linear",
    "snapshot_measures", "standardize", "synthetic_temporal", "time_ordered_select",
    "write_edge_csv",
)


def test_public_surface_is_pinned():
    # a new export (or a private helper leaking out) must be added here on purpose
    assert len(PUBLIC) == 66
    assert sorted(structim.__all__) == sorted(PUBLIC)
    assert len(set(structim.__all__)) == len(structim.__all__)
    assert all(hasattr(structim, name) for name in PUBLIC)


def test_fixed_values_are_constants_not_options():
    # no caller set them: pipeline.FOLDS, model.RIDGE_JITTER, model.THRESHOLD, model.CI95_PERCENTILES
    for fn, name in ((structim.forward_chain_folds, "folds"), (structim.fit_linear, "jitter"),
                     (structim.evaluate, "threshold"), (structim.bootstrap_auc_ci, "alpha")):
        assert name not in inspect.signature(fn).parameters


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy dominates start-up time and resident memory, and structim needs
    # none of it: neither the import nor a whole predict or analyze job of a
    # cold CLI process may load any part of it
    src = os.path.dirname(os.path.dirname(os.path.abspath(structim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, structim, structim.cli; print('scipy.stats' in sys.modules, 'scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False False"

    csv = str(tmp_path / "net.csv")
    gen = ["gen", "synthetic", "--n", "30", "--communities", "2", "--hubs", "2", "--coupling", "-2.0",
           "--horizon", "8", "--seed", "4", "--out", csv]
    jobs = {
        "predict": ["predict", csv, "--target", "presence", "--trials", "30", "--bootstrap-iters", "100",
                    "--out", str(tmp_path / "predict")],
        "analyze": ["analyze", csv, "--out", str(tmp_path / "analyze")],
    }
    for name, argv in jobs.items():
        code = (
            "import sys, structim.cli as cli\n"
            f"assert cli.main({gen!r}) == 0 and cli.main({argv!r}) == 0\n"
            "print('scipy' in sys.modules)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
                             timeout=300)
        assert out.stdout.strip().splitlines()[-1] == "False", name


def _labeled_table():
    x = np.array([[1.0], [-1.0], [0.5], [-0.5]])
    return structim.FeatureTable(columns=("ma",), X=x, node_ids=(0, 1, 2, 3), as_of=1,
                                 target="presence", y=np.array([1.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("call", [
    lambda: structim.pearson([1.0, 2.0], [1.0, 2.0, 3.0]),
    lambda: structim.importance_components(structim.eig_sym(clique(3).adjacency()), np.ones(4)),
    lambda: structim.node_importance(clique(3), "mz"),
    lambda: clique(3).strength(mode="sideways"),
    lambda: structim.fit_logistic(_labeled_table(), l2=-1.0),
    lambda: structim.binom_ci(2.5, 5),
    lambda: structim.binom_ci(6, 5),
    lambda: structim.binom_ci(2, 5, alpha=1.5),
    lambda: structim.permutation_importance(structim.fit_logistic(_labeled_table()), _labeled_table(), repeats=0),
    lambda: structim.pool([_labeled_table(), replace(_labeled_table(), target="change")]),
    lambda: structim.pool([_labeled_table(), replace(_labeled_table(), columns=("mb",))]),
    lambda: structim.build_features(network_from([clique(3), clique(3, timestamp=1)]), 0),
    lambda: structim.build_table(network_from([clique(3), clique(3, timestamp=1)]), 1, "presence"),
    lambda: structim.eig_sym(np.ones((2, 3))),
    lambda: structim.eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]])),
    lambda: structim.leading_singular(np.ones(3)),
], ids=["pearson-shape", "importance-components-strength", "node-importance-scheme", "strength-mode",
        "fit-logistic-l2", "binom-ci-integers", "binom-ci-range", "binom-ci-alpha",
        "permutation-importance-repeats", "pool-targets", "pool-columns", "build-features-anchor",
        "labels-horizon", "eig-sym-shape", "eig-sym-symmetry", "leading-singular-shape"])
def test_argument_errors_are_typed(call):
    # ArgumentError subclasses ValueError, so callers that catch ValueError still do
    with pytest.raises(ArgumentError):
        call()
