"""The package's public surface."""

import argparse
import inspect
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import structim
from structim import cli, features, model, netstats, pipeline, svgplot
from structim.errors import ArgumentError

from conftest import clique, network_from, public_callables

PUBLIC = (
    "BASE_PRESENCE", "DIRECTED_SCHEME", "DataError", "EvaluationReport", "FEATURE_COLUMNS",
    "FeatureTable", "ImportanceVector", "L2_GRID", "LinearModel", "LogisticModel",
    "MEASURE_COLUMNS", "NumericalError", "PredictionResult", "SCHEMES", "STRENGTH_MODES",
    "Snapshot", "Spectrum", "StandardizationConstants", "StructimError",
    "TARGETS", "TTestResult", "TemporalNetwork", "apply_standardization", "auc_score",
    "barbell", "binom_ci", "bootstrap_auc_ci", "build_features", "build_horizon_tables",
    "build_table", "detect_communities", "edge_importance", "eig_sym", "eigenvector_centrality",
    "evaluate", "fit_linear", "fit_logistic", "forward_chain_folds", "importance_components",
    "load_network", "load_snapshots_text",
    "mean_diff_ttest", "modularity", "node_importance", "node_importance_directed",
    "null_edge_presence", "null_prior_predictor", "null_shuffle_regression",
    "pagerank", "pearson", "permutation_importance", "prune_correlated", "r2_score",
    "repeat_snapshot", "run_prediction", "select_eigencomponent", "shap_linear",
    "snapshot_measures", "standardize", "synthetic_temporal", "time_ordered_select",
    "write_edge_csv",
)


def test_public_surface_is_pinned():
    # a new export (or a private helper leaking out) must be added here on purpose
    assert len(PUBLIC) == 62
    assert sorted(structim.__all__) == sorted(PUBLIC)
    assert len(set(structim.__all__)) == len(structim.__all__)
    assert all(hasattr(structim, name) for name in PUBLIC)


def test_public_options_are_pinned():
    # a new keyword option (or a removed one) must edit this count on purpose
    options = [(fn.__qualname__, p.name) for fn in public_callables()
               for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]
    assert len(options) == 36, options


def test_public_record_fields_are_pinned():
    # a new field (or a removed one) of a public record must edit this list on purpose
    records = {name: tuple(f.name for f in fields(getattr(structim, name))) for name in structim.__all__
               if isinstance(getattr(structim, name), type) and is_dataclass(getattr(structim, name))}
    assert records == {
        "EvaluationReport": ("n_rows", "n_positive", "tp", "fp", "fn", "tn", "precision", "recall", "auc",
                             "threshold", "notes", "precision_ci", "recall_ci", "auc_ci", "ci_method", "null_prior",
                             "null_edge_presence", "permutation_importance", "shap_mean_abs"),
        "FeatureTable": ("columns", "X", "node_ids", "as_of", "y", "meta"),
        "ImportanceVector": ("scheme", "values", "eig_rank", "excluded"),
        "LinearModel": ("feature_names", "intercept", "coef", "coef_se", "coef_pvalues", "intercept_se",
                        "intercept_pvalue"),
        "LogisticModel": ("feature_names", "intercept", "coef", "coef_se", "coef_pvalues", "intercept_se",
                          "intercept_pvalue", "l2", "converged", "n_iter", "grad_norm", "separation_warning"),
        "PredictionResult": ("target", "seed", "n_rows", "split", "columns", "dropped_correlated",
                             "dropped_constant", "chosen_l2", "cv_auc_by_l2", "report", "regression", "coefficients",
                             "shap_values", "shap_base", "shap_rows", "warnings"),
        "Snapshot": ("node_ids", "edges", "directed", "timestamp"),
        "Spectrum": ("eigenvalues", "eigenvectors"),
        "StandardizationConstants": ("columns", "means", "stds", "dropped"),
        "TTestResult": ("t_stat", "dof", "p_value"),
        "TemporalNetwork": ("snapshots", "universe", "negative_weight_count"),
    }


def _flags(parser, command=""):
    """{command: its positional arguments and flags, in order} over every (sub)parser."""
    flags, out = [], {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_flags(sub, f"{command} {name}".strip()))
        elif not isinstance(action, argparse._HelpAction):
            flags.append(action.option_strings[0] if action.option_strings else action.dest)
    return {command: flags, **out}


def test_cli_flags_are_pinned():
    # a new flag (or a removed one) must edit this list on purpose
    assert _flags(cli.build_parser()) == {
        "": ["--version"],
        "gen": [],
        "gen barbell": ["--n-left", "--bridge", "--n-right", "--weight", "--repeats", "--out"],
        "gen synthetic": ["--n", "--communities", "--hubs", "--coupling", "--horizon", "--seed", "--out"],
        "importance": ["input", "--aggregation", "--scheme", "--snapshot", "--strength-mode", "--out"],
        "analyze": ["input", "--aggregation", "--format", "--out"],
        "predict": ["input", "--aggregation", "--format", "--seed", "--target", "--l2-grid", "--change-threshold",
                    "--corr-threshold", "--trials", "--bootstrap-iters", "--out"],
    }


def test_fixed_values_are_constants_not_options():
    # no caller set them: pipeline.FOLDS, model.RIDGE_JITTER, model.THRESHOLD, model.CI95_PERCENTILES
    # (also binom_ci's tails), model.IRLS_MAX_ITER and IRLS_TOL, model.PERMUTATION_REPEATS,
    # netstats.PAGERANK_DAMPING, PAGERANK_TOL and PAGERANK_MAX_ITER, cli.TTEST_ALPHA and the SVG size;
    # the rank array and the strength vector are indexed for one node, and run_prediction alone scored
    # fit_linear on held-out rows
    for fn, name in ((structim.forward_chain_folds, "folds"), (structim.fit_linear, "jitter"),
                     (structim.evaluate, "threshold"), (structim.bootstrap_auc_ci, "alpha"),
                     (structim.binom_ci, "alpha"), (structim.permutation_importance, "repeats"),
                     (structim.pagerank, "damping"), (structim.fit_linear, "heldout"),
                     (structim.fit_logistic, "max_iter"), (structim.fit_logistic, "tol"),
                     (structim.pagerank, "tol"), (structim.pagerank, "max_iter"),
                     (structim.select_eigencomponent, "node"), (structim.Snapshot.strength, "node"),
                     (cli._ttests, "alpha"), (svgplot.line_chart, "width"), (svgplot.bar_chart, "height"),
                     (svgplot.violin_chart, "width")):
        assert name not in inspect.signature(fn).parameters, (fn.__qualname__, name)


def test_each_shared_default_has_one_owner():
    # a signature that forwards a shared default names its owner's constant,
    # so no copy of the value can drift from the others
    owners = {
        features.CHANGE_THRESHOLD: [(structim.build_table, "change_threshold"),
                                    (structim.build_horizon_tables, "change_threshold"),
                                    (structim.run_prediction, "change_threshold")],
        features.CORR_THRESHOLD: [(structim.prune_correlated, "threshold"),
                                  (structim.run_prediction, "corr_threshold")],
        model.NULL_TRIALS: [(structim.null_prior_predictor, "trials"), (structim.null_edge_presence, "trials"),
                            (structim.null_shuffle_regression, "trials"), (structim.run_prediction, "null_trials")],
        model.BOOTSTRAP_ITERS: [(structim.bootstrap_auc_ci, "iters"), (structim.run_prediction, "bootstrap_iters")],
        pipeline.L2_GRID: [(structim.time_ordered_select, "l2_grid"), (structim.run_prediction, "l2_grid")],
    }
    assert (features.CHANGE_THRESHOLD, features.CORR_THRESHOLD) == (0.05, 0.8)
    assert (model.NULL_TRIALS, model.BOOTSTRAP_ITERS, model.PERMUTATION_REPEATS) == (100, 1000, 10)
    # the L2 grid's fits (_irls) and the refit (fit_logistic) read the same two limits
    assert (model.IRLS_MAX_ITER, model.IRLS_TOL, model.HESSIAN_JITTER) == (500, 1e-8, 1e-12)
    assert (netstats.PAGERANK_DAMPING, netstats.PAGERANK_TOL, netstats.PAGERANK_MAX_ITER) == (0.85, 1e-10, 100000)
    for constant, users in owners.items():
        for fn, name in users:
            assert inspect.signature(fn).parameters[name].default is constant, (fn.__name__, name)
    for name in ("CHANGE_THRESHOLD", "CORR_THRESHOLD", "NULL_TRIALS", "BOOTSTRAP_ITERS", "PERMUTATION_REPEATS"):
        assert name not in structim.__all__


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
                                 y=np.array([1.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize("call", [
    lambda: structim.pearson([1.0, 2.0], [1.0, 2.0, 3.0]),
    lambda: structim.importance_components(structim.eig_sym(clique(3).adjacency()), np.ones(4)),
    lambda: structim.node_importance(clique(3), "mz"),
    lambda: clique(3).strength(mode="sideways"),
    lambda: structim.fit_logistic(_labeled_table(), l2=-1.0),
    lambda: structim.binom_ci(2.5, 5),
    lambda: structim.binom_ci(6, 5),
    lambda: structim.build_features(network_from([clique(3), clique(3, timestamp=1)]), 0),
    lambda: structim.snapshot_measures(network_from([clique(3), clique(3, timestamp=1)]), -1),
    lambda: structim.build_table(network_from([clique(3), clique(3, timestamp=1)]), 1, "presence"),
    lambda: structim.eig_sym(np.ones((2, 3))),
    lambda: structim.eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]])),
    lambda: structim.eig_sym(np.array([[0.0, np.nan], [np.nan, 0.0]])),
    lambda: structim.eig_sym(np.array([[np.inf, 1.0], [1.0, 0.0]])),
    lambda: structim.r2_score([1.0, 2.0], [1.0]),
    lambda: structim.shap_linear(replace(structim.fit_logistic(_labeled_table()), coef=np.ones(2)), np.ones((3, 1))),
    lambda: structim.shap_linear(structim.fit_logistic(_labeled_table()), np.ones((3, 1)), background_mean=np.zeros(2)),
    lambda: structim.forward_chain_folds(10.5),
    lambda: structim.forward_chain_folds(sys.maxsize),
    lambda: structim.edge_importance(structim.eig_sym(clique(3).adjacency()), 0.5, 1),
    lambda: structim.node_importance(clique(4), "ma", spectrum=structim.eig_sym(clique(3).adjacency())),
    lambda: structim.node_importance(clique(3), "mc", spectrum="spectrum"),
    lambda: structim.eigenvector_centrality(clique(4), spectrum=structim.eig_sym(clique(3).adjacency())),
    lambda: structim.snapshot_measures(network_from([clique(3), clique(3, timestamp=1)]), 1,
                                       spectrum=structim.eig_sym(clique(4).adjacency())),
    lambda: structim.snapshot_measures(network_from([clique(3), clique(3, timestamp=1)]), 1,
                                       communities=np.array([0, 1])),
    lambda: structim.snapshot_measures(network_from([clique(3), clique(3, timestamp=1)]), 1,
                                       communities=np.zeros(3)),
    lambda: structim.snapshot_measures(network_from([clique(3), clique(3, timestamp=1)]), 1,
                                       communities=np.array([0, -1, 0])),
], ids=["pearson-shape", "importance-components-strength", "node-importance-scheme", "strength-mode",
        "fit-logistic-l2", "binom-ci-integers", "binom-ci-range",
        "build-features-anchor", "snapshot-measures-anchor",
        "labels-horizon", "eig-sym-shape", "eig-sym-symmetry", "eig-sym-nan", "eig-sym-inf",
        "r2-score-shape", "shap-linear-columns", "shap-linear-background",
        "forward-chain-folds-n", "forward-chain-folds-longest", "edge-importance-index",
        "node-importance-spectrum-size", "node-importance-spectrum-type", "eigenvector-centrality-spectrum-size",
        "snapshot-measures-spectrum-size", "snapshot-measures-communities-size",
        "snapshot-measures-communities-float", "snapshot-measures-communities-negative"])
def test_argument_errors_are_typed(call):
    # ArgumentError subclasses ValueError, so callers that catch ValueError still do
    with pytest.raises(ArgumentError):
        call()
