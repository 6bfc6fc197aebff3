"""End-to-end prediction over a temporal network.

Feature tables are built for every anchor snapshot with a successor and pooled
once, in anchor order, then split by time once, in ``run_prediction``: the
first 80% of rows train and the last 20% are held out for the final report.
Correlation pruning and standardization are fitted on the first 80% only, and
the 5 forward-chaining folds of the L2 grid search validate on its last 5
sixths. Each fold's L2 grid is one warm-started path of IRLS fits that compute
only coefficients; the chosen classifier is a cold ``fit_logistic`` refit on
the first 80%. Every fit is class-weighted and draws no random number, so the
seed reaches only the bootstrap, the null models and permutation importance.
Classification targets get the full benchmarking treatment (exact binomial
CIs, bootstrap AUC CI, prior and random-edge null models, permutation
importance, per-feature attribution); the regression target gets held-out
R^2 against a shuffled-target null.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from ._special import expit
from .errors import ArgumentError, DataError, NumericalError, _check_count, _check_real
from .features import CHANGE_THRESHOLD, CORR_THRESHOLD, FeatureTable, _check_target, build_table, prune_correlated
from .graphs import TemporalNetwork
from .model import (BOOTSTRAP_ITERS, CI95_Z, MIN_NULL_TRIALS, NULL_TRIALS, EvaluationReport, _auc_rows, _irls,
                    _json_fields, _with_intercept, apply_standardization, binom_ci, bootstrap_auc_ci, evaluate,
                    fit_linear, fit_logistic, null_edge_presence, null_prior_predictor, null_shuffle_regression,
                    permutation_importance, r2_score, shap_linear, standardize)

L2_GRID = (0.01, 0.1, 1.0, 10.0)
MIN_ROWS = 25
# Forward-chaining validation blocks of the L2 search; each should hold rows
# of its own anchor time.
FOLDS = 5


@dataclass
class PredictionResult:
    """Everything cmd_predict reports, in analysis order. A classifier's ``split``
    is a 40/40/20 row cut that no fit uses: its folds and refit run on train +
    validation, the first 80% of rows, which ``rel_change`` calls train."""

    target: str
    seed: int
    n_rows: int
    split: dict
    columns: tuple
    dropped_correlated: tuple
    dropped_constant: tuple
    chosen_l2: float | None
    cv_auc_by_l2: dict | None
    report: EvaluationReport | None
    regression: dict | None
    coefficients: list
    shap_values: np.ndarray | None = None
    shap_base: float | None = None
    shap_rows: tuple = field(default_factory=tuple)
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return _json_fields(self, skip=("shap_values", "shap_rows"))


def build_horizon_tables(tn: TemporalNetwork, target: str, change_threshold: float = CHANGE_THRESHOLD) -> FeatureTable:
    """The horizon tables, pooled: the ``build_table`` rows of every anchor 1..T-2
    in anchor order, each anchor measured once. ``meta`` holds each skip count
    as a tuple over all anchors in order, anchors without rows included."""
    _check_target(target)
    anchors = range(1, tn.n_snapshots - 1)
    if not anchors:
        raise DataError("no usable feature rows at any anchor (an anchor needs a prior and a next snapshot)")
    tables = [build_table(tn, t, target, change_threshold=change_threshold) for t in anchors]
    pooled = FeatureTable(
        columns=tables[0].columns,
        X=np.vstack([t.X for t in tables]),
        node_ids=tuple(v for t in tables for v in t.node_ids),
        as_of=np.concatenate([t.as_of for t in tables]),
        y=np.concatenate([t.y for t in tables]),
        meta={key: tuple(t.meta[key] for t in tables) for key in tables[0].meta},
    )
    if not pooled.n_rows:
        raise DataError(f"anchors 1..{anchors[-1]} exist, but target {target!r} labels none of their featurizable nodes")
    return pooled


def _check_snapshots(tn: TemporalNetwork, target: str) -> None:
    """The per-target snapshot minimum of run_prediction.

    Every anchor needs a prior snapshot, to tell new nodes from seen ones, and
    a next one for its labels; a classifier also needs one anchor per fold.
    """
    if target == "rel_change":
        need, why = 3, "a prior snapshot, anchor, successor"
    else:
        need, why = FOLDS + 2, f"at least {FOLDS} horizon tables for {FOLDS}-fold forward chaining"
    if tn.n_snapshots < need:
        raise DataError(f"{target} prediction needs at least {need} snapshots ({why}), got {tn.n_snapshots}")


def _split_ends(n: int):
    """Last training row + 1 and last validation row + 1 of the 40/40/20 time split."""
    if n < MIN_ROWS:
        raise DataError(f"only {n} rows; need at least {MIN_ROWS} for the split")
    return int(0.4 * n), int(0.8 * n)


def forward_chain_folds(n: int):
    """Expanding-window folds over row indices 0..n-1.

    The last ``FOLDS`` blocks of size n // (FOLDS + 1) are validation sets;
    everything before a block trains. The remainder stays in the earliest
    training window.
    """
    _check_count(n, 0, "n", sys.maxsize // np.dtype(np.intp).itemsize)  # the longest index array
    block = n // (FOLDS + 1)
    if block < 1:
        raise DataError(f"too few rows ({n}) for {FOLDS}-fold forward chaining")
    out = []
    for k in range(FOLDS):
        val_start = n - (FOLDS - k) * block
        out.append((np.arange(0, val_start), np.arange(val_start, val_start + block)))
    return out


def _check_l2_grid(l2_grid) -> None:
    if not (isinstance(l2_grid, (list, tuple)) and l2_grid):
        raise ArgumentError(f"l2_grid needs a nonempty list or tuple of values, got {l2_grid!r}")
    for value in l2_grid:
        _check_real(value, "l2_grid value", 0, np.inf, "[)")


def time_ordered_select(table: FeatureTable, l2_grid=L2_GRID):
    """Grid-search L2 by forward-chaining validation AUC over a pooled table.

    ``table`` is a labeled pool of horizon tables in time order (see
    ``build_horizon_tables``) whose rows come from at least five distinct anchor
    times ``as_of``, so the forward-chaining folds see distinct eras; rows
    out of time order raise DataError, since a fold would then validate on
    rows older than its training rows. The first 80% of rows feed the grid
    search. Each fold's standardized training design and standardized
    validation rows are prepared once. The fold's grid is one regularization
    path (Friedman, Hastie & Tibshirani, J. Stat. Softw. 2010): the ascending
    L2 values are fit in turn by the class-weighted IRLS loop of
    ``fit_logistic``, each from the previous value's coefficients (from zero
    for the first value, after a separated fit, and again when a warm-started
    fit raises NumericalError), for coefficients only, and the fold's
    validation AUCs are counted in one call. No random number is drawn.
    Returns (chosen_l2, cv_auc_by_l2), the latter the mean fold AUC of each
    grid value; the caller refits cold at the chosen value with ``fit_logistic``.

    Ties keep the smallest L2 because the grid is scanned in ascending order
    with a strict improvement test. An empty grid, or a value that is not
    finite and nonnegative, raises ArgumentError before any fit.
    """
    _check_l2_grid(l2_grid)
    anchors = len(set(table.as_of))
    if anchors < FOLDS:
        raise DataError(f"need at least {FOLDS} horizon tables for forward chaining, got {anchors}")
    if np.any(np.diff(table.as_of) < 0):
        raise DataError("forward chaining needs the pooled rows in time order (non-decreasing as_of)")
    _, i2 = _split_ends(table.n_rows)
    grid = sorted(set(float(v) for v in l2_grid))

    fold_aucs = []
    for tr, va in forward_chain_folds(i2):
        y_tr, y_va = table.y[tr], table.y[va]
        if y_tr.min() == y_tr.max() or y_va.min() == y_va.max():
            continue
        train_std, constants = standardize(table.select_rows(tr))
        val_std = apply_standardization(constants, table.select_rows(va))
        design, y = _with_intercept(train_std.X), train_std.y.astype(float)
        beta = np.zeros(design.shape[1])
        scores = []
        for l2 in grid:
            try:
                beta, _, _, _, separated = _irls(design, y, l2, beta)
            except NumericalError:  # where a warm start fails, a cold fit may converge
                beta, _, _, _, separated = _irls(design, y, l2, np.zeros_like(beta))
            # LogisticModel.predict_proba's arithmetic
            scores.append(expit(float(beta[0]) + val_std.X @ beta[1:]))
            if separated:
                beta = np.zeros_like(beta)
        fold_aucs.append(_auc_rows(np.broadcast_to(val_std.y, (len(grid), val_std.n_rows)), np.array(scores)))
    if not fold_aucs:
        raise DataError("every forward-chaining fold was single-class")

    cv_means = {}
    best_l2 = None
    best_mean = -np.inf
    for l2, aucs in zip(grid, np.transpose(fold_aucs)):
        mean_auc = float(np.mean(aucs))
        cv_means[l2] = mean_auc
        if mean_auc > best_mean:
            best_mean = mean_auc
            best_l2 = l2
    return best_l2, cv_means


def _coefficient_table(model) -> list:
    """One row per estimate, intercept first: coef, Wald SE, p-value, 95% CI."""
    estimates = zip(
        ("(intercept)",) + model.feature_names,
        (model.intercept, *model.coef),
        (model.intercept_se, *model.coef_se),
        (model.intercept_pvalue, *model.coef_pvalues),
    )
    return [
        {"feature": name, "coef": float(b), "se": float(s), "pvalue": float(p),
         "ci_lo": float(b - CI95_Z * s), "ci_hi": float(b + CI95_Z * s)}
        for name, b, s, p in estimates
    ]


def _check_prediction_args(seed, l2_grid, change_threshold, corr_threshold, null_trials, bootstrap_iters) -> None:
    """run_prediction's argument rules, the bounds of the functions it passes each one to."""
    _check_count(seed, 0, "seed", np.inf)
    _check_l2_grid(l2_grid)
    _check_real(change_threshold, "change_threshold", 0, np.inf, "[)")
    _check_real(corr_threshold, "corr_threshold", 0, 1, "()")
    _check_count(null_trials, MIN_NULL_TRIALS, "null_trials")
    _check_count(bootstrap_iters, 1, "bootstrap_iters")


def run_prediction(
    tn: TemporalNetwork,
    target: str,
    seed: int = 0,
    l2_grid=L2_GRID,
    change_threshold: float = CHANGE_THRESHOLD,
    corr_threshold: float = CORR_THRESHOLD,
    null_trials: int = NULL_TRIALS,
    bootstrap_iters: int = BOOTSTRAP_ITERS,
) -> PredictionResult:
    """Full prediction pipeline for one target.

    The horizon tables are pooled once, in anchor order, and split once.
    Correlation pruning and standardization are fitted on the training and
    validation rows (the first 80%) only, and that one standardization
    serves both target kinds. A classifier's L2 is chosen by
    ``time_ordered_select``, refit on the first 80% and evaluated with its
    nulls; the seed reaches only the bootstrap, the nulls and permutation
    importance. ``rel_change`` fits least squares on the same rows against a
    shuffled-target null. Both report from the same held-out rows.
    """
    _check_prediction_args(seed, l2_grid, change_threshold, corr_threshold, null_trials, bootstrap_iters)
    _check_snapshots(tn, target)
    pooled = build_horizon_tables(tn, target, change_threshold=change_threshold)
    n = pooled.n_rows
    i1, i2 = _split_ends(n)
    dropped_corr = prune_correlated(pooled.select_rows(np.arange(i2)), threshold=corr_threshold)
    pooled = pooled.select_columns([c for c in pooled.columns if c not in dropped_corr])
    train_std, constants = standardize(pooled.select_rows(np.arange(i2)))
    test_std = apply_standardization(constants, pooled.select_rows(np.arange(i2, n)))

    best_l2 = cv_auc_by_l2 = report = regression = phi = base = None
    shap_rows = ()
    warnings_list = []
    if target == "rel_change":
        split = {"train": i2, "validation": 0, "test": n - i2}
        model = fit_linear(train_std)
        null = null_shuffle_regression(train_std, test_std, trials=null_trials, seed=[seed, 8])
        regression = {"r2_heldout": r2_score(test_std.y, model.predict(test_std.X)), "null": null,
                      "split": {"train": i2, "heldout": n - i2}}
    else:
        split = {"train": i1, "validation": i2 - i1, "test": n - i2}
        best_l2, cv_auc_by_l2 = time_ordered_select(pooled, l2_grid=l2_grid)
        model = fit_logistic(train_std, l2=best_l2)
        report = evaluate(model, test_std)
        report.ci_method = "exact"
        if report.precision is not None:
            report.precision_ci = binom_ci(report.tp, report.tp + report.fp)
        if report.recall is not None:
            report.recall_ci = binom_ci(report.tp, report.tp + report.fn)
        if report.auc is not None:
            report.auc_ci = bootstrap_auc_ci(model, test_std, iters=bootstrap_iters, seed=[seed, 4])
        report.null_prior = null_prior_predictor(pooled.y[:i2], test_std.y, trials=null_trials, seed=[seed, 5])
        if target == "presence":
            report.null_edge_presence = null_edge_presence(
                tn, test_std, model.predict_proba(test_std.X), trials=null_trials, seed=[seed, 6]
            )
        report.permutation_importance = permutation_importance(model, test_std, seed=[seed, 7])
        phi, base = shap_linear(model, test_std.X)
        report.shap_mean_abs = {c: float(np.mean(np.abs(phi[:, j]))) for j, c in enumerate(test_std.columns)}
        shap_rows = test_std.node_ids
        if model.separation_warning:
            warnings_list.append("perfect separation detected; coefficients clamped")
    if constants.dropped:
        warnings_list.append(f"near-constant features dropped: {', '.join(constants.dropped)}")

    return PredictionResult(
        target=target,
        seed=int(seed),
        n_rows=n,
        split=split,
        columns=constants.columns,
        dropped_correlated=tuple(dropped_corr),
        dropped_constant=constants.dropped,
        chosen_l2=best_l2,
        cv_auc_by_l2=cv_auc_by_l2,
        report=report,
        regression=regression,
        coefficients=_coefficient_table(model),
        shap_values=phi,
        shap_base=base,
        shap_rows=shap_rows,
        warnings=warnings_list,
    )
