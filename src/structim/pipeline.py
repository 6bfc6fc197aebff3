"""End-to-end prediction over a temporal network.

Feature tables are built for every anchor snapshot with a successor, pruned
of highly correlated columns as one pooled dataset, then split by time: the
first 40% of rows train, the next 40% validate (through 5-fold forward
chaining for the L2 grid search), the last 20% are held out for the final
report. Classification targets get the full benchmarking treatment (exact
binomial CIs, bootstrap AUC CI, prior and random-edge null models,
permutation importance, per-feature attribution); the regression target gets
held-out R^2 against a shuffled-target null.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .features import FeatureTable, TARGETS, build_table, prune_correlated
from .graphs import TemporalNetwork
from .model import (
    EvaluationReport,
    _percentile_summary,
    apply_standardization,
    auc_score,
    binom_ci,
    bootstrap_auc_ci,
    edge_presence_labels,
    evaluate,
    fit_linear,
    fit_logistic,
    null_prior_predictor,
    null_shuffle_regression,
    oversample,
    permutation_importance,
    shap_linear,
    standardize,
)

L2_GRID = (0.01, 0.1, 1.0, 10.0)
MIN_ROWS = 25


@dataclass
class PredictionResult:
    """Everything cmd_predict reports, in analysis order."""

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
        return {
            "target": self.target,
            "seed": self.seed,
            "n_rows": self.n_rows,
            "split": self.split,
            "columns": list(self.columns),
            "dropped_correlated": list(self.dropped_correlated),
            "dropped_constant": list(self.dropped_constant),
            "chosen_l2": self.chosen_l2,
            "cv_auc_by_l2": self.cv_auc_by_l2,
            "report": None if self.report is None else self.report.to_json_dict(),
            "regression": self.regression,
            "coefficients": self.coefficients,
            "shap_base": self.shap_base,
            "warnings": self.warnings,
        }


@dataclass
class _Pooled:
    columns: tuple
    X: np.ndarray
    y: np.ndarray
    as_of: np.ndarray
    node_ids: tuple

    def slice_table(self, idx, target) -> FeatureTable:
        idx = np.asarray(idx)
        return FeatureTable(
            columns=self.columns,
            X=self.X[idx].copy(),
            node_ids=tuple(self.node_ids[i] for i in idx),
            as_of=-1,
            target=target,
            y=self.y[idx].copy(),
        )


def build_horizon_tables(tn: TemporalNetwork, target: str, change_threshold: float = 0.05):
    """Feature tables for every anchor 1..T-2, sharing one measures cache."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
    if tn.n_snapshots < 3:
        raise DataError("prediction needs at least three snapshots (history, anchor, successor)")
    cache: dict = {}
    tables = []
    for t in range(1, tn.n_snapshots - 1):
        table = build_table(tn, t, target, change_threshold=change_threshold, measures_cache=cache)
        if table.n_rows:
            tables.append(table)
    if not tables:
        raise DataError("no usable feature rows in any snapshot")
    return tables


def _pool(tables, dropped_correlated) -> _Pooled:
    columns = tuple(c for c in tables[0].columns if c not in dropped_correlated)
    xs, ys, as_of, nodes = [], [], [], []
    for table in tables:
        reduced = table.select_columns(columns)
        xs.append(reduced.X)
        ys.append(reduced.y)
        as_of.extend([table.as_of] * table.n_rows)
        nodes.extend(table.node_ids)
    return _Pooled(
        columns=columns,
        X=np.vstack(xs),
        y=np.concatenate(ys),
        as_of=np.array(as_of, dtype=int),
        node_ids=tuple(nodes),
    )


def forward_chain_folds(n: int, folds: int = 5):
    """Expanding-window folds over row indices 0..n-1.

    The last ``folds`` blocks of size n // (folds + 1) are validation sets;
    everything before a block trains. The remainder stays in the earliest
    training window.
    """
    block = n // (folds + 1)
    if block < 1:
        raise DataError(f"too few rows ({n}) for {folds}-fold forward chaining")
    out = []
    for k in range(folds):
        val_start = n - (folds - k) * block
        out.append((np.arange(0, val_start), np.arange(val_start, val_start + block)))
    return out


def time_ordered_select(tables, l2_grid=L2_GRID, seed: int = 0, details: dict | None = None):
    """Grid-search L2 by forward-chaining validation AUC over pooled tables.

    ``tables`` is the time-ordered list of horizon feature tables (at least
    five, so the forward-chaining folds see distinct eras). Rows are pooled
    in order, the first 80% feed the grid search, and the winner is refit on
    that 80%. Returns (model, chosen_l2); pass a dict as ``details`` to also
    receive the CV means, standardization constants, split sizes, and the
    pooled rows.

    Ties keep the smallest L2 because the grid is scanned in ascending order
    with a strict improvement test.
    """
    tables = list(tables)
    if len(tables) < 5:
        raise DataError(f"need at least 5 horizon tables for forward chaining, got {len(tables)}")
    targets = {t.target for t in tables}
    if len(targets) != 1:
        raise ValueError(f"tables mix targets: {sorted(targets)}")
    target = tables[0].target
    pooled = _pool(tables, ())
    model, best_l2, cv_means, constants, split = _select_on_pooled(pooled, target, l2_grid, seed)
    if details is not None:
        details.update(
            cv_auc_by_l2=cv_means, constants=constants, split=split, pooled=pooled
        )
    return model, best_l2


def _select_on_pooled(pooled: _Pooled, target: str, l2_grid=L2_GRID, seed: int = 0):
    """Grid search and refit on already-pooled rows; see time_ordered_select."""
    n = len(pooled.y)
    if n < MIN_ROWS:
        raise DataError(f"only {n} rows; need at least {MIN_ROWS} for the split")
    i1 = int(0.4 * n)
    i2 = int(0.8 * n)
    folds = forward_chain_folds(i2)

    grid = sorted(set(float(v) for v in l2_grid))
    cv_means = {}
    best_l2 = None
    best_mean = -np.inf
    for l2 in grid:
        fold_aucs = []
        for k, (tr, va) in enumerate(folds):
            y_tr, y_va = pooled.y[tr], pooled.y[va]
            if y_tr.min() == y_tr.max() or y_va.min() == y_va.max():
                continue
            train = pooled.slice_table(tr, target)
            val = pooled.slice_table(va, target)
            train_std, constants = standardize(train)
            train_bal = oversample(train_std, seed=[seed, 2, k])
            model = fit_logistic(train_bal, l2=l2, constants=constants)
            val_std = apply_standardization(constants, val)
            fold_aucs.append(auc_score(val_std.y, model.predict_proba(val_std.X)))
        if not fold_aucs:
            raise DataError("every forward-chaining fold was single-class")
        mean_auc = float(np.mean(fold_aucs))
        cv_means[l2] = mean_auc
        if mean_auc > best_mean:
            best_mean = mean_auc
            best_l2 = l2

    trainval = pooled.slice_table(np.arange(i2), target)
    train_std, constants = standardize(trainval)
    train_bal = oversample(train_std, seed=[seed, 3])
    model = fit_logistic(train_bal, l2=best_l2, constants=constants)
    split = {"train": i1, "validation": i2 - i1, "test": n - i2}
    return model, best_l2, cv_means, constants, split


def _coefficient_table(names, coefs, ses, pvals, intercept, intercept_se, intercept_pvalue):
    z975 = 1.959963984540054
    rows = [
        {
            "feature": "(intercept)",
            "coef": float(intercept),
            "se": float(intercept_se),
            "pvalue": float(intercept_pvalue),
            "ci_lo": float(intercept - z975 * intercept_se),
            "ci_hi": float(intercept + z975 * intercept_se),
        }
    ]
    for name, b, s, p in zip(names, coefs, ses, pvals):
        rows.append(
            {
                "feature": name,
                "coef": float(b),
                "se": float(s),
                "pvalue": float(p),
                "ci_lo": float(b - z975 * s),
                "ci_hi": float(b + z975 * s),
            }
        )
    return rows


def _null_edge_presence_pooled(tn, pooled, test_idx, scores, trials, seed):
    """Edge-presence null over the pooled test rows, drawn per anchor time."""
    rng = np.random.default_rng(seed)
    groups = []
    for t in sorted(set(pooled.as_of[test_idx])):
        rows_here = test_idx[pooled.as_of[test_idx] == t]
        cur = tn.snapshots[t]
        n_t = cur.n_nodes
        if n_t < 2:
            continue
        density = min(1.0, tn.snapshots[t + 1].n_edges / (n_t * (n_t - 1) / 2.0))
        pos = {v: i for i, v in enumerate(cur.node_ids)}
        node_rows = np.array([pos[pooled.node_ids[i]] for i in rows_here])
        groups.append((n_t, density, node_rows, scores[[int(i) for i in rows_here]]))
    if not groups:
        raise DataError("no test rows available for the edge-presence null")

    precisions, recalls, aucs = [], [], []
    for _ in range(trials):
        labels_parts, score_parts = [], []
        for n_t, density, node_rows, score_vec in groups:
            labels_parts.append(edge_presence_labels(n_t, density, rng)[node_rows])
            score_parts.append(score_vec)
        labels = np.concatenate(labels_parts)
        svec = np.concatenate(score_parts)
        yhat = (svec >= 0.5).astype(int)
        tp = int(np.sum((yhat == 1) & (labels == 1)))
        fp = int(np.sum((yhat == 1) & (labels == 0)))
        fn = int(np.sum((yhat == 0) & (labels == 1)))
        precisions.append(tp / (tp + fp) if tp + fp else np.nan)
        recalls.append(tp / (tp + fn) if tp + fn else np.nan)
        aucs.append(auc_score(labels, svec) if labels.min() != labels.max() else np.nan)
    return {
        "kind": "edge_presence",
        "trials": trials,
        "groups": len(groups),
        "precision": _percentile_summary(precisions),
        "recall": _percentile_summary(recalls),
        "auc": _percentile_summary(aucs),
    }


def run_prediction(
    tn: TemporalNetwork,
    target: str,
    seed: int = 0,
    l2_grid=L2_GRID,
    change_threshold: float = 0.05,
    corr_threshold: float = 0.8,
    null_trials: int = 100,
    bootstrap_iters: int = 1000,
) -> PredictionResult:
    """Full prediction pipeline for one target."""
    tables = build_horizon_tables(tn, target, change_threshold=change_threshold)

    merged_for_prune = _Pooled(
        columns=tables[0].columns,
        X=np.vstack([t.X for t in tables]),
        y=np.concatenate([t.y for t in tables]),
        as_of=np.concatenate([np.full(t.n_rows, t.as_of) for t in tables]),
        node_ids=tuple(v for t in tables for v in t.node_ids),
    )
    prune_input = FeatureTable(
        columns=merged_for_prune.columns,
        X=merged_for_prune.X,
        node_ids=merged_for_prune.node_ids,
        as_of=-1,
    )
    _, dropped_corr = prune_correlated(prune_input, threshold=corr_threshold)

    if target == "rel_change":
        pooled = _pool(tables, dropped_corr)
        return _run_regression(tn, pooled, seed, null_trials, dropped_corr)

    kept = [c for c in tables[0].columns if c not in dropped_corr]
    reduced_tables = [t.select_columns(kept) for t in tables]
    details: dict = {}
    model, best_l2 = time_ordered_select(reduced_tables, l2_grid=l2_grid, seed=seed, details=details)
    pooled = details["pooled"]
    cv_means = details["cv_auc_by_l2"]
    constants = details["constants"]
    split = details["split"]
    n = len(pooled.y)
    i2 = split["train"] + split["validation"]
    test_idx = np.arange(i2, n)
    test = pooled.slice_table(test_idx, target)
    test_std = apply_standardization(constants, test)

    report = evaluate(model, test_std)
    report.ci_method = "exact"
    if report.precision is not None:
        report.precision_ci = binom_ci(report.tp, report.tp + report.fp)
    if report.recall is not None:
        report.recall_ci = binom_ci(report.tp, report.tp + report.fn)
    if report.auc is not None:
        report.auc_ci = bootstrap_auc_ci(model, test_std, iters=bootstrap_iters, seed=[seed, 4])

    report.null_prior = null_prior_predictor(pooled.y[:i2], test.y, trials=null_trials, seed=[seed, 5])
    if target == "presence":
        full_scores = _scores_full(model, constants, pooled, target)
        report.null_edge_presence = _null_edge_presence_pooled(
            tn, pooled, test_idx, full_scores, null_trials, [seed, 6]
        )
    report.permutation_importance = permutation_importance(model, test_std, repeats=10, seed=[seed, 7])

    phi, base = shap_linear(model, test_std.X)
    report.shap_mean_abs = {c: float(np.mean(np.abs(phi[:, j]))) for j, c in enumerate(test_std.columns)}
    coeffs = _coefficient_table(
        model.feature_names,
        model.coef,
        model.coef_se,
        model.coef_pvalues,
        model.intercept,
        model.intercept_se,
        model.intercept_pvalue,
    )
    report.coefficients = coeffs

    warnings_list = []
    if model.separation_warning:
        warnings_list.append("perfect separation detected; coefficients clamped")
    if constants.dropped:
        warnings_list.append(f"near-constant features dropped: {', '.join(constants.dropped)}")

    return PredictionResult(
        target=target,
        seed=seed,
        n_rows=n,
        split=split,
        columns=constants.columns,
        dropped_correlated=tuple(dropped_corr),
        dropped_constant=constants.dropped,
        chosen_l2=best_l2,
        cv_auc_by_l2=cv_means,
        report=report,
        regression=None,
        coefficients=coeffs,
        shap_values=phi,
        shap_base=base,
        shap_rows=test_std.node_ids,
        warnings=warnings_list,
    )


def _scores_full(model, constants, pooled, target):
    table = pooled.slice_table(np.arange(len(pooled.y)), target)
    return model.predict_proba(apply_standardization(constants, table).X)


def _run_regression(tn, pooled, seed, null_trials, dropped_corr) -> PredictionResult:
    n = len(pooled.y)
    if n < MIN_ROWS:
        raise DataError(f"only {n} rows; need at least {MIN_ROWS} for the split")
    i2 = int(0.8 * n)
    train = pooled.slice_table(np.arange(i2), "rel_change")
    heldout = pooled.slice_table(np.arange(i2, n), "rel_change")
    train_std, constants = standardize(train)
    heldout_std = apply_standardization(constants, heldout)
    model = fit_linear(train_std, heldout=heldout_std, constants=constants)
    null = null_shuffle_regression(train_std, heldout_std, trials=null_trials, seed=[seed, 8])
    coeffs = _coefficient_table(
        model.feature_names,
        model.coef,
        model.coef_se,
        model.coef_pvalues,
        model.intercept,
        model.intercept_se,
        model.intercept_pvalue,
    )
    regression = {
        "r2_heldout": model.r2,
        "null": null,
        "split": {"train": i2, "heldout": n - i2},
    }
    return PredictionResult(
        target="rel_change",
        seed=seed,
        n_rows=n,
        split={"train": i2, "validation": 0, "test": n - i2},
        columns=constants.columns,
        dropped_correlated=tuple(dropped_corr),
        dropped_constant=constants.dropped,
        chosen_l2=None,
        cv_auc_by_l2=None,
        report=None,
        regression=regression,
        coefficients=coeffs,
        warnings=[f"near-constant features dropped: {', '.join(constants.dropped)}"] if constants.dropped else [],
    )
