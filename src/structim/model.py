"""Models, evaluation metrics, and null benchmarks for node-activity prediction.

The classifier is an L2-penalized logistic regression fit by Newton/IRLS on
standardized features, with Wald p-values taken from the observed information
at the optimum. The regressor is ordinary least squares with a tiny ridge
jitter for conditioning. Evaluation follows the usual schema: precision and
recall at probability ``THRESHOLD`` with exact binomial intervals, AUC by the
midrank statistic with a 95% percentile bootstrap, and two null benchmarks
(training-prior label draws and random-edge-presence labels).

Every AUC, including the bootstrap resamples, the null trials and the
permutation repeats, comes from one batched counting kernel, ``_auc_groups``,
which scores many label rows per call from each cell's tie group with exact
integer arithmetic. The bootstrap and the edge-presence null find the tie
groups of their fixed scores once, the prior null's 0/1 draws are their own
groups, and ``_auc_rows`` sorts each row for scores that change per row. The
bootstrap and the prior null draw their random numbers in the same order as
one call per draw would, so their fixed-seed outputs do not depend on the
batching. The edge-presence null draws whole blocks of trials by geometric
skips, so its stream follows its block rule (``edge_presence_labels``).
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._special import betaincinv, expit, ndtr, stdtr
from .errors import ArgumentError, DataError, NumericalError
from .features import CONSTANT_STD, FeatureTable, _check_horizon
from .graphs import TemporalNetwork

SEPARATION_BOUND = 30.0
# A prediction is positive at this probability or above, in evaluate and in
# the edge-presence null alike.
THRESHOLD = 0.5
# The percentile pair of every 95% interval: the bootstrap AUC CI and ci95.
CI95_PERCENTILES = (2.5, 97.5)
RIDGE_JITTER = 1e-10
# Fewest null-model trials whose empirical quantiles are reported.
MIN_NULL_TRIALS = 20


def _check_null_trials(trials: int) -> None:
    if trials < MIN_NULL_TRIALS:
        raise ArgumentError(f"need at least {MIN_NULL_TRIALS} trials for stable quantiles, got {trials}")


@dataclass(frozen=True)
class StandardizationConstants:
    columns: tuple
    means: np.ndarray
    stds: np.ndarray
    dropped: tuple


def standardize(table: FeatureTable):
    """Center and scale features to zero mean, unit standard deviation.

    Near-constant columns (std <= 1e-12) carry no information and break the
    scaling, so they are dropped with a warning. Returns the standardized
    table and the constants needed to transform other tables the same way.
    """
    keep = [c for c, s in zip(table.columns, table.X.std(axis=0)) if s > CONSTANT_STD]
    dropped = tuple(c for c in table.columns if c not in keep)
    if dropped:
        warnings.warn(f"dropping near-constant feature columns: {', '.join(dropped)}")
    x = table.select_columns(keep).X
    constants = StandardizationConstants(tuple(keep), x.mean(axis=0), x.std(axis=0), dropped)
    return apply_standardization(constants, table), constants


def apply_standardization(constants: StandardizationConstants, table: FeatureTable) -> FeatureTable:
    """Transform a table with previously fitted constants."""
    reduced = table.select_columns(constants.columns)
    reduced.X = (reduced.X - constants.means) / constants.stds
    return reduced


def oversample(table: FeatureTable, seed=0) -> FeatureTable:
    """Balance a binary-labeled table by duplicating minority rows.

    Duplicates are drawn uniformly with replacement and appended until both
    classes have equal counts. Raises DataError when only one class is
    present.
    """
    if table.y is None:
        raise DataError("oversample needs a labeled table")
    y = table.y.astype(int)
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    if n1 == 0 or n0 == 0:
        raise DataError("oversample needs both classes present")
    rows = np.arange(len(y))
    if n1 == n0:
        return table.select_rows(rows)
    minority = 1 if n1 < n0 else 0
    idx = np.flatnonzero(y == minority)
    rng = np.random.default_rng(seed)
    extra = rng.choice(idx, size=abs(n1 - n0), replace=True)
    return table.select_rows(np.concatenate([rows, extra]))


def _json_fields(record, skip=()) -> dict:
    """A dataclass record's fields but ``skip``, in declaration order, for JSON:
    tuples become lists and a nested record serializes itself."""
    out = {}
    for f in fields(record):
        if f.name in skip:
            continue
        val = getattr(record, f.name)
        if isinstance(val, tuple):
            val = list(val)
        elif hasattr(val, "to_json_dict"):
            val = val.to_json_dict()
        out[f.name] = val
    return out


@dataclass
class _Coefficients:
    """The estimates and Wald statistics that ``_wald`` fills in."""

    feature_names: tuple
    intercept: float
    coef: np.ndarray
    coef_se: np.ndarray
    coef_pvalues: np.ndarray
    intercept_se: float
    intercept_pvalue: float


@dataclass
class LogisticModel(_Coefficients):
    l2: float
    converged: bool
    n_iter: int
    grad_norm: float
    separation_warning: bool

    def log_odds(self, x: np.ndarray) -> np.ndarray:
        """alpha + beta . x on already-standardized features."""
        x = np.asarray(x, dtype=float)
        return self.intercept + x @ self.coef

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return expit(self.log_odds(x))


def _wald(columns, beta, cov, lower_tail) -> dict:
    """The ``_Coefficients`` fields of LogisticModel and LinearModel.

    ``beta`` is (intercept, coefficients...) with covariance ``cov``; each
    estimate gets its Wald standard error and the two-sided p-value
    2 * lower_tail(-|beta / se|) under the reference distribution.
    """
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, np.inf)
    pvals = np.array([2.0 * lower_tail(-abs(v)) for v in z.tolist()])
    return dict(
        feature_names=tuple(columns),
        intercept=float(beta[0]),
        coef=beta[1:].copy(),
        coef_se=se[1:].copy(),
        coef_pvalues=pvals[1:].copy(),
        intercept_se=float(se[0]),
        intercept_pvalue=float(pvals[0]),
    )


def _penalized_ll(design, y, beta, l2):
    eta = design @ beta
    ll = float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    return ll - 0.5 * l2 * float(np.sum(beta[1:] ** 2))


def fit_logistic(
    table: FeatureTable,
    l2: float = 1.0,
    max_iter: int = 500,
    tol: float = 1e-8,
) -> LogisticModel:
    """Newton/IRLS fit of L2-penalized logistic regression.

    The penalty excludes the intercept. Convergence is a gradient 2-norm at
    or below ``tol``; perfect separation (any standardized coefficient
    passing 30 in magnitude) stops the fit with a clamped solution and a
    warning flag instead of diverging. Failing to converge without separation
    raises NumericalError with the iteration diagnostics.

    Wald standard errors come from the observed information of the penalized
    objective at the optimum.
    """
    if not 0 <= l2 < np.inf:
        raise ArgumentError(f"l2 must be finite and nonnegative, got {l2}")
    if table.y is None:
        raise DataError("fit_logistic needs a labeled table")
    y = table.y.astype(float)
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("fit_logistic needs binary 0/1 labels")
    if y.min() == y.max():
        raise DataError("fit_logistic needs both classes present")

    n, p = table.X.shape
    design = np.hstack([np.ones((n, 1)), table.X])
    ridge = np.diag([0.0] + [l2] * p)
    beta = np.zeros(p + 1)
    current = _penalized_ll(design, y, beta, l2)
    separation = False
    converged = False
    grad_norm = np.inf
    it = 0

    for it in range(1, max_iter + 1):
        eta = design @ beta
        prob = expit(eta)
        grad = design.T @ (y - prob) - ridge @ beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            converged = True
            break
        w = prob * (1.0 - prob)
        hess = design.T @ (design * w[:, None]) + ridge
        step = np.linalg.solve(hess + 1e-12 * np.eye(p + 1), grad)
        # step halving keeps Newton from overshooting on near-separable data;
        # the accepted candidate's penalized log-likelihood is the next
        # iteration's ``current``
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            ll = _penalized_ll(design, y, candidate, l2)
            if ll >= current - 1e-12:
                beta, current = candidate, ll
                break
            scale *= 0.5
        else:
            beta = beta + scale * step
            current = _penalized_ll(design, y, beta, l2)
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            beta = np.clip(beta, -SEPARATION_BOUND, SEPARATION_BOUND)
            separation = True
            break

    if not converged and not separation:
        raise NumericalError(
            f"logistic fit did not converge: {it} iterations, gradient norm {grad_norm:.3e}"
        )

    prob = expit(design @ beta)
    w = prob * (1.0 - prob)
    info = design.T @ (design * w[:, None]) + ridge
    cov = np.linalg.inv(info + 1e-12 * np.eye(p + 1))
    return LogisticModel(
        **_wald(table.columns, beta, cov, ndtr),
        l2=float(l2),
        converged=converged,
        n_iter=it,
        grad_norm=grad_norm,
        separation_warning=separation,
    )


# Rows of one AUC kernel chunk: its temporaries stay near 128 KiB.
_CHUNK_CELLS = 16384


def _chunk_rows(width: int) -> int:
    """Rows of length ``width`` in one kernel chunk, at least one."""
    return max(1, _CHUNK_CELLS // max(width, 1))


def _auc_inputs(y=(), s=()):
    """Labels as a mask of positives, and scores as floats. Raises DataError
    for a label outside {0, 1} and NumericalError for a non-finite score."""
    y = np.asarray(y)
    s = np.asarray(s, dtype=float)
    pos = y == 1
    if not np.all(pos | (y == 0)):
        raise DataError("AUC needs 0/1 labels")
    if not np.all(np.isfinite(s)):
        raise NumericalError("AUC needs finite scores")
    return pos, s


def _auc_groups(pos, groups, n_groups: int) -> np.ndarray:
    """AUC of each row of 0/1 labels ``pos`` against scores given as tie groups
    0 .. n_groups - 1 in ascending order; the two broadcast to one row per AUC.

    One bincount over (row, label, group) counts each row's positives P_g and
    negatives N_g per group. Twice the Mann-Whitney U, sum_g P_g (2 sum_{h<g}
    N_h + N_g), is the exact integer of the midrank rank sum, so the result
    equals the rank-sum value bit for bit. A single-class row gives NaN. Rows
    are counted ``_CHUNK_CELLS // n`` at a time.
    """
    pos, groups = np.broadcast_arrays(pos, groups)
    m, n = pos.shape
    out = np.empty(m)
    step = _chunk_rows(n)
    for lo in range(0, m, step):
        p = pos[lo : lo + step]
        cells = (np.arange(len(p))[:, None] * 2 + p) * n_groups + groups[lo : lo + step]
        counts = np.bincount(cells.ravel(), minlength=len(p) * 2 * n_groups).reshape(len(p), 2, n_groups)
        neg, hits = counts[:, 0], counts[:, 1]
        two_u = (hits * (2 * np.cumsum(neg, axis=1) - neg)).sum(axis=1)
        n1 = hits.sum(axis=1)
        with np.errstate(invalid="ignore"):
            out[lo : lo + step] = (two_u * 0.5) / (n1 * (n - n1))
    return out


def _auc_rows(y, s) -> np.ndarray:
    """AUC of each row of 0/1 labels ``y`` against the same row of ``s``: each
    sorted row's tie group is its count of value changes so far."""
    pos, s = _auc_inputs(y, s)
    order = np.argsort(s, axis=1)
    ss = np.take_along_axis(s, order, axis=1)
    groups = np.cumsum(np.diff(ss, axis=1, prepend=ss[:, :1]) != 0, axis=1)
    return _auc_groups(np.take_along_axis(pos, order, axis=1), groups, s.shape[1])


def auc_score(y_true, scores) -> float:
    """Area under the ROC curve via the rank-sum statistic, ties by midrank.

    Raises DataError for labels outside {0, 1} or a single class, and
    NumericalError for non-finite scores.
    """
    auc = _auc_rows(np.asarray(y_true)[None, :], np.asarray(scores, dtype=float)[None, :])[0]
    if np.isnan(auc):
        raise DataError("AUC needs both classes present")
    return float(auc)


@dataclass
class EvaluationReport:
    """Classification metrics plus the optional benchmarking extras.

    evaluate() fills the metric fields; the prediction pipeline attaches CIs,
    null-model summaries, permutation importances and attribution values
    before serialization.
    """

    n_rows: int
    n_positive: int
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float | None
    recall: float | None
    auc: float | None
    threshold: float
    notes: list = field(default_factory=list)
    precision_ci: tuple | None = None
    recall_ci: tuple | None = None
    auc_ci: tuple | None = None
    ci_method: str | None = None
    null_prior: dict | None = None
    null_edge_presence: dict | None = None
    permutation_importance: dict | None = None
    shap_mean_abs: dict | None = None

    def to_json_dict(self) -> dict:
        return _json_fields(self)


def evaluate(model: LogisticModel, table: FeatureTable) -> EvaluationReport:
    """Score a fitted classifier on a labeled table (metrics only).

    Predictions are positive at probability >= ``THRESHOLD``. Precision is
    reported as None (with a note) when nothing is predicted positive; AUC is
    None when the table is single-class.
    """
    if table.y is None:
        raise DataError("evaluate needs a labeled table")
    y = table.y.astype(int)
    prob = model.predict_proba(table.X)
    yhat = (prob >= THRESHOLD).astype(int)
    tp = int(np.sum((yhat == 1) & (y == 1)))
    fp = int(np.sum((yhat == 1) & (y == 0)))
    fn = int(np.sum((yhat == 0) & (y == 1)))
    tn = int(np.sum((yhat == 0) & (y == 0)))
    notes = []
    if tp + fp == 0:
        precision = None
        notes.append("no positive predictions; precision undefined")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = None
        notes.append("no positive labels; recall undefined")
    else:
        recall = tp / (tp + fn)
    try:
        auc = auc_score(y, prob)
    except DataError:
        auc = None
        notes.append("single-class labels; AUC undefined")
    return EvaluationReport(
        n_rows=len(y),
        n_positive=int((y == 1).sum()),
        tp=tp,
        fp=fp,
        fn=fn,
        tn=tn,
        precision=precision,
        recall=recall,
        auc=auc,
        threshold=THRESHOLD,
        notes=notes,
    )


def binom_ci(successes: int, n: int, alpha: float = 0.05):
    """Two-sided exact (Clopper-Pearson) binomial proportion interval.

    ``successes`` and ``n`` must be integers (Python or numpy). The bounds
    are beta quantiles (Clopper & Pearson, Biometrika 1934): with
    k = successes, the lower bound is the alpha/2 quantile of Beta(k, n-k+1)
    and the upper bound the 1-alpha/2 quantile of Beta(k+1, n-k), with 0 at
    k = 0 and 1 at k = n.
    """
    if not (isinstance(successes, numbers.Integral) and isinstance(n, numbers.Integral)):
        raise ArgumentError(f"successes and n must be integers, got {successes!r} and {n!r}")
    if not 0 <= successes <= n or n < 1:
        raise ArgumentError("need 0 <= successes <= n with n >= 1")
    if not 0 < alpha < 1:
        raise ArgumentError("alpha must be in (0, 1)")
    k = successes
    lower = 0.0 if k == 0 else betaincinv(k, n - k + 1, alpha / 2.0)
    upper = 1.0 if k == n else betaincinv(k + 1, n - k, 1.0 - alpha / 2.0)
    return (lower, upper)


def _check_bootstrap_iters(iters: int) -> None:
    if iters < 1:
        raise ArgumentError(f"need at least 1 bootstrap iteration, got {iters}")


def bootstrap_auc_ci(model: LogisticModel, table: FeatureTable, iters: int = 1000, seed=0):
    """Percentile bootstrap 95% interval for the AUC on a labeled table.

    Resamples rows with replacement. A resample that loses one class leaves
    the AUC undefined, so it is redrawn up to 10 times; a slot still
    single-class after that is skipped and counted.

    Resamples are drawn one kernel chunk of rows at a time, as one
    ``rng.integers(0, n, size=(rows, n))`` block, which holds the same rows as
    that many successive one-row draws; the slots take the block's rows in
    order under the redraw rule. Rows left over when the last slot is filled
    are discarded, which no result sees, since the generator is the call's own.
    """
    _check_bootstrap_iters(iters)
    if table.y is None:
        raise DataError("bootstrap needs a labeled table")
    pos, scores = _auc_inputs(table.y.astype(int), model.predict_proba(table.X))
    n = len(pos)
    if n == 0:
        raise DataError("bootstrap needs at least one row")
    # the scores are fixed, so their tie groups are found once for every resample
    levels, groups = np.unique(scores, return_inverse=True)
    rng = np.random.default_rng(seed)
    rows = _chunk_rows(n)
    samples = []
    slot = attempt = skipped = 0
    while slot < iters:
        idx = rng.integers(0, n, size=(rows, n))
        yb = pos[idx]
        two_class = (yb.any(axis=1) & ~yb.all(axis=1)).tolist()
        taken = []
        for r, ok in enumerate(two_class):
            if slot == iters:
                break
            if ok:
                taken.append(r)
            elif attempt < 10:
                attempt += 1
                continue
            else:
                skipped += 1
            slot += 1
            attempt = 0
        samples.extend(_auc_groups(yb[taken], groups[idx[taken]], levels.size))
    if skipped:
        warnings.warn(f"bootstrap skipped {skipped} persistently single-class resamples")
    if not samples:
        raise NumericalError("every bootstrap resample was single-class")
    lo, hi = np.percentile(samples, CI95_PERCENTILES)
    return (float(lo), float(hi))


def _percentile_summary(values) -> dict:
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return {"mean": None, "ci90": None, "ci95": None, "defined": 0}
    return {
        "mean": float(arr.mean()),
        "ci90": [float(v) for v in np.percentile(arr, [5.0, 95.0])],
        "ci95": [float(v) for v in np.percentile(arr, CI95_PERCENTILES)],
        "defined": int(arr.size),
    }


def _trial_summaries(chunks) -> dict:
    """Precision, recall and AUC summaries over streamed null-model trials.

    Each chunk is (0/1 predictions, 0/1 labels, AUC per trial), predictions
    and labels broadcasting to one row per trial. An undefined precision or
    recall is NaN, which its summary skips.
    """
    columns = ([], [], [])
    for yhat, labels, aucs in chunks:
        tp = np.sum((yhat == 1) & (labels == 1), axis=-1)
        fp = np.sum((yhat == 1) & (labels == 0), axis=-1)
        fn = np.sum((yhat == 0) & (labels == 1), axis=-1)
        with np.errstate(invalid="ignore"):
            precision = np.where(tp + fp > 0, tp / (tp + fp), np.nan)
            recall = np.where(tp + fn > 0, tp / (tp + fn), np.nan)
        for column, values in zip(columns, (precision, recall, aucs)):
            column.extend(values)
    return dict(zip(("precision", "recall", "auc"), map(_percentile_summary, columns)))


def null_prior_predictor(train_y, test_y, trials: int = 100, seed=0) -> dict:
    """Benchmark: draw positive predictions at the training prior.

    Each trial predicts labels i.i.d. Bernoulli(prior) for the test rows and
    scores them against the true test labels. Returns per-metric means with
    empirical ci90 and ci95 (both labeled because the conventions differ).
    """
    _check_null_trials(trials)
    train_y = np.asarray(train_y).astype(int)
    test_y = np.asarray(test_y).astype(int)
    if train_y.size == 0 or test_y.size == 0:
        raise DataError("null prior predictor needs nonempty label arrays")
    pos = _auc_inputs(test_y)[0]
    prior = float(train_y.mean())
    rng = np.random.default_rng(seed)
    # one block per kernel chunk: the same stream as one rng.random call per trial
    step = _chunk_rows(test_y.size)
    draws = ((rng.random((min(step, trials - lo), test_y.size)) < prior).astype(int) for lo in range(0, trials, step))
    # 0/1 draws are their own tie groups; an all-0 or all-1 draw ranks nothing
    chunks = ((yhat, test_y, np.where(yhat.min(axis=1) != yhat.max(axis=1), _auc_groups(pos, yhat, 2), np.nan))
              for yhat in draws)
    return {"kind": "prior_predictor", "prior": prior, "trials": trials, **_trial_summaries(chunks)}


def edge_presence_labels(n_nodes: int, density: float, rng: np.random.Generator, trials: int = 1) -> np.ndarray:
    """Presence labels of ``trials`` independent random graphs on ``n_nodes``
    nodes, each pair i < j an edge with probability ``density``: row t of the
    (trials, n_nodes) 0/1 matrix marks the nodes with an edge in graph t.

    The (trial, pair) cells are laid out in one sequence, trial by trial and
    pairs in ``np.triu_indices`` order, and the edges are found by skipping
    from one to the next by geometric gaps (Batagelj & Brandes 2005): the
    cost is one random number per edge, not one per cell. Trials are drawn
    in blocks of about ``_CHUNK_CELLS`` expected edges, at least one trial
    each. A density of 0, or fewer than two nodes, draws no random number.
    """
    out = np.zeros((trials, n_nodes), dtype=int)
    if n_nodes < 2 or density <= 0.0:
        return out
    first, second = np.triu_indices(n_nodes, 1)
    pairs = first.size
    step = max(1, int(_CHUNK_CELLS / (pairs * density)))
    for lo in range(0, trials, step):
        rows = min(step, trials - lo)
        expect = rows * pairs * density
        size = int(expect + 4.0 * expect**0.5) + 8  # 4 sigma above the mean: the loop seldom runs
        on = np.cumsum(rng.geometric(density, size)) - 1
        while on[-1] < rows * pairs:
            on = np.concatenate([on, on[-1] + np.cumsum(rng.geometric(density, size))])
        # the cells are sorted, so each trial's edges are one run of them
        ends = np.searchsorted(on, pairs * np.arange(1, rows + 1))
        trial = np.repeat(np.arange(rows), np.diff(ends, prepend=0))
        pair = on[: ends[-1]] - pairs * trial
        block = out[lo : lo + rows].reshape(-1)  # a view: one flat index per endpoint
        row = n_nodes * trial
        block[row + first[pair]] = 1
        block[row + second[pair]] = 1
    return out


def null_edge_presence(tn: TemporalNetwork, table: FeatureTable, scores, trials: int = 100, seed=0) -> dict:
    """Benchmark for the presence target: labels from random-graph snapshots.

    ``scores[r]`` is the predicted probability for row r of ``table``; rows
    are grouped by their anchor time ``as_of`` (a single-anchor table is one
    group). Each trial synthesizes snapshot t+1 of every group as an
    independent random graph over the nodes present at t, with pair
    probability equal to the observed edge density of the real snapshot t+1
    over those nodes, and scores all groups' predictions together against
    the synthetic presence labels. Anchors with fewer than two present nodes
    are skipped. The random stream runs block of trials by block of trials,
    and within a block anchor group by anchor group (``edge_presence_labels``).
    """
    _check_null_trials(trials)
    scores = np.asarray(scores, dtype=float)
    rng = np.random.default_rng(seed)
    groups = []
    for t in sorted(set(table.as_of)):
        _check_horizon(tn, t)
        rows_here = np.flatnonzero(table.as_of == t)
        cur = tn.snapshots[t]
        n_t = cur.n_nodes
        if n_t < 2:
            continue
        density = min(1.0, tn.snapshots[t + 1].n_edges / (n_t * (n_t - 1) / 2.0))
        try:
            node_rows = np.array([cur.node_index[table.node_ids[i]] for i in rows_here])
        except KeyError as exc:
            raise DataError(f"node {exc.args[0]!r} is not present at its anchor snapshot {t}") from None
        groups.append((n_t, density, node_rows, rows_here))
    if not groups:
        raise DataError("no scored rows available for the edge-presence null")

    svec = _auc_inputs(s=scores[np.concatenate([rows for *_, rows in groups])])[1]
    levels, svec_groups = np.unique(svec, return_inverse=True)
    yhat = (svec >= THRESHOLD).astype(int)
    # a block of trials holds at most one kernel chunk of scored rows or of any group's nodes
    step = _chunk_rows(max(svec.size, *(n_t for n_t, *_ in groups)))
    draws = (
        np.concatenate([edge_presence_labels(n_t, d, rng, min(step, trials - lo))[:, node_rows]
                        for n_t, d, node_rows, _ in groups], axis=1)
        for lo in range(0, trials, step)
    )
    chunks = ((yhat, labels, _auc_groups(labels, svec_groups, levels.size)) for labels in draws)
    return {"kind": "edge_presence", "trials": trials, "groups": len(groups), **_trial_summaries(chunks)}


def permutation_importance(model: LogisticModel, table: FeatureTable, repeats: int = 10, seed=0) -> dict:
    """Mean increase in 1 - AUC when one feature column is shuffled.

    Positive values mean the model leaned on the feature; a feature with a
    zero coefficient scores exactly zero because predictions cannot change.
    """
    if repeats < 1:
        raise ArgumentError(f"need at least 1 repeat, got {repeats}")
    if table.y is None:
        raise DataError("permutation importance needs a labeled table")
    base = auc_score(table.y, model.predict_proba(table.X))
    out = {}
    for j, name in enumerate(table.columns):
        probs = []
        for r in range(repeats):
            rng = np.random.default_rng([seed, j, r])
            xp = table.X.copy()
            xp[:, j] = rng.permutation(xp[:, j])
            probs.append(model.predict_proba(xp))
        out[name] = float(np.mean(base - _auc_rows(np.broadcast_to(table.y, (repeats, table.n_rows)), probs)))
    return out


def shap_linear(model: LogisticModel, x: np.ndarray, background_mean: np.ndarray | None = None):
    """Exact per-feature attribution of the linear log-odds.

    For a linear score the Shapley value of feature j at row x is
    beta_j * (x_j - mean_j) against a background mean. The default background
    is the all-zero vector, the mean of the standardized training data.
    Accepts a FeatureTable or a raw row matrix. Returns (phi matrix, base
    value); base + phi row sums reproduce the log-odds exactly.
    """
    if hasattr(x, "X"):
        x = x.X
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    mean = np.zeros(x.shape[1]) if background_mean is None else np.asarray(background_mean, dtype=float)
    phi = model.coef[None, :] * (x - mean[None, :])
    base = float(model.intercept + model.coef @ mean)
    return phi, base


@dataclass
class LinearModel(_Coefficients):
    r2: float | None

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + np.asarray(x, dtype=float) @ self.coef


def r2_score(y_true, y_pred) -> float:
    y = np.asarray(y_true, dtype=float)
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss <= 0:
        raise DataError("R^2 undefined for a constant target")
    rss = float(np.sum((y - np.asarray(y_pred, dtype=float)) ** 2))
    return 1.0 - rss / tss


def fit_linear(table: FeatureTable, heldout: FeatureTable | None = None) -> LinearModel:
    """Least squares with a ridge jitter (``RIDGE_JITTER``) for conditioning.

    Coefficient p-values are classical two-sided t-tests. ``r2`` is computed
    on ``heldout`` when given, otherwise in-sample.
    """
    if table.y is None:
        raise DataError("fit_linear needs a labeled table")
    n, p = table.X.shape
    if n <= p + 1:
        raise DataError(f"need more rows ({n}) than parameters ({p + 1})")
    design = np.hstack([np.ones((n, 1)), table.X])
    gram = design.T @ design + RIDGE_JITTER * np.eye(p + 1)
    if np.linalg.matrix_rank(design) < p + 1:
        warnings.warn("rank-deficient design; falling back to the pseudo-inverse")
        beta = np.linalg.pinv(design) @ table.y
    else:
        beta = np.linalg.solve(gram, design.T @ table.y)
    resid = table.y - design @ beta
    dof = n - (p + 1)
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(gram)
    model = LinearModel(**_wald(table.columns, beta, cov, lambda t: stdtr(dof, t)), r2=None)
    target = heldout if heldout is not None else table
    model.r2 = r2_score(target.y, model.predict(target.X))
    return model


def null_shuffle_regression(train: FeatureTable, heldout: FeatureTable, trials: int = 100, seed=0) -> dict:
    """Held-out R^2 distribution after shuffling the target.

    Each trial permutes the pooled train+heldout target, refits on the train
    rows, and scores R^2 on the held-out rows.
    """
    _check_null_trials(trials)
    y_all = np.concatenate([train.y, heldout.y])
    n_train = len(train.y)
    rng = np.random.default_rng(seed)
    scores = []
    for _ in range(trials):
        perm = rng.permutation(y_all)
        try:
            m = fit_linear(replace(train, y=perm[:n_train]), heldout=replace(heldout, y=perm[n_train:]))
            scores.append(m.r2)
        except DataError:
            scores.append(np.nan)
    return {"kind": "shuffled_target", "trials": trials, "r2": _percentile_summary(scores)}
