"""Classifier, regressor, metrics, intervals, nulls, and attributions."""

import json
import math
import re
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from structim import (
    DataError,
    FeatureTable,
    LogisticModel,
    NumericalError,
    Snapshot,
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
import structim.model as model_module
from structim._special import betaincinv
from structim.errors import ArgumentError
from structim.generators import synthetic_temporal
from structim.model import _CHUNK_CELLS, _auc_groups, _auc_rows, edge_presence_labels

from conftest import binom_ci_oracle, class_weights_oracle, clique, network_from


def _table(columns, x, y=None):
    x = np.asarray(x, dtype=float)
    return FeatureTable(
        columns=tuple(columns),
        X=x,
        node_ids=tuple(range(x.shape[0])),
        as_of=1,
        y=None if y is None else np.asarray(y, dtype=float),
    )


def _manual_logistic(intercept, coef, names=None):
    coef = np.asarray(coef, dtype=float)
    if names is None:
        names = tuple(f"f{i}" for i in range(len(coef)))
    return LogisticModel(
        feature_names=tuple(names),
        intercept=float(intercept),
        coef=coef,
        coef_se=np.zeros_like(coef),
        coef_pvalues=np.ones_like(coef),
        intercept_se=0.0,
        intercept_pvalue=1.0,
        l2=0.0,
        converged=True,
        n_iter=0,
        grad_norm=0.0,
        separation_warning=False,
    )


# ---------------------------------------------------------------- standardize


def test_standardize_three_values():
    table = _table(("ma",), [[1.0], [2.0], [3.0]])
    out, constants = standardize(table)
    assert np.allclose(out.column("ma"), [-1.2247, 0.0, 1.2247], atol=1e-4)
    assert constants.columns == ("ma",)
    assert constants.means[0] == pytest.approx(2.0)
    assert constants.stds[0] == pytest.approx(np.sqrt(2.0 / 3.0))
    assert constants.dropped == ()
    assert out.columns == constants.columns
    assert "standardization" not in out.meta


def test_standardize_drops_constant_columns():
    rng = np.random.default_rng(0)
    table = _table(("ma", "presence_count"),
                   np.column_stack([rng.normal(size=10), np.full(10, 3.0)]))
    with pytest.warns(UserWarning, match="near-constant"):
        out, constants = standardize(table)
    assert out.columns == ("ma",)
    assert constants.dropped == ("presence_count",)


def test_standardize_of_an_overflowing_column_is_a_numerical_error():
    # the std of ma overflows; numpy warned and the column became zeros (warnings are errors here)
    table = _table(("ma", "mb"), [[1e200, 1.0], [-1e200, 2.0], [0.0, 4.0]])
    with pytest.raises(NumericalError, match="standard deviation not finite for feature columns: ma$"):
        standardize(table)


def test_apply_standardization_uses_train_constants():
    train = _table(("ma",), [[1.0], [2.0], [3.0]])
    _, constants = standardize(train)
    other = _table(("ma",), [[4.0], [2.0]])
    out = apply_standardization(constants, other)
    expected = (np.array([4.0, 2.0]) - 2.0) / np.sqrt(2.0 / 3.0)
    assert np.allclose(out.column("ma"), expected)
    assert out.columns == constants.columns == ("ma",)
    assert "standardization" not in out.meta


# --------------------------------------------------------------- fit_logistic


def _unweighted_fit(table, l2):
    """(beta, n_iter): Newton/IRLS of the plain penalized likelihood, every
    row weighing 1, with the same arithmetic and step halving as the library."""
    y = table.y.astype(float)
    design = np.hstack([np.ones((table.n_rows, 1)), table.X])
    ridge = np.diag([0.0] + [l2] * table.X.shape[1])

    def penalized_ll(beta):
        eta = design @ beta
        return float(np.sum(y * eta - np.logaddexp(0.0, eta))) - 0.5 * l2 * float(np.sum(beta[1:] ** 2))

    beta = np.zeros(design.shape[1])
    for it in range(1, 501):
        prob = model_module.expit(design @ beta)
        grad = design.T @ (y - prob) - ridge @ beta
        if float(np.linalg.norm(grad)) <= 1e-8:
            return beta, it
        hess = design.T @ (design * (prob * (1.0 - prob))[:, None]) + ridge
        step = np.linalg.solve(hess + 1e-12 * np.eye(len(beta)), grad)
        current, scale = penalized_ll(beta), 1.0
        for _ in range(30):
            if penalized_ll(beta + scale * step) >= current - 1e-12:
                break
            scale *= 0.5
        beta = beta + scale * step
    raise AssertionError("the reference loop did not converge")


def _class_table(seed, n_minor, n_major, p=2):
    rng = np.random.default_rng(seed)
    y = np.array([1.0] * n_minor + [0.0] * n_major)
    x = rng.normal(size=(len(y), p)) + 0.8 * y[:, None]
    return _table(tuple(f"f{j}" for j in range(p)), x, y=y)


@pytest.mark.parametrize("l2", [0.0, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logistic_on_a_balanced_table_is_the_unweighted_fit(seed, l2):
    table = _class_table(seed, 40, 40)
    beta, n_iter = _unweighted_fit(table, l2)
    model = fit_logistic(table, l2=l2)
    assert model.intercept == beta[0] and np.array_equal(model.coef, beta[1:])
    assert model.n_iter == n_iter


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("l2", [0.0, 1.0])
def test_class_weights_equal_repeating_each_minority_row(k, seed, l2):
    """With n_major = k n_minor, each minority row weighs k: the weighted fit
    is the unweighted one on the table with each minority row repeated k
    times, up to the two loops' summation order (1e-12)."""
    table = _class_table(seed, 30, 30 * k)
    repeated = table.select_rows(np.concatenate([np.repeat(np.arange(30), k), np.arange(30, table.n_rows)]))
    beta, _ = _unweighted_fit(repeated, l2)
    weighted = fit_logistic(table, l2=l2)
    np.testing.assert_allclose(np.concatenate([[weighted.intercept], weighted.coef]), beta, rtol=0, atol=1e-12)
    # the Wald information is the repeated table's too
    plain = fit_logistic(repeated, l2=l2)
    np.testing.assert_allclose(weighted.coef_se, plain.coef_se, rtol=1e-12)
    np.testing.assert_allclose(weighted.intercept_se, plain.intercept_se, rtol=1e-12)


def test_class_weights_balance_either_minority():
    y = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert model_module._class_weights(y).tolist() == class_weights_oracle(y).tolist() == [2, 1, 1, 1, 2, 1]
    assert model_module._class_weights(1.0 - y).tolist() == [2, 1, 1, 1, 2, 1]
    assert model_module._class_weights(np.array([0.0, 1.0, 1.0, 0.0])).tolist() == [1.0] * 4


def test_logistic_separable_ranks_perfectly():
    x = np.array([[-2.2], [-1.8], [-1.0], [1.0], [1.7], [2.4]])
    table = _table(("ma",), x, y=[0, 0, 0, 1, 1, 1])
    model = fit_logistic(table, l2=1.0)
    assert model.converged
    assert model.coef[0] > 0
    assert auc_score(table.y, model.predict_proba(table.X)) == 1.0


def test_logistic_symmetric_two_points():
    table = _table(("ma",), [[1.0], [-1.0]], y=[1, 0])
    model = fit_logistic(table, l2=0.5)
    assert abs(model.intercept) < 1e-6
    assert model.predict_proba(np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-6)


def test_logistic_wald_pvalues_calibrated_under_null():
    # an independent feature should rarely look significant
    ok = 0
    seeds = range(40)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(400, 1))
        y = (rng.random(400) < 0.5).astype(float)
        if y.min() == y.max():
            ok += 1
            continue
        model = fit_logistic(_table(("ma",), x, y=y), l2=1e-6)
        if model.coef_pvalues[0] > 0.01:
            ok += 1
    assert ok >= int(0.95 * len(seeds))


def test_logistic_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 2))
    p_true = 1.0 / (1.0 + np.exp(-(0.5 + x[:, 0] - 0.5 * x[:, 1])))
    y = (rng.random(60) < p_true).astype(float)
    assert y.sum() != 30  # imbalanced, so the class weights are not all 1
    l2 = 1.0
    model = fit_logistic(_table(("ma", "mb"), x, y=y), l2=l2)
    weights = class_weights_oracle(y)

    def penalized_ll(beta):
        eta = beta[0] + x @ beta[1:]
        ll = float(np.sum(weights * (y * eta - np.logaddexp(0.0, eta))))
        return ll - 0.5 * l2 * float(np.sum(beta[1:] ** 2))

    beta = np.concatenate([[model.intercept], model.coef])
    h = 1e-5
    fd = np.array([
        (penalized_ll(beta + h * e) - penalized_ll(beta - h * e)) / (2.0 * h)
        for e in np.eye(3)
    ])
    assert np.abs(fd).max() <= 1e-6


def test_logistic_separation_clamps_with_flag():
    # small feature scale keeps the gradient alive until the bound is hit
    x = np.array([[-0.2], [-0.1], [0.1], [0.2]])
    table = _table(("ma",), x, y=[0, 0, 1, 1])
    model = fit_logistic(table, l2=0.0)
    assert model.separation_warning
    assert np.max(np.abs(model.coef)) <= 30.0
    assert auc_score(table.y, model.predict_proba(table.X)) == 1.0


def test_logistic_nonconvergence_reports_diagnostics(monkeypatch):
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 2))
    y = (rng.random(50) < 0.5).astype(float)
    monkeypatch.setattr(model_module, "IRLS_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="did not converge: 1 iterations"):
        fit_logistic(_table(("ma", "mb"), x, y=y), l2=1.0)


def test_logistic_validation():
    x = np.ones((4, 1))
    with pytest.raises(ValueError):
        fit_logistic(_table(("ma",), x, y=[0, 1, 0, 1]), l2=-1.0)
    for l2 in (np.nan, np.inf):
        with pytest.raises(ValueError, match=re.escape(f"l2 must be a real number in [0, inf), got {l2!r}")):
            fit_logistic(_table(("ma",), x, y=[0, 1, 0, 1]), l2=l2)
    with pytest.raises(DataError):
        fit_logistic(_table(("ma",), x))
    with pytest.raises(DataError):
        fit_logistic(_table(("ma",), x, y=[0.0, 0.5, 1.0, 1.0]))
    with pytest.raises(DataError):
        fit_logistic(_table(("ma",), x, y=[1, 1, 1, 1]))


# ------------------------------------------------------------------ auc_score


def test_auc_frozen_example():
    assert auc_score([1, 0, 1], [0.9, 0.8, 0.3]) == pytest.approx(0.5)


def test_auc_extremes_and_ties():
    assert auc_score([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert auc_score([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0
    assert auc_score([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)


def test_auc_invariant_under_monotone_transforms():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = np.array([0] * 15 + [1] * 15)
        rng.shuffle(y)
        s = rng.normal(size=30)
        base = auc_score(y, s)
        assert auc_score(y, 3.0 * s + 1.0) == pytest.approx(base, abs=1e-12)
        assert auc_score(y, np.tanh(s)) == pytest.approx(base, abs=1e-12)
        assert auc_score(y, s ** 3) == pytest.approx(base, abs=1e-12)


def test_auc_single_class_rejected():
    with pytest.raises(DataError):
        auc_score([1, 1, 1], [0.1, 0.2, 0.3])


def test_auc_rejects_labels_outside_zero_one():
    # a label 2 used to be ranked but counted in neither class (AUC 1.0 here)
    with pytest.raises(DataError, match="0/1 labels"):
        auc_score([2, 1, 0], [0.1, 0.5, 0.9])
    with pytest.raises(DataError, match="0/1 labels"):
        auc_score([0.0, 0.5, 1.0], [0.1, 0.5, 0.9])


def test_auc_rejects_non_finite_scores():
    # NaNs used to be ranked arbitrarily (AUC 0.5 here)
    with pytest.raises(NumericalError, match="finite"):
        auc_score([0, 1, 1, 0], [0.1, np.nan, 0.9, np.nan])
    with pytest.raises(NumericalError, match="finite"):
        auc_score([0, 1], [0.1, np.inf])


def test_auc_matches_mann_whitney_oracle():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        s = rng.normal(size=n) if seed % 2 else rng.integers(0, 5, size=n).astype(float)
        n1, n0 = int(y.sum()), int(n - y.sum())
        u = stats.mannwhitneyu(s[y == 1], s[y == 0]).statistic
        assert auc_score(y, s) == pytest.approx(u / (n1 * n0), abs=1e-12)


# ------------------------------------------------------------------- evaluate


def test_evaluate_counts_and_metrics():
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    table = _table(("ma",), [[10.0], [10.0], [-10.0]], y=[1, 0, 1])
    rep = evaluate(model, table)
    assert (rep.tp, rep.fp, rep.fn, rep.tn) == (1, 1, 1, 0)
    assert rep.precision == pytest.approx(0.5)
    assert rep.recall == pytest.approx(0.5)
    assert rep.auc == pytest.approx(0.25)
    assert rep.n_rows == 3 and rep.n_positive == 2
    assert rep.threshold == 0.5


def test_evaluate_undefined_metrics_noted():
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    nothing_positive = _table(("ma",), [[-10.0], [-10.0]], y=[1, 0])
    rep = evaluate(model, nothing_positive)
    assert rep.precision is None
    assert any("precision undefined" in n for n in rep.notes)
    single = _table(("ma",), [[10.0], [-10.0]], y=[1, 1])
    rep2 = evaluate(model, single)
    assert rep2.auc is None
    assert any("AUC undefined" in n for n in rep2.notes)


def test_evaluate_report_serializes_tuples():
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    rep = evaluate(model, _table(("ma",), [[10.0], [-10.0]], y=[1, 0]))
    rep.auc_ci = (0.5, 1.0)
    out = json.loads(json.dumps(asdict(rep)))
    assert out["auc_ci"] == [0.5, 1.0]
    assert out["tp"] == 1


def test_evaluate_fills_the_exact_intervals_of_its_counts():
    # run_prediction once patched these in after evaluate returned
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    rep = evaluate(model, _table(("ma",), [[10.0], [10.0], [-10.0], [-10.0], [-10.0]], y=[1, 0, 1, 1, 0]))
    assert (rep.tp, rep.fp, rep.fn) == (1, 1, 2)
    assert rep.precision_ci == binom_ci(1, 2) and rep.recall_ci == binom_ci(1, 3)
    assert rep.ci_method == "exact" and rep.auc_ci is None
    undefined = evaluate(model, _table(("ma",), [[-10.0], [-10.0]], y=[0, 0]))
    assert undefined.precision is undefined.precision_ci is undefined.recall is undefined.recall_ci is None
    assert undefined.notes == ["no positive predictions; precision undefined", "no positive labels; recall undefined",
                               "single-class labels; AUC undefined"]


# ------------------------------------------------------------------- binom_ci


def test_binom_ci_matches_independent_oracle_spot_checks():
    for k, n in ((0, 7), (7, 7), (5, 10), (3, 12), (1, 50), (25, 50)):
        lo, hi = binom_ci(k, n)
        olo, ohi = binom_ci_oracle(k, n)
        assert lo == pytest.approx(olo, abs=1e-6)
        assert hi == pytest.approx(ohi, abs=1e-6)


def test_binom_ci_brackets_the_point_estimate():
    for n in (1, 5, 17, 30):
        for k in range(n + 1):
            lo, hi = binom_ci(k, n)
            assert 0.0 <= lo <= k / n <= hi <= 1.0
            assert lo < hi


def test_binom_ci_boundary_cases():
    lo, hi = binom_ci(0, 12)
    assert lo == 0.0 and hi < 1.0
    lo, hi = binom_ci(12, 12)
    assert lo > 0.0 and hi == 1.0


def test_binom_ci_validation():
    with pytest.raises(ValueError):
        binom_ci(-1, 5)
    with pytest.raises(ValueError):
        binom_ci(6, 5)
    with pytest.raises(ValueError):
        binom_ci(1, 0)


def test_binom_ci_rejects_non_integral_n():
    with pytest.raises(ValueError):
        binom_ci(2, 5.5)


def test_binom_ci_rejects_non_integral_successes():
    with pytest.raises(ValueError):
        binom_ci(2.5, 5)
    # a bool is no count, as everywhere else
    for successes, n, message in ((True, 5, "successes must be an integer >= 0, got True"),
                                  (1, True, "n must be an integer >= 1, got True"),
                                  (np.bool_(True), 5, "successes must be an integer >= 0, got np.True_")):
        with pytest.raises(ArgumentError, match=re.escape(message)):
            binom_ci(successes, n)
    # numpy integers, as counted from label arrays, stay accepted
    assert binom_ci(np.int64(3), np.int64(10)) == binom_ci(3, 10)


@st.composite
def _binomial_case(draw):
    n = draw(st.integers(1, 10**7))
    return draw(st.integers(0, n)), n, draw(st.sampled_from((0.01, 0.05, 0.1)))


def _check_tail_probabilities(k, n, alpha, lo, hi):
    # Clopper-Pearson: each bound puts exactly alpha/2 in its tail
    if k > 0:
        assert stats.binom.sf(k - 1, n, lo) == pytest.approx(alpha / 2, rel=1e-7)
    if k < n:
        assert stats.binom.cdf(k, n, hi) == pytest.approx(alpha / 2, rel=1e-7)


@given(_binomial_case())
@settings(derandomize=True, max_examples=300, deadline=None)
def test_binom_ci_tails_hit_alpha_half_up_to_large_n(case):
    # binom_ci is the 95% interval; other levels check its beta quantiles directly
    k, n, alpha = case
    _check_tail_probabilities(k, n, alpha, 0.0 if k == 0 else betaincinv(k, n - k + 1, alpha / 2),
                              1.0 if k == n else betaincinv(k + 1, n - k, 1.0 - alpha / 2))
    lo, hi = binom_ci(k, n)
    _check_tail_probabilities(k, n, 0.05, lo, hi)
    lo_mirror, hi_mirror = binom_ci(n - k, n)
    assert lo == pytest.approx(1.0 - hi_mirror, abs=1e-12)
    assert hi == pytest.approx(1.0 - lo_mirror, abs=1e-12)


def test_binom_ci_small_lower_bound_at_large_n():
    # a bound near 6e-8 needs relative, not absolute, precision in p
    lo, hi = binom_ci(3, 10**7)
    assert lo == pytest.approx(6.1867e-8, rel=1e-4)
    _check_tail_probabilities(3, 10**7, 0.05, lo, hi)


# ----------------------------------------------------------- bootstrap_auc_ci


def test_bootstrap_perfect_classifier_pins_interval():
    model = _manual_logistic(0.0, [50.0], names=("ma",))
    x = np.array([[-1.0]] * 5 + [[1.0]] * 5)
    table = _table(("ma",), x, y=[0] * 5 + [1] * 5)
    assert bootstrap_auc_ci(model, table, iters=200, seed=0) == (1.0, 1.0)


def test_bootstrap_single_iteration_degenerates():
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 1))
    y = (rng.random(30) < 0.5).astype(float)
    lo, hi = bootstrap_auc_ci(model, _table(("ma",), x, y=y), iters=1, seed=3)
    assert lo == hi


def test_bootstrap_deterministic_and_ordered():
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(40, 1))
    y = (x[:, 0] + rng.normal(scale=1.5, size=40) > 0).astype(float)
    table = _table(("ma",), x, y=y)
    a = bootstrap_auc_ci(model, table, iters=300, seed=9)
    b = bootstrap_auc_ci(model, table, iters=300, seed=9)
    assert a == b
    assert 0.0 <= a[0] <= a[1] <= 1.0
    c = bootstrap_auc_ci(model, table, iters=300, seed=10)
    assert c != a


def test_bootstrap_all_single_class_raises_after_warning():
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    table = _table(("ma",), [[0.1], [0.2]], y=[1, 1])
    with pytest.warns(UserWarning, match="persistently single-class"):
        with pytest.raises(NumericalError):
            bootstrap_auc_ci(model, table, iters=5, seed=0)


@pytest.mark.parametrize("iters", [0, -5])
def test_bootstrap_needs_an_iteration(iters):
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    with pytest.raises(ValueError, match=f"iters must be an integer >= 1, got {iters}"):
        bootstrap_auc_ci(model, _table(("ma",), [[1.0], [-1.0]], y=[1, 0]), iters=iters)


# ---------------------------------------------------------------- null models


def test_null_prior_degenerate_prior_is_exact():
    train_y = np.ones(20)
    test_y = np.array([1, 1, 0, 0, 0])
    res = null_prior_predictor(train_y, test_y, trials=50, seed=0)
    assert res["prior"] == 1.0
    assert res["recall"]["mean"] == 1.0
    assert res["precision"]["mean"] == pytest.approx(0.4, rel=1e-12)
    assert res["auc"]["mean"] is None  # constant predictions leave AUC undefined


def test_null_prior_balanced_labels_hover_at_half():
    rng = np.random.default_rng(12)
    train_y = np.array([0, 1] * 50)
    test_y = rng.permutation(np.array([0, 1] * 50))
    res = null_prior_predictor(train_y, test_y, trials=400, seed=7)
    assert abs(res["auc"]["mean"] - 0.5) < 0.01
    assert abs(res["recall"]["mean"] - 0.5) < 0.03
    lo, hi = res["auc"]["ci95"]
    assert lo < 0.5 < hi


def test_null_prior_validation_and_determinism():
    with pytest.raises(ValueError, match="trials must be an integer >= 20, got 19"):
        null_prior_predictor([0, 1], [0, 1], trials=19)
    with pytest.raises(DataError):
        null_prior_predictor([], [0, 1], trials=30)
    a = null_prior_predictor([0, 1, 1], [0, 1, 0, 1], trials=40, seed=2)
    b = null_prior_predictor([0, 1, 1], [0, 1, 0, 1], trials=40, seed=2)
    assert a == b


def test_edge_presence_label_rate():
    # P(at least one edge) = 1 - (1 - d)^(n-1) per node
    rng = np.random.default_rng(8)
    n, d = 10, 0.3
    draws = np.array([edge_presence_labels(n, d, rng) for _ in range(2000)])
    expected = 1.0 - (1.0 - d) ** (n - 1)
    assert abs(draws.mean() - expected) < 0.02


def _scored_rows(scores, as_of=0):
    """Feature rows anchored at ``as_of`` for the nodes of {node: score}."""
    table = FeatureTable(columns=("ma",), X=np.zeros((len(scores), 1)), node_ids=tuple(scores), as_of=as_of)
    return table, np.array(list(scores.values()), dtype=float)


def _anchor_rows(tn, anchors):
    """Feature rows for every node of each anchor snapshot, stacked in the given order."""
    ids = [v for t in anchors for v in tn.snapshots[t].node_ids]
    as_of = [t for t in anchors for _ in tn.snapshots[t].node_ids]
    return FeatureTable(columns=("ma",), X=np.zeros((len(ids), 1)), node_ids=tuple(ids), as_of=np.array(as_of))


def test_null_edge_presence_empty_next_snapshot():
    tn = network_from([
        clique(4, timestamp=0),
        Snapshot(node_ids=(0, 1, 2, 3), edges=(), directed=False, timestamp=1),
    ])
    table, scores = _scored_rows({0: 0.9, 1: 0.8, 2: 0.2, 3: 0.1})
    res = null_edge_presence(tn, table, scores, trials=30, seed=0)
    assert res["groups"] == 1
    assert res["recall"]["mean"] is None  # labels never positive
    assert res["auc"]["mean"] is None
    assert res["precision"]["mean"] == 0.0


def test_null_edge_presence_saturated_next_snapshot():
    tn = network_from([clique(4, timestamp=0), clique(4, timestamp=1)])
    table, scores = _scored_rows({0: 0.9, 1: 0.8, 2: 0.7, 3: 0.6})  # all predicted positive
    res = null_edge_presence(tn, table, scores, trials=30, seed=0)
    assert res["groups"] == 1
    assert res["recall"]["mean"] == 1.0
    assert res["precision"]["mean"] == 1.0
    # density 1 labels every node present: no trial ranks anything
    assert res["auc"]["defined"] == 0 and res["auc"]["mean"] is None
    assert res["precision"]["defined"] == res["recall"]["defined"] == 30


def test_evaluate_and_the_edge_presence_null_read_one_threshold(monkeypatch):
    # every score is 0.75: positive at the default THRESHOLD, negative at 0.8, for both readers
    tn = network_from([clique(4, timestamp=0), clique(4, timestamp=1)])
    table, scores = _scored_rows({0: 0.75, 1: 0.75, 2: 0.75, 3: 0.75})
    model = _manual_logistic(np.log(3.0), [0.0], names=("ma",))
    labeled = _table(("ma",), table.X, y=[1, 0, 1, 0])
    for threshold, positive in ((model_module.THRESHOLD, True), (0.8, False)):
        monkeypatch.setattr(model_module, "THRESHOLD", threshold)
        rep = evaluate(model, labeled)
        assert rep.threshold == threshold and rep.tp + rep.fp == (4 if positive else 0)
        null = null_edge_presence(tn, table, scores, trials=20, seed=0)
        assert null["recall"]["mean"] == (1.0 if positive else 0.0)


def test_null_edge_presence_validation():
    tn = network_from([clique(4, timestamp=0), clique(4, timestamp=1)])
    with pytest.raises(ValueError):
        null_edge_presence(tn, *_scored_rows({0: 0.5}, as_of=1))
    with pytest.raises(DataError):
        null_edge_presence(tn, *_scored_rows({99: 0.5}))
    with pytest.raises(DataError):
        null_edge_presence(tn, *_scored_rows({}))


def test_nulls_need_min_trials():
    tn = network_from([clique(4, timestamp=0), clique(4, timestamp=1)])
    with pytest.raises(ValueError, match="trials must be an integer >= 20, got 19"):
        null_edge_presence(tn, *_scored_rows({0: 0.5}), trials=19)
    x = np.arange(12.0).reshape(6, 2) ** 1.5
    with pytest.raises(ValueError, match="trials must be an integer >= 20, got 19"):
        null_shuffle_regression(_table(("a", "b"), x[:4], y=x[:4, 0]), _table(("a", "b"), x[4:], y=x[4:, 0]), trials=19)


def _count_calls():
    """Each function that takes a count, called with the count ``v`` and
    arguments that are valid otherwise, and the least count it takes."""
    tn = network_from([clique(4, timestamp=0), clique(4, timestamp=1)])
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    labeled = _table(("ma",), [[1.0], [-1.0], [0.5], [-0.5]], y=[1, 0, 0, 1])
    x = np.arange(12.0).reshape(6, 2) ** 1.5
    train, heldout = _table(("a", "b"), x[:4], y=x[:4, 0]), _table(("a", "b"), x[4:], y=x[4:, 0])
    return {
        "null_prior_predictor": (20, lambda v: null_prior_predictor([0, 1], [0, 1, 1, 0], trials=v)),
        "null_edge_presence": (20, lambda v: null_edge_presence(tn, *_scored_rows({0: 0.9, 1: 0.2, 2: 0.6}), trials=v)),
        "null_shuffle_regression": (20, lambda v: null_shuffle_regression(train, heldout, trials=v)),
        "bootstrap_auc_ci": (1, lambda v: bootstrap_auc_ci(model, labeled, iters=v)),
    }


@pytest.mark.parametrize("name", list(_count_calls()))
@pytest.mark.parametrize("kind", ["float", "fraction", "bool"])
def test_a_count_that_is_not_an_integer_is_an_argument_error(name, kind):
    least, call = _count_calls()[name]
    value = {"float": float(least + 1), "fraction": least + 0.5, "bool": True}[kind]
    param = {"bootstrap_auc_ci": "iters"}.get(name, "trials")
    with pytest.raises(ArgumentError, match=re.escape(f"{param} must be an integer >= {least}, got {value!r}")):
        call(value)


@pytest.mark.parametrize("name", list(_count_calls()))
def test_a_numpy_integer_count_is_the_python_one(name):
    least, call = _count_calls()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tiny tables leave some trials undefined
        assert call(np.int64(least + 1)) == call(least + 1)


# --------------------------------------------------- permutation / attribution


def test_permutation_zero_coefficient_scores_zero():
    model = _manual_logistic(0.0, [1.0, 0.0], names=("ma", "mb"))
    rng = np.random.default_rng(13)
    x = rng.normal(size=(50, 2))
    y = (x[:, 0] > 0).astype(float)
    imp = permutation_importance(model, _table(("ma", "mb"), x, y=y), seed=1)
    assert imp["mb"] == 0.0
    assert imp["ma"] > 0.0


def test_permutation_informative_feature_dominates():
    rng = np.random.default_rng(14)
    y = (rng.random(200) < 0.5).astype(float)
    sig = (2.0 * y - 1.0) + rng.normal(scale=0.3, size=200)
    noise = rng.normal(size=200)
    table = _table(("ma", "mb"), np.column_stack([sig, noise]), y=y)
    model = fit_logistic(table, l2=1.0)
    imp = permutation_importance(model, table, seed=2)
    assert imp["ma"] > imp["mb"]
    assert imp["ma"] > 0.05


def test_permutation_duplicated_feature_still_registers():
    rng = np.random.default_rng(15)
    y = (rng.random(200) < 0.5).astype(float)
    sig = (2.0 * y - 1.0) + rng.normal(scale=0.3, size=200)
    table = _table(("ma", "mb"), np.column_stack([sig, sig]), y=y)
    model = fit_logistic(table, l2=1.0)
    imp = permutation_importance(model, table, seed=3)
    assert imp["ma"] > 0.0
    assert imp["mb"] > 0.0


def test_permutation_deterministic():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(60, 2))
    y = (x[:, 0] + rng.normal(size=60) > 0).astype(float)
    table = _table(("ma", "mb"), x, y=y)
    model = fit_logistic(table, l2=1.0)
    assert permutation_importance(model, table, seed=5) == permutation_importance(model, table, seed=5)


def test_shap_frozen_value():
    model = _manual_logistic(0.7, [2.0], names=("ma",))
    phi, base = shap_linear(model, np.array([[1.0]]), background_mean=np.array([0.5]))
    assert phi[0, 0] == pytest.approx(1.0)
    assert base == pytest.approx(0.7 + 2.0 * 0.5)


def test_shap_zero_at_background_mean():
    model = _manual_logistic(-0.3, [1.5, -2.0], names=("ma", "mb"))
    mean = np.array([0.4, -1.1])
    phi, base = shap_linear(model, mean[None, :], background_mean=mean)
    assert np.all(phi == 0.0)
    assert base == pytest.approx(-0.3 + 1.5 * 0.4 + (-2.0) * (-1.1))


def test_shap_additivity_and_default_background():
    rng = np.random.default_rng(17)
    model = _manual_logistic(0.2, [1.0, -0.5, 0.25], names=("a", "b", "c"))
    x = rng.normal(size=(40, 3))
    phi, base = shap_linear(model, x)
    assert base == pytest.approx(model.intercept)
    recon = base + phi.sum(axis=1)
    assert np.allclose(recon, model.log_odds(x), atol=1e-12)


def test_shap_accepts_feature_table():
    model = _manual_logistic(0.0, [1.0, 1.0], names=("ma", "mb"))
    table = _table(("ma", "mb"), [[1.0, 2.0], [3.0, 4.0]])
    phi, base = shap_linear(model, table)
    assert phi.shape == (2, 2)
    assert base == 0.0


# ----------------------------------------------------------------- regression


def test_fit_linear_recovers_exact_relation():
    rng = np.random.default_rng(18)
    x = rng.normal(size=(50, 2))
    y = 3.0 + 2.0 * x[:, 0] - x[:, 1]
    model = fit_linear(_table(("ma", "mb"), x, y=y))
    assert model.intercept == pytest.approx(3.0, abs=1e-6)
    assert model.coef[0] == pytest.approx(2.0, abs=1e-6)
    assert model.coef[1] == pytest.approx(-1.0, abs=1e-6)
    assert abs(r2_score(y, model.predict(x)) - 1.0) <= 1e-9
    assert model.coef_pvalues[0] < 1e-6


def test_fit_linear_scores_on_heldout_when_given():
    # the fit is scored where its caller asks, as run_prediction scores the held-out rows
    rng = np.random.default_rng(19)
    x = rng.normal(size=(60, 1))
    y = 1.0 + 0.5 * x[:, 0]
    xh = rng.normal(size=(30, 1))
    yh = rng.normal(size=30)
    model = fit_linear(_table(("ma",), x, y=y))
    assert r2_score(y, model.predict(x)) > 0.99
    assert r2_score(yh, model.predict(xh)) < 0.5


def test_fit_linear_independent_target_has_no_heldout_skill():
    ok = 0
    seeds = range(40)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        xt = rng.normal(size=(150, 3))
        yt = rng.normal(size=150)
        xh = rng.normal(size=(80, 3))
        yh = rng.normal(size=80)
        model = fit_linear(_table(("a", "b", "c"), xt, y=yt))
        if r2_score(yh, model.predict(xh)) <= 0.05:
            ok += 1
    assert ok >= int(0.95 * len(seeds))


def test_fit_linear_rank_deficient_falls_back_to_pinv():
    rng = np.random.default_rng(20)
    a = rng.normal(size=40)
    x = np.column_stack([a, a])  # exact duplicate column
    y = 1.0 + 3.0 * a
    with pytest.warns(UserWarning, match="rank-deficient"):
        model = fit_linear(_table(("ma", "mb"), x, y=y))
    assert abs(r2_score(y, model.predict(x)) - 1.0) <= 1e-9
    # minimum-norm solution splits the weight across the copies
    assert model.coef[0] + model.coef[1] == pytest.approx(3.0, abs=1e-6)


def test_fit_linear_needs_rows():
    x = np.ones((4, 3))
    with pytest.raises(DataError):
        fit_linear(_table(("a", "b", "c"), x, y=[1, 2, 3, 4]))
    with pytest.raises(DataError):
        fit_linear(_table(("a",), np.ones((3, 1))))


def test_r2_score_values():
    y = np.array([1.0, 2.0, 3.0])
    assert r2_score(y, y) == 1.0
    assert r2_score(y, np.full(3, 2.0)) == 0.0
    assert r2_score(y, np.array([3.0, 2.0, 1.0])) < 0.0
    with pytest.raises(DataError):
        r2_score(np.full(3, 5.0), y)
    # the mean of three 0.1s is 0.10000000000000002, not 0.1: R^2 read -2.2e34
    with pytest.raises(DataError, match="constant target"):
        r2_score([0.1] * 3, y)


def test_r2_score_of_empty_inputs_is_a_data_error_before_any_warning():
    with pytest.raises(DataError, match="empty target"):
        r2_score([], [])


def test_r2_score_of_overflowing_squares_equals_the_scaled_call():
    # the total sum of squares overflows; it once gave inf / inf = nan, then raised NumericalError
    y, pred = [1e200, -1e200, 0.0], [1.0, 2.0, 3.0]
    assert r2_score(y, pred) == r2_score(np.ldexp(y, -665), np.ldexp(pred, -665)) == 0.0  # warnings are errors


def test_r2_score_of_a_subnormal_total_sum_of_squares_is_not_minus_infinity():
    # the total sum of squares is subnormal: R^2 read -inf where it is about -1e320, and the
    # scaled call disagreed in the last bits
    with pytest.raises(NumericalError, match="R\\^2 sums of squares are not finite"):
        r2_score([1e-160, 2e-160, 3e-160], [1.0, 2.0, 3.0])
    y = np.array([1e-160, 2e-160, 3e-160])
    assert r2_score(y, y * 1.5) == r2_score(y * 2.0**600, y * 1.5 * 2.0**600) == -0.7499999999999996


def test_r2_score_of_a_tiny_varying_target_is_not_constant():
    # the total sum of squares underflows to 0; both inputs times 2**600 (exact) give R^2
    y, pred = np.array([1e-170, 3e-170, 2e-170]), np.array([1e-170, 2e-170, 2e-170])
    assert r2_score(y, pred) == r2_score(y * 2.0**600, pred * 2.0**600) == 0.4999999999999999
    # scaled with y, this prediction leaves the float range: R^2 would be about -1e640
    with pytest.raises(NumericalError, match="R\\^2 sums of squares are not finite"):
        r2_score([1e-200, 2e-200], [1e120, 1.0])


def test_ci95_z_is_the_normal_quantile_of_the_percentile_pair():
    # the coefficient intervals and the percentile intervals are both 95%; scipy is
    # the oracle, since structim's erfc-based ndtr reads 0.02500000000000002 here
    tail = model_module.CI95_PERCENTILES[0] / 100.0
    assert abs(stats.norm.cdf(-model_module.CI95_Z) - tail) <= 2 * math.ulp(tail)


def test_null_shuffle_regression_destroys_signal():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(120, 2))
    y = 2.0 * x[:, 0] + rng.normal(scale=0.3, size=120)
    train = _table(("ma", "mb"), x[:80], y=y[:80])
    heldout = _table(("ma", "mb"), x[80:], y=y[80:])
    real = r2_score(heldout.y, fit_linear(train).predict(heldout.X))
    null = null_shuffle_regression(train, heldout, trials=100, seed=0)
    assert real > 0.8
    assert null["kind"] == "shuffled_target"
    assert null["trials"] == 100
    assert null["r2"]["mean"] < 0.1
    assert real > null["r2"]["ci95"][1]
    again = null_shuffle_regression(train, heldout, trials=100, seed=0)
    assert null == again


def _shuffle_null_oracle(train, heldout, trials, seed):
    """The shuffled-target null as one whole ``fit_linear`` and held-out
    ``r2_score`` per trial, the way it was computed before its refits shared
    one least-squares core: returns (R^2 per trial, summary)."""
    y_all = np.concatenate([train.y, heldout.y])
    n_train = len(train.y)
    rng = np.random.default_rng(seed)
    scores = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a rank-deficient design warns on every trial
        for _ in range(trials):
            perm = rng.permutation(y_all)
            try:
                fit = fit_linear(replace(train, y=perm[:n_train]))
                scores.append(r2_score(perm[n_train:], fit.predict(heldout.X)))
            except DataError:
                scores.append(np.nan)
    return scores, {"kind": "shuffled_target", "trials": trials, "r2": model_module._percentile_summary(scores)}


def _shuffle_null_tables(case):
    rng = np.random.default_rng([31, len(case)])
    x = rng.normal(size=(60, 3))
    y = 1.0 + x @ np.array([0.5, -1.0, 0.25]) + rng.normal(size=60)
    if case == "rank-deficient":
        x[:, 2] = 2.0 * x[:, 0]
    if case == "constant held-out":
        # most permutations leave the 3 held-out rows all zero
        y = np.zeros(60)
        y[[4, 11]] = (1.0, 2.0)
        x, y = x[:43], y[:43]
    cut = len(y) - (3 if case == "constant held-out" else 20)
    return _table(("a", "b", "c"), x[:cut], y=y[:cut]), _table(("a", "b", "c"), x[cut:], y=y[cut:])


@pytest.mark.parametrize("case", ["full rank", "rank-deficient", "constant held-out"])
def test_null_shuffle_regression_is_the_per_trial_fit_bit_for_bit(monkeypatch, case):
    train, heldout = _shuffle_null_tables(case)
    expected_scores, expected = _shuffle_null_oracle(train, heldout, trials=60, seed=[3, 8])
    seen, percentile_summary = [], model_module._percentile_summary

    def summary(values):
        seen.append(list(values))
        return percentile_summary(values)

    monkeypatch.setattr(model_module, "_percentile_summary", summary)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = null_shuffle_regression(train, heldout, trials=60, seed=[3, 8])
    np.testing.assert_array_equal(seen[0], expected_scores)
    assert got == expected
    assert [str(w.message) for w in caught] == (
        ["rank-deficient design; falling back to the pseudo-inverse"] if case == "rank-deficient" else [])
    if case == "constant held-out":
        assert 0 < np.isnan(seen[0]).sum() < 60
        assert got["r2"]["defined"] == 60 - np.isnan(seen[0]).sum()


def test_null_shuffle_regression_with_too_few_training_rows_is_a_data_error():
    x = np.arange(18.0).reshape(6, 3) ** 1.5
    train, heldout = _table(("a", "b", "c"), x[:4], y=x[:4, 0]), _table(("a", "b", "c"), x[4:], y=x[4:, 0])
    with pytest.raises(DataError, match=r"need more rows \(4\) than parameters \(4\)"):
        null_shuffle_regression(train, heldout, trials=20)


def test_null_shuffle_regression_checks_rank_once_and_fits_no_model(monkeypatch):
    train, heldout = _shuffle_null_tables("full rank")
    calls = {"rank": 0, "core": 0}
    matrix_rank, core = np.linalg.matrix_rank, model_module._least_squares

    def counting_rank(*args, **kwargs):
        calls["rank"] += 1
        return matrix_rank(*args, **kwargs)

    def counting_core(table):
        calls["core"] += 1
        return core(table)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting_rank)
    monkeypatch.setattr(model_module, "_least_squares", counting_core)
    monkeypatch.setattr(model_module, "fit_linear", lambda *args, **kwargs: pytest.fail("a whole fit per trial"))
    null_shuffle_regression(train, heldout, trials=50)
    assert calls == {"rank": 1, "core": 1}  # one rank check, one design and one Gram matrix


# ----------------------------------------- parity with the per-call evaluation
#
# The evaluation stage as it was before the batched AUC kernel: one midrank
# loop per AUC and one call per draw. Kept as frozen oracles; the batched
# stage must reproduce their outputs exactly at fixed seeds.


def _oracle_auc(y_true, scores):
    y = np.asarray(y_true).astype(int)
    s = np.asarray(scores, dtype=float)
    n1 = int((y == 1).sum())
    n0 = int((y == 0).sum())
    if n1 == 0 or n0 == 0:
        raise DataError("AUC needs both classes present")
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * n0))


def _oracle_summary(values):
    arr = np.asarray(values, dtype=float)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return {"mean": None, "ci90": None, "ci95": None, "defined": 0}
    return {
        "mean": float(arr.mean()),
        "ci90": [float(v) for v in np.percentile(arr, [5.0, 95.0])],
        "ci95": [float(v) for v in np.percentile(arr, [2.5, 97.5])],
        "defined": int(arr.size),
    }


def _oracle_bootstrap(model, table, iters, seed, alpha=0.05):
    y = table.y.astype(int)
    scores = model.predict_proba(table.X)
    rng = np.random.default_rng(seed)
    n = len(y)
    samples = []
    skipped = 0
    for _ in range(iters):
        for _attempt in range(11):
            idx = rng.integers(0, n, size=n)
            yb = y[idx]
            if yb.min() != yb.max():
                samples.append(_oracle_auc(yb, scores[idx]))
                break
        else:
            skipped += 1
    if skipped:
        warnings.warn(f"bootstrap skipped {skipped} persistently single-class resamples")
    if not samples:
        raise NumericalError("every bootstrap resample was single-class")
    lo, hi = np.percentile(samples, [100 * alpha / 2.0, 100 * (1.0 - alpha / 2.0)])
    return (float(lo), float(hi))


def _oracle_null_prior(train_y, test_y, trials, seed):
    train_y = np.asarray(train_y).astype(int)
    test_y = np.asarray(test_y).astype(int)
    prior = float(train_y.mean())
    rng = np.random.default_rng(seed)
    precisions, recalls, aucs = [], [], []
    for _ in range(trials):
        yhat = (rng.random(test_y.size) < prior).astype(int)
        tp = int(np.sum((yhat == 1) & (test_y == 1)))
        fp = int(np.sum((yhat == 1) & (test_y == 0)))
        fn = int(np.sum((yhat == 0) & (test_y == 1)))
        precisions.append(tp / (tp + fp) if tp + fp else np.nan)
        recalls.append(tp / (tp + fn) if tp + fn else np.nan)
        if test_y.min() != test_y.max() and yhat.min() != yhat.max():
            aucs.append(_oracle_auc(test_y, yhat.astype(float)))
        else:
            aucs.append(np.nan)
    return {
        "kind": "prior_predictor",
        "prior": prior,
        "trials": trials,
        "precision": _oracle_summary(precisions),
        "recall": _oracle_summary(recalls),
        "auc": _oracle_summary(aucs),
    }


def _oracle_null_edge_presence(tn, table, scores, trials, seed):
    scores = np.asarray(scores, dtype=float)
    rng = np.random.default_rng(seed)
    groups = []
    for t in sorted(set(table.as_of)):
        rows_here = np.flatnonzero(table.as_of == t)
        cur = tn.snapshots[t]
        n_t = cur.n_nodes
        if n_t < 2:
            continue
        density = min(1.0, tn.snapshots[t + 1].n_edges / (n_t * (n_t - 1) / 2.0))
        pos = {v: i for i, v in enumerate(cur.node_ids)}
        groups.append((n_t, density, np.array([pos[table.node_ids[i]] for i in rows_here]), rows_here))
    svec = scores[np.concatenate([rows for *_, rows in groups])]
    yhat = (svec >= 0.5).astype(int)
    # the labels of the same draws: blocks of trials, each drawn anchor group by anchor group
    step = max(1, _CHUNK_CELLS // max(svec.size, *(n_t for n_t, *_ in groups)))
    trial_labels = []
    for lo in range(0, trials, step):
        blocks = [edge_presence_labels(n_t, d, rng, min(step, trials - lo)) for n_t, d, *_ in groups]
        for t in range(len(blocks[0])):
            trial_labels.append(np.concatenate([b[t][node_rows] for b, (_, _, node_rows, _) in zip(blocks, groups)]))
    precisions, recalls, aucs = [], [], []
    for labels in trial_labels:
        tp = int(np.sum((yhat == 1) & (labels == 1)))
        fp = int(np.sum((yhat == 1) & (labels == 0)))
        fn = int(np.sum((yhat == 0) & (labels == 1)))
        precisions.append(tp / (tp + fp) if tp + fp else np.nan)
        recalls.append(tp / (tp + fn) if tp + fn else np.nan)
        aucs.append(_oracle_auc(labels, svec) if labels.min() != labels.max() else np.nan)
    return {
        "kind": "edge_presence",
        "trials": trials,
        "groups": len(groups),
        "precision": _oracle_summary(precisions),
        "recall": _oracle_summary(recalls),
        "auc": _oracle_summary(aucs),
    }


def _oracle_permutation_importance(model, table, repeats, seed):
    base = _oracle_auc(table.y, model.predict_proba(table.X))
    out = {}
    for j, name in enumerate(table.columns):
        deltas = []
        for r in range(repeats):
            rng = np.random.default_rng([seed, j, r])
            xp = table.X.copy()
            xp[:, j] = rng.permutation(xp[:, j])
            deltas.append(base - _oracle_auc(table.y, model.predict_proba(xp)))
        out[name] = float(np.mean(deltas))
    return out


def _tie_heavy_table(seed, n, p=2, levels=3, positive=0.4):
    """Small-integer features, so many scores tie exactly."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, levels, size=(n, p)).astype(float)
    y = (rng.random(n) < positive).astype(float)
    return _table(tuple(f"f{i}" for i in range(p)), x, y=y)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 4)), min_size=2, max_size=80))
def test_auc_matches_oracle_on_tie_heavy_data(pairs):
    y, s = (np.array(v) for v in zip(*pairs))
    assume(y.min() != y.max())
    assert auc_score(y, s) == _oracle_auc(y, s)


def test_auc_rows_match_oracle_across_chunks():
    rng = np.random.default_rng(30)
    n = 100
    m = 3 * (_CHUNK_CELLS // n) + 7  # four chunks, the last one partial
    y = rng.integers(0, 2, size=(m, n))
    y[:3] = 1  # single-class rows give NaN
    s = rng.integers(0, 6, size=(m, n)).astype(float)
    s[m // 2 :] += rng.normal(size=(m - m // 2, n))
    got = _auc_rows(y, s)
    assert np.all(np.isnan(got[:3]))
    assert all(got[i] == _oracle_auc(y[i], s[i]) for i in range(3, m))


def _oracle_auc_or_nan(y, s):
    return _oracle_auc(y, s) if 0 < np.sum(y) < len(y) else np.nan


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 4), st.data())
def test_auc_kernels_match_oracle_on_tied_and_degenerate_rows(m, n, levels, data):
    # levels=1 ties every score; n=1 and all-0 or all-1 rows are single-class (NaN)
    cells = st.lists(st.tuples(st.integers(0, 1), st.integers(0, levels - 1)), min_size=m * n, max_size=m * n)
    y, s = (np.array(v).reshape(m, n) for v in zip(*data.draw(cells)))
    s = s.astype(float)
    dense = stats.rankdata(s, method="dense", axis=1).astype(int) - 1
    expected = [_oracle_auc_or_nan(y[r], s[r]) for r in range(m)]
    np.testing.assert_array_equal(_auc_rows(y, s), expected)
    np.testing.assert_array_equal(_auc_groups(y, dense, levels), expected)
    np.testing.assert_array_equal(_auc_groups(y == 1, dense, levels), expected)
    # broadcast: one fixed score row against every label row, and the reverse
    np.testing.assert_array_equal(_auc_groups(y, dense[0], levels), [_oracle_auc_or_nan(y[r], s[0]) for r in range(m)])
    np.testing.assert_array_equal(_auc_groups(y[0], dense, levels), [_oracle_auc_or_nan(y[0], s[r]) for r in range(m)])


def test_fixed_score_callers_keep_their_input_checks():
    with pytest.raises(DataError, match="0/1 labels"):
        null_prior_predictor([0, 1, 0, 1], [0, 1, 2, 1], trials=20)
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    with pytest.raises(NumericalError, match="finite scores"):
        bootstrap_auc_ci(model, _table(("ma",), [[1.0], [np.nan], [0.0], [-1.0]], y=[1, 0, 1, 0]), iters=5)
    with pytest.raises(DataError, match="0/1 labels"):
        bootstrap_auc_ci(model, _table(("ma",), [[1.0], [2.0], [0.0], [-1.0]], y=[1, 0, 2, 0]), iters=5)


def test_bootstrap_matches_oracle():
    # n=200 with 300 resamples spans four kernel chunks
    for seed, n, iters in ((0, 40, 300), (1, 25, 200), (2, 200, 300)):
        table = _tie_heavy_table(seed, n)
        model = fit_logistic(table, l2=1.0)
        assert bootstrap_auc_ci(model, table, iters=iters, seed=[seed, 4]) == _oracle_bootstrap(
            model, table, iters, [seed, 4]
        )


def test_bootstrap_redraw_and_skip_paths_match_oracle():
    model = _manual_logistic(0.0, [1.0], names=("ma",))
    # one positive in six rows: a third of resamples are single-class and redrawn
    six = _table(("ma",), [[0.3], [0.1], [0.3], [0.2], [0.4], [0.1]], y=[0, 0, 1, 0, 0, 0])
    assert bootstrap_auc_ci(model, six, iters=500, seed=1) == _oracle_bootstrap(model, six, 500, 1)
    # one positive in two rows: half the draws are single-class, so some slots
    # fail all 11 attempts and are skipped
    two = _table(("ma",), [[0.2], [0.5]], y=[1, 0])
    with pytest.warns(UserWarning, match="persistently single-class") as got:
        ci = bootstrap_auc_ci(model, two, iters=6000, seed=2)
    with pytest.warns(UserWarning, match="persistently single-class") as want:
        expected = _oracle_bootstrap(model, two, 6000, 2)
    assert ci == expected
    assert str(got[0].message) == str(want[0].message)


def test_null_prior_matches_oracle():
    rng = np.random.default_rng(31)
    cases = [
        (rng.integers(0, 2, 50), rng.integers(0, 2, 40), 100, 5),
        (np.ones(20), np.array([1, 1, 0, 0, 0]), 50, 0),  # constant predictions
        (rng.integers(0, 2, 30), np.zeros(12), 30, 1),  # single-class test labels
        (rng.random(200) < 0.1, rng.integers(0, 2, 200), 300, 3),  # several chunks
    ]
    for train_y, test_y, trials, seed in cases:
        got = null_prior_predictor(train_y, test_y, trials=trials, seed=[seed, 5])
        assert got == _oracle_null_prior(train_y, test_y, trials, [seed, 5])


class _GapRecorder:
    """A Generator stand-in that keeps every array of geometric gaps it hands out."""

    def __init__(self, seed):
        self.rng, self.gaps = np.random.default_rng(seed), []

    def geometric(self, p, size):
        self.gaps.append(self.rng.geometric(p, size))
        return self.gaps[-1]


def _edges_from_gaps(n, d, trials, gaps):
    """Each trial's dense adjacency rebuilt from the recorded gaps, with divmod
    for each cell's trial and pair, in blocks of the draw's documented size."""
    first, second = np.triu_indices(n, 1)
    pairs = first.size
    step = max(1, int(_CHUNK_CELLS / (pairs * d)))
    calls, adj = iter(gaps), np.zeros((trials, n, n), dtype=bool)
    for lo in range(0, trials, step):
        rows = min(step, trials - lo)
        on = np.cumsum(next(calls)) - 1
        while on[-1] < rows * pairs:
            on = np.concatenate([on, on[-1] + np.cumsum(next(calls))])
        trial, pair = np.divmod(on[on < rows * pairs], pairs)
        adj[lo + trial, first[pair], second[pair]] = True
    assert next(calls, None) is None  # every draw is accounted for
    return adj | adj.transpose(0, 2, 1)


def test_edge_presence_labels_rates_and_edges():
    # each pair is an edge with probability d, each node present with 1 - (1 - d)^(n - 1)
    for n, d, trials in ((2, 0.3, 3000), (10, 0.3, 3000), (40, 0.05, 2000), (120, 0.04, 300), (30, 1.0, 50)):
        rec = _GapRecorder([n, 9])
        labels = edge_presence_labels(n, d, rec, trials)
        adj = _edges_from_gaps(n, d, trials, rec.gaps)
        assert labels.shape == (trials, n)
        assert np.array_equal(labels, adj.any(axis=2).astype(int))
        first, second = np.triu_indices(n, 1)
        pair_rate = adj[:, first, second].mean(axis=0)
        assert np.all(np.abs(pair_rate - d) <= 4 * np.sqrt(d * (1 - d) / trials))
        q = 1.0 - (1.0 - d) ** (n - 1)
        assert np.all(np.abs(labels.mean(axis=0) - q) <= 4 * np.sqrt(q * (1 - q) / trials))


def test_edge_presence_labels_degenerate_draws():
    for n, d in ((0, 0.5), (1, 0.5), (1, 1.0), (7, 0.0)):
        rng = np.random.default_rng(5)
        labels = edge_presence_labels(n, d, rng, 9)
        assert labels.shape == (9, n) and not labels.any()
        assert rng.random() == np.random.default_rng(5).random()  # no random number drawn
    assert edge_presence_labels(7, 1.0, np.random.default_rng(5), 9).all()


def test_edge_presence_labels_draw_gaps_until_the_block_is_covered():
    # gaps of 1 put an edge in every cell, far beyond what the first draw of gaps allows for
    class EveryCell:
        calls = 0

        def geometric(self, p, size):
            self.calls += 1
            return np.ones(size, dtype=np.int64)

    rng = EveryCell()
    assert edge_presence_labels(30, 0.1, rng, 40).all()
    assert rng.calls > 1


def test_edge_presence_draws_stay_near_one_chunk():
    # the gaps of one draw cover about _CHUNK_CELLS expected edges, or one trial's
    for n, d, trials in ((600, 1.0, 2), (60, 0.5, 1000), (12, 0.01, 100000)):
        rec = _GapRecorder(n)
        labels = edge_presence_labels(n, d, rec, trials)
        cap = max(_CHUNK_CELLS, n * (n - 1) / 2 * d)
        assert max(g.size for g in rec.gaps) <= cap + 4 * np.sqrt(cap) + 8
        assert labels.shape == (trials, n) and (d < 1 or labels.all())


def test_null_edge_presence_blocks_stay_near_one_chunk(monkeypatch):
    # one scored row of a 60-node clique: a block of trials holds one chunk of that anchor's nodes
    calls = []

    def spy(n_nodes, density, rng, trials):
        calls.append((n_nodes, trials))
        return edge_presence_labels(n_nodes, density, rng, trials)

    monkeypatch.setattr(model_module, "edge_presence_labels", spy)
    tn = network_from([clique(60, timestamp=0), clique(60, timestamp=1)])
    res = null_edge_presence(tn, *_scored_rows({0: 0.9}), trials=600, seed=0)
    assert sum(t for _, t in calls) == 600
    assert max(n * t for n, t in calls) <= _CHUNK_CELLS
    assert res["precision"]["mean"] == 1.0 and res["precision"]["defined"] == 600


def test_null_edge_presence_ignores_row_order():
    # each group draws over its snapshot's nodes, so shuffling the scored rows with
    # their scores leaves every trial's counts and AUC as they were
    tn = synthetic_temporal(40, 2, 2, -2.0, 8, seed=3)
    rng = np.random.default_rng(3)
    table = _anchor_rows(tn, range(tn.n_snapshots - 1))
    scores = rng.integers(0, 5, size=table.n_rows) / 4.0
    perm = rng.permutation(table.n_rows)
    assert null_edge_presence(tn, table.select_rows(perm), scores[perm], trials=250, seed=1) == \
        null_edge_presence(tn, table, scores, trials=250, seed=1)


def test_null_edge_presence_matches_oracle():
    for seed in (3, 4):
        tn = synthetic_temporal(40, 2, 2, -2.0, 8, seed=seed)
        rng = np.random.default_rng(seed)
        table = _anchor_rows(tn, range(tn.n_snapshots - 1))
        scores = rng.integers(0, 5, size=table.n_rows) / 4.0  # tie-heavy, some at 0.5
        # 250 trials over ~210 rows span four kernel chunks
        got = null_edge_presence(tn, table, scores, trials=250, seed=[seed, 6])
        assert got == _oracle_null_edge_presence(tn, table, scores, 250, [seed, 6])


def test_permutation_importance_matches_oracle(monkeypatch):
    for seed, n, repeats in ((0, 60, 10), (1, 200, 10), (2, 30, 3)):
        table = _tie_heavy_table(seed, n, p=3)
        model = fit_logistic(table, l2=1.0)
        monkeypatch.setattr(model_module, "PERMUTATION_REPEATS", repeats)
        assert permutation_importance(model, table, seed=[seed, 7]) == (
            _oracle_permutation_importance(model, table, repeats, [seed, 7])
        )
