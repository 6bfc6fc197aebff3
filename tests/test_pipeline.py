"""Horizon tables, forward-chaining selection, and the full prediction run."""

import json
import warnings

import numpy as np
import pytest

from structim import (
    FEATURE_COLUMNS,
    L2_GRID,
    DataError,
    FeatureTable,
    barbell,
    build_horizon_tables,
    forward_chain_folds,
    pool,
    repeat_snapshot,
    run_prediction,
    synthetic_temporal,
    time_ordered_select,
)

from structim import pipeline
from structim.errors import ArgumentError
from structim.model import standardize

from conftest import clique



def test_unknown_target_is_rejected_without_any_anchor():
    tn = repeat_snapshot(clique(3), 2)  # two snapshots: no anchor has a next one
    with pytest.raises(ArgumentError, match=r"^unknown target 'bogus'; expected one of "):
        build_horizon_tables(tn, "bogus")


def _mk_tables(n_tables=6, rows=20, signal=2.0, seed=0, constant=False):
    """Hand-built horizon tables with a controllable signal feature."""
    rng = np.random.default_rng(seed)
    tables = []
    for t in range(n_tables):
        y = np.tile([0.0, 1.0], rows // 2)
        if not constant:
            rng.shuffle(y)
        x0 = np.ones(rows) if constant else signal * (2.0 * y - 1.0) + rng.normal(size=rows)
        x1 = np.ones(rows) if constant else rng.normal(size=rows)
        tables.append(
            FeatureTable(
                columns=("ma", "mb"),
                X=np.column_stack([x0, x1]),
                node_ids=tuple(range(rows)),
                as_of=t + 1,
                target="presence",
                y=y,
            )
        )
    return tables


# -------------------------------------------------------- build_horizon_tables


def test_build_horizon_tables_one_per_anchor():
    tn = synthetic_temporal(30, 2, 2, 0.0, horizon=6, seed=1)
    tables = build_horizon_tables(tn, "presence")
    assert len(tables) == 4  # anchors 1..T-2
    assert [set(t.as_of) for t in tables] == [{1}, {2}, {3}, {4}]
    for t in tables:
        assert t.target == "presence"
        assert t.columns == FEATURE_COLUMNS
        assert t.y is not None and t.n_rows > 0


def test_build_horizon_tables_validation():
    tn = synthetic_temporal(30, 2, 2, 0.0, horizon=6, seed=1)
    with pytest.raises(ValueError):
        build_horizon_tables(tn, "strength")
    short = repeat_snapshot(clique(5), 2)
    with pytest.raises(DataError, match=r"at any anchor \(an anchor needs a prior and a next snapshot\)$"):
        build_horizon_tables(short, "presence")


def test_build_horizon_tables_names_the_target_that_labels_no_row():
    # a static network has 10 anchors, but sign drops every tie S1 == S0
    tied = repeat_snapshot(barbell(4, 2, 5), 12)
    with pytest.raises(DataError, match=r"^anchors 1\.\.10 exist, but target 'sign' labels none of their featurizable nodes$"):
        build_horizon_tables(tied, "sign")
    assert len(build_horizon_tables(tied, "presence")) == 10


# --------------------------------------------------------- forward_chain_folds


def test_forward_chain_folds_structure():
    folds = forward_chain_folds(12)
    assert len(folds) == 5
    seen_val = []
    prev_train = -1
    for k, (tr, va) in enumerate(folds):
        assert len(va) == 2
        assert tr[0] == 0 and tr[-1] == va[0] - 1  # expanding window ends at val
        assert len(tr) > prev_train
        prev_train = len(tr)
        seen_val.extend(va.tolist())
    assert seen_val == list(range(2, 12))  # consecutive, disjoint validation blocks


def test_forward_chain_folds_remainder_stays_in_training():
    folds = forward_chain_folds(33)
    block = 33 // 6
    assert all(len(va) == block for _, va in folds)
    assert len(folds[0][0]) == 33 - 5 * block


def test_forward_chain_folds_too_small():
    with pytest.raises(DataError):
        forward_chain_folds(5)


# --------------------------------------------------------- time_ordered_select


def test_select_needs_five_tables():
    with pytest.raises(DataError, match="at least 5"):
        time_ordered_select(pool(_mk_tables(n_tables=4)))


def test_select_rejects_rows_out_of_time_order():
    # pooled newest first, every fold would validate on rows older than it trains on
    with pytest.raises(DataError, match="time order"):
        time_ordered_select(pool(_mk_tables(seed=3)[::-1]))


def test_select_rejects_mixed_targets():
    tables = _mk_tables()
    tables[2].target = "change"
    with pytest.raises(ValueError, match="mix targets"):
        time_ordered_select(pool(tables))


def test_select_single_value_grid():
    best, _ = time_ordered_select(pool(_mk_tables(seed=1)), l2_grid=(0.1,))
    assert best == 0.1


@pytest.mark.parametrize("grid", [(), (0.1, -0.5), (float("nan"),), (1.0, float("inf"))])
def test_select_rejects_a_bad_grid_before_any_fit(monkeypatch, grid):
    monkeypatch.setattr("structim.pipeline._irls", lambda *args: pytest.fail("fit before the grid check"))
    with pytest.raises(ArgumentError, match="l2_grid needs finite nonnegative values"):
        time_ordered_select(pool(_mk_tables(seed=1)), l2_grid=grid)


def test_select_uninformative_ties_keep_lowest_l2():
    # constant features are dropped, every fold scores exactly 0.5, and the
    # ascending scan with a strict improvement test keeps the smallest value
    tables = _mk_tables(seed=2, constant=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        best, cv_auc_by_l2 = time_ordered_select(pool(tables))
    assert best == min(L2_GRID)
    assert set(cv_auc_by_l2.values()) == {0.5}


def test_select_details_and_split():
    # the split and the standardization constants are run_prediction's; see
    # test_run_prediction_splits_and_standardizes_once
    best, cv_auc_by_l2 = time_ordered_select(pool(_mk_tables(seed=3)))
    assert best in L2_GRID
    assert sorted(cv_auc_by_l2) == sorted(float(v) for v in L2_GRID)


def test_select_informative_beats_shuffled_control():
    tables = _mk_tables(seed=3)
    best_real = max(time_ordered_select(pool(tables))[1].values())

    rng = np.random.default_rng(99)
    shuffled = []
    for t in tables:
        c = t.select_rows(np.ones(t.n_rows, dtype=bool))
        c.y = rng.permutation(t.y)
        shuffled.append(c)
    best_null = max(time_ordered_select(pool(shuffled))[1].values())
    assert best_real > 0.9
    assert best_real > best_null + 0.15


def test_select_deterministic():
    a_best, a_cv = time_ordered_select(pool(_mk_tables(seed=4)), seed=7)
    b_best, b_cv = time_ordered_select(pool(_mk_tables(seed=4)), seed=7)
    assert a_best == b_best
    assert a_cv == b_cv


# --------------------------------------------------------------- run_prediction


@pytest.fixture(scope="module")
def coupled_network():
    return synthetic_temporal(60, 3, 3, -2.0, horizon=12, seed=11)


@pytest.fixture(scope="module")
def presence_result(coupled_network):
    return run_prediction(coupled_network, "presence", seed=11,
                          null_trials=50, bootstrap_iters=200)


def test_run_prediction_split_and_columns(presence_result):
    res = presence_result
    assert res.target == "presence"
    n = res.n_rows
    assert res.split["train"] == int(0.4 * n)
    assert res.split["train"] + res.split["validation"] == int(0.8 * n)
    assert sum(res.split.values()) == n
    assert set(res.columns) <= set(FEATURE_COLUMNS)
    assert not set(res.columns) & set(res.dropped_correlated)
    assert not set(res.columns) & set(res.dropped_constant)
    assert res.chosen_l2 in set(float(v) for v in L2_GRID)
    assert sorted(res.cv_auc_by_l2) == sorted(float(v) for v in L2_GRID)


def test_run_prediction_report_contents(presence_result):
    rep = presence_result.report
    assert rep is not None
    assert rep.n_rows == presence_result.split["test"]
    assert rep.auc is not None and 0.0 <= rep.auc <= 1.0
    assert rep.auc_ci is not None and rep.auc_ci[0] <= rep.auc_ci[1]
    assert rep.ci_method == "exact"
    if rep.precision is not None:
        lo, hi = rep.precision_ci
        assert lo <= rep.precision <= hi
    if rep.recall is not None:
        lo, hi = rep.recall_ci
        assert lo <= rep.recall <= hi
    assert rep.null_prior["kind"] == "prior_predictor"
    assert rep.null_edge_presence["kind"] == "edge_presence"
    assert set(rep.permutation_importance) == set(presence_result.columns)
    assert set(rep.shap_mean_abs) == set(presence_result.columns)


def test_run_prediction_coefficient_rows(presence_result):
    res = presence_result
    assert res.coefficients[0]["feature"] == "(intercept)"
    assert [r["feature"] for r in res.coefficients[1:]] == list(res.columns)
    for row in res.coefficients:
        assert row["ci_lo"] <= row["coef"] <= row["ci_hi"]
        assert 0.0 <= row["pvalue"] <= 1.0
    assert res.shap_values.shape == (res.split["test"], len(res.columns))
    assert len(res.shap_rows) == res.split["test"]


@pytest.fixture(scope="module")
def regression_result(coupled_network):
    return run_prediction(coupled_network, "rel_change", seed=3, null_trials=40)


@pytest.mark.parametrize("result", ["presence_result", "regression_result"])
def test_run_prediction_json_has_one_coefficient_table(request, result):
    res = request.getfixturevalue(result)
    doc = json.loads(json.dumps(res.to_json_dict()))
    assert doc["coefficients"] == res.coefficients
    assert [r["feature"] for r in doc["coefficients"]] == ["(intercept)", *res.columns]
    assert doc["report"] is None or "coefficients" not in doc["report"]


_TOP_KEYS = ["target", "seed", "n_rows", "split", "columns", "dropped_correlated", "dropped_constant", "chosen_l2",
             "cv_auc_by_l2", "report", "regression", "coefficients", "shap_base", "warnings"]
_SUMMARY_KEYS = ["mean", "ci90", "ci95", "defined"]


def test_prediction_json_keys_keep_their_order(presence_result, regression_result):
    # the serializer walks the records' fields, so a moved field would reorder prediction.json
    doc = presence_result.to_json_dict()
    assert list(doc) == _TOP_KEYS
    assert list(doc["report"]) == [
        "n_rows", "n_positive", "tp", "fp", "fn", "tn", "precision", "recall", "auc", "threshold", "notes",
        "precision_ci", "recall_ci", "auc_ci", "ci_method", "null_prior", "null_edge_presence",
        "permutation_importance", "shap_mean_abs"]
    null_prior, null_edges = doc["report"]["null_prior"], doc["report"]["null_edge_presence"]
    assert list(null_prior) == ["kind", "prior", "trials", "precision", "recall", "auc"]
    assert list(null_edges) == ["kind", "trials", "groups", "precision", "recall", "auc"]
    for metric in ("precision", "recall", "auc"):
        assert list(null_prior[metric]) == list(null_edges[metric]) == _SUMMARY_KEYS
    doc = regression_result.to_json_dict()
    assert list(doc) == _TOP_KEYS
    assert list(doc["regression"]) == ["r2_heldout", "null", "split"]
    assert list(doc["regression"]["null"]) == ["kind", "trials", "r2"]
    assert list(doc["regression"]["null"]["r2"]) == _SUMMARY_KEYS


def test_run_prediction_other_classifier_targets(coupled_network):
    res = run_prediction(coupled_network, "sign", seed=3,
                         null_trials=50, bootstrap_iters=100)
    assert res.target == "sign"
    assert res.report.null_edge_presence is None  # presence-only benchmark
    assert res.regression is None


def test_run_prediction_regression_target(regression_result):
    res = regression_result
    assert res.target == "rel_change"
    assert res.report is None
    assert res.chosen_l2 is None and res.cv_auc_by_l2 is None
    n = res.n_rows
    assert res.split == {"train": int(0.8 * n), "validation": 0, "test": n - int(0.8 * n)}
    reg = res.regression
    assert reg["split"] == {"train": int(0.8 * n), "heldout": n - int(0.8 * n)}
    assert isinstance(reg["r2_heldout"], float)
    assert reg["null"]["kind"] == "shuffled_target"
    assert res.coefficients[0]["feature"] == "(intercept)"


def test_run_prediction_deterministic(coupled_network):
    a = run_prediction(coupled_network, "presence", seed=5,
                       null_trials=30, bootstrap_iters=100)
    b = run_prediction(coupled_network, "presence", seed=5,
                       null_trials=30, bootstrap_iters=100)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)
    assert np.array_equal(a.shap_values, b.shap_values)


@pytest.mark.parametrize("target", ["presence", "rel_change"])
def test_run_prediction_splits_and_standardizes_once(monkeypatch, coupled_network, target):
    fitted = []

    def spy(table):
        train_std, constants = standardize(table)
        fitted.append((table.n_rows, constants))
        return train_std, constants

    monkeypatch.setattr(pipeline, "standardize", spy)
    res = run_prediction(coupled_network, target, seed=5, null_trials=20, bootstrap_iters=50)
    n = res.n_rows
    i1, i2 = int(0.4 * n), int(0.8 * n)
    if target == "rel_change":
        assert res.split == {"train": i2, "validation": 0, "test": n - i2}
        assert res.regression["split"] == {"train": i2, "heldout": n - i2}
    else:
        assert res.split == {"train": i1, "validation": i2 - i1, "test": n - i2}
    # the forward-chaining folds train on fewer rows; the first 80% is standardized once
    constants = [c for rows, c in fitted if rows == i2]
    assert len(constants) == 1
    assert res.columns == constants[0].columns
    assert tuple(c["feature"] for c in res.coefficients[1:]) == res.columns


def test_run_prediction_needs_enough_rows():
    few_tables = repeat_snapshot(clique(4), 6)  # only 4 anchors
    with pytest.raises(DataError, match="at least 5 horizon tables"):
        run_prediction(few_tables, "presence")
    few_rows = repeat_snapshot(clique(4), 7)  # 5 anchors but 20 rows
    with pytest.raises(DataError, match="only 20 rows"):
        run_prediction(few_rows, "presence")


@pytest.mark.parametrize("target, counts", [
    ("rel_change", {"null_trials": 2}),
    ("rel_change", {"bootstrap_iters": 0}),
    ("presence", {"bootstrap_iters": 0}),
])
def test_run_prediction_checks_counts_before_building_tables(monkeypatch, coupled_network, target, counts):
    def build_nothing(*args, **kwargs):
        raise AssertionError("tables built before the argument checks")

    monkeypatch.setattr("structim.pipeline.build_horizon_tables", build_nothing)
    with pytest.raises(ValueError, match="at least"):
        run_prediction(coupled_network, target, **counts)


@pytest.mark.parametrize("target, option, value", [
    ("presence", "corr_threshold", 1.5),
    ("rel_change", "corr_threshold", 0.0),
    ("presence", "corr_threshold", float("nan")),
    ("presence", "l2_grid", ()),
    ("presence", "l2_grid", (1.0, float("nan"))),
    ("rel_change", "l2_grid", (float("inf"),)),
    ("presence", "l2_grid", (-0.5,)),
    ("change", "change_threshold", float("nan")),
    ("change", "change_threshold", -1.0),
    ("change", "change_threshold", float("inf")),
    ("presence", "change_threshold", float("nan")),
    ("rel_change", "change_threshold", -0.5),
])
def test_run_prediction_checks_options_before_building_tables(monkeypatch, coupled_network, target, option, value):
    def build_nothing(*args, **kwargs):
        raise AssertionError("tables built before the argument checks")

    monkeypatch.setattr("structim.pipeline.build_horizon_tables", build_nothing)
    with pytest.raises(ValueError, match=option):
        run_prediction(coupled_network, target, **{option: value})


def test_pruning_ignores_held_out_rows(monkeypatch):
    # ma and mb are uncorrelated in the first 80% of the 120 pooled rows; one
    # outlier in the held-out block correlates them over all rows
    clean = _mk_tables(seed=5)
    spiked = _mk_tables(seed=5)
    spiked[-1].X[-1] = [1000.0, 1000.0]
    assert abs(np.corrcoef(pool(spiked).X.T)[0, 1]) > 0.8
    dropped = []
    for tables in (clean, spiked):
        for t in tables:
            t.target = "sign"
        monkeypatch.setattr("structim.pipeline.build_horizon_tables", lambda *args, **kwargs: tables)
        res = run_prediction(repeat_snapshot(clique(4), 8), "sign", null_trials=20, bootstrap_iters=20)
        dropped.append(res.dropped_correlated)
    assert dropped[1] == dropped[0] == ()
