"""Frozen oracles: earlier, plainer versions of the library's hot loops,
kept as the reference their faster forms must match bit for bit.

Each oracle below is the straightforward loop that the library's version
replaced: one ``rng.integers`` call per bootstrap resample and one
``rng.random`` call per null trial, PageRank adding the dangling mass on
every iteration, the feature table read node by node from the anchor's
measures, IRLS evaluating the penalized log-likelihood of the current
coefficients at the top of every iteration, ``analyze`` reading each
labeled node's measures one cell at a time, and the L2 grid search fitting
a cold ``fit_logistic`` and scoring one ``auc_score`` per (L2, fold) cell.
The tests assert equality (``==`` or ``np.array_equal``), never closeness,
because the artifacts of a fixed seed are meant to stay byte-identical. The
one exception is the feature-table test's ``rel_change`` labels: they come
from ``conftest.reference_labels``, which sums strength edge by edge, so a
ratio may differ in its last bits and is compared at 1e-13 relative.
"""

import itertools
import json
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import structim.cli as cli
import structim.model as model_module
import structim.pipeline as pipeline
from structim import (
    L2_GRID,
    DataError,
    FeatureTable,
    LogisticModel,
    NumericalError,
    Snapshot,
    TemporalNetwork,
    apply_standardization,
    auc_score,
    bootstrap_auc_ci,
    build_features,
    build_horizon_tables,
    build_table,
    fit_logistic,
    forward_chain_folds,
    load_network,
    null_prior_predictor,
    oversample,
    pagerank,
    pool,
    snapshot_measures,
    standardize,
    synthetic_temporal,
    time_ordered_select,
)
from structim.features import FEATURE_COLUMNS, MEASURE_COLUMNS, TARGETS
from structim.model import _CHUNK_CELLS, SEPARATION_BOUND, _auc_groups, _auc_inputs, _trial_summaries
from structim.pipeline import _split_ends

from conftest import clique, cycle, path_graph, random_connected, reference_labels


def _stacked(rows, width):
    rows = iter(rows)
    step = max(1, _CHUNK_CELLS // max(width, 1))
    while chunk := list(itertools.islice(rows, step)):
        yield np.array(chunk)


# ------------------------------------------------------------ bootstrap oracle


def _bootstrap_oracle(model, table, iters, seed, alpha=0.05):
    """The CI, the skipped slots and the redrawn resamples, one draw per resample."""
    pos, scores = _auc_inputs(table.y.astype(int), model.predict_proba(table.X))
    levels, groups = np.unique(scores, return_inverse=True)
    rng = np.random.default_rng(seed)
    n = len(pos)
    skipped = redrawn = 0

    def resamples():
        nonlocal skipped, redrawn
        for _ in range(iters):
            for _attempt in range(11):
                idx = rng.integers(0, n, size=n)
                yb = pos[idx]
                if yb.min() != yb.max():
                    yield idx
                    break
                redrawn += 1
            else:
                skipped += 1

    samples = [auc for idx in _stacked(resamples(), n) for auc in _auc_groups(pos[idx], groups[idx], levels.size)]
    if not samples:
        return None, skipped, redrawn
    lo, hi = np.percentile(samples, [100 * alpha / 2.0, 100 * (1.0 - alpha / 2.0)])
    return (float(lo), float(hi)), skipped, redrawn


def _logistic(coef, intercept=0.0):
    coef = np.asarray(coef, dtype=float)
    return LogisticModel(
        feature_names=tuple(f"f{i}" for i in range(coef.size)), intercept=intercept, coef=coef,
        coef_se=np.zeros_like(coef), coef_pvalues=np.ones_like(coef), intercept_se=0.0, intercept_pvalue=1.0,
        l2=0.0, converged=True, n_iter=0, grad_norm=0.0, separation_warning=False,
    )


def _table(x, y):
    x = np.asarray(x, dtype=float)
    return FeatureTable(columns=tuple(f"f{i}" for i in range(x.shape[1])), X=x, node_ids=tuple(range(len(y))),
                        as_of=1, target="presence", y=np.asarray(y, dtype=float))


def _noisy_table(seed, n, p=1, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    y = (x[:, 0] + rng.normal(scale=noise, size=n) > 0).astype(float)
    return _table(x, y)


# (table, iterations): 2-4-row tables redraw often (a 2-row table skips a
# slot with probability 2^-11), and the iteration counts are not multiples of
# the block of _CHUNK_CELLS // n rows, so slots and redraw runs cross blocks.
_BOOTSTRAP_CASES = [
    (_table([[-1.0], [1.0]], [0, 1]), 1),
    (_table([[-1.0], [1.0]], [0, 1]), 4097),
    (_table([[-1.0], [1.0]], [1, 0]), 9000),
    (_table([[0.3], [-0.2], [0.9]], [1, 0, 1]), 5461),
    (_table([[0.1], [0.1], [0.4], [-0.5]], [0, 1, 1, 0]), 4099),
    (_noisy_table(3, 40), 1000),
    (_noisy_table(4, 509), 1000),
    (_noisy_table(5, 509), 333),
    (_noisy_table(6, 20000), 7),
]


def _check_bootstrap(table, iters, seed):
    """The CI and the skip warning both match the oracle's."""
    model = _logistic([1.5])
    expected, skipped, _ = _bootstrap_oracle(model, table, iters, seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert bootstrap_auc_ci(model, table, iters=iters, seed=seed) == expected
    assert [str(w.message) for w in caught] == (
        [f"bootstrap skipped {skipped} persistently single-class resamples"] if skipped else [])


@pytest.mark.parametrize("case", range(len(_BOOTSTRAP_CASES)))
@pytest.mark.parametrize("seed", [0, [11, 4]])
def test_bootstrap_matches_one_draw_per_resample(case, seed):
    _check_bootstrap(*_BOOTSTRAP_CASES[case], seed)


@pytest.mark.parametrize("cells", [3, 8, 24])
def test_bootstrap_does_not_depend_on_the_block_size(monkeypatch, cells):
    """Blocks of 1-12 rows put redraw runs, skipped slots among them, across
    block boundaries, where a slot's attempts must carry over."""
    monkeypatch.setattr(model_module, "_CHUNK_CELLS", cells)
    for case in (1, 2, 3, 4):
        _check_bootstrap(*_BOOTSTRAP_CASES[case], case)


def test_bootstrap_oracle_cases_cover_redraws_and_skips():
    counts = [_bootstrap_oracle(_logistic([1.5]), table, iters, seed)[1:]
              for table, iters in _BOOTSTRAP_CASES for seed in (0, [11, 4])]
    assert sum(skipped for skipped, _ in counts) >= 3
    assert sum(redrawn > 0 for _, redrawn in counts) >= 8


def test_bootstrap_single_class_table_still_fails_after_the_same_warning():
    table = _table([[0.1], [0.2], [0.3]], [1, 1, 1])
    assert _bootstrap_oracle(_logistic([1.0]), table, 6, 0)[:2] == (None, 6)
    with pytest.warns(UserWarning, match="bootstrap skipped 6 persistently"):
        with pytest.raises(NumericalError):
            bootstrap_auc_ci(_logistic([1.0]), table, iters=6, seed=0)


def test_bootstrap_rejects_an_empty_table():
    with pytest.raises(DataError, match="at least one row"):
        bootstrap_auc_ci(_logistic([1.0]), _table(np.empty((0, 1)), []), iters=3)


# ----------------------------------------------------------- null prior oracle


def _null_prior_oracle(train_y, test_y, trials, seed):
    train_y = np.asarray(train_y).astype(int)
    test_y = np.asarray(test_y).astype(int)
    pos = _auc_inputs(test_y)[0]
    prior = float(train_y.mean())
    rng = np.random.default_rng(seed)
    draws = ((rng.random(test_y.size) < prior).astype(int) for _ in range(trials))
    chunks = ((yhat, test_y, np.where(yhat.min(axis=1) != yhat.max(axis=1), _auc_groups(pos, yhat, 2), np.nan))
              for yhat in _stacked(draws, test_y.size))
    return {"kind": "prior_predictor", "prior": prior, "trials": trials, **_trial_summaries(chunks)}


@pytest.mark.parametrize("size,trials", [(1, 20), (7, 3000), (509, 100), (509, 101), (20000, 21)])
def test_null_prior_matches_one_draw_per_trial(size, trials):
    rng = np.random.default_rng(size)
    train_y = (rng.random(300) < 0.3).astype(int)
    test_y = (rng.random(size) < 0.4).astype(int)
    assert null_prior_predictor(train_y, test_y, trials=trials, seed=[size, 5]) == \
        _null_prior_oracle(train_y, test_y, trials, [size, 5])


# ------------------------------------------------------------- pagerank oracle


def _pagerank_oracle(snapshot, damping=0.85, tol=1e-10, max_iter=100000):
    n = snapshot.n_nodes
    a = snapshot.adjacency()
    out_s = a.sum(axis=1)
    dangling = out_s <= 0
    trans = np.zeros_like(a)
    nz = ~dangling
    trans[nz] = a[nz] / out_s[nz, None]
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = damping * (trans.T @ p + p[dangling].sum() / n) + (1.0 - damping) / n
        if np.abs(nxt - p).sum() <= tol:
            return nxt
        p = nxt
    raise AssertionError("oracle did not converge")


def _directed(n, arcs):
    return Snapshot(node_ids=tuple(range(n)), edges=tuple(arcs), directed=True)


def _random_directed(seed, n, dangling):
    """Arcs out of every node but the first ``dangling`` ones."""
    rng = np.random.default_rng(seed)
    arcs = {}
    for i in range(dangling, n):
        for j in rng.choice([k for k in range(n) if k != i], size=int(rng.integers(1, 4)), replace=False):
            arcs[(i, int(j))] = float(rng.uniform(0.5, 3.0))
    return _directed(n, [(i, j, w) for (i, j), w in sorted(arcs.items())])


_UNDIRECTED = [
    clique(5),
    cycle(9, w=2.5),
    path_graph(12),
    *(random_connected(np.random.default_rng(s), n) for s, n in ((1, 30), (2, 120), (3, 250))),
    # listed nodes without edges dangle in an undirected snapshot too
    Snapshot(node_ids=tuple(range(6)), edges=((0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5))),
]
_DIRECTED = [
    _directed(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)]),
    _directed(4, [(0, 1, 1.0), (0, 2, 3.0), (1, 2, 1.0)]),
    *(_random_directed(s, n, d) for s, n, d in ((4, 20, 0), (5, 20, 3), (6, 150, 10), (7, 150, 1))),
]


@pytest.mark.parametrize("damping", [0.85, 0.5])
@pytest.mark.parametrize("snap", range(len(_UNDIRECTED) + len(_DIRECTED)))
def test_pagerank_matches_the_dangling_term_on_every_iteration(snap, damping):
    s = (_UNDIRECTED + _DIRECTED)[snap]
    assert np.array_equal(pagerank(s, damping=damping), _pagerank_oracle(s, damping=damping))


def test_pagerank_oracle_cases_cover_dangling_and_none():
    dangling = [bool((s.adjacency().sum(axis=1) <= 0).any()) for s in _UNDIRECTED + _DIRECTED]
    assert dangling.count(True) >= 4 and dangling.count(False) >= 4


# ------------------------------------------------------ feature table oracle


def _feature_oracle(tn, t, keep=True, target=None, y=None):
    """The feature table read node by node from the anchor's own measures,
    with the prior appearances counted snapshot by snapshot."""
    measures = snapshot_measures(tn, t)
    ids = tn.snapshots[t].node_ids
    rows, x, new, undefined = [], [], 0, 0
    for k, v in enumerate(ids):
        prior = sum(v in s.node_ids for s in tn.snapshots[:t])
        values = [float(measures[name][tn.universe_index[v]]) for name in MEASURE_COLUMNS]
        if not prior:
            new += 1
        elif any(val != val for val in values):  # NaN: zero strength at t
            undefined += 1
        elif keep is True or keep[k]:
            rows.append(k)
            x.append(values + [float(prior)])
    return FeatureTable(
        columns=FEATURE_COLUMNS, X=np.array(x).reshape(len(rows), len(FEATURE_COLUMNS)),
        node_ids=tuple(ids[k] for k in rows), as_of=t, target=target, y=None if y is None else y[rows],
        meta={"skipped_new_nodes": new, "skipped_undefined": undefined},
    )


def _same_table(a, b, y_rtol=0.0):
    assert a.columns == b.columns and a.node_ids == b.node_ids and a.target == b.target and a.meta == b.meta
    assert np.array_equal(a.as_of, b.as_of)
    assert np.array_equal(a.X, b.X)
    if y_rtol:
        np.testing.assert_allclose(a.y, b.y, rtol=y_rtol, atol=0.0)
    else:
        assert (a.y is None and b.y is None) or np.array_equal(a.y, b.y)


def _intermittent_network(seed, n_universe=40, horizon=12):
    """Random snapshots over shuffled subsets of a shuffled universe: nodes
    leave and return, some after several snapshots, the middle snapshot has
    no edges, and snapshot 2 lists a node without edges."""
    rng = np.random.default_rng(seed)
    universe = tuple(f"v{k}" for k in rng.permutation(n_universe))
    snaps = []
    for t in range(horizon):
        size = int(rng.integers(6, n_universe // 2))
        ids = tuple(universe[k] for k in rng.choice(n_universe - 1, size=size, replace=False))
        if t == horizon // 2:
            snaps.append(Snapshot(node_ids=ids[:3], edges=(), timestamp=t))
            continue
        if t == 2:
            ids += (universe[-1],)
        snaps.append(Snapshot(node_ids=ids, edges=random_connected(rng, size).edges, timestamp=t))
    return TemporalNetwork(snapshots=tuple(snaps), universe=universe)


_NETWORKS = [
    lambda: synthetic_temporal(40, 2, 2, -2.0, 9, seed=3),
    lambda: synthetic_temporal(60, 3, 3, -1.0, 8, seed=8),
    lambda: _intermittent_network(1),
    lambda: _intermittent_network(2, n_universe=25, horizon=15),
]


@pytest.mark.parametrize("net", range(len(_NETWORKS)))
def test_build_table_matches_the_anchor_measures_at_every_anchor(net):
    tn = _NETWORKS[net]()
    for t in range(1, tn.n_snapshots - 1):
        ids = tn.snapshots[t].node_ids
        for target in TARGETS:
            labels = reference_labels(tn, t, target)
            keep = np.array([v in labels for v in ids], dtype=bool)
            y = np.array([labels.get(v, 0.0) for v in ids], dtype=float)
            # the reference sums strength edge by edge, so a ratio may differ in its last bits
            _same_table(build_table(tn, t, target), _feature_oracle(tn, t, keep, target, y),
                        y_rtol=1e-13 if target == "rel_change" else 0.0)
    for t in range(1, tn.n_snapshots):
        _same_table(build_features(tn, t), _feature_oracle(tn, t))


def test_feature_history_networks_have_gaps_and_an_empty_snapshot():
    tn = _intermittent_network(1)
    presence = tn.presence_matrix()
    assert any(s.n_edges == 0 for s in tn.snapshots)
    # some node is absent for two or more snapshots between appearances
    gaps = [np.diff(np.flatnonzero(col)) for col in presence.T if col.sum() >= 2]
    assert max(int(g.max()) for g in gaps) >= 3
    # and some seen node is present with zero strength at an anchor
    assert any(build_features(tn, t).meta["skipped_undefined"] for t in range(1, tn.n_snapshots))


# ---------------------------------------------------------- analyze oracle


def _analyze_oracle(tn):
    """measures.csv rows and the measure groups by next-snapshot presence, one
    labeled node and one measure at a time, NaN cells skipped."""
    rows, by_measure = [], {name: {0: [], 1: []} for name in MEASURE_COLUMNS}
    for t in range(tn.n_snapshots - 1):
        labels = reference_labels(tn, t, "presence")
        if not labels:
            continue
        measures = snapshot_measures(tn, t)
        for node, present in labels.items():
            g = tn.universe_index[node]
            for name in MEASURE_COLUMNS:
                val = measures[name][g]
                if val == val:  # skip NaN
                    rows.append([t, node, name, repr(float(val)), present])
                    by_measure[name][present].append(float(val))
    return rows, by_measure


@pytest.mark.parametrize("net", [0, 2])
def test_analyze_matches_the_per_node_loop(net, tmp_path, monkeypatch):
    path = tmp_path / "net.json"
    path.write_text(_NETWORKS[net]().to_json())
    rows, by_measure = _analyze_oracle(load_network(str(path)))
    groups = []
    ttests = cli._ttests
    monkeypatch.setattr(cli, "_ttests", lambda meta, by: groups.append(by) or ttests(meta, by))
    out = tmp_path / "out"
    assert cli.main(["analyze", str(path), "--out", str(out)]) == 0

    assert (out / "measures.csv").read_bytes().decode() == cli._csv_text(
        ["snapshot", "node", "measure", "value", "next_present"], rows)
    assert {name: {p: g.tolist() for p, g in by.items()} for name, by in groups[0].items()} == by_measure
    written = json.loads((out / "ttests.json").read_text())
    assert written == json.loads(cli._json_text(ttests(written["meta"], by_measure)))
    for name in MEASURE_COLUMNS:
        assert (out / f"violin_{name}.svg").read_text() == cli.violin_chart(
            [("absent next", by_measure[name][0]), ("present next", by_measure[name][1])],
            title=f"{name} by next-snapshot presence", ylabel=name)


# -------------------------------------------------------- fit_logistic oracle


def _fit_oracle(table, l2=1.0, max_iter=500, tol=1e-8):
    """(beta, converged, n_iter, grad_norm, separation, halvings), the log-
    likelihood of the current beta evaluated at the top of every iteration.
    It reads ``expit`` and ``_penalized_ll`` from the model module, as
    fit_logistic does, so it pins the loop's structure, not the sigmoid."""
    y = table.y.astype(float)
    n, p = table.X.shape
    design = np.hstack([np.ones((n, 1)), table.X])
    ridge = np.diag([0.0] + [l2] * p)
    beta = np.zeros(p + 1)
    separation = converged = False
    grad_norm = np.inf
    it = halvings = 0
    for it in range(1, max_iter + 1):
        eta = design @ beta
        prob = model_module.expit(eta)
        grad = design.T @ (y - prob) - ridge @ beta
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= tol:
            converged = True
            break
        w = prob * (1.0 - prob)
        hess = design.T @ (design * w[:, None]) + ridge
        step = np.linalg.solve(hess + 1e-12 * np.eye(p + 1), grad)
        current = model_module._penalized_ll(design, y, beta, l2)
        scale = 1.0
        for _ in range(30):
            candidate = beta + scale * step
            if model_module._penalized_ll(design, y, candidate, l2) >= current - 1e-12:
                break
            scale *= 0.5
            halvings += 1
        beta = beta + scale * step
        if np.max(np.abs(beta)) > SEPARATION_BOUND:
            beta = np.clip(beta, -SEPARATION_BOUND, SEPARATION_BOUND)
            separation = True
            break
    return beta, converged, it, grad_norm, separation, halvings


def _check_fit(table, l2, **kwargs):
    beta, converged, n_iter, grad_norm, separation, halvings = _fit_oracle(table, l2, **kwargs)
    fit = fit_logistic(table, l2=l2, **kwargs)
    assert fit.intercept == beta[0]
    assert np.array_equal(fit.coef, beta[1:])
    assert (fit.converged, fit.n_iter, fit.grad_norm, fit.separation_warning) == \
        (converged, n_iter, grad_norm, separation)
    return halvings


def _halving_table():
    """A small noisy table on which a full Newton step lowers the likelihood."""
    rng = np.random.default_rng(117)
    n, p = int(rng.integers(8, 40)), int(rng.integers(1, 4))
    x = rng.normal(size=(n, p)) * rng.choice([1.0, 5.0, 20.0])
    y = (x[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(float)
    return _table(x, y)


@pytest.mark.parametrize("l2", [0.0, 0.01, 1.0, 10.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_logistic_matches_the_recomputed_likelihood(seed, l2):
    _check_fit(_noisy_table(seed, 200, p=4, noise=2.0), l2)


def test_fit_logistic_matches_through_a_line_search_halving():
    assert _check_fit(_halving_table(), 0.01) >= 1


def test_fit_logistic_matches_on_separation():
    table = _table([[-2.0], [-1.0], [-0.5], [0.5], [1.0], [2.0]], [0, 0, 0, 1, 1, 1])
    _check_fit(table, 0.0)
    assert fit_logistic(table, l2=0.0).separation_warning


def test_fit_logistic_matches_after_thirty_halvings(monkeypatch):
    """With every nonzero beta scored -inf, the first line search halves 30
    times without accepting, so its likelihood is recomputed; then every
    candidate ties with -inf and is accepted."""
    real = model_module._penalized_ll
    monkeypatch.setattr(model_module, "_penalized_ll",
                        lambda design, y, beta, l2: real(design, y, beta, l2) if not beta.any() else -np.inf)
    assert _check_fit(_noisy_table(7, 100, p=2), 1.0) == 30


def test_fit_logistic_nonconvergence_matches():
    table = _noisy_table(8, 100, p=2)
    assert not _fit_oracle(table, 1.0, max_iter=2)[1]
    with pytest.raises(NumericalError, match="did not converge: 2 iterations"):
        fit_logistic(table, l2=1.0, max_iter=2)


# ------------------------------------------------------------- L2 grid oracle


def _select_oracle(table, l2_grid, seed=0):
    """(chosen_l2, cv_auc_by_l2) with a cold ``fit_logistic`` and one
    ``auc_score`` per (L2, fold) cell, the loop that the warm-started path
    replaced."""
    _, i2 = _split_ends(table.n_rows)
    folds = []
    for k, (tr, va) in enumerate(forward_chain_folds(i2)):
        y_tr, y_va = table.y[tr], table.y[va]
        if y_tr.min() == y_tr.max() or y_va.min() == y_va.max():
            continue
        train_std, constants = standardize(table.select_rows(tr))
        val_std = apply_standardization(constants, table.select_rows(va))
        folds.append((oversample(train_std, seed=[seed, 2, k]), val_std))
    if not folds:
        raise DataError("every forward-chaining fold was single-class")
    cv_means = {}
    best_l2 = None
    best_mean = -np.inf
    for l2 in sorted(set(float(v) for v in l2_grid)):
        fold_aucs = [auc_score(val.y, fit_logistic(train, l2=l2).predict_proba(val.X)) for train, val in folds]
        mean_auc = float(np.mean(fold_aucs))
        cv_means[l2] = mean_auc
        if mean_auc > best_mean:
            best_mean = mean_auc
            best_l2 = l2
    return best_l2, cv_means


def _check_select(table, l2_grid, seed=0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # near-constant columns dropped per fold
        try:
            expected = _select_oracle(table, l2_grid, seed)
        except DataError:
            with pytest.raises(DataError):
                time_ordered_select(table, l2_grid=l2_grid, seed=seed)
            return False
        assert time_ordered_select(table, l2_grid=l2_grid, seed=seed) == expected
    return True


@pytest.mark.parametrize("grid", [L2_GRID, (1.0, 0.01, 10.0, 0.1, 1.0)], ids=["default", "unsorted-duplicate"])
@pytest.mark.parametrize("net", range(len(_NETWORKS)))
def test_time_ordered_select_matches_a_cold_fit_per_cell(net, grid):
    tn = _NETWORKS[net]()
    scored = [_check_select(pool(build_horizon_tables(tn, target)), grid, seed=net)
              for target in ("presence", "change", "sign")]
    assert any(scored)


def _separable_pool(seed, anchors=6, rows=12, p=2):
    """A pooled table in time order whose label is the sign of column 0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(anchors * rows, p))
    return FeatureTable(columns=tuple(f"f{i}" for i in range(p)), X=x, node_ids=tuple(range(len(x))),
                        as_of=np.repeat(np.arange(1, anchors + 1), rows), target="presence",
                        y=(x[:, 0] > 0).astype(float))


def test_time_ordered_select_matches_after_a_separated_fit(monkeypatch):
    """An unpenalized fit separates; the next grid value starts from zero,
    and every other value from the previous value's coefficients."""
    grid = (0.0, 0.01, 1.0)
    calls = []

    def recording(design, y, l2, beta, *args):
        out = model_module._irls(design, y, l2, beta, *args)
        calls.append((beta, out[0], out[4]))
        return out

    monkeypatch.setattr(pipeline, "_irls", recording)
    assert _check_select(_separable_pool(4), grid)
    assert any(separated for *_, separated in calls)
    for k, (start, _, _) in enumerate(calls):
        if k % len(grid) == 0 or calls[k - 1][2]:
            assert not start.any()
        else:
            assert np.array_equal(start, calls[k - 1][1])


# path neighbours on the default grid, in both directions
_NEIGHBOURS = list(zip(L2_GRID, L2_GRID[1:])) + list(zip(L2_GRID[1:], L2_GRID))


@given(st.integers(0, 2**32 - 1), st.integers(30, 120), st.integers(1, 4), st.sampled_from(_NEIGHBOURS))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_a_warm_start_converges_to_the_cold_validation_auc(seed, n, p, neighbours):
    """From zero or from a neighbouring L2's solution, the IRLS core ends
    within its gradient tolerance and ranks held-out rows the same way."""
    previous, l2 = neighbours
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n + 40, p))
    y = (x[:, 0] + rng.normal(size=n + 40) > 0).astype(float)
    assume(0 < y[:n].sum() < n and 0 < y[n:].sum() < 40)
    design = model_module._with_intercept(x[:n])
    start, *_, start_separated = model_module._irls(design, y[:n], previous, np.zeros(p + 1))
    cold = model_module._irls(design, y[:n], l2, np.zeros(p + 1))
    warm = model_module._irls(design, y[:n], l2, start)
    assume(not (start_separated or cold[4] or warm[4]))
    aucs = []
    for beta, converged, _, grad_norm, _ in (cold, warm):
        assert converged and grad_norm <= 1e-8
        aucs.append(auc_score(y[n:], model_module.expit(float(beta[0]) + x[n:] @ beta[1:])))
    assert aucs[0] == aucs[1]
