"""Feature extraction, labeling, and correlation pruning."""

import numpy as np
import pytest

from structim import (
    FEATURE_COLUMNS,
    MEASURE_COLUMNS,
    DataError,
    FeatureTable,
    Snapshot,
    build_features,
    build_table,
    detect_communities,
    eig_sym,
    label_change,
    label_presence,
    label_rel_change,
    label_sign,
    prune_correlated,
    snapshot_measures,
    synthetic_temporal,
)

from conftest import clique, network_from


def _snap(node_ids, edges, timestamp=0):
    return Snapshot(node_ids=tuple(node_ids), edges=tuple(edges), directed=False,
                    timestamp=timestamp)


def test_feature_columns():
    # mc (identically zero) is measured and reported but not a feature
    assert FEATURE_COLUMNS == tuple(c for c in MEASURE_COLUMNS if c != "mc") + ("presence_count",)
    for name in ("ma", "mb", "mc", "md", "eig_centrality", "pagerank", "degree",
                 "community_size"):
        assert name in MEASURE_COLUMNS


def test_snapshot_measures_alignment():
    # universe {0..4}; snapshot 0 covers only 0,1,2
    tn = network_from([
        clique(3, timestamp=0),
        clique(3, timestamp=1, node_ids=(2, 3, 4)),
    ])
    out = snapshot_measures(tn, 0)
    assert set(out) == set(MEASURE_COLUMNS)
    for name, vals in out.items():
        assert vals.shape == (5,)
        assert not np.isnan(vals[:3]).any(), name
        assert np.isnan(vals[3:]).all(), name
    # triangle closed forms
    assert np.allclose(out["ma"][:3], 2.0 / 3.0)
    assert np.allclose(out["degree"][:3], 2.0)
    assert np.allclose(out["pagerank"][:3], 1.0 / 3.0)
    assert np.allclose(out["eig_centrality"][:3], 1.0 / np.sqrt(3.0))
    assert np.allclose(out["community_size"][:3], 3.0)
    assert np.allclose(out["mc"][:3], 0.0, atol=1e-12)


def test_snapshot_measures_empty_snapshot():
    tn = network_from([clique(3, timestamp=0), _snap((0, 1, 2), [], timestamp=1)])
    out = snapshot_measures(tn, 1)
    for vals in out.values():
        assert np.isnan(vals).all()


def test_snapshot_measures_reuses_given_spectrum_and_communities():
    tn = synthetic_temporal(40, 2, 2, -2.0, 4, seed=3)
    absent = 0
    for t, s in enumerate(tn.snapshots):
        given = snapshot_measures(tn, t, spectrum=eig_sym(s.adjacency()), communities=detect_communities(s))
        own = snapshot_measures(tn, t)
        assert set(given) == set(own)
        for name in own:
            assert np.array_equal(given[name], own[name], equal_nan=True), name
        absent += int(np.isnan(own["ma"]).sum())
    assert absent > 0  # NaN positions are compared too


def test_static_network_repeats_single_snapshot_values():
    base = clique(4)
    tn = network_from([
        Snapshot(node_ids=base.node_ids, edges=base.edges, directed=False, timestamp=t)
        for t in range(4)
    ])
    table = build_features(tn, 3)
    assert table.n_rows == 4
    single = snapshot_measures(tn, 0)
    assert table.columns == FEATURE_COLUMNS
    for name in FEATURE_COLUMNS[:-1]:
        assert np.allclose(table.column(name), single[name][:4])
    assert np.array_equal(table.column("presence_count"), np.full(4, 3.0))
    assert table.meta["skipped_new_nodes"] == 0
    assert table.meta["skipped_undefined"] == 0


def test_new_nodes_skipped_and_counted():
    tn = network_from([
        clique(3, timestamp=0),
        clique(4, timestamp=1),  # node 3 first appears here
    ])
    table = build_features(tn, 1)
    assert table.node_ids == (0, 1, 2)
    assert table.meta["skipped_new_nodes"] == 1


def test_presence_masked_mean():
    # node 3 joins at snapshot 1; at t=2 its history covers snapshot 1 only
    tn = network_from([
        clique(3, timestamp=0),   # degree 2 for 0,1,2
        clique(4, timestamp=1),   # degree 3 for all
        clique(4, timestamp=2),
    ])
    table = build_features(tn, 2)
    deg = dict(zip(table.node_ids, table.column("degree")))
    cnt = dict(zip(table.node_ids, table.column("presence_count")))
    assert deg[0] == pytest.approx(2.5)   # mean of 2 and 3
    assert deg[3] == pytest.approx(3.0)   # snapshot 0 masked out, not zero-filled
    assert cnt[0] == 2.0
    assert cnt[3] == 1.0


def test_features_ignore_future_snapshots():
    shared = [clique(3, timestamp=0), clique(3, timestamp=1)]
    fut_a = _snap((0, 1, 2), [(0, 1, 9.0)], timestamp=2)
    fut_b = _snap((0, 1, 2), [(1, 2, 0.1), (0, 2, 5.0)], timestamp=2)
    ta = build_features(network_from(shared + [fut_a]), 1)
    tb = build_features(network_from(shared + [fut_b]), 1)
    assert ta.node_ids == tb.node_ids
    assert np.array_equal(ta.X, tb.X)


def test_build_features_anchor_validation():
    tn = network_from([clique(3, timestamp=0), clique(3, timestamp=1)])
    with pytest.raises(ValueError):
        build_features(tn, 0)
    with pytest.raises(ValueError):
        build_features(tn, 2)


def test_measures_cache_reused():
    tn = network_from([clique(3, timestamp=t) for t in range(3)])
    cache = {}
    build_features(tn, 1, measures_cache=cache)
    assert set(cache) == {0}
    build_features(tn, 2, measures_cache=cache)
    assert set(cache) == {0, 1}


def test_label_presence():
    tn = network_from([
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 2.0)], timestamp=0),
        _snap((0, 1, 2, 3, 4), [(0, 1, 1.0), (2, 4, 1.0)], timestamp=1),
    ])
    labels = label_presence(tn, 0)
    # node 3 is listed at t+1 but carries no edge there
    assert labels == {0: 1, 1: 1, 2: 1, 3: 0}


def test_label_change_threshold_is_strict():
    tn = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 1.25)], timestamp=1),
    ])
    # relative change is exactly 0.25 for both endpoints
    assert label_change(tn, 0, threshold=0.25) == {0: 0, 1: 0}
    assert label_change(tn, 0, threshold=0.2) == {0: 1, 1: 1}
    # decreases count through the absolute value
    tn_down = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 0.5)], timestamp=1),
    ])
    assert label_change(tn_down, 0, threshold=0.25) == {0: 1, 1: 1}


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf"), float("-inf")])
def test_label_change_rejects_non_finite_or_negative_threshold(threshold):
    tn = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 1.25)], timestamp=1),
    ])
    with pytest.raises(ValueError, match="change_threshold must be finite and nonnegative"):
        label_change(tn, 0, threshold=threshold)


def test_label_sign_drops_ties():
    tn = network_from([
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 2.0)], timestamp=0),
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 1.0)], timestamp=1),
    ])
    labels = label_sign(tn, 0)
    assert labels == {2: 0, 3: 0}  # 0 and 1 tied, dropped
    tn_up = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 2.0)], timestamp=1),
    ])
    assert label_sign(tn_up, 0) == {0: 1, 1: 1}


def test_label_rel_change_values():
    tn = network_from([
        _snap((0, 1, 2), [(0, 1, 1.0), (1, 2, 1.0)], timestamp=0),
        _snap((0, 1, 2), [(0, 1, 1.25), (1, 2, 0.75)], timestamp=1),
    ])
    labels = label_rel_change(tn, 0)
    assert labels[0] == pytest.approx(0.25)
    assert labels[1] == pytest.approx(0.0)
    assert labels[2] == pytest.approx(-0.25)


def test_label_requires_next_snapshot():
    tn = network_from([clique(3, timestamp=0), clique(3, timestamp=1)])
    for fn in (label_presence, label_sign, label_rel_change):
        with pytest.raises(ValueError):
            fn(tn, 1)
        with pytest.raises(ValueError):
            fn(tn, -1)


def test_build_table_attaches_target():
    tn = network_from([
        clique(3, timestamp=0),
        clique(3, timestamp=1),
        _snap((0, 1, 2), [(0, 1, 2.0)], timestamp=2),  # node 2 drops out
    ])
    table = build_table(tn, 1, "presence")
    assert table.target == "presence"
    assert table.node_ids == (0, 1, 2)
    assert table.y.dtype == np.float64
    assert list(table.y) == [1.0, 1.0, 0.0]


def test_build_table_restricts_rows_to_labeled_nodes():
    tn = network_from([
        clique(3, timestamp=0),
        clique(3, timestamp=1),
        _snap((0, 1, 2), [(0, 1, 2.0)], timestamp=2),
    ])
    # change/sign are undefined for node 2 (absent from t+1), so it is dropped
    table = build_table(tn, 1, "sign")
    assert 2 not in table.node_ids
    assert set(table.node_ids) <= {0, 1}


def test_build_table_rejects_unknown_target():
    tn = network_from([clique(3, timestamp=t) for t in range(3)])
    with pytest.raises(ValueError, match="unknown target"):
        build_table(tn, 1, "strength")


def _manual_table(columns, x, y=None):
    x = np.asarray(x, dtype=float)
    return FeatureTable(columns=tuple(columns), X=x,
                        node_ids=tuple(range(x.shape[0])), as_of=1,
                        target=None if y is None else "presence",
                        y=None if y is None else np.asarray(y, dtype=float))


def test_prune_correlated_drops_duplicate_by_priority():
    rng = np.random.default_rng(42)
    base = rng.normal(size=30)
    other = rng.normal(size=30)
    # degree duplicates mb exactly; priority says drop degree first
    table = _manual_table(("mb", "degree", "mc"),
                          np.column_stack([base, base * 2.0 + 1.0, other]))
    reduced, dropped = prune_correlated(table, threshold=0.8)
    assert dropped == ["degree"]
    assert reduced.columns == ("mb", "mc")
    assert np.array_equal(reduced.column("mb"), base)


def test_prune_correlated_respects_threshold():
    rng = np.random.default_rng(7)
    a = rng.normal(size=200)
    b = a + rng.normal(scale=1.0, size=200)  # correlated but not extreme
    from structim import pearson
    r = abs(pearson(a, b))
    table = _manual_table(("ma", "mb"), np.column_stack([a, b]))
    _, dropped_hi = prune_correlated(table, threshold=min(0.99, r + 0.01))
    assert dropped_hi == []
    _, dropped_lo = prune_correlated(table, threshold=max(0.01, r - 0.01))
    assert len(dropped_lo) == 1


def test_prune_correlated_keeps_constant_columns():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20)
    table = _manual_table(("ma", "presence_count"),
                          np.column_stack([a, np.full(20, 5.0)]))
    reduced, dropped = prune_correlated(table, threshold=0.5)
    assert dropped == []
    assert reduced.columns == ("ma", "presence_count")


def test_prune_correlated_validation():
    table = _manual_table(("ma", "mb"), np.ones((1, 2)))
    with pytest.raises(DataError):
        prune_correlated(table)
    ok = _manual_table(("ma", "mb"), np.random.default_rng(0).normal(size=(5, 2)))
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            prune_correlated(ok, threshold=bad)


def test_select_columns_and_rows_preserve_labels():
    table = _manual_table(("ma", "mb", "mc"),
                          np.arange(12.0).reshape(4, 3), y=[1, 0, 1, 0])
    cols = table.select_columns(("mc", "ma"))
    assert cols.columns == ("mc", "ma")
    assert np.array_equal(cols.X[:, 0], table.column("mc"))
    assert np.array_equal(cols.y, table.y)
    rows = table.select_rows([True, False, True, False])
    assert rows.node_ids == (0, 2)
    assert np.array_equal(rows.y, np.array([1.0, 1.0]))
