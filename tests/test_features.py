"""Feature extraction, labeling, and correlation pruning."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import (
    FEATURE_COLUMNS,
    MEASURE_COLUMNS,
    TARGETS,
    DataError,
    FeatureTable,
    Snapshot,
    TemporalNetwork,
    build_features,
    build_horizon_tables,
    build_table,
    detect_communities,
    eig_sym,
    prune_correlated,
    snapshot_measures,
    synthetic_temporal,
)

from structim.features import CHANGE_THRESHOLD, _labels

from conftest import clique, directed_triangles, network_from, reference_labels


def _snap(node_ids, edges, timestamp=0):
    return Snapshot(node_ids=tuple(node_ids), edges=tuple(edges), directed=False,
                    timestamp=timestamp)


def test_feature_columns():
    # mc (identically zero) is no measure column; importance --scheme mc reports it
    assert FEATURE_COLUMNS == MEASURE_COLUMNS + ("presence_count",)
    assert MEASURE_COLUMNS == ("ma", "mb", "md", "eig_centrality", "pagerank", "degree",
                               "community_size")


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
        listed = snapshot_measures(tn, t, communities=detect_communities(s).tolist())  # read as an array
        own = snapshot_measures(tn, t)
        assert set(given) == set(listed) == set(own)
        for name in own:
            assert np.array_equal(given[name], own[name], equal_nan=True), name
            assert np.array_equal(listed[name], own[name], equal_nan=True), name
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
    # node 3 joins at snapshot 1: at t=2 it counts one prior appearance, and
    # every measure is read from snapshot 2 alone, not from the earlier ones
    tn = network_from([
        clique(3, timestamp=0),   # degree 2 for 0,1,2
        clique(4, timestamp=1),   # degree 3 for 0..3
        clique(5, timestamp=2),   # degree 4 for 0..4; node 4 is new
    ])
    table = build_features(tn, 2)
    assert table.node_ids == (0, 1, 2, 3)
    deg = dict(zip(table.node_ids, table.column("degree")))
    cnt = dict(zip(table.node_ids, table.column("presence_count")))
    assert deg[0] == deg[3] == 4.0
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


def _scaled(tn, times, factor):
    """tn with every weight of the snapshots at ``times`` multiplied by ``factor``."""
    return TemporalNetwork(snapshots=tuple(
        Snapshot(node_ids=s.node_ids, edges=tuple((i, j, factor * w) for i, j, w in s.edges), timestamp=s.timestamp)
        if u in times else s
        for u, s in enumerate(tn.snapshots)), universe=tn.universe)


@pytest.mark.parametrize("t", [1, 3, 6])
def test_features_are_read_from_the_anchor_snapshot_alone(t):
    tn = synthetic_temporal(40, 2, 2, -2.0, 8, seed=3)
    base = build_table(tn, t, "rel_change")
    # the node sets of 0..t-1 stay, so the presence counts stay too
    past = build_table(_scaled(tn, range(t), 3.0), t, "rel_change")
    assert past.node_ids == base.node_ids and past.meta == base.meta
    assert np.array_equal(past.X, base.X) and np.array_equal(past.y, base.y)
    following = build_table(_scaled(tn, {t + 1}, 3.0), t, "rel_change")
    assert following.node_ids == base.node_ids and np.array_equal(following.X, base.X)
    assert not np.array_equal(following.y, base.y)


def test_build_features_anchor_validation():
    tn = network_from([clique(3, timestamp=0), clique(3, timestamp=1)])
    with pytest.raises(ValueError):
        build_features(tn, 0)
    with pytest.raises(ValueError):
        build_features(tn, 2)


def test_snapshot_measures_once_per_snapshot(monkeypatch):
    import structim.features as features

    calls = []
    measure = features.snapshot_measures
    monkeypatch.setattr(features, "snapshot_measures", lambda tn, t: calls.append(t) or measure(tn, t))
    tn = network_from([clique(3 + t % 2, timestamp=t) for t in range(6)])
    table = build_horizon_tables(tn, "presence")
    assert sorted(set(table.as_of)) == [1, 2, 3, 4]
    # each anchor is measured once, and no earlier snapshot is
    assert calls == [1, 2, 3, 4]
    # no measure is kept on the network
    assert "_history" not in vars(tn) and "_measures" not in vars(tn)


def test_directed_network_is_a_data_error_before_any_decomposition(monkeypatch):
    import structim.features as features

    monkeypatch.setattr(features, "eig_sym", lambda a: pytest.fail("decomposed a directed adjacency"))
    tn = directed_triangles()
    with pytest.raises(DataError, match="undirected networks only"):
        snapshot_measures(tn, 0)
    with pytest.raises(DataError, match="undirected networks only"):
        build_features(tn, 1)


def test_label_presence():
    tn = network_from([
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 2.0)], timestamp=0),
        _snap((0, 1, 2, 3, 4), [(0, 1, 1.0), (2, 4, 1.0)], timestamp=1),
    ])
    keep, y = _labels(tn, 0, "presence", CHANGE_THRESHOLD)
    # node 3 is listed at t+1 but carries no edge there
    assert keep.tolist() == [True] * 4 and y.tolist() == [1.0, 1.0, 1.0, 0.0]


def test_label_change_threshold_is_strict():
    tn = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 1.25)], timestamp=1),
    ])
    # relative change is exactly 0.25 for both endpoints
    for threshold, label in ((0.25, 0.0), (0.2, 1.0)):
        keep, y = _labels(tn, 0, "change", threshold)
        assert keep.tolist() == [True, True] and y.tolist() == [label, label]
    # decreases count through the absolute value
    tn_down = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 0.5)], timestamp=1),
    ])
    keep, y = _labels(tn_down, 0, "change", 0.25)
    assert keep.tolist() == [True, True] and y.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf"), float("-inf")])
def test_label_change_rejects_non_finite_or_negative_threshold(threshold):
    tn = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 1.25)], timestamp=1),
    ])
    message = f"change_threshold must be a real number in [0, inf), got {threshold!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _labels(tn, 0, "change", threshold)


def test_label_sign_drops_ties():
    tn = network_from([
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 2.0)], timestamp=0),
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 1.0)], timestamp=1),
    ])
    keep, y = _labels(tn, 0, "sign", CHANGE_THRESHOLD)
    assert keep.tolist() == [False, False, True, True]  # 0 and 1 tied, dropped
    assert y[keep].tolist() == [0.0, 0.0]
    tn_up = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 2.0)], timestamp=1),
    ])
    keep, y = _labels(tn_up, 0, "sign", CHANGE_THRESHOLD)
    assert keep.tolist() == [True, True] and y.tolist() == [1.0, 1.0]


def test_label_rel_change_values():
    tn = network_from([
        _snap((0, 1, 2), [(0, 1, 1.0), (1, 2, 1.0)], timestamp=0),
        _snap((0, 1, 2), [(0, 1, 1.25), (1, 2, 0.75)], timestamp=1),
    ])
    keep, y = _labels(tn, 0, "rel_change", CHANGE_THRESHOLD)
    assert keep.tolist() == [True] * 3
    assert y.tolist() == pytest.approx([0.25, 0.0, -0.25])


def test_label_requires_next_snapshot():
    tn = network_from([clique(3, timestamp=0), clique(3, timestamp=1)])
    for target in TARGETS:
        with pytest.raises(ValueError):
            _labels(tn, 1, target, CHANGE_THRESHOLD)
        with pytest.raises(ValueError):
            _labels(tn, -1, target, CHANGE_THRESHOLD)


def test_build_table_attaches_target():
    tn = network_from([
        clique(3, timestamp=0),
        clique(3, timestamp=1),
        _snap((0, 1, 2), [(0, 1, 2.0)], timestamp=2),  # node 2 drops out
    ])
    table = build_table(tn, 1, "presence")
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


@pytest.mark.parametrize("target", TARGETS)
def test_change_threshold_is_checked_for_every_target(target):
    # only "change" once checked it, while run_prediction checked it for all
    tn = network_from([clique(3, timestamp=t) for t in range(3)])
    with pytest.raises(ValueError, match=re.escape("change_threshold must be a real number in [0, inf), got -1.0")):
        build_table(tn, 1, target, change_threshold=-1.0)
    with pytest.raises(ValueError, match=re.escape("change_threshold must be a real number in [0, inf), got nan")):
        _labels(tn, 1, target, float("nan"))


def test_build_table_rejects_unknown_target():
    tn = network_from([clique(3, timestamp=t) for t in range(3)])
    with pytest.raises(ValueError, match="unknown target"):
        build_table(tn, 1, "strength")


# Per-node reference of the labels and feature rows, written from the rules
# in README, on networks whose snapshots list their nodes in another order
# than the universe, with listed zero-strength nodes, nodes absent at t+1 and
# (weights being small dyadic numbers, so every strength is exact) ties.

_IDS = tuple(f"n{k}" for k in range(7))
_WEIGHTS = (1.0, 2.0)


@st.composite
def _networks(draw):
    universe = tuple(draw(st.permutations(_IDS)))[: draw(st.integers(2, len(_IDS)))]
    snapshots = []
    for t in range(draw(st.integers(3, 5))):
        nodes = tuple(draw(st.permutations(universe)))[: draw(st.integers(0, len(universe)))]
        pairs = [(i, j) for i in range(len(nodes)) for j in range(i + 1, len(nodes))]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=5)) if pairs else []
        edges = tuple((i, j, draw(st.sampled_from(_WEIGHTS))) for i, j in sorted(chosen))
        snapshots.append(Snapshot(node_ids=nodes, edges=edges, timestamp=t))
    return TemporalNetwork(snapshots=tuple(snapshots), universe=universe)


def _reference_rows(tn, t):
    """{node: (degree at t, prior appearances)} for the featurizable nodes
    of snapshot t, in its order, and the two skip counts."""
    rows, new, undefined = {}, 0, 0
    s = tn.snapshots[t]
    for v in s.node_ids:
        prior = sum(v in p.node_ids for p in tn.snapshots[:t])
        degree = sum(s.node_ids[k] == v for e in s.edges for k in e[:2])
        if not prior:
            new += 1
        elif not degree:
            undefined += 1
        else:
            rows[v] = (float(degree), float(prior))
    return rows, {"skipped_new_nodes": new, "skipped_undefined": undefined}


@settings(derandomize=True, max_examples=120, deadline=None)
@given(tn=_networks(), threshold=st.sampled_from((0.0, 0.05, 0.25, 0.5, 1.0)))
def test_labels_and_tables_follow_the_per_node_rules(tn, threshold):
    for t in range(tn.n_snapshots - 1):
        if t:
            rows, meta = _reference_rows(tn, t)
            features = build_features(tn, t)
            assert features.node_ids == tuple(rows) and features.meta == meta
        for target in TARGETS:
            expected = reference_labels(tn, t, target, threshold)
            keep, y = _labels(tn, t, target, threshold)
            node_ids = tn.snapshots[t].node_ids
            assert [node_ids[k] for k in np.flatnonzero(keep)] == list(expected)
            assert y.dtype == np.float64 and y[keep].tolist() == list(expected.values())
            if not t:
                continue
            table = build_table(tn, t, target, change_threshold=threshold)
            ids = tuple(v for v in rows if v in expected)
            assert table.node_ids == ids and table.meta == meta
            assert table.y.dtype == np.float64 and table.y.tolist() == [expected[v] for v in ids]
            assert table.column("degree").tolist() == [rows[v][0] for v in ids]
            assert table.column("presence_count").tolist() == [rows[v][1] for v in ids]
            assert np.array_equal(table.X, features.X[[features.node_ids.index(v) for v in ids]])


def _manual_table(columns, x, y=None):
    x = np.asarray(x, dtype=float)
    return FeatureTable(columns=tuple(columns), X=x,
                        node_ids=tuple(range(x.shape[0])), as_of=1,
                        y=None if y is None else np.asarray(y, dtype=float))


def test_prune_correlated_drops_duplicate_by_priority():
    rng = np.random.default_rng(42)
    base = rng.normal(size=30)
    other = rng.normal(size=30)
    # pagerank and degree duplicate mb exactly; priority says drop degree
    # first, then pagerank, and the names come in that order
    table = _manual_table(("mb", "pagerank", "degree", "mc"),
                          np.column_stack([base, base * 2.0 + 1.0, 1.0 - base, other]))
    assert prune_correlated(table, threshold=0.8) == ["degree", "pagerank"]


def test_prune_correlated_respects_threshold():
    rng = np.random.default_rng(7)
    a = rng.normal(size=200)
    b = a + rng.normal(scale=1.0, size=200)  # correlated but not extreme
    from structim import pearson
    r = abs(pearson(a, b))
    table = _manual_table(("ma", "mb"), np.column_stack([a, b]))
    assert prune_correlated(table, threshold=min(0.99, r + 0.01)) == []
    assert len(prune_correlated(table, threshold=max(0.01, r - 0.01))) == 1


def test_prune_correlated_keeps_constant_columns():
    rng = np.random.default_rng(3)
    a = rng.normal(size=20)
    table = _manual_table(("ma", "presence_count"),
                          np.column_stack([a, np.full(20, 5.0)]))
    assert prune_correlated(table, threshold=0.5) == []


def test_prune_correlated_of_overflowing_columns_equals_the_scaled_call():
    # the std of each column overflows; numpy's overflow warning once escaped, then pearson raised
    x = np.array([[1e200, 2e200], [-1e200, 0.0], [0.0, -1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dropped = prune_correlated(_manual_table(("ma", "mb"), x))
        assert dropped == prune_correlated(_manual_table(("ma", "mb"), np.ldexp(x, -665))) == []


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
