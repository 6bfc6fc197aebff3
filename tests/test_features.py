"""Feature extraction, labeling, and correlation pruning."""

import pickle

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
    label_nodes,
    prune_correlated,
    snapshot_measures,
    synthetic_temporal,
)

from conftest import clique, directed_triangles, network_from


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


def test_snapshot_measures_once_per_snapshot(monkeypatch):
    import structim.features as features

    calls = []
    measure = features.snapshot_measures
    monkeypatch.setattr(features, "snapshot_measures", lambda tn, t: calls.append(t) or measure(tn, t))
    tn = network_from([clique(3 + t % 2, timestamp=t) for t in range(6)])
    tables = build_horizon_tables(tn, "presence")
    assert [t.as_of[0] for t in tables] == [1, 2, 3, 4]
    assert calls == [0, 1, 2, 3]
    # more anchors and targets on the same network measure nothing again
    for t in range(1, 5):
        build_features(tn, t)
        build_table(tn, t, "rel_change")
    assert calls == [0, 1, 2, 3]
    # a backward pass after the forward sweep measures nothing again either
    for t in range(4, 0, -1):
        build_table(tn, t, "sign")
    assert calls == [0, 1, 2, 3]
    # the one piece of history state is the cumulative list, read-only
    assert "_measures" not in vars(tn)
    assert len(vars(tn)["_history"]) == 5
    assert not any(a.flags.writeable for entry in vars(tn)["_history"] for a in entry)
    # a copy is a new network with no measures kept
    build_features(pickle.loads(pickle.dumps(tn)), 2)
    assert calls == [0, 1, 2, 3, 0, 1]


def test_history_keeps_one_count_row_per_entry():
    import structim.features as features

    tn = synthetic_temporal(40, 3, 2, -2.0, 8, seed=5)
    sums, counts = features._history(tn, tn.n_snapshots - 1)
    for entry_sums, entry_counts in vars(tn)["_history"]:
        assert entry_sums.shape == (len(features._HISTORY_COLUMNS), tn.n_nodes)
        assert entry_counts.shape == (tn.n_nodes,)
    # the count is the number of prior snapshots with the node at positive strength
    positive = np.zeros((tn.n_snapshots - 1, tn.n_nodes), dtype=int)
    for t, s in enumerate(tn.snapshots[:-1]):
        positive[t, tn._positions[t]] = s.strength() > 0
    assert np.array_equal(counts, positive.sum(axis=0))
    # and every history column is defined exactly there
    hist = np.array([[features.snapshot_measures(tn, t)[c] for c in features._HISTORY_COLUMNS]
                     for t in range(tn.n_snapshots - 1)])
    assert np.array_equal(~np.isnan(hist), np.broadcast_to(positive[:, None, :] > 0, hist.shape))


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
    labels = label_nodes(tn, 0, "presence")
    # node 3 is listed at t+1 but carries no edge there
    assert labels == {0: 1, 1: 1, 2: 1, 3: 0}


def test_label_change_threshold_is_strict():
    tn = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 1.25)], timestamp=1),
    ])
    # relative change is exactly 0.25 for both endpoints
    assert label_nodes(tn, 0, "change", change_threshold=0.25) == {0: 0, 1: 0}
    assert label_nodes(tn, 0, "change", change_threshold=0.2) == {0: 1, 1: 1}
    # decreases count through the absolute value
    tn_down = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 0.5)], timestamp=1),
    ])
    assert label_nodes(tn_down, 0, "change", change_threshold=0.25) == {0: 1, 1: 1}


@pytest.mark.parametrize("threshold", [float("nan"), -1.0, float("inf"), float("-inf")])
def test_label_change_rejects_non_finite_or_negative_threshold(threshold):
    tn = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 1.25)], timestamp=1),
    ])
    with pytest.raises(ValueError, match="change_threshold must be finite and nonnegative"):
        label_nodes(tn, 0, "change", change_threshold=threshold)


def test_label_sign_drops_ties():
    tn = network_from([
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 2.0)], timestamp=0),
        _snap((0, 1, 2, 3), [(0, 1, 1.0), (2, 3, 1.0)], timestamp=1),
    ])
    labels = label_nodes(tn, 0, "sign")
    assert labels == {2: 0, 3: 0}  # 0 and 1 tied, dropped
    tn_up = network_from([
        _snap((0, 1), [(0, 1, 1.0)], timestamp=0),
        _snap((0, 1), [(0, 1, 2.0)], timestamp=1),
    ])
    assert label_nodes(tn_up, 0, "sign") == {0: 1, 1: 1}


def test_label_rel_change_values():
    tn = network_from([
        _snap((0, 1, 2), [(0, 1, 1.0), (1, 2, 1.0)], timestamp=0),
        _snap((0, 1, 2), [(0, 1, 1.25), (1, 2, 0.75)], timestamp=1),
    ])
    labels = label_nodes(tn, 0, "rel_change")
    assert labels[0] == pytest.approx(0.25)
    assert labels[1] == pytest.approx(0.0)
    assert labels[2] == pytest.approx(-0.25)


def test_label_requires_next_snapshot():
    tn = network_from([clique(3, timestamp=0), clique(3, timestamp=1)])
    for target in TARGETS:
        with pytest.raises(ValueError):
            label_nodes(tn, 1, target)
        with pytest.raises(ValueError):
            label_nodes(tn, -1, target)


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


@pytest.mark.parametrize("target", TARGETS)
def test_change_threshold_is_checked_for_every_target(target):
    # only "change" once checked it, while run_prediction checked it for all
    tn = network_from([clique(3, timestamp=t) for t in range(3)])
    with pytest.raises(ValueError, match="change_threshold must be finite and nonnegative"):
        build_table(tn, 1, target, change_threshold=-1.0)
    with pytest.raises(ValueError, match="change_threshold must be finite and nonnegative"):
        label_nodes(tn, 1, target, change_threshold=float("nan"))


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


def _strengths(s):
    out = dict.fromkeys(s.node_ids, 0.0)
    for i, j, w in s.edges:
        out[s.node_ids[i]] += w
        out[s.node_ids[j]] += w
    return out


def _reference_labels(tn, t, target, threshold):
    s1_of = _strengths(tn.snapshots[t + 1])
    out = {}
    for v, s0 in _strengths(tn.snapshots[t]).items():
        s1 = s1_of.get(v, 0.0)
        if s0 <= 0:
            continue
        if target == "presence":
            out[v] = int(s1 > 0)
        elif s1 > 0 and target == "change":
            out[v] = int(abs(s1 - s0) / s0 > threshold)
        elif s1 > 0 and target == "sign" and s1 != s0:
            out[v] = int(s1 > s0)
        elif s1 > 0 and target == "rel_change":
            out[v] = (s1 - s0) / s0
    return out


def _reference_rows(tn, t):
    """{node: (mean prior degree, prior appearances)} for the featurizable
    nodes of snapshot t, in its order, and the two skip counts."""
    rows, new, undefined = {}, 0, 0
    for v in tn.snapshots[t].node_ids:
        prior = [s for s in tn.snapshots[:t] if v in s.node_ids]
        degrees = [sum(s.node_ids[k] == v for e in s.edges for k in e[:2]) for s in prior]
        degrees = [d for d in degrees if d > 0]
        if not prior:
            new += 1
        elif not degrees:
            undefined += 1
        else:
            rows[v] = (sum(degrees) / len(degrees), float(len(prior)))
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
            expected = _reference_labels(tn, t, target, threshold)
            labels = label_nodes(tn, t, target, change_threshold=threshold)
            assert list(labels.items()) == list(expected.items())
            kind = float if target == "rel_change" else int
            assert all(type(v) is kind for v in labels.values())
            if not t:
                continue
            table = build_table(tn, t, target, change_threshold=threshold)
            ids = tuple(v for v in rows if v in expected)
            assert table.node_ids == ids and table.target == target and table.meta == meta
            assert table.y.dtype == np.float64 and table.y.tolist() == [expected[v] for v in ids]
            assert table.column("degree").tolist() == [rows[v][0] for v in ids]
            assert table.column("presence_count").tolist() == [rows[v][1] for v in ids]
            assert np.array_equal(table.X, features.X[[features.node_ids.index(v) for v in ids]])


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
