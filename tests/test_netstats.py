import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import netstats
from structim import (
    DataError,
    Snapshot,
    barbell,
    detect_communities,
    eig_sym,
    eigenvector_centrality,
    mean_diff_ttest,
    modularity,
    pagerank,
    pearson,
    synthetic_temporal,
)

from conftest import clique, cycle, path_graph, random_connected, student_t_cdf


def _two_cliques(n):
    edges = []
    for base in (0, n):
        for i in range(base, base + n):
            for j in range(i + 1, base + n):
                edges.append((i, j, 1.0))
    return Snapshot(node_ids=tuple(range(2 * n)), edges=tuple(edges), directed=False, timestamp=0)


def test_modularity_two_equal_cliques_is_half():
    for n in (3, 4, 5):
        s = _two_cliques(n)
        labels = np.array([0] * n + [1] * n)
        assert modularity(s, labels) == pytest.approx(0.5, abs=1e-12)


def test_modularity_single_community_is_zero():
    for seed in range(5):
        rng = np.random.default_rng([43, seed])
        s = random_connected(rng, 8)
        assert modularity(s, np.zeros(8, dtype=int)) == pytest.approx(0.0, abs=1e-15)


def test_modularity_range_property():
    rng = np.random.default_rng(47)
    for _ in range(20):
        s = random_connected(rng, int(rng.integers(3, 10)))
        labels = rng.integers(0, 3, size=s.n_nodes)
        q = modularity(s, labels)
        assert -0.5 - 1e-12 <= q <= 1.0


@pytest.mark.parametrize("snapshot", [
    barbell(4, 2, 5),
    synthetic_temporal(120, 4, 4, -2.0, 3, seed=11).snapshots[0],
], ids=["barbell", "synthetic"])
def test_modularity_of_huge_weights_matches_unit_scale(snapshot):
    # 1e160 weights square past the float range; fractions of 2m do not
    scaled = Snapshot(node_ids=snapshot.node_ids, edges=tuple((i, j, w * 1e160) for i, j, w in snapshot.edges),
                      directed=False, timestamp=snapshot.timestamp)
    labels = detect_communities(snapshot)
    with np.errstate(all="raise"):
        scaled_labels = detect_communities(scaled)
        q = modularity(scaled, scaled_labels)
    assert np.array_equal(scaled_labels, labels)
    assert labels.max() > 0
    assert q == pytest.approx(modularity(snapshot, labels), rel=1e-15)


def test_modularity_validation():
    s = clique(3)
    with pytest.raises(DataError):
        modularity(s, np.array([0, 1]))  # wrong length
    d = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), directed=True, timestamp=0)
    with pytest.raises(DataError):
        modularity(d, np.array([0, 0]))


def test_detect_communities_two_cliques():
    s = _two_cliques(4)
    labels = detect_communities(s)
    assert len(set(labels[:4])) == 1
    assert len(set(labels[4:])) == 1
    assert labels[0] != labels[4]
    assert sorted(set(labels)) == list(range(len(set(labels))))


def test_detect_communities_barbell_matches_best_known():
    s = barbell(4, 2, 5)
    labels = detect_communities(s)
    q = modularity(s, labels)
    # exhaustive-search optimum for this graph, frozen
    assert q == pytest.approx(0.4612188365650969, abs=1e-12)
    groups = {}
    for node, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(node)
    assert {frozenset(g) for g in groups.values()} == {
        frozenset({0, 1, 2, 3}),
        frozenset({4, 5}),
        frozenset({6, 7, 8, 9, 10}),
    }


def test_detect_communities_single_edge_collapses():
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), directed=False, timestamp=0)
    labels = detect_communities(s)
    assert list(labels) == [0, 0]



@pytest.mark.parametrize("snapshot, scorings", [
    (barbell(4, 2, 5), 1),
    # merging the path into one community rounds Q to -4.4e-16, so the
    # partition falls back
    (Snapshot(node_ids=(0, 1, 2), edges=((0, 1, 0.2), (1, 2, 0.1))), 2),
])
def test_communities_are_scored_once_per_snapshot(snapshot, scorings, monkeypatch):
    scored = []
    monkeypatch.setattr(netstats, "modularity", lambda s, labels: scored.append(labels) or modularity(s, labels))
    first, second = detect_communities(snapshot), detect_communities(snapshot)
    labels, q = netstats._communities(snapshot)
    assert len(scored) == scorings
    assert first is not second and first.flags.writeable and not labels.flags.writeable
    assert np.array_equal(first, labels) and np.array_equal(second, labels)
    assert q == modularity(snapshot, labels)


def test_detect_communities_never_beaten_by_trivial():
    # merged result is at least as good as the all-in-one partition
    rng = np.random.default_rng(53)
    for _ in range(10):
        s = random_connected(rng, int(rng.integers(3, 10)))
        q = modularity(s, detect_communities(s))
        assert q >= -1e-12


def _quadratic_greedy_modularity(snapshot):
    """Frozen O(n^2)-per-merge greedy agglomeration; parity oracle only.

    Rescans every community pair in (ci, cj) order after each merge and keeps
    a pair only when it beats the running best by more than 1e-15.
    """
    n = snapshot.n_nodes
    adj = snapshot.adjacency()
    m2 = adj.sum()
    members = {i: {i} for i in range(n)}
    a_frac = {i: adj[i].sum() / m2 for i in range(n)}
    e_frac = {}
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j] > 0:
                e_frac[(i, j)] = adj[i, j] / m2

    while True:
        best_gain = 0.0
        best_pair = None
        for (ci, cj) in sorted(e_frac):
            gain = 2.0 * (e_frac[(ci, cj)] - a_frac[ci] * a_frac[cj])
            if gain > best_gain + 1e-15:
                best_gain = gain
                best_pair = (ci, cj)
        if best_pair is None:
            break
        ci, cj = best_pair
        members[ci] |= members.pop(cj)
        a_frac[ci] += a_frac.pop(cj)
        del e_frac[(ci, cj)]
        for (x, y) in list(e_frac):
            if cj in (x, y):
                other = y if x == cj else x
                w = e_frac.pop((x, y))
                key = (min(ci, other), max(ci, other))
                e_frac[key] = e_frac.get(key, 0.0) + w

    labels = np.empty(n, dtype=int)
    for new_id, cid in enumerate(sorted(members, key=lambda c: min(members[c]))):
        for node in members[cid]:
            labels[node] = new_id
    if modularity(snapshot, labels) < 0.0:
        labels = np.zeros(n, dtype=int)
    return labels


def _assert_matches_oracle(s):
    assert np.array_equal(detect_communities(s), _quadratic_greedy_modularity(s))


def test_detect_communities_matches_quadratic_oracle_on_fixed_graphs():
    graphs = [barbell(4, 2, 5), barbell(6, 0, 6, weight=2.5), _two_cliques(3), _two_cliques(6)]
    graphs += [clique(n) for n in (2, 3, 7)]
    graphs += [cycle(n) for n in (3, 4, 9, 24)] + [path_graph(n) for n in (2, 5, 16, 31)]
    rng = np.random.default_rng(79)
    graphs += [random_connected(rng, int(rng.integers(3, 40))) for _ in range(40)]
    for s in graphs:
        _assert_matches_oracle(s)


def test_detect_communities_matches_oracle_on_tie_heavy_graphs():
    # Equal gains computed from different operands round apart by a few ulps;
    # only the 1e-15 window keeps the oracle's lowest-pair choice on these.
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(6, 50))
        p = float(rng.uniform(0.05, 0.5))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    w = 1.0 if trial % 3 == 0 else float(rng.integers(1, 4 if trial % 3 == 1 else 3))
                    edges.append((i, j, w))
        if edges:
            _assert_matches_oracle(Snapshot(node_ids=tuple(range(n)), edges=tuple(edges)))


def test_detect_communities_matches_oracle_at_benchmark_scale():
    # predict-small's network shape: 120 nodes, a few hundred merges per snapshot
    tn = synthetic_temporal(120, 4, 4, -2.0, horizon=2, seed=11)
    for s in tn.snapshots:
        _assert_matches_oracle(s)
        labels, q = netstats._communities(s)
        assert q == modularity(s, labels)


def test_detect_communities_builds_no_adjacency(monkeypatch):
    # the edge arrays and the snapshot's cached strength are all it reads
    cases = [(barbell(4, 2, 5), 0.46121883656509693)]
    cases += zip(synthetic_temporal(120, 4, 4, -2.0, horizon=2, seed=11).snapshots,
                 (0.5358793986344159, 0.5441257326023933))
    expected = [_quadratic_greedy_modularity(s) for s, _ in cases]
    for s, _ in cases:
        s.strength()
    monkeypatch.setattr(Snapshot, "adjacency", lambda s: pytest.fail("built a dense adjacency"))
    for (s, q), labels in zip(cases, expected):
        assert np.array_equal(detect_communities(s), labels)
        assert netstats._communities(s)[1] == q


@st.composite
def _weighted_graphs(draw, weights):
    """Undirected graphs with at least one edge; isolated nodes allowed."""
    n = draw(st.integers(2, 24))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    edges = tuple((i, j, draw(weights)) for i, j in sorted(chosen))
    return Snapshot(node_ids=tuple(range(n)), edges=edges, directed=False, timestamp=0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_weighted_graphs(st.just(1.0)))
def test_detect_communities_matches_oracle_on_unit_weights(s):
    _assert_matches_oracle(s)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_weighted_graphs(st.integers(1, 3).map(float)))
def test_detect_communities_matches_oracle_on_small_integer_weights(s):
    _assert_matches_oracle(s)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_weighted_graphs(st.floats(0.01, 100.0)))
def test_detect_communities_matches_oracle_on_continuous_weights(s):
    _assert_matches_oracle(s)


@st.composite
def _mid_sized_graphs(draw):
    """40-80 nodes with unit or small-integer weights: enough merges for the heap to be compacted."""
    n = draw(st.integers(40, 80))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), min_size=n, max_size=4 * n))
    weight = draw(st.sampled_from([st.just(1.0), st.integers(1, 3).map(float)]))
    chosen = sorted({(min(i, (i + d) % n), max(i, (i + d) % n)) for i, d in pairs})
    return Snapshot(node_ids=tuple(range(n)), edges=tuple((i, j, draw(weight)) for i, j in chosen))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_mid_sized_graphs())
def test_detect_communities_matches_oracle_on_compacted_heaps(s):
    _assert_matches_oracle(s)


def test_heap_compaction_runs_at_benchmark_scale(monkeypatch):
    # the initial heapify plus at least one bulk compaction, with the oracle's labels
    heapified = []
    heapify = heapq.heapify
    monkeypatch.setattr(heapq, "heapify", lambda heap: heapified.append(len(heap)) or heapify(heap))
    s = synthetic_temporal(120, 4, 4, -2.0, horizon=2, seed=11).snapshots[0]
    _assert_matches_oracle(s)
    assert len(heapified) > 1


def _to_networkx(nx, s):
    g = nx.Graph()
    g.add_nodes_from(range(s.n_nodes))
    g.add_weighted_edges_from(s.edges)
    return g


def _blocks(labels):
    return {frozenset(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)}


def test_modularity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(83)
    for _ in range(30):
        s = random_connected(rng, int(rng.integers(3, 30)))
        labels = rng.integers(0, 4, size=s.n_nodes)
        expected = nx.community.modularity(_to_networkx(nx, s), _blocks(labels), weight="weight")
        assert modularity(s, labels) == pytest.approx(expected, abs=1e-12)


def test_detect_communities_matches_networkx_greedy_modularity():
    # Continuous random weights leave no gain ties, so the two agglomerations
    # take the same merges whatever their tie rules.
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(89)
    for _ in range(60):
        s = random_connected(rng, int(rng.integers(3, 40)))
        expected = nx.community.greedy_modularity_communities(_to_networkx(nx, s), weight="weight")
        assert _blocks(detect_communities(s)) == {frozenset(c) for c in expected}


def test_eigenvector_centrality_reuses_a_given_spectrum():
    rng = np.random.default_rng(97)
    s = random_connected(rng, 12)
    spec = eig_sym(s.adjacency())
    assert np.array_equal(eigenvector_centrality(s, spectrum=spec), eigenvector_centrality(s))


def test_eigenvector_centrality_uniform_on_cliques():
    c = eigenvector_centrality(clique(5))
    assert np.allclose(c, c[0])
    assert np.all(c >= 0)


def test_pagerank_sums_to_one_and_uniform_on_regular():
    for n in (3, 6):
        p = pagerank(clique(n))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(p, 1.0 / n, atol=1e-9)
    rng = np.random.default_rng(59)
    s = random_connected(rng, 9)
    p = pagerank(s)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(p > 0)


def test_pagerank_directed_dangling_closed_form():
    # single arc 0 -> 1 with damping d: p0 = 1/(2+d), p1 = (1+d)/(2+d)
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), directed=True, timestamp=0)
    p = pagerank(s, damping=0.85)
    assert p[0] == pytest.approx(1.0 / 2.85, abs=1e-9)
    assert p[1] == pytest.approx(1.85 / 2.85, abs=1e-9)


def test_pagerank_respects_weights():
    # heavier edge pulls more mass
    s = Snapshot(node_ids=(0, 1, 2), edges=((0, 1, 10.0), (0, 2, 1.0)), directed=False, timestamp=0)
    p = pagerank(s)
    assert p[1] > p[2]


@pytest.mark.parametrize("damping", [1.5, -0.2, float("nan"), float("inf")])
def test_pagerank_rejects_damping_outside_unit_interval(damping):
    with pytest.raises(ValueError, match="damping must be in"):
        pagerank(clique(4), damping=damping)


def test_pagerank_accepts_unit_interval_ends():
    for damping in (0.0, 1.0):
        assert pagerank(clique(4), damping=damping).sum() == pytest.approx(1.0, abs=1e-9)


def test_welch_ttest_frozen_case_vs_quadrature():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [2.0, 3.0, 4.0, 5.0, 6.0]
    res = mean_diff_ttest(a, b)
    assert res.t_stat == pytest.approx(-1.0, abs=1e-12)
    assert res.dof == pytest.approx(8.0, abs=1e-12)
    # independent CDF oracle by numeric integration of the t density
    p_oracle = 2.0 * student_t_cdf(res.dof, -abs(res.t_stat))
    assert res.p_value == pytest.approx(p_oracle, abs=1e-8)


def test_welch_ttest_antisymmetry():
    rng = np.random.default_rng(61)
    a = rng.normal(0, 1, 12)
    b = rng.normal(1, 2, 9)
    r1 = mean_diff_ttest(a, b)
    r2 = mean_diff_ttest(b, a)
    assert r1.t_stat == pytest.approx(-r2.t_stat, abs=1e-12)
    assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)


def test_welch_ttest_validation():
    with pytest.raises(DataError):
        mean_diff_ttest([1.0], [1.0, 2.0])
    with pytest.raises(DataError):
        mean_diff_ttest([3.0, 3.0, 3.0], [1.0, 2.0, 4.0])  # constant group


def test_pearson_frozen_and_bounds():
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    rng = np.random.default_rng(67)
    x = rng.normal(size=50)
    y = rng.normal(size=50)
    r = pearson(x, y)
    assert -1.0 <= r <= 1.0
    assert pearson(y, x) == pytest.approx(r, abs=1e-12)


def test_pearson_constant_input_errors():
    with pytest.raises(DataError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
