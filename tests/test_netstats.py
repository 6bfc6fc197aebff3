import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import netstats
from structim import (
    DataError,
    NumericalError,
    Snapshot,
    StructimError,
    barbell,
    detect_communities,
    eig_sym,
    eigenvector_centrality,
    mean_diff_ttest,
    modularity,
    pagerank,
    pearson,
    r2_score,
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
    # single arc 0 -> 1 with damping d = 0.85: p0 = 1/(2+d), p1 = (1+d)/(2+d)
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), directed=True, timestamp=0)
    p = pagerank(s)
    assert p[0] == pytest.approx(1.0 / 2.85, abs=1e-9)
    assert p[1] == pytest.approx(1.85 / 2.85, abs=1e-9)


def test_pagerank_respects_weights():
    # heavier edge pulls more mass
    s = Snapshot(node_ids=(0, 1, 2), edges=((0, 1, 10.0), (0, 2, 1.0)), directed=False, timestamp=0)
    p = pagerank(s)
    assert p[1] > p[2]


def test_pagerank_that_does_not_converge_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(netstats, "PAGERANK_MAX_ITER", 1)
    with pytest.raises(NumericalError, match="pagerank did not converge in 1 iterations"):
        pagerank(path_graph(4))


def test_pagerank_accepts_unit_interval_ends(monkeypatch):
    for damping in (0.0, 1.0):
        monkeypatch.setattr(netstats, "PAGERANK_DAMPING", damping)
        assert pagerank(clique(4)).sum() == pytest.approx(1.0, abs=1e-9)


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
    # the mean of three 0.1s is 0.10000000000000002, not 0.1: t read -3.29, p 0.081
    with pytest.raises(DataError, match="constant group"):
        mean_diff_ttest([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_welch_ttest_of_a_non_finite_sample_is_a_data_error(bad):
    for a, b in (([1.0, bad, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, bad, 3.0])):
        with pytest.raises(DataError, match="t-test needs finite samples"):
            mean_diff_ttest(a, b)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pearson_of_a_non_finite_input_is_a_data_error(bad):
    for x, y in (([1.0, bad, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, bad, 3.0])):
        with pytest.raises(DataError, match="correlation needs finite observations"):
            pearson(x, y)


def test_pearson_constant_input_errors():
    with pytest.raises(DataError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    # the mean of three 0.1s is 0.10000000000000002, not 0.1: r read 0.0
    with pytest.raises(DataError, match="constant input"):
        pearson([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])


def test_pearson_of_overflowing_squares_equals_the_scaled_call():
    # the squared deviations of x overflow; the correlation once read -0.0, then raised NumericalError
    big = pearson([1e200, -1e200, 0.0], [1.0, 2.0, 3.0])  # warnings are errors (pyproject.toml)
    assert big == pearson(np.ldexp([1e200, -1e200, 0.0], -665), [1.0, 2.0, 3.0]) == -0.4999999999999999


def test_pearson_of_a_tiny_varying_input_is_not_constant():
    # the squared deviations of x underflow to 0; x times 2**600 (exact) gives r
    assert pearson([1e-170, -1e-170, 0.0], [1.0, 2.0, 3.0]) == -0.4999999999999999
    assert pearson(np.array([1e-170, -1e-170, 0.0]) * 2.0**600, [1.0, 2.0, 3.0]) == -0.4999999999999999


def test_ttest_of_tiny_varying_groups_is_not_constant():
    # both variances underflow to 0; the samples times 2**600 (exact) give the same answer
    a, b = [1e-170, -1e-170, 0.0], [1e-170, 3e-170, 2e-170]
    tiny = mean_diff_ttest(a, b)
    assert tiny == mean_diff_ttest(np.array(a) * 2.0**600, np.array(b) * 2.0**600)
    assert tiny.t_stat == -2.449489742783178
    assert tiny.dof == pytest.approx(4.0, rel=1e-15) and tiny.p_value == pytest.approx(0.0705, abs=5e-5)


def test_ttest_of_overflowing_variances_equals_the_scaled_call():
    # the variance of a overflows; the p-value once failed in the incomplete beta with b=nan,
    # then the test raised NumericalError
    a, b = [1e200, -1e200, 0.0], [1.0, 2.0, 3.0]
    big = mean_diff_ttest(a, b)  # warnings are errors (pyproject.toml)
    assert big == mean_diff_ttest(np.ldexp(a, -665), np.ldexp(b, -665))
    assert (big.t_stat, big.dof, big.p_value) == (-3.4641016151377545e-200, 2.0, 1.0)


def test_ttest_whose_squared_variances_overflow_rescales_the_degrees_of_freedom():
    # t is finite, but va**2 overflows and the degrees of freedom once read nan; the
    # same samples a factor 1e80 smaller against the other group give the same answer
    big = mean_diff_ttest([1e80, -1e80, 0.0], [1.0, 2.0, 3.0])
    small = mean_diff_ttest([1.0, -1.0, 0.0], [1e-80, 2e-80, 3e-80])
    assert (big.t_stat, big.dof, big.p_value) == (-3.4641016151377546e-80, 2.0, 1.0)
    assert big == small


def test_pearson_of_a_subnormal_sum_of_squares_is_at_most_one():
    # the sum of squared deviations of x is subnormal; r read 1.0000055664551362
    x = np.array([1e-160, 2e-160, 3e-160])
    assert pearson(x, [1.0, 2.0, 3.0]) == pearson(x * 2.0**600, [1.0, 2.0, 3.0]) == 1.0


def test_ttest_of_subnormal_variances_equals_the_scaled_call():
    # both variances are subnormal; t read -0.6108416131697934, the same samples times 1e160 -0.6108472217815262
    a, b = np.array([1e-160, 2e-160, 3.5e-160]), np.array([1e-160, 3e-160, 5e-160])
    tiny = mean_diff_ttest(a, b)
    assert tiny == mean_diff_ttest(a * 2.0**600, b * 2.0**600) == mean_diff_ttest(a * 1e160, b * 1e160)
    assert tiny.t_stat == -0.6108472217815262


def _normal_scales(*samples):
    """The range of k for which every nonzero value of ``samples`` times 2^k is a normal float."""
    exponents = [math.frexp(v)[1] for s in samples for v in s if v != 0.0]
    return -1021 - min(exponents), 1024 - max(exponents)


_VALUES = st.builds(lambda m, negative: -m if negative else m,
                    st.floats(1e-300, 1e300) | st.just(0.0), st.booleans())


def _varying(size):
    return st.lists(_VALUES, min_size=size, max_size=size).filter(lambda v: min(v) != max(v))


def _outcome(call, *args):
    """The repr of what the call returns, or the type of the StructimError it raises."""
    try:
        return repr(call(*args))
    except StructimError as exc:
        return type(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), m=st.integers(2, 6))
def test_statistics_keep_their_bits_under_a_power_of_two(data, n, m):
    # a common power of two leaves each statistic unchanged, so it must give the same bits or
    # the same typed error; pearson's inputs may each take their own power
    x, y = data.draw(_varying(n), label="x"), data.draw(_varying(n), label="y")
    b = data.draw(_varying(m), label="b")
    k = data.draw(st.integers(*_normal_scales(x, y, b)), label="k")
    j = data.draw(st.integers(*_normal_scales(y)), label="j")
    x2, y2, b2 = np.ldexp(x, k), np.ldexp(y, k), np.ldexp(b, k)

    r = pearson(x, y)
    assert abs(r) <= 1.0
    assert repr(r) == _outcome(pearson, x2, np.ldexp(y, j))
    test = mean_diff_ttest(x, b)
    assert np.isfinite([test.t_stat, test.dof, test.p_value]).all()
    assert repr(test) == _outcome(mean_diff_ttest, x2, b2)
    r2 = _outcome(r2_score, x, y)
    assert r2 == _outcome(r2_score, x2, y2)
    assert r2 is NumericalError or math.isfinite(float(r2))
