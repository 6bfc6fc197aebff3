import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import (
    DataError,
    NumericalError,
    Snapshot,
    barbell,
    edge_importance,
    eig_sym,
    importance_components,
    node_importance,
    node_importance_directed,
    select_eigencomponent,
)

from conftest import clique, cycle, random_connected


def _as_array(snapshot, vector):
    return np.array([vector.values[v] for v in snapshot.node_ids if v in vector.values])


def test_clique_closed_forms():
    # one positive eigenvalue makes every positive-part scheme equal 2/n
    for n in range(3, 13):
        s = clique(n)
        spec = eig_sym(s.adjacency())
        for scheme in ("ma", "mb", "md"):
            vals = _as_array(s, node_importance(s, scheme, spectrum=spec))
            assert np.allclose(vals, 2.0 / n, atol=1e-10), (scheme, n)
        mc = _as_array(s, node_importance(s, "mc", spectrum=spec))
        assert np.allclose(mc, 0.0, atol=1e-10)


def test_dyad_ma_is_one():
    s = clique(2)
    vals = node_importance(s, "ma").values
    assert vals[0] == pytest.approx(1.0, abs=1e-12)
    assert vals[1] == pytest.approx(1.0, abs=1e-12)


def test_ma_matches_eigenvalue_derivative():
    # m_a(k) is the sensitivity of the top eigenvalue to scaling node k's
    # incident weights: compare against a central finite difference
    eps = 1e-6
    for seed in range(8):
        rng = np.random.default_rng([17, seed])
        snap = random_connected(rng, int(rng.integers(4, 10)))
        a = snap.adjacency()
        strength = snap.strength()
        vals = node_importance(snap, "ma").values
        for k in range(snap.n_nodes):
            v = np.zeros_like(a)
            v[k, :] = a[k, :] / strength[k]
            v[:, k] = a[:, k] / strength[k]
            hi = np.linalg.eigvalsh(a + eps * v)[-1]
            lo = np.linalg.eigvalsh(a - eps * v)[-1]
            fd = (hi - lo) / (2 * eps)
            assert abs(vals[snap.node_ids[k]] - fd) < 1e-6


def test_ma_scale_invariant():
    rng = np.random.default_rng(23)
    snap = random_connected(rng, 9)
    scaled = Snapshot(
        node_ids=snap.node_ids,
        edges=tuple((i, j, 7.5 * w) for i, j, w in snap.edges),
        directed=False,
        timestamp=0,
    )
    a = node_importance(snap, "ma").values
    b = node_importance(scaled, "ma").values
    for v in snap.node_ids:
        assert a[v] == pytest.approx(b[v], rel=1e-10)


def test_mc_vanishes_on_zero_diagonal():
    for seed in range(10):
        rng = np.random.default_rng([29, seed])
        snap = random_connected(rng, int(rng.integers(3, 12)))
        vals = _as_array(snap, node_importance(snap, "mc"))
        assert np.max(np.abs(vals)) < 1e-9


def test_md_dominates_ma():
    # every positive-eigenvalue term is nonnegative, so the positive-part sum
    # is at least the leading term
    for seed in range(10):
        rng = np.random.default_rng([31, seed])
        snap = random_connected(rng, int(rng.integers(3, 12)))
        spec = eig_sym(snap.adjacency())
        ma = node_importance(snap, "ma", spectrum=spec).values
        md = node_importance(snap, "md", spectrum=spec).values
        for v in snap.node_ids:
            assert md[v] >= ma[v] - 1e-12


def test_mb_barbell_ordering_and_ranks():
    s = barbell(4, 2, 5)
    vec = node_importance(s, "mb")
    bridge = min(vec.values[4], vec.values[5])
    right = max(vec.values[v] for v in range(6, 11))
    assert bridge > right
    assert vec.eig_rank[0] == 2 and vec.eig_rank[4] == 3 and vec.eig_rank[6] == 1


def test_importance_components_shape_and_consistency():
    s = barbell(4, 2, 5)
    spec = eig_sym(s.adjacency())
    comp = importance_components(spec, s.strength())
    assert comp.shape == (11, 11)
    ma = node_importance(s, "ma", spectrum=spec).values
    assert np.allclose(comp[:, 0], [ma[v] for v in s.node_ids])
    # row sums collapse to (2/S_i) * A_ii = 0
    assert np.max(np.abs(comp.sum(axis=1))) < 1e-9


def test_zero_strength_nodes_are_excluded():
    s = Snapshot(node_ids=(0, 1, 9), edges=((0, 1, 2.0),), directed=False, timestamp=0)
    vec = node_importance(s, "ma")
    assert vec.excluded == (9,)
    assert set(vec.values) == {0, 1}


def test_values_keyed_by_node_ids():
    s = Snapshot(node_ids=("a", "b", "c"), edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)),
                 directed=False, timestamp=0)
    vals = node_importance(s, "ma").values
    assert set(vals) == {"a", "b", "c"}
    assert vals["a"] == pytest.approx(2.0 / 3.0)


def test_scheme_validation():
    s = clique(3)
    with pytest.raises(ValueError):
        node_importance(s, "mz")
    d = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), directed=True, timestamp=0)
    with pytest.raises(DataError):
        node_importance(d, "ma")
    with pytest.raises(DataError):
        node_importance_directed(clique(3))
    with pytest.raises(ValueError):
        node_importance_directed(d, strength_mode="elsewhere")


def test_directed_full_triangle_frozen():
    # all six arcs of a 3-node graph with unit weights
    edges = tuple((i, j, 1.0) for i in range(3) for j in range(3) if i != j)
    s = Snapshot(node_ids=(0, 1, 2), edges=edges, directed=True, timestamp=0)
    total = node_importance_directed(s, "total").values
    for v in range(3):
        assert total[v] == pytest.approx(1.0 / 6.0, abs=1e-12)
    for mode in ("in", "out"):
        vals = node_importance_directed(s, mode).values
        for v in range(3):
            assert vals[v] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_directed_nilpotent_frozen():
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, 2.0),), directed=True, timestamp=0)
    vec = node_importance_directed(s, "total")
    assert vec.values[0] == pytest.approx(1.0, abs=1e-12)
    assert vec.values[1] == pytest.approx(0.0, abs=1e-12)


_OVERFLOWING_ARCS = {
    # finite strengths (at most 2e200), but a @ a.T overflows
    "a @ a.T": Snapshot(node_ids=("a", "b", "c"), directed=True,
                        edges=((0, 1, 1e200), (1, 2, 1e200), (2, 0, 1e200), (0, 2, 1e200))),
    # a @ a.T peaks at 6e307, but the hub's strength times sigma passes 1.8e308
    "the terms": Snapshot(node_ids=tuple(range(21)), directed=True,
                          edges=tuple((0, j, 1.732e153) for j in range(1, 21))),
}


@pytest.mark.parametrize("name", list(_OVERFLOWING_ARCS))
def test_directed_importance_that_overflows_is_a_numerical_error(name):
    with np.errstate(all="raise"):  # and no overflow warning on the way
        with pytest.raises(NumericalError, match="overflows the float range"):
            node_importance_directed(_OVERFLOWING_ARCS[name], "total")


def test_directed_out_importance_matches_singular_value_derivative():
    # Scaling node i's out-arcs (row i of A) by (1 + h) moves the leading
    # singular value by h * u_i (A v)_i = h * sigma * u_i^2, and the "out"
    # measure is that derivative over S_i^out. Central differences at
    # h = 1e-6 agree to 1.2e-8 relative on these digraphs; the test allows 1e-7.
    h = 1e-6
    for seed in range(3):
        rng = np.random.default_rng([37, seed])
        mask = rng.random((7, 7)) < 0.5
        np.fill_diagonal(mask, False)
        weights = rng.uniform(0.5, 2.0, size=(7, 7))
        snap = Snapshot(node_ids=tuple(range(7)), directed=True,
                        edges=tuple((i, j, float(weights[i, j])) for i, j in zip(*np.nonzero(mask))))
        a = snap.adjacency()
        out_strength = snap.strength("out")
        vals = node_importance_directed(snap, "out").values
        assert sorted(vals) == list(range(7))
        for i in range(7):
            up, down = a.copy(), a.copy()
            up[i] *= 1.0 + h
            down[i] *= 1.0 - h
            fd = (np.linalg.svd(up, compute_uv=False)[0] - np.linalg.svd(down, compute_uv=False)[0]) / (2 * h)
            assert vals[i] == pytest.approx(fd / out_strength[i], rel=1e-7)


def test_directed_importance_matches_the_leading_singular_pair():
    # m_i = s * u_i^2 / S_i with s and u the leading singular value and left
    # singular vector of A, from an SVD of A itself rather than of A @ A.T;
    # over these digraphs the gap stays below 1e-14 * s / S_i
    for seed in range(40):
        rng = np.random.default_rng([43, seed])
        n = int(rng.integers(2, 16))
        mask = rng.random((n, n)) < rng.uniform(0.2, 0.9)
        np.fill_diagonal(mask, False)
        mask[0, 1] = True
        weights = rng.lognormal(0.0, 2.0, size=(n, n))
        snap = Snapshot(node_ids=tuple(range(n)), directed=True,
                        edges=tuple((i, j, float(weights[i, j])) for i, j in zip(*np.nonzero(mask))))
        u, sv, _ = np.linalg.svd(snap.adjacency())
        for mode in ("total", "in", "out"):
            strength = snap.strength(mode)
            vals = node_importance_directed(snap, mode).values
            assert sorted(vals) == [i for i in range(n) if strength[i] > 0]
            for i, m in vals.items():
                assert abs(m - sv[0] * u[i, 0] ** 2 / strength[i]) <= 1e-12 * sv[0] / strength[i]


def test_directed_digraph_without_arcs_excludes_every_node():
    snap = Snapshot(node_ids=("a", "b", "c"), edges=(), directed=True, timestamp=0)
    for mode in ("total", "in", "out"):
        vec = node_importance_directed(snap, mode)
        assert vec.values == {} and vec.excluded == ("a", "b", "c")


def test_edge_importance_frozen_values():
    dyad_spec = eig_sym(clique(2).adjacency())
    assert edge_importance(dyad_spec, 0, 1) == pytest.approx(1.0, abs=1e-12)
    tri_spec = eig_sym(clique(3).adjacency())
    assert edge_importance(tri_spec, 0, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(IndexError):
        edge_importance(tri_spec, 0, 3)


def test_edge_importance_matches_weight_derivative():
    h = 1e-6
    for seed in range(6):
        rng = np.random.default_rng([37, seed])
        snap = random_connected(rng, 8)
        a = snap.adjacency()
        spec = eig_sym(a)
        for i, j, _w in snap.edges[:4]:
            up = a.copy()
            up[i, j] += h
            up[j, i] += h
            dn = a.copy()
            dn[i, j] -= h
            dn[j, i] -= h
            fd = (np.linalg.eigvalsh(up)[-1] - np.linalg.eigvalsh(dn)[-1]) / (2 * h)
            assert edge_importance(spec, i, j) == pytest.approx(fd, abs=1e-6)


def _with_isolated(s, extra):
    """``s`` plus ``extra`` zero-strength nodes at the end of its node order."""
    return Snapshot(node_ids=s.node_ids + tuple(range(s.n_nodes, s.n_nodes + extra)), edges=s.edges)


def _full_matrix_pick(s, scheme, spec):
    """Frozen whole-matrix computation of each scheme; parity oracle only."""
    strength = s.strength()
    terms = spec.eigenvalues[None, :] * spec.eigenvectors**2
    with np.errstate(divide="ignore", invalid="ignore"):
        full = 2.0 * terms / strength[:, None]
    full[strength <= 0] = np.nan
    if scheme == "ma":
        vals = full[:, 0]
    elif scheme == "mb":
        vals = full[np.arange(spec.n), select_eigencomponent(spec) - 1]
    elif scheme == "mc":
        vals = np.zeros(spec.n)  # (2/S_i) * A_ii with A_ii = 0; the row sums are rounding residue
    else:
        vals = full[:, :spec.positive_count()].sum(axis=1)
    return full, {v: float(x) for v, x, keep in zip(s.node_ids, vals, strength > 0) if keep}


def test_each_scheme_equals_the_full_matrix_pick_bit_for_bit():
    # tied eigenvalues (cliques, cycles, two equal triangles), zero-strength rows,
    # and a graph with more than 128 positive eigenvalues for numpy's pairwise sums
    rng = np.random.default_rng(17)
    triangles = Snapshot(node_ids=tuple(range(6)), edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
                                                          (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)))
    graphs = [_with_isolated(clique(5), 1), _with_isolated(cycle(8), 2), _with_isolated(triangles, 1),
              barbell(4, 2, 5), _with_isolated(random_connected(rng, 40), 3),
              _with_isolated(random_connected(rng, 400), 5)]
    for s in graphs:
        spec = eig_sym(s.adjacency())
        for scheme in ("ma", "mb", "mc", "md"):
            full, expected = _full_matrix_pick(s, scheme, spec)
            assert node_importance(s, scheme, spectrum=spec).values == expected, scheme
        assert np.array_equal(importance_components(spec, s.strength()), full, equal_nan=True)
    assert eig_sym(graphs[-1].adjacency()).positive_count() > 128


def test_mc_is_zero_where_the_literal_sum_is_not():
    s = barbell(4, 2, 5)
    spec = eig_sym(s.adjacency())
    assert np.any(importance_components(spec, s.strength()).sum(axis=1) != 0.0)
    assert node_importance(s, "mc", spectrum=spec).values == dict.fromkeys(s.node_ids, 0.0)
    isolated = _with_isolated(s, 2)
    vec = node_importance(isolated, "mc")
    assert vec.values == dict.fromkeys(s.node_ids, 0.0) and vec.excluded == (11, 12)


@st.composite
def _weighted_graphs(draw):
    n = draw(st.integers(2, 25))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3 * n, unique=True))
    scale = 2.0 ** draw(st.integers(-30, 30))
    weights = draw(st.lists(st.floats(0.01, 100.0), min_size=len(chosen), max_size=len(chosen)))
    edges = tuple((i, j, w * scale) for (i, j), w in zip(sorted(chosen), weights))
    return Snapshot(node_ids=tuple(range(n)), edges=edges)


@given(_weighted_graphs())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_component_row_sums_are_mc_up_to_rounding(s):
    # A row sums to (2/S_i) * sum_k lambda_k x_{k,i}^2, and that sum reconstructs
    # A_ii = 0 to a small multiple of n * eps * max|lambda|: the eigensolver's
    # backward error plus the sum's rounding. On 20000 random 3-node graphs the
    # multiple reached 2.2, so the bound allows 4, times the 2 of the definition.
    spec = eig_sym(s.adjacency())
    strength = s.strength()
    sums = importance_components(spec, strength).sum(axis=1)
    live = strength > 0
    tol = 8.0 * spec.n * np.finfo(float).eps * np.abs(spec.eigenvalues).max() / strength[live]
    assert np.all(np.abs(sums[live]) <= tol)
    assert np.all(np.isnan(sums[~live]))
