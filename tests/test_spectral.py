import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structim import (
    DataError,
    barbell,
    eig_sym,
    select_eigencomponent,
)

from conftest import clique, cycle


def _random_symmetric(rng, n):
    m = rng.normal(size=(n, n))
    return (m + m.T) / 2.0


def test_eig_sym_properties_seeded():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        a = _random_symmetric(rng, n)
        spec = eig_sym(a)
        lam, vecs = spec.eigenvalues, spec.eigenvectors
        # descending order
        assert np.all(np.diff(lam) <= 1e-12)
        # eigenpairs solve A x = lambda x
        assert np.allclose(a @ vecs, vecs * lam[None, :], atol=1e-9)
        # orthonormal columns and full reconstruction
        assert np.allclose(vecs.T @ vecs, np.eye(n), atol=1e-9)
        assert np.allclose(vecs @ np.diag(lam) @ vecs.T, a, atol=1e-9)
        # trace is preserved by the spectrum
        assert np.trace(a) == pytest.approx(lam.sum(), abs=1e-9)
        # sign convention: the largest-magnitude component of each column > 0
        for k in range(n):
            col = vecs[:, k]
            assert col[np.argmax(np.abs(col))] > 0


def test_eig_sym_sign_convention_tie_goes_to_lowest_index():
    spec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    r = np.sqrt(0.5)
    assert np.allclose(spec.eigenvalues, [1.0, -1.0])
    assert np.allclose(spec.eigenvectors[:, 0], [r, r])
    assert np.allclose(spec.eigenvectors[:, 1], [r, -r])


def _oriented_by_loop(a):
    """Frozen per-column orientation: negate a column whose first
    largest-magnitude entry is negative."""
    vals, vecs = np.linalg.eigh(a)
    vecs = vecs[:, np.argsort(vals)[::-1]]
    for k in range(vecs.shape[1]):
        column = vecs[:, k]
        pivot = int(np.argmax(np.abs(column)))
        vecs[:, k] = -column if column[pivot] < 0 else column
    return vecs


@st.composite
def _tied_symmetric(draw):
    """Small-integer symmetric blocks repeated along the diagonal: exact
    magnitude ties and exact zeros in the eigenvectors are common."""
    k = draw(st.integers(1, 4))
    upper = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=k * (k - 1) // 2,
                          max_size=k * (k - 1) // 2))
    block = np.zeros((k, k))
    block[np.triu_indices(k, 1)] = upper
    return np.kron(np.eye(draw(st.integers(1, 3))), block + block.T)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_tied_symmetric())
@example(np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]))
def test_eig_sym_orientation_matches_per_column_loop(a):
    got = eig_sym(a).eigenvectors
    assert got.tobytes() == _oriented_by_loop(a).tobytes()  # bit-equal, signs of zeros included


def test_eig_sym_orientation_flips_signs_of_zeros():
    vecs = eig_sym(np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]])).eigenvectors
    ties = np.abs(vecs) == np.abs(vecs).max(axis=0)
    assert np.any(ties.sum(axis=0) > 1)  # a magnitude tie goes to the lowest index
    assert np.any((vecs == 0) & np.signbit(vecs))  # a flipped column turns 0.0 into -0.0


def test_eig_sym_rejects_nonsymmetric_and_nonsquare():
    with pytest.raises(ValueError):
        eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eig_sym(np.zeros((2, 3)))


def test_positive_count():
    spec = eig_sym(barbell(4, 2, 5).adjacency())
    assert spec.positive_count() == 3
    assert eig_sym(np.zeros((3, 3))).positive_count() == 0


def test_select_eigencomponent_barbell_ranks():
    spec = eig_sym(barbell(4, 2, 5).adjacency())
    ranks = select_eigencomponent(spec)
    assert list(ranks) == [2, 2, 2, 2, 3, 3, 1, 1, 1, 1, 1]


def test_select_eigencomponent_cliques_rank_one():
    # a clique has a single positive eigenvalue, so every node reports rank 1
    for n in range(3, 13):
        spec = eig_sym(clique(n).adjacency())
        assert spec.positive_count() == 1
        assert set(select_eigencomponent(spec)) == {1}


def test_select_eigencomponent_cycle_degenerate_modes():
    # cycles with several positive eigenvalues select the degenerate local
    # modes, not the uniform leading vector; frozen for n=5
    spec = eig_sym(cycle(5).adjacency())
    ranks = select_eigencomponent(spec)
    assert sorted(set(ranks)) == [2, 3]


def test_select_eigencomponent_requires_positive_part():
    with pytest.raises(DataError):
        select_eigencomponent(eig_sym(np.zeros((4, 4))))
