"""Spectra of symmetric weighted matrices and tools built on them.

The decomposition itself is delegated to LAPACK via numpy; everything this
package promises about a :class:`Spectrum` (ordering, unit norms, the sign
convention, selection behavior) is enforced here on top of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, NumericalError

SYMMETRY_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a symmetric real matrix.

    eigenvalues are sorted descending; column k of ``eigenvectors`` is the
    unit-norm eigenvector paired with ``eigenvalues[k]``. Each eigenvector is
    oriented so its largest-magnitude component is positive (exact magnitude
    ties resolve to the lowest index).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return int(self.eigenvalues.shape[0])

    def positive_count(self) -> int:
        return int(np.sum(self.eigenvalues > 0))


@dataclass(frozen=True)
class SingularTriplet:
    """Leading singular value of A with the leading eigenvector of A @ A.T."""

    s: float
    vector: np.ndarray


def eig_sym(a: np.ndarray) -> Spectrum:
    """Eigendecomposition of a symmetric matrix with deterministic orientation.

    Raises ArgumentError when the input is not square 2-D, has a non-finite
    entry, or is not symmetric to within an absolute tolerance of 1e-10.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ArgumentError("matrix has a non-finite entry")
    if a.size and np.max(np.abs(a - a.T)) > SYMMETRY_TOL:
        raise ArgumentError("matrix is not symmetric")
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    if vecs.size:  # flip each column whose first largest-magnitude entry is negative
        pivot = np.argmax(np.abs(vecs), axis=0)
        flip = vecs[pivot, np.arange(vecs.shape[1])] < 0
        vecs[:, flip] = -vecs[:, flip]
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs)


def leading_singular(a: np.ndarray) -> SingularTriplet:
    """Leading singular value of ``a`` and leading eigenvector of a @ a.T.

    The all-zero matrix maps to s = 0 with the first coordinate vector, so
    callers never see a NaN direction. A product a @ a.T beyond the float
    range raises NumericalError.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ArgumentError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.any(a):
        e0 = np.zeros(a.shape[0])
        if e0.shape[0]:
            e0[0] = 1.0
        return SingularTriplet(s=0.0, vector=e0)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product is the error below
        m = a @ a.T
        m = (m + m.T) / 2.0  # clear float asymmetry from the product
    if not np.isfinite(m).all():
        raise NumericalError("a @ a.T overflows the float range")
    spec = eig_sym(m)
    lam = max(float(spec.eigenvalues[0]), 0.0)
    return SingularTriplet(s=float(np.sqrt(lam)), vector=np.array(spec.eigenvectors[:, 0]))


def select_eigencomponent(spectrum: Spectrum) -> np.ndarray:
    """Per-node eigenvalue rank where the node's component magnitude peaks.

    Ranks are 1-based positions in the descending eigenvalue order, and the
    search runs over positive eigenvalues only: the negative end of the
    spectrum carries sign-alternating local modes (a clique's degenerate
    lambda = -1 space, for instance) whose components dominate every clique
    node and would make the selection useless for locating structure. Ties
    resolve to the smallest rank.

    Raises DataError when the spectrum has no positive eigenvalue.
    """
    n_pos = spectrum.positive_count()
    if n_pos == 0:
        raise DataError("no positive eigenvalues; eigencomponent selection undefined")
    return np.argmax(np.abs(spectrum.eigenvectors[:, :n_pos]), axis=1) + 1

