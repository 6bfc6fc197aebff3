"""Structural importance of nodes and edges from spectral sensitivity.

A node's importance under eigenvalue k is the sensitivity of lambda_k to a
uniform relative rescaling of the node's incident weights:

    T[i, k] = (2 / S_i) * lambda_k * x_{k,i}^2

with S_i the node strength and x_k the unit eigenvector. The schemes differ
only in which eigenvalue terms they keep per node:

    ma  rank-1 term (largest eigenvalue) for every node
    mb  the term at the node's selected eigencomponent rank
    mc  the sum over every eigenvalue, identically (2/S_i) * A_ii = 0 as a
        Snapshot has no self loops (importance_components keeps the terms)
    md  the sum over positive eigenvalues only

Edge importance is the sensitivity of the leading eigenvalue to one edge's
weight: 2 * x_{0,i} * x_{0,j}.

The directed variant scores nodes by the leading singular value s of the arc
matrix A through M = A @ A.T: m_i = (1 / (S_i * s)) * x_i * sum_j M_ij * x_j
with x the leading eigenvector of M and S_i the strength under a chosen mode.
M is formed once: its decomposition gives s = sqrt(lambda_0) and x, and the
same M gives M @ x.

Zero-strength nodes have no defined importance; they are excluded from the
result and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DataError, NumericalError, _is_integer
from .graphs import Snapshot
from .spectral import Spectrum, _check_spectrum, eig_sym, select_eigencomponent

SCHEMES = ("ma", "mb", "mc", "md")
DIRECTED_SCHEME = "directed"


@dataclass(frozen=True)
class ImportanceVector:
    """Per-node importance values for one snapshot and scheme.

    values maps node id -> importance; eig_rank (mb only) maps node id -> the
    1-based eigenvalue rank the value came from; excluded lists zero-strength
    node ids that were skipped.
    """

    scheme: str
    values: dict
    eig_rank: dict | None = None
    excluded: tuple = field(default_factory=tuple)


def _terms(eigenvalues, eigenvectors, strength) -> np.ndarray:
    """2 * (lambda * x^2) / S on broadcast arguments, NaN where S <= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2.0 * (eigenvalues * eigenvectors**2) / strength
    return np.where(strength > 0, out, np.nan)


def importance_components(spectrum: Spectrum, strength: np.ndarray) -> np.ndarray:
    """Per-node, per-eigenvalue importance terms (n x n matrix).

    Rows for zero-strength nodes are NaN. Column k is the term contributed by
    eigenvalue rank k+1. A row sums to scheme mc for that node, (2/S_i)*A_ii
    = 0, up to rounding of order n * eps * max|lambda| / S_i; the matrix is
    exposed so callers can see the cancellation instead of just a zero.
    The terms come from ``_terms``, which ``node_importance`` also calls on
    the columns ma, mb and md read, so each of their values is one here.
    """
    strength = np.asarray(strength, dtype=float)
    if strength.shape != (spectrum.n,):
        raise ArgumentError("strength vector does not match spectrum size")
    return _terms(spectrum.eigenvalues, spectrum.eigenvectors, strength[:, None])


def node_importance(snapshot: Snapshot, scheme: str, spectrum: Spectrum | None = None) -> ImportanceVector:
    """Importance of every positive-strength node under one scheme.

    The snapshot must be undirected (use node_importance_directed otherwise).
    ``spectrum`` may carry a precomputed decomposition of the snapshot's
    adjacency to avoid repeating it across schemes; one that is not a
    Spectrum of the snapshot's node count raises ArgumentError, while a
    same-size spectrum of another matrix cannot be detected and yields that
    matrix's values. Only the eigen-terms the scheme reads are computed; mc
    reads none, as it is 0.0 for every node.
    """
    if scheme not in SCHEMES:
        raise ArgumentError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    _check_spectrum(spectrum, snapshot)
    if snapshot.directed:
        raise DataError(f"scheme {scheme!r} requires an undirected snapshot")
    s = snapshot.strength()
    mask = s > 0
    kept = mask.tolist()
    excluded = tuple(v for v, keep in zip(snapshot.node_ids, kept) if not keep)
    if scheme == "mc" or not mask.any():  # mc is (2/S_i) * A_ii, and A_ii = 0
        values = {v: 0.0 for v, keep in zip(snapshot.node_ids, kept) if keep}
        return ImportanceVector(scheme=scheme, values=values, excluded=excluded)

    spec = spectrum if spectrum is not None else eig_sym(snapshot.adjacency())
    lam, vecs = spec.eigenvalues, spec.eigenvectors

    eig_rank = None
    if scheme == "ma":
        vals = _terms(lam[0], vecs[:, 0], s)
    elif scheme == "mb":
        ranks = select_eigencomponent(spec)
        vals = _terms(lam[ranks - 1], vecs[np.arange(spec.n), ranks - 1], s)
        eig_rank = {v: r for v, r, keep in zip(snapshot.node_ids, ranks.tolist(), kept) if keep}
    else:  # md: the positive columns
        cols = spec.positive_count()
        vals = _terms(lam[:cols], vecs[:, :cols], s[:, None]).sum(axis=1)

    values = {v: x for v, x, keep in zip(snapshot.node_ids, vals.tolist(), kept) if keep}
    return ImportanceVector(scheme=scheme, values=values, eig_rank=eig_rank, excluded=excluded)


def node_importance_directed(snapshot: Snapshot, strength_mode: str = "total") -> ImportanceVector:
    """Directed importance from the leading singular structure of the arc matrix;
    NumericalError when a @ a.T or a product S_i * s passes the float range."""
    if not snapshot.directed:
        raise DataError("directed importance requires a directed snapshot")
    a = snapshot.adjacency()
    s = snapshot.strength(strength_mode)
    mask = s > 0
    kept = mask.tolist()
    excluded = tuple(v for v, keep in zip(snapshot.node_ids, kept) if not keep)
    if not mask.any():
        return ImportanceVector(scheme=DIRECTED_SCHEME, values={}, excluded=excluded)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite product is the error below
        gram = a @ a.T
        sym = (gram + gram.T) / 2.0  # clear float asymmetry from the product
    if not np.isfinite(sym).all():
        raise NumericalError("a @ a.T overflows the float range")
    spec = eig_sym(sym)
    sigma = float(np.sqrt(max(float(spec.eigenvalues[0]), 0.0)))
    x = np.array(spec.eigenvectors[:, 0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        denom = s * sigma
        vals = x * (gram @ x) / denom
    if not np.isfinite(denom).all():
        raise NumericalError("directed importance overflows the float range")
    values = {v: m for v, m, keep in zip(snapshot.node_ids, vals.tolist(), kept) if keep}
    return ImportanceVector(scheme=DIRECTED_SCHEME, values=values, excluded=excluded)


def edge_importance(spectrum: Spectrum, i: int, j: int) -> float:
    """Sensitivity of the leading eigenvalue to the (i, j) edge weight.

    Equals 2 * x0_i * x0_j where x0 is the leading eigenvector. Indices are
    positions in the spectrum's node order; an index that is not an integer
    raises ArgumentError, and an out-of-range one IndexError.
    """
    x0 = spectrum.eigenvectors[:, 0]
    n = x0.shape[0]
    for idx in (i, j):
        if not _is_integer(idx):
            raise ArgumentError(f"node index must be an integer, got {idx!r}")
        if not 0 <= idx < n:
            raise IndexError(f"node index {idx} out of range for {n} nodes")
    return float(2.0 * x0[i] * x0[j])
