"""Classical weighted-network statistics used as benchmarks and diagnostics.

Everything here operates on a single Snapshot. Community structure uses the
weighted modularity

    Q = (1/2m) * sum_ij (A_ij - S_i S_j / 2m) * [c_i == c_j]

with 2m the total weight of all edge ends, and greedy agglomeration that
repeatedly merges the community pair with the largest positive modularity
gain. PageRank and eigenvector centrality are the usual weighted variants.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from ._special import stdtr
from .errors import ArgumentError, DataError, NumericalError
from .graphs import Snapshot
from .spectral import Spectrum, _check_spectrum, eig_sym

# A merge must beat the running best gain by more than this.
_GAIN_TOL = 1e-15
# PageRank's damping; it stops at an L1 change of PAGERANK_TOL, or fails after PAGERANK_MAX_ITER steps.
PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10
PAGERANK_MAX_ITER = 100000


def modularity(snapshot: Snapshot, labels) -> float:
    """Weighted modularity of a node partition.

    ``labels`` assigns a community id to each node in snapshot order. Raises
    DataError for directed snapshots, empty graphs, or a partition that does
    not cover the nodes. Q is summed over the edge list as fractions of 2m,
    so weights near the float range give the same Q as unit-scale ones.
    """
    if snapshot.directed:
        raise DataError("modularity is defined here for undirected snapshots only")
    labels = np.asarray(labels)
    if labels.shape != (snapshot.n_nodes,):
        raise DataError("partition does not cover the snapshot's nodes")
    s = snapshot.strength()
    m2 = s.sum()
    if m2 <= 0:
        raise DataError("modularity undefined for a graph with no edges")
    _, comm = np.unique(labels, return_inverse=True)
    i, j, w = snapshot._edge_arrays
    totals = np.bincount(comm, weights=s / m2)
    return float(2.0 * (w[comm[i] == comm[j]] / m2).sum() - totals @ totals)


def detect_communities(snapshot: Snapshot) -> np.ndarray:
    """Greedy modularity agglomeration (Clauset, Newman & Moore 2004).

    Starts from singleton communities and repeatedly merges the pair with the
    largest positive modularity gain 2 * (e_ij - a_i * a_j), where e_ij is the
    fraction of edge ends joining the two communities and a_i the fraction
    attached to community i. The lower id survives a merge. Stops when no gain
    exceeds 1e-15; if the result falls below the single-community partition's
    Q it falls back to that. Returns dense integer labels from 0 ordered by
    smallest member.

    Gains sit in a max-heap of live, positive upper bounds, so a merge costs
    O(d log m) for the absorbed community's degree d instead of a rescan of
    every pair. Every pair whose gain is above 1e-15 has one live entry,
    found by the int key ci * n + cj, and an entry is pushed only with a gain
    above 1e-15 that is never below the pair's current gain. An entry that
    reaches the top with a stale bound is refreshed to the current gain, or
    dropped once that is at most 1e-15.
    When the heap holds more than twice as many entries as there are live
    ones, it is rebuilt from the live entries in one heapify, which drops the
    dead ones in bulk instead of popping them one by one.

    Why the merges are those of a full rescan: with every bound valid, the
    heap hands out pairs in the order of their current gains (a pair whose
    bound is too high is refreshed before its turn), so the candidates below
    and the merge picked depend on the current gains only. Merging cj into ci
    grows a_ci, which lowers or keeps every gain except those of the pairs
    (ci, k) with k a neighbour of cj, whose e_ik grows. Those are recomputed
    at the merge and get a new entry where the kept one would underestimate.

    Tie rule: the merge chosen is the one a scan of all pairs in (ci, cj)
    order picks when it keeps a pair only if its gain beats the running best
    by more than 1e-15, so near-equal gains go to the lowest pair. The heap
    pops every pair within 1e-15 of the top gain, widening the window until a
    gap of 2e-15 separates it from the remaining pairs, and runs that scan
    over the popped pairs; pairs below such a gap cannot change its outcome.

    The labels are computed once per snapshot; each call returns a copy.
    """
    return _communities(snapshot)[0].copy()


def _communities(snapshot: Snapshot) -> tuple:
    """``detect_communities``' labels, read-only, and their modularity Q.

    Computed once per snapshot and kept in its private state beside its edge
    arrays (pickling drops it), so a caller that reports Q after detecting
    communities does not score the partition again. Q is scored a second
    time only when the partition falls back to a single community.
    """
    found = vars(snapshot).get("_communities")
    if found is not None:
        return found
    if snapshot.directed:
        raise DataError("community detection is defined here for undirected snapshots only")
    n = snapshot.n_nodes
    s = snapshot.strength()
    m2 = s.sum()
    if m2 <= 0:
        raise DataError("community detection undefined for a graph with no edges")

    members = [[i] for i in range(n)]  # None once absorbed; a survivor is its smallest member
    a = s / m2
    a_frac = a.tolist()
    nbrs = [{} for _ in range(n)]  # community -> {neighbour community: e_frac}
    rows, cols, w = snapshot._edge_arrays  # each undirected edge once, rows < cols
    e = w / m2
    gains = 2.0 * (e - a[rows] * a[cols])
    rows, cols = rows.tolist(), cols.tolist()
    for i, j, e_ij in zip(rows, cols, e.tolist()):
        nbrs[i][j] = nbrs[j][i] = e_ij

    # Heap entries are (-gain, ci, cj) with ci < cj; live[ci * n + cj] is the
    # pair's one live entry, checked by identity. Only pairs whose gain is
    # above _GAIN_TOL get one, and a live entry's gain never underestimates
    # the pair's current gain (see detect_communities).
    heap = [(-g, i, j) for g, i, j in zip(gains.tolist(), rows, cols) if g > _GAIN_TOL]
    live = {entry[1] * n + entry[2]: entry for entry in heap}
    heapq.heapify(heap)
    heappush, heappop = heapq.heappush, heapq.heappop

    while True:
        candidates = []
        while heap:
            top = -heap[0][0]
            if candidates and top < -candidates[-1][0] - 2 * _GAIN_TOL:
                break
            entry = heappop(heap)
            _, ci, cj = entry
            key = ci * n + cj
            if live.get(key) is not entry:
                continue
            gain = 2.0 * (nbrs[ci][cj] - a_frac[ci] * a_frac[cj])
            if gain != top:
                if gain > _GAIN_TOL:
                    live[key] = fresh = (-gain, ci, cj)
                    heappush(heap, fresh)
                else:
                    del live[key]
                continue
            candidates.append(entry)
        if not candidates:
            break
        best_gain = 0.0
        for neg_gain, ci, cj in sorted(candidates, key=lambda c: c[1:]):
            if -neg_gain > best_gain + _GAIN_TOL:
                best_gain, best = -neg_gain, (ci, cj)
        for entry in candidates:
            if entry[1:] != best:
                heappush(heap, entry)

        ci, cj = best
        members[ci] += members[cj]
        members[cj] = None
        a_ci = a_frac[ci] = a_frac[ci] + a_frac[cj]
        nbrs_ci = nbrs[ci]
        del nbrs_ci[cj], live[ci * n + cj]
        for k, w in nbrs[cj].items():
            if k == ci:
                continue
            del nbrs[k][cj]
            live.pop(cj * n + k if cj < k else k * n + cj, None)
            e_ik = nbrs_ci[k] = nbrs[k][ci] = nbrs_ci.get(k, 0.0) + w
            gain = 2.0 * (e_ik - a_ci * a_frac[k])
            lo, hi = (ci, k) if ci < k else (k, ci)
            key = lo * n + hi
            kept = live.get(key)  # every live entry's gain is above _GAIN_TOL
            if gain > _GAIN_TOL and (kept is None or -kept[0] < gain):
                live[key] = fresh = (-gain, lo, hi)
                heappush(heap, fresh)
        nbrs[cj] = None
        if len(heap) > 2 * len(live):
            heap = list(live.values())
            heapq.heapify(heap)

    labels = np.empty(n, dtype=int)
    for new_id, group in enumerate(g for g in members if g is not None):
        labels[group] = new_id

    q = modularity(snapshot, labels)
    if q < 0.0:
        labels = np.zeros(n, dtype=int)
        q = modularity(snapshot, labels)
    labels.setflags(write=False)
    object.__setattr__(snapshot, "_communities", (labels, q))
    return labels, q


def eigenvector_centrality(snapshot: Snapshot, spectrum: Spectrum | None = None) -> np.ndarray:
    """Magnitudes of the leading adjacency eigenvector (unit 2-norm).

    ``spectrum`` may carry a precomputed decomposition of the snapshot's
    adjacency, checked as in ``importance.node_importance``: another size or
    type raises ArgumentError, and a same-size spectrum of another matrix is
    the caller's promise.
    """
    _check_spectrum(spectrum, snapshot)
    if snapshot.directed:
        raise DataError("eigenvector centrality is defined here for undirected snapshots only")
    if snapshot.n_edges == 0:
        raise DataError("eigenvector centrality undefined for a graph with no edges")
    spec = spectrum if spectrum is not None else eig_sym(snapshot.adjacency())
    return np.abs(spec.eigenvectors[:, 0])


def pagerank(snapshot: Snapshot) -> np.ndarray:
    """Weighted PageRank by power iteration, damped by ``PAGERANK_DAMPING``.

    Transition weights are out-strength normalized; dangling nodes spread
    their mass uniformly. Iterates until the L1 change drops to ``PAGERANK_TOL``.
    Without dangling nodes the term is skipped: adding its 0.0 changes no bit.
    """
    n = snapshot.n_nodes
    if n == 0:
        raise DataError("pagerank undefined for an empty snapshot")
    a = snapshot.adjacency()
    out_s = snapshot.strength("out")
    nz = out_s > 0
    trans = np.divide(a, out_s[:, None], out=np.zeros_like(a), where=nz[:, None])

    dangling = np.flatnonzero(~nz)
    p = np.full(n, 1.0 / n)
    for _ in range(PAGERANK_MAX_ITER):
        flow = trans.T @ p
        if dangling.size:
            flow += p[dangling].sum() / n
        nxt = PAGERANK_DAMPING * flow + (1.0 - PAGERANK_DAMPING) / n
        if np.abs(nxt - p).sum() <= PAGERANK_TOL:
            return nxt
        p = nxt
    raise NumericalError(f"pagerank did not converge in {PAGERANK_MAX_ITER} iterations")


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    dof: float
    p_value: float


def mean_diff_ttest(a, b) -> TTestResult:
    """Welch's two-sided t-test for a difference in means.

    Uses the Welch-Satterthwaite degrees of freedom; each group needs at
    least two finite samples, and a group whose values are all equal is a
    DataError. Both groups are scaled by one power of two (``_unit_scale``),
    which leaves t and the degrees of freedom unchanged, before any sum.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise DataError("each group needs at least two samples")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DataError("t-test needs finite samples")
    if a.min() == a.max() or b.min() == b.max():
        raise DataError("constant group; t statistic undefined")
    k = _unit_scale(a, b)
    a, b = np.ldexp(a, k), np.ldexp(b, k)
    va = a.var(ddof=1) / a.size
    vb = b.var(ddof=1) / b.size
    denom = va + vb
    t = (a.mean() - b.mean()) / np.sqrt(denom)
    dof = denom**2 / (va**2 / (a.size - 1) + vb**2 / (b.size - 1))
    p = 2.0 * stdtr(float(dof), -abs(float(t)))
    return TTestResult(t_stat=float(t), dof=float(dof), p_value=p)


def _unit_scale(*samples: np.ndarray) -> int:
    """The k that brings the largest magnitude of ``samples`` times 2^k into [0.5, 1): an exact scaling,
    after which the sample holding it has, unless constant, sums of squares inside the normal range."""
    return -math.frexp(max(float(np.abs(s).max()) for s in samples))[1]


def pearson(x, y) -> float:
    """Pearson correlation, in [-1, 1], of the inputs each scaled by its own power of two
    (``_unit_scale``); raises DataError when an input is not finite or has all its values equal."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ArgumentError("pearson expects two equal-length 1-D arrays")
    if x.size < 2:
        raise DataError("need at least two observations")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DataError("correlation needs finite observations")
    if x.min() == x.max() or y.min() == y.max():
        raise DataError("correlation undefined for a constant input")
    x, y = np.ldexp(x, _unit_scale(x)), np.ldexp(y, _unit_scale(y))
    xd = x - x.mean()
    yd = y - y.mean()
    r = (xd * yd).sum() / (np.sqrt((xd**2).sum()) * np.sqrt((yd**2).sum()))
    return min(1.0, max(-1.0, float(r)))  # the rounded square roots can put |r| an ulp above 1
