"""Shared builders and independent numeric oracles for the test suite."""

import inspect
import math

import numpy as np

import structim
from structim import Snapshot, TemporalNetwork


def public_callables():
    """The functions in ``__all__`` and the public methods of its classes."""
    for name in structim.__all__:
        obj = getattr(structim, name)
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, lambda m: inspect.isfunction(m) or inspect.ismethod(m)):
                if not attr.startswith("_"):
                    yield member
        elif callable(obj):
            yield obj


def clique(n, w=1.0, timestamp=0, node_ids=None):
    ids = tuple(range(n)) if node_ids is None else tuple(node_ids)
    edges = tuple((i, j, w) for i in range(n) for j in range(i + 1, n))
    return Snapshot(node_ids=ids, edges=edges, directed=False, timestamp=timestamp)


def cycle(n, w=1.0, timestamp=0):
    edges = []
    for i in range(n):
        a, b = i, (i + 1) % n
        if a > b:
            a, b = b, a
        edges.append((a, b, w))
    return Snapshot(node_ids=tuple(range(n)), edges=tuple(sorted(set(edges))),
                    directed=False, timestamp=timestamp)


def path_graph(n, w=1.0, timestamp=0):
    edges = tuple((i, i + 1, w) for i in range(n - 1))
    return Snapshot(node_ids=tuple(range(n)), edges=edges, directed=False, timestamp=timestamp)


def random_connected(rng, n, w_lo=0.5, w_hi=2.0):
    """Random connected weighted graph: random attachment tree plus extras."""
    edges = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        edges[(j, i)] = float(rng.uniform(w_lo, w_hi))
    for _ in range(int(rng.integers(0, n + 1))):
        a, b = rng.choice(n, size=2, replace=False)
        a, b = (int(a), int(b)) if a < b else (int(b), int(a))
        edges.setdefault((a, b), float(rng.uniform(w_lo, w_hi)))
    return Snapshot(
        node_ids=tuple(range(n)),
        edges=tuple((i, j, w) for (i, j), w in sorted(edges.items())),
        directed=False,
        timestamp=0,
    )


def network_from(snapshots):
    universe = tuple(sorted({v for s in snapshots for v in s.node_ids}))
    return TemporalNetwork(snapshots=tuple(snapshots), universe=universe)


def directed_triangles(horizon=8):
    """A directed three-node cycle repeated over ``horizon`` snapshots."""
    return network_from([
        Snapshot(node_ids=("a", "b", "c"), edges=((0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.5)), directed=True, timestamp=t)
        for t in range(horizon)
    ])


def strengths(s):
    """{node id: strength} of a snapshot, from its edge list one edge at a time."""
    out = dict.fromkeys(s.node_ids, 0.0)
    for i, j, w in s.edges:
        out[s.node_ids[i]] += w
        out[s.node_ids[j]] += w
    return out


def reference_labels(tn, t, target, threshold=0.05):
    """{node id: label} for the nodes of snapshot t that ``target`` labels,
    in snapshot order, written node by node from the rules in README; ints,
    floats for rel_change."""
    s1_of = strengths(tn.snapshots[t + 1])
    out = {}
    for v, s0 in strengths(tn.snapshots[t]).items():
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


def class_weights_oracle(y):
    """Each row's class weight, row by row: 1 in the larger class, and the
    larger class's count over the smaller's in the smaller class."""
    n1 = int(np.sum(y))
    n0 = len(y) - n1
    small = 1.0 if n1 < n0 else 0.0
    return np.array([max(n0, n1) / min(n0, n1) if v == small else 1.0 for v in y])


def student_t_cdf(dof, x):
    """Student-t CDF by Simpson quadrature of the density; oracle only."""
    if x == 0:
        return 0.5
    lim = abs(float(x))
    c = math.exp(math.lgamma((dof + 1) / 2.0) - math.lgamma(dof / 2.0)) / math.sqrt(dof * math.pi)
    m = 20001
    ts = np.linspace(0.0, lim, m)
    dens = c * (1.0 + ts * ts / dof) ** (-(dof + 1) / 2.0)
    h = lim / (m - 1)
    area = (h / 3.0) * (dens[0] + dens[-1] + 4.0 * dens[1:-1:2].sum() + 2.0 * dens[2:-1:2].sum())
    return 0.5 + area if x > 0 else 0.5 - area


def binom_cdf_oracle(k, n, p):
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p <= 0:
        return 1.0
    if p >= 1:
        return 0.0
    total = 0.0
    for i in range(0, k + 1):
        total += math.comb(n, i) * p**i * (1.0 - p) ** (n - i)
    return min(total, 1.0)


def binom_ci_oracle(k, n, alpha=0.05):
    """Clopper-Pearson interval by bisection over the comb-sum CDF."""
    half = alpha / 2.0

    def bisect(f, target, increasing):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = (lo + hi) / 2.0
            below = f(mid) < target
            if below == increasing:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    if k == 0:
        lo = 0.0
    else:
        # P(X >= k | p) grows with p; find p with tail = alpha/2
        lo = bisect(lambda p: 1.0 - binom_cdf_oracle(k - 1, n, p), half, increasing=True)
    if k == n:
        hi = 1.0
    else:
        # P(X <= k | p) falls with p
        hi = bisect(lambda p: binom_cdf_oracle(k, n, p), half, increasing=False)
    return lo, hi
