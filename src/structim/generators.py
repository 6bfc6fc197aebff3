"""Deterministic network generators.

``barbell`` builds the static two-clique-plus-path family used throughout the
tests. ``synthetic_temporal`` builds a temporal benchmark whose node presence
is causally coupled to a spectral importance measure, so prediction code has
a ground truth with a known sign: with a negative coupling, structurally
important nodes are more likely to drop out of the next snapshot.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ArgumentError, _check_seed
from .graphs import Snapshot, TemporalNetwork, _is_integer, _is_weight
from .importance import node_importance

# Keep probability of an average node in the synthetic generator: the
# presence logit starts at logit(0.8) before the importance coupling shifts it.
BASE_PRESENCE = 0.8
_ALPHA = math.log(BASE_PRESENCE / (1.0 - BASE_PRESENCE))

_P_IN = 0.25  # intra-community edge probability
_P_OUT = 0.02  # inter-community edge probability
_P_HUB_OUT = 0.1  # hub to out-of-community node
_NOISE_SIGMA = 0.25  # per-snapshot lognormal weight jitter
_PCG64_PERIOD = 1 << 128  # advancing a PCG64 stream by its period leaves it where it stands


def _check_integers(generator: str, **sizes) -> None:
    """Each size argument of ``generator`` is an integer, Python's or numpy's, and not a bool."""
    for name, value in sizes.items():
        if not _is_integer(value):
            raise ArgumentError(f"{generator} needs an integer {name}, got {value!r}")


def barbell(n_left: int = 4, bridge: int = 2, n_right: int = 5, weight: float = 1.0) -> Snapshot:
    """Two cliques joined by a path of ``bridge`` intermediate nodes.

    Nodes 0..n_left-1 form the left clique, the next ``bridge`` nodes the
    path, the last ``n_right`` the right clique. The path attaches at the
    last left-clique node and the first right-clique node. Every edge has the
    positive finite ``weight``.
    """
    _check_integers("barbell", n_left=n_left, bridge=bridge, n_right=n_right)
    if n_left < 2 or n_right < 2 or bridge < 0:
        raise ArgumentError(f"barbell needs n_left >= 2, bridge >= 0, n_right >= 2; got {n_left}, {bridge}, {n_right}")
    if not _is_weight(weight):
        raise ArgumentError(f"barbell needs a positive finite weight, got {weight!r}")
    n = n_left + bridge + n_right
    edges = []
    for i in range(n_left):
        for j in range(i + 1, n_left):
            edges.append((i, j, weight))
    right0 = n_left + bridge
    for i in range(right0, n):
        for j in range(i + 1, n):
            edges.append((i, j, weight))
    chain = [n_left - 1] + list(range(n_left, right0)) + [right0]
    for a, b in zip(chain, chain[1:]):
        edges.append((min(a, b), max(a, b), weight))
    return Snapshot(node_ids=tuple(range(n)), edges=tuple(sorted(set(edges))), directed=False, timestamp=0)


def repeat_snapshot(snapshot: Snapshot, repeats: int) -> TemporalNetwork:
    """A static temporal network: the same snapshot at times 0..repeats-1."""
    _check_integers("repeat_snapshot", repeats=repeats)
    if repeats < 1:
        raise ArgumentError(f"repeats must be >= 1, got {repeats}")
    snaps = tuple(
        Snapshot(node_ids=snapshot.node_ids, edges=snapshot.edges, directed=snapshot.directed, timestamp=t)
        for t in range(repeats)
    )
    return TemporalNetwork(snapshots=snaps, universe=snapshot.node_ids)


def _base_graph(n: int, communities: int, hub_count: int, rng: np.random.Generator):
    block_of = np.minimum(np.arange(n) * communities // n, communities - 1)
    members = [np.flatnonzero(block_of == b) for b in range(communities)]
    is_hub = np.zeros(n, dtype=bool)
    for h in range(hub_count):
        block = members[h % communities]
        is_hub[block[(h // communities) % len(block)]] = True

    # One uniform draw per pair in (i, j) order and one lognormal per kept
    # pair, as a plain double loop would make them. Probabilities are built
    # a row at a time, so memory stays O(n) rather than O(n^2). Each row's
    # uniforms come from one block call, which yields the same doubles as
    # that many scalar calls. At the first kept pair k the generator is
    # rewound to just after k's uniform: PCG64's period is 2^128, so
    # advancing by 2^128 minus the draws past k steps back over them. Then
    # k's lognormal is drawn and the row goes on from k + 1, so the stream
    # and the final state are the pairwise loop's.
    bits = rng.bit_generator
    edges = {}
    for i in range(n):
        same = block_of[i + 1 :] == block_of[i]
        hub_pair = is_hub[i + 1 :] | is_hub[i]
        p = np.where(same, np.where(hub_pair, 1.0, _P_IN), np.where(hub_pair, _P_HUB_OUT, _P_OUT))
        j = i + 1
        while p.size:
            hit = rng.random(p.size) < p
            k = int(hit.argmax())
            if not hit[k]:
                break
            bits.advance(_PCG64_PERIOD - (p.size - k - 1))
            edges[(i, j + k)] = float(rng.lognormal(0.0, 1.0))
            j += k + 1
            p = p[k + 1 :]
    return edges


def synthetic_temporal(
    n: int,
    communities: int,
    hub_count: int,
    dropout_coupling: float,
    horizon: int,
    seed: int = 0,
) -> TemporalNetwork:
    """Temporal network with importance-coupled node dropout.

    Snapshot 0 is a planted-community base graph with hub nodes. Every later
    snapshot resamples from the base graph: node i survives with probability
    sigmoid(logit(0.8) + dropout_coupling * z_i), where z_i is the node's
    standardized mb importance in the previous snapshot (0 when absent), and
    surviving base edges get fresh lognormal weight noise. With
    dropout_coupling = 0 presence is i.i.d. at rate ~0.8. A dropout_coupling
    so large that the logit overflows keeps a node with probability exactly
    0 or 1, the sigmoid's limit.

    Same arguments and seed give an identical network, byte for byte. The
    base graph draws each row's pair uniforms in one call and, at each kept
    pair, rewinds the PCG64 generator by a 2^128-periodic advance to just
    after that pair's uniform before its lognormal weight. A block call gives
    the same doubles as that many scalar calls, so the networks are those of
    a plain loop with one uniform per pair and one lognormal per kept pair.
    """
    _check_integers("synthetic_temporal", n=n, communities=communities, hub_count=hub_count, horizon=horizon)
    if communities < 1 or n < communities:
        raise ArgumentError(f"need n >= communities >= 1, got n={n}, communities={communities}")
    if not 0 <= hub_count <= n:
        raise ArgumentError(f"hub_count must be in 0..n={n}, got {hub_count}")
    if not isinstance(dropout_coupling, numbers.Real) or isinstance(dropout_coupling, bool):
        raise ArgumentError(f"synthetic_temporal needs a real dropout_coupling, got {dropout_coupling!r}")
    try:
        finite = math.isfinite(dropout_coupling)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ArgumentError(f"dropout_coupling must be finite, got {dropout_coupling}")
    if horizon < 2:
        raise ArgumentError(f"horizon must be >= 2, got {horizon}")
    _check_seed(seed)

    base = _base_graph(n, communities, hub_count, np.random.default_rng([seed, 0]))
    # _base_graph's pairs (i, j) come once each, with i < j, in sorted order
    lo, hi = np.array(list(base), dtype=int).reshape(-1, 2).T
    w = np.fromiter(base.values(), dtype=float, count=len(base))
    snapshots = [Snapshot._from_pairs(range(n), lo, hi, w, directed=False, timestamp=0)]

    for t in range(1, horizon):
        rng = np.random.default_rng([seed, 1, t])
        prev = snapshots[-1]
        mb = node_importance(prev, "mb").values
        z = np.zeros(n)
        if mb:
            raw = np.array(list(mb.values()))
            std = raw.std()
            mean = raw.mean()
            if std > 0:
                z[list(mb)] = (raw - mean) / std
        # at a large |coupling| the logit or its exp overflows to inf, which
        # sends the keep probability to its limit, exactly 0.0 or 1.0
        with np.errstate(over="ignore"):
            keep_logit = _ALPHA + dropout_coupling * z
            keep = rng.random(n) < 1.0 / (1.0 + np.exp(-keep_logit))
        # one noise draw per surviving base edge in pair order: the stream of k scalar draws
        live = keep[lo] & keep[hi]
        noisy = w[live] * rng.lognormal(0.0, _NOISE_SIGMA, size=np.count_nonzero(live))
        snapshots.append(Snapshot._from_pairs(range(n), lo[live], hi[live], noisy, directed=False, timestamp=t))

    return TemporalNetwork(snapshots=tuple(snapshots), universe=tuple(range(n)))
