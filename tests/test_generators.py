import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from structim import (BASE_PRESENCE, Snapshot, TemporalNetwork, barbell, node_importance, repeat_snapshot,
                      synthetic_temporal)
from structim.errors import ArgumentError
from structim.generators import _ALPHA, _NOISE_SIGMA, _P_HUB_OUT, _P_IN, _P_OUT, _base_graph


def _base_graph_oracle(n, communities, hub_count, rng):
    """The plain double loop over pairs that ``_base_graph`` must reproduce."""
    block_of = np.array([min(i * communities // n, communities - 1) for i in range(n)])
    members = [np.flatnonzero(block_of == b) for b in range(communities)]
    hubs = set()
    for h in range(hub_count):
        block = members[h % communities]
        hubs.add(int(block[(h // communities) % len(block)]))

    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            same = block_of[i] == block_of[j]
            hub_pair = i in hubs or j in hubs
            if same and hub_pair:
                p = 1.0
            elif same:
                p = _P_IN
            elif hub_pair:
                p = _P_HUB_OUT
            else:
                p = _P_OUT
            if rng.random() < p:
                edges[(i, j)] = float(rng.lognormal(0.0, 1.0))
    return edges


def test_barbell_default_shape():
    s = barbell(4, 2, 5)
    assert s.n_nodes == 11
    # two cliques (6 + 10 edges) plus a 3-edge chain through the bridge
    assert s.n_edges == 6 + 10 + 3
    a = s.adjacency()
    assert np.allclose(a, a.T)
    # bridge chain: last left-clique node - 4 - 5 - first right-clique node
    assert a[3, 4] == a[4, 5] == a[5, 6] == 1.0
    assert a[3, 6] == 0.0


def test_barbell_weight_scales_everything():
    s = barbell(3, 1, 3, weight=2.5)
    assert set(w for _, _, w in s.edges) == {2.5}


def test_barbell_validates_sizes():
    with pytest.raises(ValueError):
        barbell(1, 2, 5)
    with pytest.raises(ValueError):
        barbell(4, -1, 5)


# one rejected value per size argument: a float, a bool, a string
_NOT_INTEGER = [
    ("barbell", "n_left", lambda: barbell(n_left=2.5)),
    ("barbell", "bridge", lambda: barbell(bridge=True)),
    ("barbell", "n_right", lambda: barbell(n_right="3")),
    ("repeat_snapshot", "repeats", lambda: repeat_snapshot(barbell(), 2.5)),
    ("synthetic_temporal", "n", lambda: synthetic_temporal(20.5, 2, 1, 0.0, 3)),
    ("synthetic_temporal", "communities", lambda: synthetic_temporal(20, 2.0, 1, 0.0, 3)),
    ("synthetic_temporal", "hub_count", lambda: synthetic_temporal(20, 2, True, 0.0, 3)),
    ("synthetic_temporal", "horizon", lambda: synthetic_temporal(20, 2, 1, 0.0, np.float64(3))),
]


# the least value of each size, with the other arguments as _NOT_INTEGER gives them
_LEAST = {"n_left": 2, "bridge": 0, "n_right": 2, "repeats": 1, "n": 2, "communities": 1, "hub_count": 0, "horizon": 2}


@pytest.mark.parametrize("generator,name,call", _NOT_INTEGER, ids=[f"{g}-{n}" for g, n, _ in _NOT_INTEGER])
def test_generators_reject_sizes_that_are_not_integers(generator, name, call):
    with pytest.raises(ArgumentError, match=f"^{name} must be an integer >= {_LEAST[name]}, got "):
        call()


def test_generators_take_numpy_integer_sizes():
    assert barbell(np.int64(3), np.int32(1), np.int64(3)).n_nodes == 7
    assert repeat_snapshot(barbell(), np.int64(2)).n_snapshots == 2
    assert synthetic_temporal(np.int64(20), np.int64(2), np.int64(1), 0.0, np.int64(3)).n_snapshots == 3


def test_barbell_zero_bridge_joins_cliques_directly():
    s = barbell(2, 0, 2)
    assert s.n_nodes == 4
    assert s.n_edges == 3
    a = s.adjacency()
    assert a[1, 2] == 1.0  # the joining edge


def test_repeat_snapshot():
    tn = repeat_snapshot(barbell(), 4)
    assert tn.n_snapshots == 4
    assert [s.timestamp for s in tn.snapshots] == [0, 1, 2, 3]
    base = tn.snapshots[0].adjacency()
    for s in tn.snapshots[1:]:
        assert np.array_equal(s.adjacency(), base)
    with pytest.raises(ValueError):
        repeat_snapshot(barbell(), 0)


def test_synthetic_deterministic_per_seed():
    a = synthetic_temporal(n=40, communities=3, hub_count=2, dropout_coupling=-1.0, horizon=6, seed=5)
    b = synthetic_temporal(n=40, communities=3, hub_count=2, dropout_coupling=-1.0, horizon=6, seed=5)
    c = synthetic_temporal(n=40, communities=3, hub_count=2, dropout_coupling=-1.0, horizon=6, seed=6)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


def test_synthetic_shape_and_universe():
    tn = synthetic_temporal(n=50, communities=4, hub_count=3, dropout_coupling=0.0, horizon=8, seed=1)
    assert tn.n_snapshots == 8
    assert len(tn.universe) <= 50
    for s in tn.snapshots:
        assert set(s.node_ids) <= set(tn.universe)
        # only active nodes are carried, never isolated ones
        if s.n_nodes:
            assert np.all(s.strength() > 0)


def test_synthetic_edge_survival_rate_when_decoupled():
    # nodes are kept w.p. BASE_PRESENCE; an edge needs both endpoints, so the
    # expected edge survival rate is BASE_PRESENCE squared at zero coupling
    tn = synthetic_temporal(n=80, communities=4, hub_count=3, dropout_coupling=0.0, horizon=21, seed=3)
    base_edges = tn.snapshots[0].n_edges
    rates = [s.n_edges / base_edges for s in tn.snapshots[1:]]
    mean_rate = float(np.mean(rates))
    assert abs(mean_rate - BASE_PRESENCE**2) < 0.03


def test_synthetic_coupling_depresses_important_nodes():
    # strong negative coupling must lower overall edge survival vs decoupled
    tn_neg = synthetic_temporal(n=80, communities=4, hub_count=3, dropout_coupling=-3.0, horizon=12, seed=9)
    tn_zero = synthetic_temporal(n=80, communities=4, hub_count=3, dropout_coupling=0.0, horizon=12, seed=9)
    base = tn_neg.snapshots[0].n_edges
    surv_neg = np.mean([s.n_edges for s in tn_neg.snapshots[1:]]) / base
    surv_zero = np.mean([s.n_edges for s in tn_zero.snapshots[1:]]) / base
    # the sigmoid is symmetric around the base rate, but heavy negative z for
    # hubs cuts more than light positive z adds back
    assert surv_neg != pytest.approx(surv_zero, abs=1e-6)


def test_synthetic_validates_args():
    with pytest.raises(ValueError):
        synthetic_temporal(n=10, communities=0, hub_count=1, dropout_coupling=0.0, horizon=3, seed=0)
    with pytest.raises(ValueError):
        synthetic_temporal(n=10, communities=20, hub_count=1, dropout_coupling=0.0, horizon=3, seed=0)
    with pytest.raises(ValueError):
        synthetic_temporal(n=10, communities=2, hub_count=1, dropout_coupling=0.0, horizon=0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        synthetic_temporal(n=10, communities=2, hub_count=1, dropout_coupling=0.0, horizon=3, seed=-1)


# non-finite as a float, then no real number at all (a bool counts as none)
_BAD_COUPLINGS = [
    float("nan"), float("inf"), -float("inf"), pytest.param(10**400, id="int-beyond-float"),
    "a", None, pytest.param([1.0], id="list"), True, pytest.param(np.bool_(True), id="numpy-bool"),
]


@pytest.mark.parametrize("coupling", _BAD_COUPLINGS)
def test_synthetic_rejects_nonfinite_coupling(monkeypatch, coupling):
    def generate_nothing(*args, **kwargs):
        raise AssertionError("generated before the argument checks")

    monkeypatch.setattr("structim.generators._base_graph", generate_nothing)
    message = re.escape(f"dropout_coupling must be a real number in (-inf, inf), got {coupling!r}")
    with pytest.raises(ArgumentError, match=message):
        synthetic_temporal(20, 2, 2, coupling, 5, seed=1)


@pytest.mark.parametrize("coupling", [1000.0, -1000.0, 1e308, -1e308])
def test_synthetic_takes_a_coupling_that_overflows_the_logit(coupling):
    # pyproject.toml's filterwarnings = error fails on an overflow warning; the keep probability
    # goes to its limit, 0.0 or 1.0, as the unguarded sigmoid's does
    got = synthetic_temporal(30, 3, 2, coupling, 4, seed=1)
    with np.errstate(over="ignore"):
        want = _synthetic_temporal_oracle(30, 3, 2, coupling, 4, 1)
    assert got.to_json() == want.to_json()


@st.composite
def _base_graph_args(draw):
    n = draw(st.integers(1, 60))
    return n, draw(st.integers(1, n)), draw(st.integers(0, n)), draw(st.integers(0, 2**32 - 1))


@given(_base_graph_args())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_base_graph_matches_pairwise_loop(args):
    n, communities, hub_count, seed = args
    got = _base_graph(n, communities, hub_count, got_rng := np.random.default_rng([seed, 0]))
    want = _base_graph_oracle(n, communities, hub_count, want_rng := np.random.default_rng([seed, 0]))
    assert list(got.items()) == list(want.items())
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert all(type(i) is int and type(j) is int and type(w) is float for (i, j), w in got.items())


# the analyze-sparse inputs of seed 11 (sub-seeds 11 and 100011) and a
# predict-small one: rows of up to 599 pairs, each drawn as one block
@pytest.mark.parametrize("n,communities,hub_count,seed", [(600, 24, 4, 11), (600, 24, 4, 100011), (120, 4, 4, 11)])
def test_base_graph_matches_pairwise_loop_at_benchmark_scale(n, communities, hub_count, seed):
    got = _base_graph(n, communities, hub_count, got_rng := np.random.default_rng([seed, 0]))
    want = _base_graph_oracle(n, communities, hub_count, want_rng := np.random.default_rng([seed, 0]))
    assert list(got.items()) == list(want.items())
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def _synthetic_temporal_oracle(n, communities, hub_count, dropout_coupling, horizon, seed):
    """The dict-based generator that ``synthetic_temporal`` replaced: every
    snapshot goes through the public constructor, and each surviving edge
    draws its noise with one scalar call."""
    def snapshot_from_edges(edge_weights, timestamp):
        nodes = sorted({v for pair in edge_weights for v in pair})
        index = {v: k for k, v in enumerate(nodes)}
        edges = tuple((index[a], index[b], w) for (a, b), w in sorted(edge_weights.items()))
        return Snapshot(node_ids=tuple(nodes), edges=edges, directed=False, timestamp=timestamp)

    base = _base_graph(n, communities, hub_count, np.random.default_rng([seed, 0]))
    snapshots = [snapshot_from_edges(base, 0)]
    for t in range(1, horizon):
        rng = np.random.default_rng([seed, 1, t])
        mb = node_importance(snapshots[-1], "mb").values
        z = np.zeros(n)
        if mb:
            raw = np.array(list(mb.values()))
            if raw.std() > 0:
                for node, val in mb.items():
                    z[node] = (val - raw.mean()) / raw.std()
        keep = rng.random(n) < 1.0 / (1.0 + np.exp(-(_ALPHA + dropout_coupling * z)))
        survivors = {}
        for (a, b), w in sorted(base.items()):
            if keep[a] and keep[b]:
                survivors[(a, b)] = float(w * rng.lognormal(0.0, _NOISE_SIGMA))
        snapshots.append(snapshot_from_edges(survivors, t))
    return TemporalNetwork(snapshots=tuple(snapshots), universe=tuple(range(n)))


@st.composite
def _synthetic_args(draw):
    n = draw(st.integers(1, 30))
    return (n, draw(st.integers(1, n)), draw(st.integers(0, n)), draw(st.sampled_from((-3.0, -1.0, 0.0, 1.5))),
            draw(st.integers(2, 6)), draw(st.integers(0, 2**32 - 1)))


# n = 1 and n = 2 across two communities have no base edge; (4, 1, 0, -2.0, 4, 2)
# leaves snapshots 1 and 3 with no surviving edge
@given(_synthetic_args())
@example((1, 1, 0, 0.0, 3, 0))
@example((2, 2, 0, -1.0, 4, 1))
@example((4, 1, 0, -2.0, 4, 2))
@settings(derandomize=True, max_examples=60, deadline=None)
def test_synthetic_matches_the_dict_based_generator(args):
    got = synthetic_temporal(*args)
    assert got.to_json() == _synthetic_temporal_oracle(*args).to_json()


@given(_synthetic_args())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_synthetic_snapshots_meet_the_public_constructor_rules(args):
    # Snapshot._from_pairs does not check the pairs the generator builds; the
    # public constructor must accept each snapshot and build the same edge arrays
    for s in synthetic_temporal(*args).snapshots:
        rebuilt = Snapshot(node_ids=s.node_ids, edges=s.edges, directed=s.directed, timestamp=s.timestamp)
        assert rebuilt == s
        for a, b in zip(rebuilt._edge_arrays, s._edge_arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert all(type(i) is int and type(j) is int and type(w) is float and math.isfinite(w) for i, j, w in s.edges)
