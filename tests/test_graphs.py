import copy
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import DataError, Snapshot, TemporalNetwork, load_snapshots_text

from conftest import clique, network_from


def test_snapshot_basic_shape():
    s = Snapshot(node_ids=(1, 2, 7), edges=((0, 1, 2.0), (1, 2, 0.5)), directed=False, timestamp=0)
    assert s.n_nodes == 3
    assert s.n_edges == 2
    a = s.adjacency()
    assert a.shape == (3, 3)
    assert a[0, 1] == a[1, 0] == 2.0
    assert a[1, 2] == a[2, 1] == 0.5
    assert np.all(np.diag(a) == 0)


def test_snapshot_node_index():
    s = Snapshot(node_ids=("b", "a", "c"), edges=((0, 1, 1.0),), directed=False, timestamp=0)
    assert s.node_index == {"b": 0, "a": 1, "c": 2}


def test_snapshot_rejects_bad_edges():
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 1), edges=((0, 0, 1.0),), directed=False, timestamp=0)  # self loop
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 1), edges=((0, 2, 1.0),), directed=False, timestamp=0)  # out of range
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 1), edges=((1, 0, 1.0),), directed=False, timestamp=0)  # i >= j undirected
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 1), edges=((0, 1, -1.0),), directed=False, timestamp=0)  # negative wt
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 1), edges=((0, 1, 0.0),), directed=False, timestamp=0)  # zero wt
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 1), edges=((0, 1, float("nan")),), directed=False, timestamp=0)
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 0), edges=(), directed=False, timestamp=0)  # dup ids
    with pytest.raises(DataError):
        Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0), (0, 1, 2.0)), directed=False, timestamp=0)


@pytest.mark.parametrize("edge", [(0.7, 2, 1.0), (0, 2.0, 1.0), (True, 2, 1.0), (0, np.True_, 1.0),
                                  ("a", 2, 1.0), (None, 2, 1.0)],
                         ids=["fractional", "integral-float", "bool", "numpy-bool", "text", "none"])
def test_snapshot_rejects_a_node_index_that_is_not_an_integer(edge):
    # 0.7 once loaded as node 0, next to int indices a bool would become node 0 or 1,
    # and a text or None index raised a bare TypeError
    message = f"edge ({edge[0]!r}, {edge[1]!r}) has a node index that is not an integer"
    for edges in ((edge,), ((0, 1, 1.0), edge)):
        with pytest.raises(DataError, match=re.escape(message)):
            Snapshot(node_ids=(0, 1, 2), edges=edges)
    s = Snapshot(node_ids=(0, 1, 2), edges=((np.int64(0), np.uint8(2), 1.0),))
    assert s.adjacency()[0, 2] == 1.0


@pytest.mark.parametrize("record", [5, None], ids=["int", "none"])
def test_snapshot_rejects_an_edge_record_without_a_length(record):
    # len() of such a record once raised a bare TypeError before any edge rule ran
    message = f"edge record {record!r} is not an (i, j, w) triple"
    for edges in ((record,), ((0, 1, 1.0), record), ((0, 1, 1.0), record, (0, 1))):
        with pytest.raises(DataError, match=re.escape(message)):
            Snapshot(node_ids=(0, 1), edges=edges)


@pytest.mark.parametrize("record", [{0, 1, 2}, {"a": 1, "b": 2, "c": 3}, "abc", np.array([0, 1, 2.0])],
                         ids=["set", "dict", "str", "numpy-row"])
def test_snapshot_takes_only_a_tuple_or_list_as_an_edge_record(record):
    # a set or dict of three once raised a bare TypeError or KeyError
    message = f"edge record {record!r} is not an (i, j, w) triple"
    for edges in ((record,), ((0, 1, 1.0), record)):
        with pytest.raises(DataError, match=re.escape(message)):
            Snapshot(node_ids=(0, 1, 2), edges=edges)


@pytest.mark.parametrize("weight", [10**400, True, np.True_], ids=["int-beyond-float", "bool", "numpy-bool"])
def test_snapshot_rejects_a_weight_that_is_not_a_positive_finite_real(weight):
    # 10**400 once raised a bare OverflowError, and True was kept and written as a JSON
    # true that from_json refuses
    message = f"edge (0, 1) has non-positive or non-finite weight {weight!r}"
    with pytest.raises(DataError, match=re.escape(message)):
        Snapshot(node_ids=(0, 1), edges=((0, 1, weight),))


def test_snapshot_accepts_a_numpy_int_weight():
    # once rejected as a non-positive or non-finite weight
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, np.int64(2)),))
    assert s.edges == ((0, 1, 2.0),) and type(s.edges[0][2]) is float


def test_numpy_int_indices_list_records_and_int_weights_round_trip():
    # to_json once failed on the numpy ints it kept: "Object of type int64 is not JSON serializable"
    s = Snapshot(node_ids=("a", "b", "c"), edges=([np.int64(0), np.uint8(2), 3], (np.int32(1), 2, 1)))
    assert s.edges == ((0, 2, 3.0), (1, 2, 1.0))
    assert [tuple(map(type, e)) for e in s.edges] == [(int, int, float)] * 2
    tn = TemporalNetwork(snapshots=(s,), universe=("a", "b", "c"))
    assert TemporalNetwork.from_json(tn.to_json()) == tn


def _first_bad_edge(node_ids, edges, directed):
    """The per-edge loop the vectorized edge rules replaced: its message, or None."""
    n = len(node_ids)
    seen = set()
    for edge in edges:
        if len(edge) != 3:
            return f"edge record {edge!r} is not an (i, j, w) triple"
        i, j, w = edge
        if not (0 <= i < n) or not (0 <= j < n):
            return f"edge ({i}, {j}) references a node outside the snapshot"
        if i == j:
            return f"self loop on node {node_ids[i]!r}"
        if not directed and i > j:
            return "undirected edges must be stored with i < j"
        if not (isinstance(w, (int, float)) and math.isfinite(w)) or w <= 0:
            return f"edge ({i}, {j}) has non-positive or non-finite weight {w!r}"
        if (i, j) in seen:
            return f"duplicate edge ({i}, {j})"
        seen.add((i, j))
    return None


_BAD_EDGES = ((0, 0, 1.0), (0, 4, 1.0), (-1, 2, 1.0), (1, 0, 1.0), (0, 1, -1.0), (0, 1, 0.0),
              (0, 1, float("nan")), (0, 1, "1"), (0, 1), (2, 3, 4.0))


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("first", _BAD_EDGES)
def test_snapshot_names_the_first_bad_edge_like_the_edge_loop(first, directed):
    ids = ("a", "b", "c", "d")
    for second in _BAD_EDGES:
        edges = ((2, 3, 1.0), first, (1, 3, 0.5), second)
        expected = _first_bad_edge(ids, edges, directed)
        if expected is None:
            Snapshot(node_ids=ids, edges=edges, directed=directed)
            continue
        with pytest.raises(DataError) as info:
            Snapshot(node_ids=ids, edges=edges, directed=directed)
        assert str(info.value) == expected


def test_directed_edges_allow_both_orientations():
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0), (1, 0, 3.0)), directed=True, timestamp=0)
    a = s.adjacency()
    assert a[0, 1] == 1.0 and a[1, 0] == 3.0


def test_strength_modes_directed():
    s = Snapshot(node_ids=(0, 1, 2), edges=((0, 1, 1.0), (2, 1, 4.0)), directed=True, timestamp=0)
    assert np.allclose(s.strength("out"), [1.0, 0.0, 4.0])
    assert np.allclose(s.strength("in"), [0.0, 5.0, 0.0])
    assert np.allclose(s.strength("total"), [1.0, 5.0, 4.0])
    # undirected ignores the mode distinction
    u = clique(3)
    for mode in ("total", "in", "out"):
        assert np.allclose(u.strength(mode), [2.0, 2.0, 2.0])


def test_strength_single_node_accessor():
    s = clique(4, w=1.5)
    assert s.strength(node=2) == pytest.approx(4.5)
    with pytest.raises(IndexError):
        s.strength(node=4)
    with pytest.raises(IndexError):
        s.strength(node=-1)
    with pytest.raises(ValueError):
        s.strength(mode="sideways")


def test_degrees():
    s = Snapshot(node_ids=(0, 1, 2), edges=((0, 1, 1.0), (0, 2, 1.0)), directed=False, timestamp=0)
    assert list(s.degrees()) == [2, 1, 1]


def _loop_adjacency(s):
    """The per-edge loop build that the vectorized adjacency replaced; oracle only."""
    a = np.zeros((s.n_nodes, s.n_nodes))
    for i, j, w in s.edges:
        a[i, j] += w
        if not s.directed:
            a[j, i] += w
    return a


def _loop_degrees(s):
    d = np.zeros(s.n_nodes, dtype=int)
    for i, j, _ in s.edges:
        d[i] += 1
        d[j] += 1
    return d


@st.composite
def _snapshots(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(1, 16))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and (directed or i < j)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)) if pairs else []
    weights = st.one_of(st.integers(1, 5), st.floats(1e-3, 1e3))
    edges = tuple((i, j, draw(weights)) for i, j in chosen)
    return Snapshot(node_ids=tuple(range(n)), edges=edges, directed=directed, timestamp=0)


def _assert_matches_loop_build(s):
    a = s.adjacency()
    old = _loop_adjacency(s)
    assert a.dtype == old.dtype and np.array_equal(a, old)
    assert s.degrees().dtype == _loop_degrees(s).dtype
    assert np.array_equal(s.degrees(), _loop_degrees(s))
    if s.directed:
        by_mode = {"out": old.sum(axis=1), "in": old.sum(axis=0)}
        by_mode["total"] = by_mode["out"] + by_mode["in"]
    else:
        by_mode = dict.fromkeys(("total", "in", "out"), old.sum(axis=1))
    for mode, expected in by_mode.items():
        assert np.array_equal(s.strength(mode), expected)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_snapshots())
def test_vectorized_views_match_loop_build(s):
    _assert_matches_loop_build(s)


def test_vectorized_views_of_an_edgeless_snapshot():
    for directed in (False, True):
        s = Snapshot(node_ids=(0, 1, 2), edges=(), directed=directed, timestamp=0)
        _assert_matches_loop_build(s)
        assert np.array_equal(s.adjacency(), np.zeros((3, 3)))


def test_adjacency_is_fresh_and_writable():
    s = clique(3)
    a = s.adjacency()
    a[0, 1] = 9.0
    assert s.adjacency()[0, 1] == 1.0
    assert s.adjacency() is not s.adjacency()


def test_strength_and_presence_are_cached_read_only():
    s = Snapshot(node_ids=(0, 1, 2), edges=((0, 1, 1.0), (2, 1, 4.0)), directed=True, timestamp=0)
    for mode, expected in (("total", [1.0, 5.0, 4.0]), ("in", [0.0, 5.0, 0.0]), ("out", [1.0, 0.0, 4.0])):
        first = s.strength(mode)
        with pytest.raises(ValueError):
            first[0] = 5.0
        assert s.strength(mode).tolist() == first.tolist() == expected
    tn = TemporalNetwork(snapshots=(clique(2, timestamp=0), clique(3, timestamp=1)), universe=(0, 1, 2))
    pm = tn.presence_matrix()
    with pytest.raises(ValueError):
        pm[0, 2] = True
    assert tn.presence_matrix().tolist() == [[True, True, False], [True, True, True]]
    s_copy, tn_copy = pickle.loads(pickle.dumps((s, tn)))
    assert s_copy == s and tn_copy == tn
    assert not s_copy.strength().flags.writeable
    assert not tn_copy.presence_matrix().flags.writeable


def _constructed_network():
    s0 = Snapshot(node_ids=("a", "b", "c"), edges=((0, 1, 1.5), (2, 1, 2.0)), directed=True, timestamp=-1)
    s1 = Snapshot(node_ids=("b", "a"), edges=([0, 1, np.float64(0.25)],), directed=True, timestamp=4)
    return TemporalNetwork(snapshots=(s0, s1), universe=("c", "b", "a"), negative_weight_count=1)


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("build", [
    _constructed_network,
    lambda: load_snapshots_text("0,a,b,1.5\n0,c,b,2\n0,a,c,-0.25\n1,b,a,1\n", directed=True),
], ids=["constructor", "ingest"])
def test_copies_rebuild_equal_objects_with_read_only_views(duplicate, build):
    # copies and unpickled objects are rebuilt by the constructor, not from a state dict
    tn = build()
    tn.presence_matrix()
    for s in tn.snapshots:
        s.strength()
    back = duplicate(tn)
    assert back == tn and back.to_json() == tn.to_json()
    assert not back.presence_matrix().flags.writeable
    for s, rebuilt in [*zip(tn.snapshots, back.snapshots), *((s, duplicate(s)) for s in tn.snapshots)]:
        assert rebuilt == s and rebuilt.edges == s.edges
        for a, b in zip(rebuilt._edge_arrays, s._edge_arrays):
            assert not a.flags.writeable and a.dtype == b.dtype and np.array_equal(a, b)
        assert not rebuilt.strength().flags.writeable


@pytest.mark.parametrize("timestamp", [2.5, 3.0, True, np.bool_(False), "3"])
def test_timestamp_that_is_not_an_integer_is_the_loader_data_error(timestamp):
    # such a snapshot was built and written, and its document then refused by the loader
    with pytest.raises(DataError, match=re.escape(f"timestamp must be an integer, got {timestamp!r}")):
        Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), timestamp=timestamp)


@pytest.mark.parametrize("timestamp", [3, -2, np.int64(3), 2**70])
def test_every_accepted_timestamp_is_a_plain_int_that_round_trips(timestamp):
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), timestamp=timestamp)
    assert type(s.timestamp) is int and s.timestamp == timestamp
    tn = TemporalNetwork(snapshots=(s,), universe=(0, 1))
    assert TemporalNetwork.from_json(tn.to_json()) == tn


def test_lists_given_to_the_constructors_are_stored_as_tuples():
    # a list was kept as given, so the network was unhashable and unequal to its JSON round trip
    s = Snapshot(node_ids=[0, 1], edges=((0, 1, 1.0),))
    tn = TemporalNetwork(snapshots=[s], universe=[0, 1, 2])
    assert type(s.node_ids) is tuple and type(tn.snapshots) is tuple and type(tn.universe) is tuple
    assert TemporalNetwork.from_json(tn.to_json()) == tn
    assert hash(tn) == hash(TemporalNetwork(snapshots=(s,), universe=(0, 1, 2)))
    assert hash(s) == hash(Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),)))
    assert TemporalNetwork(snapshots=iter([s]), universe=iter([0, 1])) == TemporalNetwork(snapshots=(s,), universe=(0, 1))
    assert Snapshot(node_ids=iter([0, 1]), edges=((0, 1, 1.0),)) == s


def test_unhashable_node_id_is_a_data_error():
    with pytest.raises(DataError, match=re.escape("snapshot has malformed node ids: unhashable type: 'list'")):
        Snapshot(node_ids=([0],), edges=())


def test_unhashable_universe_id_is_a_data_error():
    with pytest.raises(DataError, match=re.escape("universe has malformed node ids: unhashable type: 'list'")):
        TemporalNetwork(snapshots=(), universe=(0, [1]))


@pytest.mark.parametrize("directed", ["no", 1, 0.0, None, np.int64(1)])
def test_directed_that_is_not_a_bool_is_the_loader_data_error(directed):
    # "no" was built and written as "directed": true, and read back as a different network
    with pytest.raises(DataError, match=re.escape(f"directed must be true or false, got {directed!r}")):
        Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), directed=directed)


@pytest.mark.parametrize("directed", [False, True, np.False_, np.True_])
def test_every_accepted_directed_flag_is_a_plain_bool_that_round_trips(directed):
    s = Snapshot(node_ids=(0, 1), edges=((0, 1, 1.0),), directed=directed)
    assert type(s.directed) is bool and s.directed == directed
    tn = TemporalNetwork(snapshots=(s,), universe=(0, 1))
    assert type(tn.directed) is bool
    back = TemporalNetwork.from_json(tn.to_json())
    assert back == tn and back.to_json() == tn.to_json()


@pytest.mark.parametrize("call, message", [
    (lambda: Snapshot(node_ids=(0, 1), edges=None), "edges must be a collection of (i, j, w) records"),
    (lambda: Snapshot(node_ids=(0, 1), edges=5), "edges must be a collection of (i, j, w) records"),
    (lambda: TemporalNetwork(snapshots=(1,), universe=()), "snapshots must be Snapshot objects, got 1"),
    (lambda: TemporalNetwork(snapshots=None, universe=()), "snapshots must be a collection of Snapshot objects"),
], ids=["edges-none", "edges-int", "snapshot-int", "snapshots-none"])
def test_constructor_field_of_the_wrong_kind_is_a_data_error(call, message):
    # each raised a bare TypeError or AttributeError
    with pytest.raises(DataError, match=re.escape(message)):
        call()


def test_network_validation():
    s0 = clique(3, timestamp=0)
    s1 = clique(3, timestamp=1)
    tn = TemporalNetwork(snapshots=(s0, s1), universe=(0, 1, 2))
    assert tn.n_snapshots == 2
    with pytest.raises(DataError):
        TemporalNetwork(snapshots=(s0, clique(3, timestamp=0)), universe=(0, 1, 2))  # ts not increasing
    with pytest.raises(DataError):
        TemporalNetwork(snapshots=(s0,), universe=(0, 1))  # node outside universe
    with pytest.raises(DataError):
        TemporalNetwork(snapshots=(s0,), universe=(0, 1, 2, 2))  # dup universe


def test_presence_matrix():
    s0 = clique(2, timestamp=0)
    s1 = clique(3, timestamp=1)
    tn = TemporalNetwork(snapshots=(s0, s1), universe=(0, 1, 2))
    pm = tn.presence_matrix()
    assert pm.shape == (2, 3)
    assert pm.tolist() == [[True, True, False], [True, True, True]]


def test_json_round_trip_exact():
    s0 = Snapshot(node_ids=(0, 1, "x"), edges=((0, 1, 0.1), (1, 2, 1 / 3)), directed=False, timestamp=0)
    s1 = Snapshot(node_ids=(0, 1), edges=((0, 1, 2.0),), directed=False, timestamp=5)
    tn = TemporalNetwork(snapshots=(s0, s1), universe=(0, 1, "x"))
    blob = tn.to_json()
    back = TemporalNetwork.from_json(blob)
    assert back.universe == tn.universe
    assert back.n_snapshots == 2
    for a, b in zip(back.snapshots, tn.snapshots):
        assert a.node_ids == b.node_ids
        assert a.timestamp == b.timestamp
        # float weights survive exactly thanks to repr round-tripping
        assert a.edges == b.edges
    payload = json.loads(blob)
    assert payload["format"] == "structim-network"


def test_json_rejects_foreign_payload():
    with pytest.raises(DataError):
        TemporalNetwork.from_json(json.dumps({"format": "something-else", "v": 1}))


def _network_doc(neg="0", time="0", weight="1.0", index="0", directed="false", universe="[0, 1]", nodes="[0, 1]"):
    return ('{"format": "structim-network", "version": 1, "directed": %s, "negative_weight_count": %s,'
            ' "universe": %s, "snapshots": [{"timestamp": %s, "nodes": %s, "edges": [[%s, 1, %s]]}]}'
            % (directed, neg, universe, time, nodes, index, weight))


@pytest.mark.parametrize("field, text, message", [
    ("weight", "1" + "0" * 400, "malformed snapshot record"),  # an int too large for a float
    ("time", "1e400", "malformed snapshot record"),  # parses as inf, which no int holds
    ("neg", '"abc"', "malformed network document"),
    ("neg", "1e400", "malformed network document"),
], ids=["huge-int-weight", "inf-timestamp", "text-negative-count", "inf-negative-count"])
def test_json_with_an_unconvertible_number_is_a_data_error(field, text, message):
    assert TemporalNetwork.from_json(_network_doc()).n_snapshots == 1
    with pytest.raises(DataError, match=message):
        TemporalNetwork.from_json(_network_doc(**{field: text}))


@pytest.mark.parametrize("fields, message", [
    ({"index": "0.7"}, "edge index must be an integer, got 0.7"),
    ({"time": "2.9"}, "timestamp must be an integer, got 2.9"),
    ({"weight": "true"}, "edge weight must be a number, got True"),
    ({"directed": '"no"'}, "directed must be true or false, got 'no'"),
    ({"universe": '"01"', "nodes": '["0", "1"]'}, "universe must be a JSON list, got '01'"),
    ({"nodes": '"01"', "universe": '["0", "1"]'}, "nodes must be a JSON list, got '01'"),
    ({"neg": "-4"}, "negative_weight_count must be nonnegative, got -4"),
    ({"neg": "2.5"}, "negative_weight_count must be an integer, got 2.5"),
    ({"universe": "[[0], 1]"}, "unhashable type: 'list'"),
], ids=["fractional-index", "fractional-timestamp", "bool-weight", "text-directed", "text-universe",
        "text-nodes", "negative-count", "fractional-count", "list-in-universe"])
def test_json_value_of_the_wrong_type_is_a_data_error_not_coerced(fields, message):
    # each document once loaded misread (0.7 as index 0, "01" as two ids) or raised a bare TypeError
    with pytest.raises(DataError, match=re.escape(message)):
        TemporalNetwork.from_json(_network_doc(**fields))


@pytest.mark.parametrize("count, message", [(-4, "must be nonnegative, got -4"),
                                            (2.5, "must be an integer, got 2.5"),
                                            (True, "must be an integer, got True")])
def test_negative_weight_count_is_checked_by_the_constructor(count, message):
    # the loader refused such a count, so the network could not read its own output back
    with pytest.raises(DataError, match=re.escape(f"negative_weight_count {message}")):
        TemporalNetwork(snapshots=(), universe=(), negative_weight_count=count)


@pytest.mark.parametrize("count", [0, 3, np.int64(5), 2**70])
def test_every_accepted_negative_weight_count_round_trips(count):
    tn = TemporalNetwork(snapshots=(), universe=(), negative_weight_count=count)
    assert TemporalNetwork.from_json(tn.to_json()) == tn


def test_json_round_trip_keeps_directed_flag_and_negative_count():
    s = Snapshot(node_ids=("a", "b"), edges=((1, 0, 0.25),), directed=True, timestamp=-3)
    tn = TemporalNetwork(snapshots=(s,), universe=("b", "a"), negative_weight_count=2)
    back = TemporalNetwork.from_json(tn.to_json())
    assert back == tn
    assert back.to_json() == tn.to_json()
