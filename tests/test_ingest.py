import csv
import datetime
import io
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structim import (DataError, Snapshot, TemporalNetwork, load_network, load_snapshots_text, synthetic_temporal,
                      write_edge_csv)
from structim import ingest
from structim.errors import ArgumentError
from structim.generators import barbell


def test_basic_load():
    tn = load_snapshots_text("0,0,1,1.0\n0,1,2,2.0\n1,0,1,3.0\n")
    assert tn.n_snapshots == 2
    assert tn.universe == (0, 1, 2)
    s0 = tn.snapshots[0]
    assert s0.node_ids == (0, 1, 2)
    assert s0.edges == ((0, 1, 1.0), (1, 2, 2.0))
    assert tn.snapshots[1].edges == ((0, 1, 3.0),)


def test_header_is_skipped():
    tn = load_snapshots_text("time,src,dst,value\n0,0,1,1.0\n")
    assert tn.n_snapshots == 1


def test_parallel_records_net_out():
    # same undirected pair in both orders sums; exact zero drops the edge
    tn = load_snapshots_text("0,0,1,1.5\n0,1,0,2.5\n0,2,3,1.0\n0,3,2,-1.0\n")
    s = tn.snapshots[0]
    assert s.node_ids == (0, 1)
    assert s.edges == ((0, 1, 4.0),)
    assert tn.negative_weight_count == 0


def test_negative_net_weight_uses_magnitude_and_counts():
    tn = load_snapshots_text("0,0,1,-2.0\n0,2,3,1.0\n")
    s = tn.snapshots[0]
    weights = {tuple(sorted((s.node_ids[i], s.node_ids[j]))): w for i, j, w in s.edges}
    assert weights[(0, 1)] == 2.0
    assert tn.negative_weight_count == 1


def test_directed_pairs_stay_ordered():
    tn = load_snapshots_text("0,0,1,1.0\n0,1,0,2.0\n", directed=True)
    s = tn.snapshots[0]
    a = s.adjacency()
    i0, i1 = s.node_index[0], s.node_index[1]
    assert a[i0, i1] == 1.0 and a[i1, i0] == 2.0


def test_aggregation_buckets_relative_to_earliest():
    tn = load_snapshots_text("10,0,1,1.0\n11,0,1,1.0\n12,0,1,5.0\n", aggregation=2)
    assert tn.n_snapshots == 2
    assert tn.snapshots[0].edges == ((0, 1, 2.0),)
    assert tn.snapshots[1].edges == ((0, 1, 5.0),)


def test_empty_periods_dropped_and_renumbered():
    tn = load_snapshots_text("0,0,1,1.0\n5,0,1,1.0\n")
    assert tn.n_snapshots == 2
    assert [s.timestamp for s in tn.snapshots] == [0, 1]


def test_iso_dates_become_day_ordinals():
    tn = load_snapshots_text("2021-03-01,0,1,1.0\n2021-03-02,0,1,1.0\n2021-03-04,0,1,1.0\n")
    # three distinct days, one gap -> snapshots renumbered 0..2
    assert tn.n_snapshots == 3
    assert [s.timestamp for s in tn.snapshots] == [0, 1, 2]
    tn2 = load_snapshots_text("2021-03-01,0,1,1.0\n2021-03-02,0,1,1.0\n2021-03-04,0,1,1.0\n", aggregation=2)
    assert tn2.n_snapshots == 2


def test_row_order_does_not_matter():
    a = load_snapshots_text("0,0,1,1.0\n0,1,2,2.0\n1,4,5,1.0\n")
    b = load_snapshots_text("1,4,5,1.0\n0,1,2,2.0\n0,0,1,1.0\n")
    assert a.to_json() == b.to_json()


def test_string_ids_coexist_with_ints():
    tn = load_snapshots_text("0,alice,bob,1.0\n0,1,alice,2.0\n")
    assert tn.universe == (1, "alice", "bob")


def test_malformed_rows_report_line_numbers():
    with pytest.raises(DataError, match=":2"):
        load_snapshots_text("0,0,1,1.0\n0,0,1\n")
    with pytest.raises(DataError, match="not an integer or ISO date"):
        load_snapshots_text("soon,0,1,1.0\n")
    with pytest.raises(DataError, match="not a number"):
        load_snapshots_text("0,0,1,abc\n")
    with pytest.raises(DataError, match="self loop"):
        load_snapshots_text("0,7,7,1.0\n")
    for bad in ("nan", "inf", "-inf", "NaN", "1e999"):
        with pytest.raises(DataError, match=f"^<text>:2: value '{bad}' is not finite$"):
            load_snapshots_text(f"0,a,b,1.0\n0,a,b,{bad}\n")
    with pytest.raises(DataError):
        load_snapshots_text("")  # nothing to build
    with pytest.raises(DataError):
        load_snapshots_text("0,0,1,0.0\n")  # everything nets to zero



@pytest.mark.parametrize("text, message", [
    ("soon,7,007,abc\n", "<text>:1: time 'soon' is not an integer or ISO date"),
    ("0,7,007,abc\n", "<text>:1: value 'abc' is not a number"),
    ("0,7,007,nan\n", "<text>:1: value 'nan' is not finite"),
    ("0,a,b,1\n0,7,007,1\nsoon,a\n1.5,a,b,x\n", "<text>:2: self loop on node '7'"),
    ("0,a,b,1\n0,a,b,1,1\n0,7,7,1\n", "<text>:2: expected 4 fields, got 5"),
    # times and values are ASCII without "_", though int() and float() read these as 1, 20, 1.5 and 10.0
    ("\u0661,a,b,1\n2_0,a,b,1\n", "<text>:1: time '\u0661' is not an integer or ISO date"),
    ("1,a,b,1\n2_0,a,b,1\n", "<text>:2: time '2_0' is not an integer or ISO date"),
    ("0,a,b,1\n0,b,c,\u0661.\u0665\n", "<text>:2: value '\u0661.\u0665' is not a number"),
    ("0,a,b,1_0\n", "<text>:1: value '1_0' is not a number"),
])
def test_first_faulty_line_reports_its_first_failed_check(text, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_snapshots_text(text)


@pytest.mark.parametrize("value, net", [("1e308", "inf"), ("-1e308", "-inf")])
def test_pair_netting_to_non_finite_weight_is_a_data_error(value, net):
    text = f"0,c,d,1\n4,a,b,{value}\n4,b,a,{value}\n4,c,d,1\n"
    with pytest.raises(DataError, match=(
        rf"^pair \('a', 'b'\) in the period starting at time 4 nets to non-finite weight {net}$"
    )):
        load_snapshots_text(text, aggregation=2)


def test_aggregation_must_be_positive_int():
    with pytest.raises(ValueError):
        load_snapshots_text("0,0,1,1.0\n", aggregation=0)
    with pytest.raises(ValueError):
        load_snapshots_text("0,0,1,1.0\n", aggregation=1.5)


_TWO_DAYS = "0,a,b,1.0\n1,a,b,2.0\n3,b,c,1.0\n"


@pytest.mark.parametrize("loader", ["text", "path"])
@pytest.mark.parametrize("aggregation", [True, 2.0])
def test_aggregation_that_is_not_an_integer_is_an_argument_error(loader, aggregation, tmp_path):
    # a bool is no count, although Python's bool is an int
    path = tmp_path / "net.csv"
    path.write_text(_TWO_DAYS)
    message = re.escape(f"aggregation must be an integer >= 1, got {aggregation!r}")
    with pytest.raises(ArgumentError, match=message):
        load_snapshots_text(_TWO_DAYS, aggregation) if loader == "text" else load_network(str(path), aggregation)


@pytest.mark.parametrize("loader", ["text", "path"])
@pytest.mark.parametrize("aggregation", [1, 2])
def test_a_numpy_integer_aggregation_is_the_python_one(loader, aggregation, tmp_path):
    path = tmp_path / "net.csv"
    path.write_text(_TWO_DAYS)
    load = (lambda a: load_snapshots_text(_TWO_DAYS, a)) if loader == "text" else (lambda a: load_network(str(path), a))
    tn = load(np.int64(aggregation))
    assert tn.to_json() == load(aggregation).to_json()
    assert all(type(s.timestamp) is int for s in tn.snapshots)


@pytest.mark.parametrize("directed", ["no", 1, None])
def test_directed_that_is_not_a_bool_is_an_argument_error(directed, tmp_path):
    # "no" once built snapshots flagged "no" and was written as such
    message = re.escape(f"directed must be true or false, got {directed!r}")
    with pytest.raises(ArgumentError, match=message):
        load_snapshots_text("0,a,b,1.0\n", directed=directed)
    with pytest.raises(ArgumentError, match=message):  # before the file is read
        load_network(str(tmp_path / "missing.csv"), directed=directed)


def test_numpy_bool_directed_is_stored_as_a_plain_bool():
    tn = load_snapshots_text("0,a,b,1.0\n", directed=np.True_)
    assert type(tn.directed) is bool and tn.directed
    assert TemporalNetwork.from_json(tn.to_json()) == tn


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError):
        load_network(str(tmp_path / "absent.csv"))


@pytest.mark.parametrize("name, data", [("net.csv", b"t,a,b,1\n0,\xe9,b,1\n"),
                                        ("net.json", b'{"format": "structim-network", "universe": ["\xe9"]}')])
def test_file_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(DataError, match=re.escape(f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9")):
        load_network(str(path))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_text_and_file_read_every_line_ending_alike(tmp_path, newline):
    text = newline.join(["time,src,dst,value", "0,a,b,1", "", "0,b,c,2.5", "1,a,c,-1", ""])
    path = tmp_path / "net.csv"
    path.write_bytes(text.encode())
    tn = load_snapshots_text(text)
    assert tn == load_network(str(path))
    assert tn.n_snapshots == 2 and tn.negative_weight_count == 1


def test_a_field_over_the_csv_limit_is_a_data_error_with_its_record_number(tmp_path):
    # the quoted line break makes the faulty record, the third, the file's fourth line
    limit = csv.field_size_limit()
    text = '0,a,"b\nc",1\n\n0,a,' + "b" * (limit + 1) + ",1\n"
    message = f"field larger than field limit ({limit})"
    with pytest.raises(DataError, match=re.escape(f"<text>:3: {message}")):
        load_snapshots_text(text)
    path = tmp_path / "big.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(f"big.csv:3: {message}")):
        load_network(str(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK", 2)  # the faulty record opens the second block
        with pytest.raises(DataError, match=re.escape(f"<text>:3: {message}")):
            load_snapshots_text(text)


def test_write_then_load_round_trip(tmp_path):
    from structim.generators import repeat_snapshot

    tn = repeat_snapshot(barbell(4, 2, 5), 3)
    path = tmp_path / "net.csv"
    write_edge_csv(tn, str(path))
    back = load_network(str(path))
    assert back.n_snapshots == 3
    for s, t in zip(back.snapshots, tn.snapshots):
        assert np.array_equal(s.adjacency(), t.adjacency())
        assert s.node_ids == t.node_ids


@pytest.mark.parametrize("args, seed", [((120, 4, 4, -2.0, 30), 11), ((40, 2, 4, -2.0, 8), 3),
                                        ((16, 2, 1, 0.0, 5), 3)])
def test_written_generated_networks_read_back_equal(tmp_path, args, seed):
    tn = synthetic_temporal(*args, seed=seed)
    path = str(tmp_path / "net.csv")
    write_edge_csv(tn, path)
    back = load_network(path)
    # a universe-only id has no edge, so no row: the one thing the CSV leaves out here
    touched = {v for s in tn.snapshots for v in s.node_ids}
    assert back.snapshots == tn.snapshots
    assert back.universe == tuple(v for v in tn.universe if v in touched)


@pytest.mark.parametrize("block", [1, 7, 512, 2048])
def test_load_network_reads_the_same_network_at_every_block_size(tmp_path, block):
    tn = synthetic_temporal(40, 2, 4, -2.0, 8, seed=3)
    path = str(tmp_path / "net.csv")
    write_edge_csv(tn, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK", block)
        back = load_network(path)
    assert back.snapshots == tn.snapshots
    assert [s.timestamp for s in back.snapshots] == list(range(tn.n_snapshots))


@pytest.mark.parametrize("stamps, edgeless, message", [
    ((0, 2, 5), (2,), "snapshot 1 is at time 2"),
    ((1, 2), (), "snapshot 0 is at time 1"),
    ((0, 1, 2), (1,), "snapshot 1 has no edge"),
], ids=["gap-and-edgeless", "not-from-zero", "edgeless"])
def test_snapshots_the_csv_cannot_keep_are_refused_before_writing(tmp_path, stamps, edgeless, message):
    # the first was written and read back as two snapshots, at 0 and 1
    snaps = tuple(Snapshot(node_ids=(0, 1), edges=() if t in edgeless else ((0, 1, 1.0),), timestamp=t)
                  for t in stamps)
    path = tmp_path / "net.csv"
    with pytest.raises(DataError, match=re.escape(message) + ".* write this network with to_json"):
        write_edge_csv(TemporalNetwork(snapshots=snaps, universe=(0, 1)), str(path))
    assert not path.exists()


@pytest.mark.parametrize("node_ids, edges, message", [
    (("7", "a", 7, "b"), ((0, 1, 1.0), (2, 3, 1.0)), "node id '7' would be read back from a CSV as 7"),
    ((" x", "y"), ((0, 1, 1.0),), "node id ' x' would be read back from a CSV as 'x'"),
    (("7", 7), ((0, 1, 1.0),), "node id '7' would be read back from a CSV as 7"),
], ids=["str-and-int-merge", "padded-str", "self-loop-on-read"])
def test_an_id_the_csv_cannot_keep_is_refused_before_writing(tmp_path, node_ids, edges, message):
    # each file was written, and read back as 3 of 4 nodes, as "x", or refused as a self loop
    tn = TemporalNetwork(snapshots=(Snapshot(node_ids=node_ids, edges=edges),), universe=node_ids)
    path = tmp_path / "net.csv"
    with pytest.raises(DataError, match=re.escape(message)):
        write_edge_csv(tn, str(path))
    assert not path.exists()


def test_load_network_dispatches_on_extension(tmp_path):
    from structim.generators import repeat_snapshot

    tn = repeat_snapshot(barbell(), 2)
    jpath = tmp_path / "net.json"
    jpath.write_text(tn.to_json())
    back = load_network(str(jpath))
    assert back.n_snapshots == 2
    cpath = tmp_path / "net.csv"
    write_edge_csv(tn, str(cpath))
    assert load_network(str(cpath)).n_snapshots == 2


def test_only_ascii_digit_ids_become_ints():
    tn = load_snapshots_text("0,1_000,a,1.0\n0,1000,b,2.0\n0,\u0661,d,1\n")
    assert tn.universe == (1000, "1_000", "a", "b", "d", "\u0661")
    # a sign and leading zeros still name the int node
    tn = load_snapshots_text("0,007,+5,1.0\n0,7,5,2.0\n0,-3,x,1\n")
    assert tn.universe == (-3, 5, 7, "x")
    assert tn.snapshots[0].edges[1] == (1, 2, 3.0)


def test_header_after_blank_lines_is_skipped():
    tn = load_snapshots_text("\n  \nTime, src ,DST,value\n0,a,b,1\n")
    assert tn.universe == ("a", "b")
    with pytest.raises(DataError, match=r"^<text>:4: expected 4 fields, got 3$"):
        load_snapshots_text("\ntime,src,dst,value\n0,a,b,1\n0,a,b\n")
    # only the first record that is not blank can be a header
    with pytest.raises(DataError, match=r"^<text>:3: time 'time' is not an integer or ISO date$"):
        load_snapshots_text("0,a,b,1\n\ntime,src,dst,value\n")


def test_loaded_snapshot_pickles_to_equal_edges_with_read_only_arrays():
    tn = load_snapshots_text("0,a,b,1.5\n0,c,b,2\n0,a,c,-0.25\n1,b,a,1\n")
    for s in tn.snapshots:
        back = pickle.loads(pickle.dumps(s))
        assert back.edges == s.edges and back == s
        for cached, rebuilt in zip(s._edge_arrays, back._edge_arrays):
            assert not cached.flags.writeable and not rebuilt.flags.writeable
            assert np.array_equal(cached, rebuilt) and cached.dtype == rebuilt.dtype


# The row-at-a-time reader the columnar one replaced, kept as its oracle with
# the id rule (ASCII digits only) and the header rule (first record that is
# not blank) applied.

_HEADER = ("time", "src", "dst", "value")


def _oracle_id(field):
    return int(field) if re.fullmatch(r"[+-]?[0-9]+", field) else field


def _oracle_key(v):
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def _oracle_ascii(field):
    return all(ch.isascii() and ch != "_" for ch in field)


def _oracle_time(field, source, lineno):
    bad = DataError(f"{source}:{lineno}: time {field!r} is not an integer or ISO date")
    if not _oracle_ascii(field):
        raise bad
    try:
        return int(field)
    except ValueError:
        pass
    try:
        tf = float(field)
    except ValueError:
        try:
            return datetime.date.fromisoformat(field).toordinal()
        except ValueError:
            raise bad from None
    if not tf.is_integer():
        raise bad
    return int(tf)


def _oracle_rows(lines, source):
    rows = []
    header_possible = True
    for lineno, rec in enumerate(csv.reader(lines), start=1):
        if not rec or (len(rec) == 1 and not rec[0].strip()):
            continue
        if header_possible:
            header_possible = False
            if tuple(f.strip().lower() for f in rec) == _HEADER:
                continue
        if len(rec) != 4:
            raise DataError(f"{source}:{lineno}: expected 4 fields, got {len(rec)}")
        t_field, src, dst, val = (f.strip() for f in rec)
        t = _oracle_time(t_field, source, lineno)
        try:
            if not _oracle_ascii(val):
                raise ValueError
            w = float(val)
        except ValueError:
            raise DataError(f"{source}:{lineno}: value {val!r} is not a number") from None
        if not math.isfinite(w):
            raise DataError(f"{source}:{lineno}: value {val!r} is not finite")
        a, b = _oracle_id(src), _oracle_id(dst)
        if a == b:
            raise DataError(f"{source}:{lineno}: self loop on node {src!r}")
        rows.append((t, a, b, w))
    return rows


def _oracle_network(rows, aggregation, directed):
    if not rows:
        raise DataError("no edge records found")
    t_min = min(r[0] for r in rows)
    periods = {}
    for t, a, b, w in rows:
        key = (a, b) if directed else tuple(sorted((a, b), key=_oracle_key))
        acc = periods.setdefault((t - t_min) // aggregation, {})
        acc[key] = acc.get(key, 0.0) + w
    negative = 0
    snapshots = []
    universe = set()
    for period in sorted(periods):
        edges_net = {}
        for key, w in periods[period].items():
            if not math.isfinite(w):
                raise DataError(
                    f"pair ({key[0]!r}, {key[1]!r}) in the period starting at time "
                    f"{t_min + period * aggregation} nets to non-finite weight {w}"
                )
            if w == 0.0:
                continue
            if w < 0:
                negative += 1
                w = -w
            edges_net[key] = w
        if not edges_net:
            continue
        nodes = sorted({v for key in edges_net for v in key}, key=_oracle_key)
        index = {v: k for k, v in enumerate(nodes)}
        edges = [(index[a], index[b], w) for (a, b), w in
                 sorted(edges_net.items(), key=lambda kv: (_oracle_key(kv[0][0]), _oracle_key(kv[0][1])))]
        universe.update(nodes)
        snapshots.append(Snapshot(node_ids=tuple(nodes), edges=tuple(edges), directed=directed,
                                  timestamp=len(snapshots)))
    if not snapshots:
        raise DataError("all records netted to zero; no snapshots left")
    return TemporalNetwork(snapshots=tuple(snapshots), universe=tuple(sorted(universe, key=_oracle_key)),
                           negative_weight_count=negative)


def _outcome(load, text, aggregation, directed):
    try:
        tn = load(text, aggregation, directed)
    except DataError as exc:
        return "error", str(exc)
    return tn.to_json(), tn.negative_weight_count


_IDS = ("0", "1", "2", "7", "007", "+5", "-3", "alice", "bob", "1_000", "1000")
_PAIRS = [(a, b) for a in _IDS for b in _IDS if _oracle_id(a) != _oracle_id(b)]
_TIMES = ("0", "1", "2", "4", "3.0", "2021-03-01", "2021-03-02", "2021-03-05")
_VALUES = ("1", "1.5", "-1.5", "0.1", "0.2", "-0.3", "2.25", "-2", "0", "1e-3", "3e2")
_FAULTS = {
    "field count": ["0,a,b"],
    "time": ["soon,a,b,1"],
    "fractional time": ["1.5,a,b,1"],
    "not a number": ["0,a,b,abc"],
    "not finite": ["0,a,b,-inf"],
    "non-ASCII time": ["\u0661,a,b,1"],
    "time with a separator": ["2_0,a,b,1"],
    "non-ASCII value": ["0,a,b,\u0661.\u0665"],
    "value with a separator": ["0,a,b,1_0"],
    "self loop": ["0,7,007,1"],
    "a header after the first record": ["time,src,dst,value"],
    # (c, d) is seen first and (a, b) sorts first
    "overflowing nets": ["0,c,d,1e308", "0,a,b,-1e308", "0,d,c,1e308", "0,b,a,-1e308"],
}


@st.composite
def _csv_cases(draw, faults=tuple(_FAULTS)):
    rows = draw(st.lists(
        st.tuples(st.sampled_from(_TIMES), st.sampled_from(_PAIRS), st.sampled_from(_VALUES)), max_size=40))
    lines = [f"{t},{a},{b},{v}" for t, (a, b), v in rows]
    # repeat a few rows, some negated, so pairs net to zero and below it
    for k in draw(st.lists(st.integers(0, max(len(rows) - 1, 0)), max_size=6)) if rows else []:
        t, (a, b), v = rows[k]
        lines.append(f"{t},{b},{a},{v[1:] if v.startswith('-') else '-' + v}" if draw(st.booleans())
                     else lines[k])
    lines = draw(st.permutations(lines))
    fault = draw(st.sampled_from([None, *faults]))
    if fault is not None:
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = _FAULTS[fault]
    if draw(st.booleans()):
        lines.insert(0, "time,src,dst,value")
    lines[0:0] = [""] * draw(st.integers(0, 2))
    return "\n".join(lines) + "\n", draw(st.integers(1, 3)), draw(st.booleans()), draw(st.sampled_from((2, 5, 4096)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_csv_cases())
def test_columnar_ingest_matches_the_row_reader(case):
    text, aggregation, directed, block = case
    expected = _outcome(lambda s, g, d: _oracle_network(_oracle_rows(io.StringIO(s), "<text>"), g, d),
                        text, aggregation, directed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ingest, "_BLOCK", block)  # small blocks put faults and the header across block edges
        assert _outcome(load_snapshots_text, text, aggregation, directed) == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_csv_cases(faults=()))
def test_ingest_snapshots_meet_the_public_constructor_rules(case):
    # Snapshot._from_pairs does not check the arrays ingest builds; the public
    # constructor must accept each snapshot and build the same edge arrays
    text, aggregation, directed, _ = case
    try:
        tn = load_snapshots_text(text, aggregation, directed)
    except DataError:
        return  # no records, or every pair netted to zero
    for s in tn.snapshots:
        rebuilt = Snapshot(node_ids=s.node_ids, edges=s.edges, directed=s.directed, timestamp=s.timestamp)
        assert rebuilt == s
        for a, b in zip(rebuilt._edge_arrays, s._edge_arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b)
