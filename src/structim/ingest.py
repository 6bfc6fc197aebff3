"""Edge-list ingestion and serialization.

The interchange format is a CSV with rows ``time,src,dst,value``. ``time`` is
an integer label or an ISO-8601 date (dates become day ordinals, so an
aggregation period is a count of days); ``value`` is a finite signed float
(flows net out during aggregation); both are ASCII without "_" separators.
The first record that is not blank is skipped when it matches the canonical
column names (a header); line numbers in messages count every record, blank
or header. A node id of ASCII digits with an optional leading sign is an int
("007" and "+7" are node 7); any other id is a string ("1_000" is not 1000).

Aggregation: records are bucketed into periods of ``aggregation`` consecutive
time labels starting at the earliest observed label. Within a period, parallel
records for the same node pair (ordered pair when directed) sum. A zero net
weight removes the edge; a negative net weight contributes its absolute value
and increments the network's ``negative_weight_count``. Periods left with no
edges are dropped and the surviving periods are renumbered 0..T-1.
"""

from __future__ import annotations

import csv
import datetime
import io
import itertools
import os
import re

import numpy as np

from .errors import ArgumentError, DataError, _check_count
from .graphs import Snapshot, TemporalNetwork

_HEADER = ("time", "src", "dst", "value")
_INT_ID = re.compile(r"[+-]?[0-9]+")
# Records read per block: the fields of one block are alive at a time. One
# block holds one list per record, and 512 of them stay under the cyclic
# garbage collector's first threshold (700 new tracked objects), so reading a
# block does not start a collection of its own.
_BLOCK = 512


def _coerce_id(field: str):
    """An id of ASCII digits with an optional sign becomes an int ("007" -> 7,
    "+5" -> 5); any other id stays a str, so "1_000" and "1000" are two nodes."""
    return int(field) if _INT_ID.fullmatch(field) else field


def _id_sort_key(v):
    # ints order before strings so mixed-type universes sort deterministically
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def _ascii_number_text(text: str) -> bool:
    """False when ``text`` has what int() and float() accept beyond ASCII
    numbers: digits of other scripts ("١") or "_" separators ("1_0")."""
    return text.isascii() and "_" not in text


def _parse_time(field: str):
    """Integer time labels pass through and ISO dates map to day ordinals;
    anything else gives None."""
    if not _ascii_number_text(field):
        return None
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
            return None
    return int(tf) if tf.is_integer() else None


def _is_number(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return _ascii_number_text(field)


def _read_block(reader, source: str, offset: int) -> list:
    """The next ``_BLOCK`` records after the first ``offset``; a record the csv
    module cannot split (a field over ``csv.field_size_limit()``) raises
    DataError with its record number."""
    block = []
    try:
        block.extend(itertools.islice(reader, _BLOCK))  # keeps the records read before a failure
    except csv.Error as exc:
        raise DataError(f"{source}:{offset + len(block) + 1}: {exc}") from None
    return block


def _parse_columns(reader, source: str, aggregation: int):
    """Read the records in blocks, split each block into columns and check it.

    Each distinct time and id string is coerced once. Returns per edge record
    its period's rank, the src and dst codes (ranks in ``_id_sort_key`` order)
    and the value, plus the sorted period start labels and the ids by code.
    A faulty record raises DataError for the first faulty line, with the
    message of the first check it fails, in the order: field count, time,
    value, finite, self loop.
    """
    time_index, labels = {}, []  # time field -> index into labels (None: not a time)
    id_code, codes = {}, {}  # id field -> code of its id; id -> code, both first seen first
    blocks = []
    offset = 0
    header_possible = True
    while block := _read_block(reader, source, offset):
        lens = np.fromiter(map(len, block), dtype=int, count=len(block))
        blank = lens == 0
        for k in np.flatnonzero(lens == 1):
            blank[k] = not block[k][0].strip()
        kept = np.flatnonzero(~blank)
        # Line numbers are record numbers, so a header is skipped, not removed.
        if header_possible and kept.size:
            header_possible = False
            if tuple(f.strip().lower() for f in block[kept[0]]) == _HEADER:
                kept = kept[1:]
        rows = kept[lens[kept] == 4]
        t_raw, s_raw, d_raw, v_raw = tuple(zip(*[block[k] for k in rows.tolist()])) or ((),) * 4
        n = len(rows)

        for f in set(t_raw).difference(time_index):
            time_index[f] = len(labels)
            labels.append(_parse_time(f.strip()))
        for f in set(s_raw).union(d_raw).difference(id_code):
            id_code[f] = codes.setdefault(_coerce_id(f.strip()), len(codes))
        t = np.fromiter(map(time_index.__getitem__, t_raw), dtype=int, count=n)
        src = np.fromiter(map(id_code.__getitem__, s_raw), dtype=int, count=n)
        dst = np.fromiter(map(id_code.__getitem__, d_raw), dtype=int, count=n)
        v_str = list(map(str.strip, v_raw))
        try:
            if not _ascii_number_text("".join(v_str)):  # one check for the block
                raise ValueError
            w = np.fromiter(map(float, v_str), dtype=float, count=n)
            number = np.ones(n, dtype=bool)
        except ValueError:
            number = np.fromiter(map(_is_number, v_str), dtype=bool, count=n)
            w = np.array([float(v) if ok else np.nan for v, ok in zip(v_str, number)], dtype=float)
        timed = np.array([label is not None for label in labels], dtype=bool)[t]

        faulty = ~timed | ~number | ~np.isfinite(w) | (src == dst)
        first = min(kept[lens[kept] != 4][:1].tolist() + rows[faulty][:1].tolist(), default=None)
        if first is not None:
            where = f"{source}:{offset + first + 1}"
            if lens[first] != 4:
                raise DataError(f"{where}: expected 4 fields, got {lens[first]}")
            k = int(np.searchsorted(rows, first))
            if not timed[k]:
                raise DataError(f"{where}: time {t_raw[k].strip()!r} is not an integer or ISO date")
            if not number[k]:
                raise DataError(f"{where}: value {v_str[k]!r} is not a number")
            if not np.isfinite(w[k]):
                raise DataError(f"{where}: value {v_str[k]!r} is not finite")
            raise DataError(f"{where}: self loop on node {s_raw[k].strip()!r}")
        blocks.append((t, src, dst, w))
        offset += len(block)

    t, src, dst, w = (np.concatenate(col) for col in zip(*blocks)) if blocks else (np.zeros(0, dtype=int),) * 4
    t_min = min(labels, default=0)
    starts = sorted({(label - t_min) // aggregation for label in labels})
    rank = {p: k for k, p in enumerate(starts)}
    period = np.array([rank[(label - t_min) // aggregation] for label in labels], dtype=int)[t]
    ids = sorted(codes, key=_id_sort_key)
    recode = np.empty(len(ids), dtype=int)
    recode[[codes[v] for v in ids]] = np.arange(len(ids))
    return period, [t_min + p * aggregation for p in starts], recode[src], recode[dst], w, ids


def _check_options(aggregation: int, directed: bool) -> None:
    _check_count(aggregation, 1, "aggregation")
    if not isinstance(directed, (bool, np.bool_)):  # the trusted Snapshot builder takes it as is
        raise ArgumentError(f"directed must be true or false, got {directed!r}")


def load_snapshots_text(text: str, aggregation: int = 1, directed: bool = False) -> TemporalNetwork:
    """Read an edge-list CSV string into a TemporalNetwork, as load_network
    reads a CSV path."""
    _check_options(aggregation, directed)
    # newline="" as load_network opens files: the csv module splits \r, \r\n and \n records itself
    columns = _parse_columns(csv.reader(io.StringIO(text, newline="")), "<text>", int(aggregation))
    return _build_network(*columns, directed)


def _build_network(period, starts, src, dst, w, ids, directed: bool) -> TemporalNetwork:
    if not w.size:
        raise DataError("no edge records found")
    lo, hi = (src, dst) if directed else (np.minimum(src, dst), np.maximum(src, dst))
    # Group the records by (period, pair); groups come out in that order, which
    # is the snapshot and edge order, and a stable sort puts each group's
    # earliest record first.
    order = np.lexsort((hi, lo, period))
    keys = np.stack((period, lo, hi))[:, order]
    first = np.ones(w.size, dtype=bool)
    first[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    group = np.empty(w.size, dtype=int)
    group[order] = np.cumsum(first) - 1
    # bincount adds each group's values in file order starting from 0.0, the
    # same float sum as netting record by record.
    net = np.bincount(group, weights=w)
    g_period, g_lo, g_hi = keys[:, first]

    bad = np.flatnonzero(~np.isfinite(net))
    if bad.size:
        # The earliest period, then the pair first seen in the file.
        g = bad[np.lexsort((order[first][bad], g_period[bad]))[0]]
        raise DataError(
            f"pair ({ids[g_lo[g]]!r}, {ids[g_hi[g]]!r}) in the period starting at time "
            f"{starts[g_period[g]]} nets to non-finite weight {float(net[g])}"
        )
    live = net != 0.0
    negative = int(np.count_nonzero(net < 0))
    g_period, g_lo, g_hi, weight = g_period[live], g_lo[live], g_hi[live], np.abs(net[live])
    if not weight.size:
        raise DataError("all records netted to zero; no snapshots left")

    cuts = np.flatnonzero(np.diff(g_period)) + 1
    periods = zip(np.split(g_lo, cuts), np.split(g_hi, cuts), np.split(weight, cuts))
    snapshots = tuple(Snapshot._from_pairs(ids, lo_t, hi_t, w_t, directed=bool(directed), timestamp=stamp)
                      for stamp, (lo_t, hi_t, w_t) in enumerate(periods))
    universe = np.unique(np.concatenate((g_lo, g_hi)))
    return TemporalNetwork(
        snapshots=snapshots,
        universe=tuple(ids[c] for c in universe.tolist()),
        negative_weight_count=negative,
    )


def write_edge_csv(tn: TemporalNetwork, path: str) -> None:
    """Write a TemporalNetwork back out as a time,src,dst,value CSV.

    A row is an edge: nodes without an edge and ``negative_weight_count`` are
    not written (the JSON document keeps them). DataError, before the file is
    opened, for what ingest would read back as something else: an id of
    another value or kind (the strs "7" and "+7" as the int 7, " x" as "x"),
    or snapshots whose timestamps are not 0..T-1 or that have no edge, as
    ingest drops edgeless periods and renumbers the rest.
    """
    for v in tn.universe:  # holds every snapshot's ids
        back = _coerce_id(str(v).strip())
        if back != v or isinstance(back, str) != isinstance(v, str):
            raise DataError(f"node id {v!r} would be read back from a CSV as {back!r}")
    for t, s in enumerate(tn.snapshots):
        if s.timestamp != t or not s.n_edges:
            why = f"is at time {s.timestamp}" if s.timestamp != t else "has no edge"
            raise DataError(f"snapshot {t} {why}; a CSV reads back only snapshots with edges, at times 0..T-1, "
                            "so write this network with to_json")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for s in tn.snapshots:
            i, j, w = s._edge_arrays
            ids = s.node_ids.__getitem__
            writer.writerows(zip(itertools.repeat(s.timestamp), map(ids, i.tolist()), map(ids, j.tolist()),
                                 map(repr, w.tolist())))


def load_network(path: str, aggregation: int = 1, directed: bool = False) -> TemporalNetwork:
    """Read a network JSON document (which ignores ``aggregation`` and
    ``directed``) or an edge-list CSV into a TemporalNetwork, by extension.

    Raises DataError for unreadable files, text that is not UTF-8, malformed
    records (a CSV record with its line number), or an empty record set.
    ``aggregation`` must be a positive integer, Python's or numpy's but not a
    bool, and ``directed`` a bool.
    """
    _check_options(aggregation, directed)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            if path.endswith(".json"):
                return TemporalNetwork.from_json(fh.read())
            columns = _parse_columns(csv.reader(fh), os.path.basename(path), int(aggregation))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return _build_network(*columns, directed)
