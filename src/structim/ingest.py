"""Edge-list ingestion and serialization.

The interchange format is a CSV with rows ``time,src,dst,value``. ``time`` is
an integer label or an ISO-8601 date (dates become day ordinals, so an
aggregation period is a count of days); ``value`` is a finite signed float
(flows net out during aggregation). An optional header line matching the
canonical column names is skipped.

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
import math
import os

from .errors import ArgumentError, DataError
from .graphs import Snapshot, TemporalNetwork

_HEADER = ("time", "src", "dst", "value")


def _coerce_id(field: str):
    """Node ids that parse as integers become ints; everything else stays str."""
    try:
        return int(field)
    except ValueError:
        return field


def _id_sort_key(v):
    # ints order before strings so mixed-type universes sort deterministically
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def _parse_time(field: str, source: str, lineno: int) -> int:
    """Integer time labels pass through; ISO dates map to day ordinals."""
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
            raise DataError(
                f"{source}:{lineno}: time {field!r} is not an integer or ISO date"
            ) from None
    if not tf.is_integer():
        raise DataError(f"{source}:{lineno}: time {field!r} is not an integer or ISO date")
    return int(tf)


def _parse_rows(lines, source: str):
    rows = []
    reader = csv.reader(lines)
    for lineno, rec in enumerate(reader, start=1):
        if not rec or (len(rec) == 1 and not rec[0].strip()):
            continue
        if lineno == 1 and tuple(f.strip().lower() for f in rec) == _HEADER:
            continue
        if len(rec) != 4:
            raise DataError(f"{source}:{lineno}: expected 4 fields, got {len(rec)}")
        t_field, src, dst, val = (f.strip() for f in rec)
        t = _parse_time(t_field, source, lineno)
        try:
            w = float(val)
        except ValueError:
            raise DataError(f"{source}:{lineno}: value {val!r} is not a number") from None
        if not math.isfinite(w):
            raise DataError(f"{source}:{lineno}: value {val!r} is not finite")
        a, b = _coerce_id(src), _coerce_id(dst)
        if a == b:
            raise DataError(f"{source}:{lineno}: self loop on node {src!r}")
        rows.append((t, a, b, w))
    return rows


def _check_aggregation(aggregation: int) -> None:
    if not isinstance(aggregation, int) or aggregation < 1:
        raise ArgumentError(f"aggregation must be a positive integer, got {aggregation!r}")


def load_snapshots(path: str, aggregation: int = 1, directed: bool = False) -> TemporalNetwork:
    """Read an edge-list CSV into a TemporalNetwork.

    Raises DataError for unreadable files, malformed records (with the line
    number), or an empty record set. ``aggregation`` must be a positive int.
    """
    _check_aggregation(aggregation)
    try:
        with open(path, "r", newline="") as fh:
            rows = _parse_rows(fh, os.path.basename(path))
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return _build_network(rows, aggregation, directed)


def load_snapshots_text(text: str, aggregation: int = 1, directed: bool = False) -> TemporalNetwork:
    """Same as load_snapshots but from an in-memory CSV string."""
    _check_aggregation(aggregation)
    rows = _parse_rows(io.StringIO(text), "<text>")
    return _build_network(rows, aggregation, directed)


def _build_network(rows, aggregation: int, directed: bool) -> TemporalNetwork:
    if not rows:
        raise DataError("no edge records found")
    t_min = min(r[0] for r in rows)
    periods = {}
    for t, a, b, w in rows:
        key = (a, b) if directed else tuple(sorted((a, b), key=_id_sort_key))
        acc = periods.setdefault((t - t_min) // aggregation, {})
        acc[key] = acc.get(key, 0.0) + w

    negative = 0
    snapshots = []
    universe = set()
    next_stamp = 0
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
        nodes = sorted({v for key in edges_net for v in key}, key=_id_sort_key)
        index = {v: k for k, v in enumerate(nodes)}
        # an undirected key is sorted by id, so its local indices have i < j
        edges = [
            (index[a], index[b], w)
            for (a, b), w in sorted(edges_net.items(), key=lambda kv: (_id_sort_key(kv[0][0]), _id_sort_key(kv[0][1])))
        ]
        universe.update(nodes)
        snapshots.append(Snapshot(node_ids=tuple(nodes), edges=tuple(edges), directed=directed, timestamp=next_stamp))
        next_stamp += 1

    if not snapshots:
        raise DataError("all records netted to zero; no snapshots left")
    return TemporalNetwork(
        snapshots=tuple(snapshots),
        universe=tuple(sorted(universe, key=_id_sort_key)),
        negative_weight_count=negative,
    )


def write_edge_csv(tn: TemporalNetwork, path: str) -> None:
    """Write a TemporalNetwork back out as a time,src,dst,value CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for s in tn.snapshots:
            for i, j, w in s.edges:
                writer.writerow([s.timestamp, s.node_ids[i], s.node_ids[j], repr(w)])


def load_network(path: str, aggregation: int = 1, directed: bool = False) -> TemporalNetwork:
    """Load either a network JSON document (which ignores ``aggregation``) or an edge-list CSV, by extension."""
    _check_aggregation(aggregation)
    if path.endswith(".json"):
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc
        return TemporalNetwork.from_json(text)
    return load_snapshots(path, aggregation=aggregation, directed=directed)
