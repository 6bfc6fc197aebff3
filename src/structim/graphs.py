"""Immutable weighted snapshots and temporal networks.

A :class:`Snapshot` is one observation window: a set of node ids plus weighted
edges between them. A :class:`TemporalNetwork` is an ordered sequence of
snapshots over a shared node universe. Both are frozen dataclasses; analysis
code never mutates the containers. Adjacency matrices are built on demand and
never kept; the O(E + n) views (edge arrays, strength vectors, the presence
matrix) are built once per container and are read-only.

Node ids are opaque (ints or strings). An edge record is a tuple or list
``(i, j, w)`` of integer (not bool) local indices into ``node_ids`` and a
positive, finite real weight (not a bool), stored as a plain ``(int, int,
float)`` tuple; undirected edges are stored once with ``i < j``. The public
constructor checks every rule; outside input, the JSON loader, unpickling and
``copy`` go through it. Ingest and ``synthetic_temporal`` build snapshots with
the trusted ``Snapshot._from_pairs``, which runs no rule.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DataError

_FORMAT_TAG = "structim-network"
_FORMAT_VERSION = 1
STRENGTH_MODES = ("total", "in", "out")


def _json_value(value, kind, rule: str):
    """A JSON value as written, not coerced: a bool is no number, a string no list."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise TypeError(f"{rule}, got {value!r}")
    return value


_MAX_WEIGHT = sys.float_info.max


def _is_integer(value) -> bool:
    """An integer, Python's or numpy's, that is not a bool (numpy's bool is no Integral)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_weight(value) -> bool:
    """A real number, not a bool (numpy's bool is no Real), positive and finite as a float."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < float(value) <= _MAX_WEIGHT
    except OverflowError:  # an int beyond the float range
        return False


def _hashable_ids(ids, what: str) -> tuple:
    """``ids`` as a tuple; they must be an iterable of distinct hashable ids."""
    try:
        ids = tuple(ids)
        distinct = set(ids)
    except TypeError as exc:  # not iterable, or an id is unhashable
        raise DataError(f"{what} has malformed node ids: {exc}") from exc
    if len(distinct) != len(ids):
        raise DataError(f"{what} has duplicate node ids")
    return ids


def _by_constructor(self):
    """Pickle and copy through the constructor, which rebuilds the read-only views."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Snapshot:
    """One weighted network observation.

    Parameters
    ----------
    node_ids:
        Distinct, hashable ids of the nodes present in this window, stored
        as a tuple.
    edges:
        Tuples or lists ``(i, j, w)`` of local integer node indices and a
        strictly positive finite real weight, stored as plain ``(int, int,
        float)`` tuples. For undirected snapshots each pair appears once with
        ``i < j``; for directed snapshots ``(i, j)`` means an arc i -> j.
    directed:
        Edge orientation flag, a bool (numpy's too), stored as a plain bool.
    timestamp:
        Integer (not bool) time label, stored as a plain int; unique within a TemporalNetwork.
    """

    node_ids: tuple
    edges: tuple
    directed: bool = False
    timestamp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "node_ids", _hashable_ids(self.node_ids, "snapshot"))
        n = len(self.node_ids)
        if not _is_integer(self.timestamp):
            raise DataError(f"timestamp must be an integer, got {self.timestamp!r}")
        object.__setattr__(self, "timestamp", int(self.timestamp))
        if not isinstance(self.directed, (bool, np.bool_)):
            raise DataError(f"directed must be true or false, got {self.directed!r}")
        object.__setattr__(self, "directed", bool(self.directed))
        # A record's first broken rule is raised, in this order: triple, integer
        # indices, range, self loop, i < j when undirected, weight, duplicate.
        # The exact-type tests skip the slower ABC checks for ints and floats.
        ii, jj, ww = [], [], []
        seen = set()
        try:
            records = iter(self.edges)
        except TypeError as exc:
            raise DataError(f"edges must be a collection of (i, j, w) records: {exc}") from exc
        for e in records:
            if not (isinstance(e, (tuple, list)) and len(e) == 3):
                raise DataError(f"edge record {e!r} is not an (i, j, w) triple")
            i, j, w = e
            if not ((type(i) is int or _is_integer(i)) and (type(j) is int or _is_integer(j))):
                raise DataError(f"edge ({i!r}, {j!r}) has a node index that is not an integer")
            if not (0 <= i < n and 0 <= j < n):
                raise DataError(f"edge ({i}, {j}) references a node outside the snapshot")
            if i == j:
                raise DataError(f"self loop on node {self.node_ids[i]!r}")
            if i > j and not self.directed:
                raise DataError("undirected edges must be stored with i < j")
            if not (0 < w <= _MAX_WEIGHT if type(w) is float else _is_weight(w)):
                raise DataError(f"edge ({i}, {j}) has non-positive or non-finite weight {w!r}")
            if (i, j) in seen:
                raise DataError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            ii.append(i)
            jj.append(j)
            ww.append(w)
        self._keep_edges(np.array(ii, dtype=int), np.array(jj, dtype=int), np.array(ww, dtype=float))

    @classmethod
    def _from_pairs(cls, ids, lo: np.ndarray, hi: np.ndarray, w: np.ndarray,
                    directed: bool, timestamp: int) -> "Snapshot":
        """A snapshot on the ids its pairs touch, in index order, with no rule run.

        ``lo`` and ``hi`` index ``ids``; ``w`` becomes the read-only edge-array
        cache. The two callers guarantee that no pair repeats, lo != hi (lo <
        hi when undirected) and weights are positive and finite: ingest groups
        records by pair, takes the (min, max) of two ids checked to differ and
        keeps ``abs`` of finite nonzero nets; ``synthetic_temporal`` takes
        ``_base_graph``'s pairs (i < j, each once) and lognormal weights.
        """
        nodes = np.unique(np.concatenate((lo, hi)))
        snap = object.__new__(cls)
        vars(snap).update(node_ids=tuple(ids[c] for c in nodes.tolist()), directed=directed, timestamp=timestamp)
        snap._keep_edges(np.searchsorted(nodes, lo), np.searchsorted(nodes, hi), w)
        return snap

    def _keep_edges(self, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> None:
        """Keep the arrays, read-only, as ``_edge_arrays`` (int, int, float),
        and ``edges`` as the plain (int, int, float) tuples they hold."""
        object.__setattr__(self, "edges", tuple(zip(i.tolist(), j.tolist(), w.tolist())))
        for arr in (i, j, w):
            arr.setflags(write=False)
        object.__setattr__(self, "_edge_arrays", (i, j, w))

    __reduce__ = _by_constructor

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def node_index(self) -> dict:
        """Map node id -> local index."""
        return {v: k for k, v in enumerate(self.node_ids)}

    def adjacency(self) -> np.ndarray:
        """Dense weighted adjacency matrix (n x n, float64, zero diagonal).

        Undirected snapshots produce a symmetric matrix. Each call returns a
        fresh, writable matrix.
        """
        i, j, w = self._edge_arrays
        a = np.zeros((self.n_nodes, self.n_nodes))
        # Edges are unique and off-diagonal, so each cell is written at most once.
        a[i, j] = w
        if not self.directed:
            a[j, i] = w
        return a

    @cached_property
    def _strengths(self) -> dict:
        a = self.adjacency()
        out_s = a.sum(axis=1)
        if not self.directed:
            by_mode = dict.fromkeys(("total", "in", "out"), out_s)
        else:
            in_s = a.sum(axis=0)
            by_mode = {"total": out_s + in_s, "in": in_s, "out": out_s}
        for vec in by_mode.values():
            vec.setflags(write=False)
        return by_mode

    def strength(self, mode: str = "total", node: int | None = None):
        """Per-node strength vector, or a single node's strength.

        Undirected snapshots return adjacency row sums for every mode.
        Directed snapshots honor ``mode``: "out" sums outgoing arc weights,
        "in" incoming, "total" their sum. The vector is computed once per
        snapshot and is read-only; copy it before changing it. With ``node``
        set, returns that node's strength as a float; out-of-range indices
        raise IndexError.
        """
        if mode not in STRENGTH_MODES:
            raise ArgumentError(f"unknown strength mode {mode!r}")
        s = self._strengths[mode]
        if node is None:
            return s
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node index {node} out of range for {self.n_nodes} nodes")
        return float(s[node])

    def degrees(self) -> np.ndarray:
        """Number of incident edges per node (in + out for directed)."""
        i, j, _ = self._edge_arrays
        return np.bincount(i, minlength=self.n_nodes) + np.bincount(j, minlength=self.n_nodes)

    def to_json_dict(self) -> dict:
        return {
            "timestamp": self.timestamp,
            "nodes": list(self.node_ids),
            "edges": [[i, j, w] for i, j, w in self.edges],
        }

    @classmethod
    def from_json_dict(cls, obj: dict, directed: bool) -> "Snapshot":
        try:
            nodes = tuple(_json_value(obj["nodes"], list, "nodes must be a JSON list"))
            index = "edge index must be an integer"
            edges = tuple((_json_value(i, int, index), _json_value(j, int, index),
                           float(_json_value(w, (int, float), "edge weight must be a number")))
                          for i, j, w in _json_value(obj["edges"], list, "edges must be a JSON list"))
            timestamp = _json_value(obj["timestamp"], int, "timestamp must be an integer")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed snapshot record: {exc}") from exc
        return cls(node_ids=nodes, edges=edges, directed=directed, timestamp=timestamp)


@dataclass(frozen=True)
class TemporalNetwork:
    """Ordered snapshot sequence over a shared node universe.

    ``universe`` fixes the global node indexing used by feature tables and
    presence masks; every snapshot's node ids must be a subset. Both
    ``snapshots`` and ``universe`` are stored as tuples, so a network is
    hashable and equals its ``from_json(to_json())`` round trip.
    ``negative_weight_count`` counts aggregated edge weights whose sign was
    flipped during ingestion (kept for provenance, zero for generated data).
    """

    snapshots: tuple
    universe: tuple
    negative_weight_count: int = 0

    def __post_init__(self):
        count = self.negative_weight_count
        if not _is_integer(count):
            raise DataError(f"negative_weight_count must be an integer, got {count!r}")
        if count < 0:
            raise DataError(f"negative_weight_count must be nonnegative, got {count!r}")
        object.__setattr__(self, "universe", _hashable_ids(self.universe, "universe"))
        uni = set(self.universe)
        try:
            object.__setattr__(self, "snapshots", tuple(self.snapshots))
        except TypeError as exc:
            raise DataError(f"snapshots must be a collection of Snapshot objects: {exc}") from exc
        last_t = None
        directed = None
        for s in self.snapshots:
            if not isinstance(s, Snapshot):
                raise DataError(f"snapshots must be Snapshot objects, got {s!r}")
            if directed is None:
                directed = s.directed
            elif s.directed != directed:
                raise DataError("snapshots mix directed and undirected")
            if last_t is not None and s.timestamp <= last_t:
                raise DataError("snapshot timestamps must be strictly increasing")
            last_t = s.timestamp
            missing = set(s.node_ids) - uni
            if missing:
                raise DataError(f"snapshot nodes outside universe: {sorted(map(repr, missing))[:5]}")

    __reduce__ = _by_constructor

    @property
    def n_snapshots(self) -> int:
        return len(self.snapshots)

    @property
    def n_nodes(self) -> int:
        return len(self.universe)

    @property
    def directed(self) -> bool:
        return self.snapshots[0].directed if self.snapshots else False

    @cached_property
    def universe_index(self) -> dict:
        return {v: k for k, v in enumerate(self.universe)}

    @cached_property
    def _positions(self) -> tuple:
        """Per snapshot, the universe position of each of its nodes, in its node order (read-only)."""
        index = self.universe_index
        out = tuple(np.array([index[v] for v in s.node_ids], dtype=int) for s in self.snapshots)
        for pos in out:
            pos.setflags(write=False)
        return out

    @cached_property
    def _presence(self) -> np.ndarray:
        out = np.zeros((self.n_snapshots, self.n_nodes), dtype=bool)
        for t, pos in enumerate(self._positions):
            out[t, pos] = True
        out.setflags(write=False)
        return out

    def presence_matrix(self) -> np.ndarray:
        """Boolean (T x n_universe) matrix: node appears in snapshot t.

        Built once per network and read-only; copy it before changing it.
        """
        return self._presence

    def to_json(self) -> str:
        """Serialize to JSON. Floats go through repr, so round-trips are exact."""
        obj = {
            "format": _FORMAT_TAG,
            "version": _FORMAT_VERSION,
            "directed": self.directed,
            "negative_weight_count": int(self.negative_weight_count),
            "universe": list(self.universe),
            "snapshots": [s.to_json_dict() for s in self.snapshots],
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "TemporalNetwork":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or obj.get("format") != _FORMAT_TAG:
            raise DataError("not a structim network document")
        try:
            directed = _json_value(obj.get("directed", False), bool, "directed must be true or false")
            universe = tuple(_json_value(obj["universe"], list, "universe must be a JSON list"))
            snapshots = _json_value(obj["snapshots"], list, "snapshots must be a JSON list")
            snaps = tuple(Snapshot.from_json_dict(s, directed) for s in snapshots)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"malformed network document: {exc}") from exc
        # the constructor's rules, the negative_weight_count rule among them
        try:
            return cls(snapshots=snaps, universe=universe, negative_weight_count=obj.get("negative_weight_count", 0))
        except (TypeError, DataError) as exc:
            raise DataError(f"malformed network document: {exc}") from exc
