"""Immutable weighted snapshots and temporal networks.

A :class:`Snapshot` is one observation window: a set of node ids plus weighted
edges between them. A :class:`TemporalNetwork` is an ordered sequence of
snapshots over a shared node universe. Both are frozen dataclasses; analysis
code never mutates the containers. Adjacency matrices are built on demand and
never kept; the O(E + n) views (edge arrays, strength vectors, the presence
matrix) are built once per container and are read-only.

Node ids are opaque ints or strs; a numpy integer id is stored as an int, and
any other id (bool, float, tuple, None, bytes) is a DataError, so every network
the constructors accept round-trips through JSON. An edge record is a tuple or
list ``(i, j, w)`` of integer (not bool) local indices into ``node_ids`` and a
positive, finite real weight (not a bool); undirected edges are stored once
with ``i < j``. A snapshot stores its edges only as three read-only arrays
(int, int, float); ``edges`` reads them back as plain ``(int, int, float)``
tuples, built on first read and then kept. The public
constructor checks every rule; outside input, the JSON loader, unpickling and
``copy`` go through it. Ingest and ``synthetic_temporal`` build snapshots with
the trusted ``Snapshot._from_pairs``, which runs no rule.
"""

from __future__ import annotations

import json
import numbers
import sys
from collections.abc import Mapping, Set
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import ArgumentError, DataError, _is_integer

_FORMAT_TAG = "structim-network"
_FORMAT_VERSION = 1
STRENGTH_MODES = ("total", "in", "out")


_MAX_WEIGHT = sys.float_info.max


def _is_weight(value) -> bool:
    """A real number, not a bool (numpy's bool is no Real), positive and finite as a float;
    an int is compared exactly, so one beyond the float range is no weight."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and 0 < value <= _MAX_WEIGHT


def _in_order(values, what: str, items: str) -> tuple:
    """``values`` as a tuple. A str, bytes, set or mapping is refused, not iterated: its
    items are characters or keys, or come in an order that can change between processes."""
    if isinstance(values, (str, bytes, Set, Mapping)):
        raise DataError(f"{what} must be an ordered collection of {items}, got a {type(values).__name__}")
    try:
        return tuple(values)
    except TypeError as exc:
        raise DataError(f"{what} must be a collection of {items}: {exc}") from exc


def _node_id(v, what: str):
    """A str id as it is, an integer id (numpy's too, not a bool) as an int; any other id is a DataError."""
    if type(v) is int or isinstance(v, str):
        return v
    if _is_integer(v):
        return int(v)
    raise DataError(f"{what} node ids must be ints or strs, got {v!r}")


def _hashable_ids(ids, what: str) -> tuple:
    """``ids`` as a tuple of distinct ints and strs; they must come in order."""
    ids = tuple(_node_id(v, what) for v in _in_order(ids, f"{what} node ids", "hashable ids"))
    if len(set(ids)) != len(ids):
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
        Distinct int or str ids of the nodes present in this window, in order
        (not a str, set or mapping), stored as a tuple; numpy integers become ints.
    edges:
        Tuples or lists ``(i, j, w)`` of local integer node indices and a
        strictly positive finite real weight, read back as plain ``(int, int,
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
        for e in _in_order(self.edges, "edges", "(i, j, w) records"):
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
        object.__delattr__(self, "edges")  # built again from the arrays on first read
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
        """Keep the arrays, read-only, as ``_edge_arrays`` (int, int, float): the one per-edge store."""
        for arr in (i, j, w):
            arr.setflags(write=False)
        object.__setattr__(self, "_edge_arrays", (i, j, w))

    def __getattr__(self, name):
        """``edges``, the plain (int, int, float) tuples the arrays hold, built on first read and then kept."""
        if name != "edges":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        i, j, w = self._edge_arrays
        object.__setattr__(self, "edges", tuple(zip(i.tolist(), j.tolist(), w.tolist())))
        return self.edges

    __reduce__ = _by_constructor

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return len(self._edge_arrays[2])

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
        """Strength vectors by mode, which every measure reads: finite weights
        whose sum overflows are a DataError here, not an inf strength or 2m."""
        a = self.adjacency()
        with np.errstate(over="ignore"):  # an overflow is the DataError below
            out_s = a.sum(axis=1)
            if not self.directed:
                by_mode = dict.fromkeys(("total", "in", "out"), out_s)
            else:
                in_s = a.sum(axis=0)
                by_mode = {"total": out_s + in_s, "in": in_s, "out": out_s}
            total = by_mode["total"].sum()  # no smaller than the other modes' sums
        if not np.isfinite(total):
            raise DataError(f"snapshot {self.timestamp}: the strengths overflow the float range")
        for vec in by_mode.values():
            vec.setflags(write=False)
        return by_mode

    def strength(self, mode: str = "total") -> np.ndarray:
        """Per-node strength vector.

        Undirected snapshots return adjacency row sums for every mode.
        Directed snapshots honor ``mode``: "out" sums outgoing arc weights,
        "in" incoming, "total" their sum. The vector is computed once per
        snapshot and is read-only; copy it before changing it. Strengths whose
        sum overflows the float range raise DataError.
        """
        if mode not in STRENGTH_MODES:
            raise ArgumentError(f"unknown strength mode {mode!r}")
        return self._strengths[mode]

    def degrees(self) -> np.ndarray:
        """Number of incident edges per node (in + out for directed)."""
        i, j, _ = self._edge_arrays
        return np.bincount(i, minlength=self.n_nodes) + np.bincount(j, minlength=self.n_nodes)


@dataclass(frozen=True)
class TemporalNetwork:
    """Ordered snapshot sequence over a shared node universe.

    ``universe`` fixes the global node indexing used by feature tables and
    presence masks; every snapshot's node ids must be a subset. ``snapshots``
    and ``universe`` come in order (no str, set or mapping) and are stored as
    tuples, so a network is hashable and equals its ``from_json(to_json())``
    round trip. ``negative_weight_count`` counts aggregated edge weights whose
    sign was flipped during ingestion (kept for provenance, 0 when generated).
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
        object.__setattr__(self, "snapshots", _in_order(self.snapshots, "snapshots", "Snapshot objects"))
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
            "universe": self.universe,
            "snapshots": [{"timestamp": s.timestamp, "nodes": s.node_ids, "edges": s.edges} for s in self.snapshots],
        }
        return json.dumps(obj)

    @classmethod
    def from_json(cls, text: str) -> "TemporalNetwork":
        """Read a ``to_json`` document: its values go unchanged to the constructors, which own every rule."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or obj.get("format") != _FORMAT_TAG:
            raise DataError("not a structim network document")
        version = obj.get("version")
        if type(version) is not int or version != _FORMAT_VERSION:
            raise DataError(f"network document version {version!r} is not {_FORMAT_VERSION}")
        directed = obj.get("directed", False)
        try:
            if not isinstance(directed, bool):  # a network without snapshots hands it to no constructor
                raise DataError(f"directed must be true or false, got {directed!r}")
            snaps = tuple(Snapshot(node_ids=s["nodes"], edges=s["edges"], directed=directed, timestamp=s["timestamp"])
                          for s in _in_order(obj["snapshots"], "snapshots", "snapshot records"))
            return cls(snaps, obj["universe"], negative_weight_count=obj.get("negative_weight_count", 0))
        except (KeyError, TypeError, DataError) as exc:  # a KeyError names the missing key
            raise DataError(f"malformed network document: {exc}") from exc
