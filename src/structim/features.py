"""Per-node feature tables for activity prediction.

Features for a prediction anchored at snapshot t are the node measures of
snapshot t itself, the same ``snapshot_measures(tn, t)`` cells that
``analyze`` reports, so a measure computed from one static network predicts
the next one. The presence_count column counts a node's appearances in
snapshots 0..t-1.

Feature rows cover the nodes present in snapshot t with positive strength
there that appeared at least once before t; a node seen for the first time
at t and a seen node with zero strength at t (whose measures are undefined)
are excluded, and both counts are kept in table metadata.

Labels compare a node's strength S0 in snapshot t with its strength S1 in
snapshot t+1, 0 when it is absent there. Only nodes with S0 > 0 are labeled;
the targets that compare strengths also need S1 > 0:

    presence    1 iff S1 > 0
    change      1 iff |S1 - S0| / S0 > change_threshold   (S1 > 0)
    sign        1 iff S1 > S0, ties dropped                (S1 > 0)
    rel_change  (S1 - S0) / S0                             (S1 > 0)

``build_table`` keeps the feature rows that are labeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArgumentError, DataError, _check_count, _check_real
from .graphs import TemporalNetwork, _in_order
from .importance import node_importance
from .netstats import detect_communities, eigenvector_centrality, pagerank, pearson
from .spectral import Spectrum, _check_spectrum, eig_sym

# mc, identically zero for a zero-diagonal adjacency, is no measure column:
# ``importance --scheme mc`` reports it as the check of that identity.
MEASURE_COLUMNS = ("ma", "mb", "md", "eig_centrality", "pagerank", "degree", "community_size")
FEATURE_COLUMNS = MEASURE_COLUMNS + ("presence_count",)

TARGETS = ("presence", "change", "sign", "rel_change")

# A column whose standard deviation is at most this is treated as constant.
CONSTANT_STD = 1e-12
# Defaults of the change target's |relative change| cut (``build_table``) and
# of the |Pearson r| above which ``prune_correlated`` drops a column.
CHANGE_THRESHOLD = 0.05
CORR_THRESHOLD = 0.8

# When correlation pruning has to break a partner-count tie, drop the most
# generic column first and the headline spectral measure last.
_DROP_PRIORITY = (
    "degree",
    "pagerank",
    "eig_centrality",
    "community_size",
    "presence_count",
    "md",
    "ma",
    "mb",
)


@dataclass
class FeatureTable:
    """Feature matrix over rows keyed by node id.

    ``X[r, c]`` is the value of ``columns[c]`` for ``node_ids[r]`` (global
    ids from the network universe) at the anchor snapshot ``as_of[r]``. A
    table built for one anchor time carries a constant ``as_of``; an int
    given at construction is broadcast to every row. A pooled table (see
    ``pipeline.build_horizon_tables``) stacks several anchors in time order.
    ``y`` holds the target's labels. DataError unless ``columns`` is an
    ordered collection of str names, ``node_ids`` an ordered collection (kept
    as a tuple), ``as_of`` an integer or integer array, ``X`` a bool, integer
    or float array with one column per name and ``X``, ``node_ids``, ``as_of``
    and ``y`` agree in rows. Naming a column the table lacks is an ArgumentError.
    """

    columns: tuple
    X: np.ndarray
    node_ids: tuple
    as_of: np.ndarray
    y: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.columns = _in_order(self.columns, "feature table columns", "str names")
        if not all(isinstance(c, str) for c in self.columns):
            raise DataError(f"feature table columns must be str names, got {self.columns!r}")
        self.node_ids = _in_order(self.node_ids, "feature table node ids", "ids")
        # dtypes, not each row: tables are rebuilt on every selection
        if np.asarray(self.as_of).dtype.kind not in "iu":
            raise DataError(f"feature table as_of must be integers, got dtype {np.asarray(self.as_of).dtype}")
        if np.asarray(self.X).dtype.kind not in "biuf":
            raise DataError(f"feature table X must be bool, integer or float, got dtype {np.asarray(self.X).dtype}")
        rows = len(self.node_ids)
        if not (np.shape(self.X) == (rows, len(self.columns)) and np.shape(self.as_of) in ((), (rows,))
                and (self.y is None or np.shape(self.y) == (rows,))):
            raise DataError(f"feature table shapes disagree: X {np.shape(self.X)} for {len(self.columns)} columns "
                            f"and {rows} node ids, as_of {np.shape(self.as_of)}, y {np.shape(self.y)}")
        self.as_of = np.full(rows, self.as_of, dtype=int)

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    def _indices(self, names: tuple) -> list:
        missing = [c for c in names if c not in self.columns]
        if missing:
            raise ArgumentError(f"feature table lacks column(s) {', '.join(map(repr, missing))}; it has {self.columns}")
        return [self.columns.index(c) for c in names]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self._indices((name,))[0]]

    def select_columns(self, names) -> "FeatureTable":
        names = tuple(names)
        # the copy is C-ordered like every other X; the fancy-indexed view is not
        return replace(self, columns=names, X=self.X[:, self._indices(names)].copy(),
                       y=None if self.y is None else self.y.copy(), meta=dict(self.meta))

    def select_rows(self, rows) -> "FeatureTable":
        """Rows picked by a boolean mask or an index array, in that order."""
        idx = np.arange(self.n_rows)[np.asarray(rows)]
        return replace(self, X=self.X[idx], node_ids=tuple(map(self.node_ids.__getitem__, idx.tolist())),
                       as_of=self.as_of[idx], y=None if self.y is None else self.y[idx], meta=dict(self.meta))


def snapshot_measures(
    tn: TemporalNetwork,
    t: int,
    spectrum: Spectrum | None = None,
    communities: np.ndarray | None = None,
) -> dict:
    """All per-snapshot node measures as universe-aligned arrays.

    Returns {measure: array over tn.universe} with NaN for nodes absent from
    snapshot t (and for zero-strength nodes, whose importance is undefined).
    A snapshot with no edges yields all-NaN columns. ``spectrum`` and
    ``communities`` may carry the snapshot's ``eig_sym`` decomposition and
    ``detect_communities`` labels when the caller has already computed them.
    ArgumentError unless ``spectrum`` is a Spectrum of the snapshot's node
    count and ``communities``, as an array, is one nonnegative integer label
    per node; that a same-size spectrum or partition belongs to this
    snapshot is the caller's promise.
    ``t`` is a snapshot position, 0..T-1. A directed network raises DataError
    before any decomposition.
    """
    _check_count(t, 0, "t", tn.n_snapshots - 1)
    _check_undirected(tn)
    s = tn.snapshots[t]
    _check_spectrum(spectrum, s)
    if communities is not None:
        communities = np.asarray(communities)
        if (communities.shape != (s.n_nodes,) or communities.dtype.kind not in "iu"
                or (communities.size and communities.min() < 0)):
            raise ArgumentError(f"communities must be {s.n_nodes} nonnegative integer labels, one per node of "
                                f"snapshot {t}, got shape {communities.shape} and dtype {communities.dtype}")
    out = {name: np.full(tn.n_nodes, np.nan) for name in MEASURE_COLUMNS}
    if s.n_edges == 0:
        return out

    # an ImportanceVector holds the positive-strength nodes in snapshot order
    present = s.strength() > 0
    at = tn._positions[t][present]
    spec = spectrum if spectrum is not None else eig_sym(s.adjacency())
    for scheme in ("ma", "mb", "md"):
        out[scheme][at] = list(node_importance(s, scheme, spectrum=spec).values.values())

    labels = communities if communities is not None else detect_communities(s)
    out["eig_centrality"][at] = eigenvector_centrality(s, spectrum=spec)[present]
    out["pagerank"][at] = pagerank(s)[present]
    out["degree"][at] = s.degrees()[present]
    out["community_size"][at] = np.bincount(labels)[labels[present]]
    return out


def build_features(tn: TemporalNetwork, t: int) -> FeatureTable:
    """Feature table anchored at snapshot t, rows in snapshot order."""
    return _feature_table(tn, t)


def build_table(tn: TemporalNetwork, t: int, target: str, change_threshold: float = CHANGE_THRESHOLD) -> FeatureTable:
    """Feature table at t with the labels of ``target`` attached: the rows of
    ``build_features`` that ``target`` labels; ``change_threshold`` must be
    finite and nonnegative. Nothing is cached on the network: each call
    measures snapshot t, so several targets at one anchor measure it once
    per call."""
    keep, y = _labels(tn, t, target, change_threshold)
    return _feature_table(tn, t, keep, y)


def _feature_table(tn: TemporalNetwork, t: int, keep=True, y=None) -> FeatureTable:
    """The featurizable nodes of snapshot t among ``keep``, with their labels
    ``y`` when given; ``keep`` and ``y`` run over snapshot t's nodes."""
    _check_count(t, 1, "anchor t (after a prior snapshot)", tn.n_snapshots - 1)
    measures = snapshot_measures(tn, t)
    at = tn._positions[t]
    prior_count = tn.presence_matrix()[:t].sum(axis=0).astype(float)[at]
    x = np.column_stack([measures[name][at] for name in MEASURE_COLUMNS] + [prior_count])

    # A node seen for the first time at t is new; a seen node can also be
    # present at t without defined measures (zero strength at t). Neither
    # can be featurized.
    seen = prior_count >= 1
    defined = seen & ~np.isnan(x).any(axis=1)
    rows = defined & keep
    ids = tn.snapshots[t].node_ids
    return FeatureTable(
        columns=FEATURE_COLUMNS,
        X=x[rows],
        node_ids=tuple(ids[k] for k in np.flatnonzero(rows).tolist()),
        as_of=t,
        y=None if y is None else y[rows],
        meta={"skipped_new_nodes": int(at.size - seen.sum()), "skipped_undefined": int((seen & ~defined).sum())},
    )


def _labels(tn: TemporalNetwork, t: int, target: str, change_threshold: float):
    """(keep, y) over snapshot t's nodes in its order: which nodes ``target``
    labels, by the S0/S1 rules of the module docstring, and their labels as floats."""
    _check_target(target)
    _check_real(change_threshold, "change_threshold", 0, np.inf, "[)")
    _check_horizon(tn, t)
    s0 = tn.snapshots[t].strength()
    s1 = np.zeros(tn.n_nodes)
    s1[tn._positions[t + 1]] = tn.snapshots[t + 1].strength()
    s1 = s1[tn._positions[t]]
    keep = s0 > 0
    if target == "presence":
        return keep, (s1 > 0).astype(float)
    keep &= s1 > 0
    rel = np.divide(s1 - s0, s0, out=np.zeros_like(s0), where=keep)
    if target == "rel_change":
        return keep, rel
    if target == "change":
        return keep, (np.abs(rel) > change_threshold).astype(float)
    keep &= s1 != s0
    return keep, (s1 > s0).astype(float)


def _check_target(target: str) -> None:
    if target not in TARGETS:
        raise ArgumentError(f"unknown target {target!r}; expected one of {TARGETS}")


def _check_undirected(tn: TemporalNetwork) -> None:
    if tn.directed:
        raise DataError("node measures are defined here for undirected networks only; the network is directed")


def _check_horizon(tn: TemporalNetwork, t: int) -> None:
    _check_count(t, 0, "labeled anchor t (before snapshot t+1)", tn.n_snapshots - 2)


def prune_correlated(table: FeatureTable, threshold: float = CORR_THRESHOLD):
    """Drop features until no pair's |Pearson r| exceeds ``threshold``.

    Iteratively removes the column with the most over-threshold partners;
    ties break by a fixed drop priority (generic benchmarks first). Constant
    columns have no defined correlation and are never dropped here; the
    standardization step handles them. Returns the dropped names, in drop
    order; the caller selects the columns it keeps.
    """
    _check_real(threshold, "threshold", 0, 1, "()")
    if table.n_rows < 2:
        raise DataError("correlation pruning needs at least two rows")

    with np.errstate(over="ignore"):  # an infinite std is not constant, and pearson scales it to unit size
        variable = [c for c in table.columns if np.std(table.column(c)) > CONSTANT_STD]
    corr = {}
    for i, ci in enumerate(variable):
        for cj in variable[i + 1 :]:
            corr[(ci, cj)] = abs(pearson(table.column(ci), table.column(cj)))

    def priority(name):
        return _DROP_PRIORITY.index(name) if name in _DROP_PRIORITY else len(_DROP_PRIORITY)

    dropped = []
    while True:
        partners = {c: 0 for c in variable}
        for (ci, cj), r in corr.items():
            if ci in partners and cj in partners and r > threshold:
                partners[ci] += 1
                partners[cj] += 1
        worst = max(partners.values(), default=0)
        if worst == 0:
            break
        candidates = [c for c, k in partners.items() if k == worst]
        victim = min(candidates, key=lambda c: (priority(c), table.columns.index(c)))
        variable.remove(victim)
        dropped.append(victim)

    return dropped
