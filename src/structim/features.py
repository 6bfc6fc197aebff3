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

from .errors import ArgumentError, DataError
from .graphs import TemporalNetwork
from .importance import node_importance
from .netstats import detect_communities, eigenvector_centrality, pagerank, pearson
from .spectral import Spectrum, eig_sym

# mc, identically zero for a zero-diagonal adjacency, is no measure column:
# ``importance --scheme mc`` reports it as the check of that identity.
MEASURE_COLUMNS = ("ma", "mb", "md", "eig_centrality", "pagerank", "degree", "community_size")
FEATURE_COLUMNS = MEASURE_COLUMNS + ("presence_count",)

TARGETS = ("presence", "change", "sign", "rel_change")

# A column whose standard deviation is at most this is treated as constant.
CONSTANT_STD = 1e-12

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
    ``pool``) stacks several anchors in time order. ``y`` and ``target`` are
    attached by the labeling step.
    """

    columns: tuple
    X: np.ndarray
    node_ids: tuple
    as_of: np.ndarray
    target: str | None = None
    y: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.as_of = np.full(self.n_rows, self.as_of, dtype=int)

    @property
    def n_rows(self) -> int:
        return int(self.X.shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.columns.index(name)]

    def select_columns(self, names) -> "FeatureTable":
        idx = [self.columns.index(c) for c in names]
        # the copy is C-ordered like every other X; the fancy-indexed view is not
        return replace(self, columns=tuple(names), X=self.X[:, idx].copy(),
                       y=None if self.y is None else self.y.copy(), meta=dict(self.meta))

    def select_rows(self, rows) -> "FeatureTable":
        """Rows picked by a boolean mask or an index array, in that order."""
        idx = np.arange(self.n_rows)[np.asarray(rows)]
        return replace(self, X=self.X[idx], node_ids=tuple(map(self.node_ids.__getitem__, idx.tolist())),
                       as_of=self.as_of[idx], y=None if self.y is None else self.y[idx], meta=dict(self.meta))


def pool(tables) -> FeatureTable:
    """Stack tables with the same columns and target into one, in the given order.

    Each row keeps its own ``as_of``, so a pool of the per-anchor tables in
    anchor order is time-ordered. Per-table ``meta`` is not carried over.
    """
    tables = list(tables)
    targets = {t.target for t in tables}
    if len(targets) != 1:
        raise ArgumentError(f"tables mix targets: {sorted(targets, key=str)}")
    columns = tables[0].columns
    if any(t.columns != columns for t in tables):
        raise ArgumentError("tables have different columns")
    return FeatureTable(
        columns=columns,
        X=np.vstack([t.X for t in tables]),
        node_ids=tuple(v for t in tables for v in t.node_ids),
        as_of=np.concatenate([t.as_of for t in tables]),
        target=tables[0].target,
        y=None if tables[0].y is None else np.concatenate([t.y for t in tables]),
    )


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
    A directed network raises DataError before any decomposition.
    """
    _check_undirected(tn)
    s = tn.snapshots[t]
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


def build_table(tn: TemporalNetwork, t: int, target: str, change_threshold: float = 0.05) -> FeatureTable:
    """Feature table at t with the requested target attached: the rows of
    ``build_features`` that ``target`` labels; ``change_threshold`` must be
    finite and nonnegative. Nothing is cached on the network: each call
    measures snapshot t, so several targets at one anchor measure it once
    per call."""
    keep, y = _labels(tn, t, target, change_threshold)
    return _feature_table(tn, t, keep, target, y)


def _feature_table(tn: TemporalNetwork, t: int, keep=True, target=None, y=None) -> FeatureTable:
    """The featurizable nodes of snapshot t among ``keep``, with their labels
    ``y`` when given; ``keep`` and ``y`` run over snapshot t's nodes."""
    if not 1 <= t < tn.n_snapshots:
        raise ArgumentError(f"anchor t={t} needs at least one prior snapshot and must exist")
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
        target=target,
        y=None if y is None else y[rows],
        meta={"skipped_new_nodes": int(at.size - seen.sum()), "skipped_undefined": int((seen & ~defined).sum())},
    )


def _labels(tn: TemporalNetwork, t: int, target: str, change_threshold: float = 0.05):
    """(keep, y) over snapshot t's nodes in its order: which nodes ``target``
    labels, by the S0/S1 rules of the module docstring, and their labels as floats."""
    _check_target(target)
    _check_change_threshold(change_threshold)
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


def _check_change_threshold(threshold: float) -> None:
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ArgumentError(f"change_threshold must be finite and nonnegative, got {threshold}")


def _check_corr_threshold(threshold: float) -> None:
    if not 0 < threshold < 1:
        raise ArgumentError(f"corr_threshold must be in (0, 1), got {threshold}")


def _check_target(target: str) -> None:
    if target not in TARGETS:
        raise ArgumentError(f"unknown target {target!r}; expected one of {TARGETS}")


def _check_undirected(tn: TemporalNetwork) -> None:
    if tn.directed:
        raise DataError("node measures are defined here for undirected networks only; the network is directed")


def _check_horizon(tn: TemporalNetwork, t: int) -> None:
    if not 0 <= t < tn.n_snapshots - 1:
        raise ArgumentError(f"labels at t={t} need snapshot t+1 to exist")


def prune_correlated(table: FeatureTable, threshold: float = 0.8):
    """Drop features until no pair's |Pearson r| exceeds ``threshold``.

    Iteratively removes the column with the most over-threshold partners;
    ties break by a fixed drop priority (generic benchmarks first). Constant
    columns have no defined correlation and are never dropped here; the
    standardization step handles them. Returns (reduced table, dropped names).
    """
    _check_corr_threshold(threshold)
    if table.n_rows < 2:
        raise DataError("correlation pruning needs at least two rows")

    active = [c for c in table.columns]
    variable = [c for c in active if np.std(table.column(c)) > CONSTANT_STD]
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
        active.remove(victim)
        dropped.append(victim)

    return table.select_columns(active), dropped
