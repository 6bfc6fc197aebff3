"""Per-node feature tables for activity prediction.

Features for a prediction anchored at snapshot t are averages of per-snapshot
node measures over snapshots 0..t-1, where the average runs only over the
snapshots in which the node was actually present (measures are undefined for
absent nodes, so absent snapshots are masked out rather than zero-filled).
The presence_count column counts those prior appearances.

Feature rows cover the nodes present in snapshot t that have at least one
prior appearance; a node seen for the first time at t has no history to
average and is excluded (the count is kept in table metadata). Targets that
compare t with t+1 restrict rows further to nodes with positive strength in
both snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ArgumentError, DataError
from .graphs import Snapshot, TemporalNetwork
from .importance import SCHEMES, node_importance
from .netstats import detect_communities, eigenvector_centrality, pagerank, pearson
from .spectral import Spectrum, eig_sym

MEASURE_COLUMNS = (
    "ma",
    "mb",
    "mc",
    "md",
    "eig_centrality",
    "pagerank",
    "degree",
    "community_size",
)
# mc is identically zero for a zero-diagonal adjacency: it is reported by
# analyze as a sanity check but is not a feature.
FEATURE_COLUMNS = tuple(c for c in MEASURE_COLUMNS if c != "mc") + ("presence_count",)

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
        return replace(self, X=self.X[idx], node_ids=tuple(self.node_ids[i] for i in idx), as_of=self.as_of[idx],
                       y=None if self.y is None else self.y[idx], meta=dict(self.meta))


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
    """
    s = tn.snapshots[t]
    n_uni = tn.n_nodes
    out = {name: np.full(n_uni, np.nan) for name in MEASURE_COLUMNS}
    if s.n_edges == 0:
        return out

    gidx = np.array([tn.universe_index[v] for v in s.node_ids])
    spec = spectrum if spectrum is not None else eig_sym(s.adjacency())
    for scheme in SCHEMES:
        vec = node_importance(s, scheme, spectrum=spec)
        for node, val in vec.values.items():
            out[scheme][tn.universe_index[node]] = val

    cent = eigenvector_centrality(s, spectrum=spec)
    pr = pagerank(s)
    deg = s.degrees().astype(float)
    labels = communities if communities is not None else detect_communities(s)
    sizes = np.bincount(labels)
    strength = s.strength()
    present = strength > 0
    out["eig_centrality"][gidx[present]] = cent[present]
    out["pagerank"][gidx[present]] = pr[present]
    out["degree"][gidx[present]] = deg[present]
    out["community_size"][gidx[present]] = sizes[labels[present]].astype(float)
    return out


def build_features(tn: TemporalNetwork, t: int, measures_cache: dict | None = None) -> FeatureTable:
    """Historical-mean feature table anchored at snapshot t.

    ``measures_cache`` maps snapshot index -> snapshot_measures output and is
    filled on demand, so sweeping t over a horizon computes each snapshot's
    measures once.
    """
    if not 1 <= t < tn.n_snapshots:
        raise ArgumentError(f"anchor t={t} needs at least one prior snapshot and must exist")
    cache = measures_cache if measures_cache is not None else {}
    for u in range(t):
        if u not in cache:
            cache[u] = snapshot_measures(tn, u)

    presence = tn.presence_matrix()
    prior_count = presence[:t].sum(axis=0).astype(float)
    now = tn.snapshots[t]
    rows = []
    skipped_new = 0
    for v in now.node_ids:
        g = tn.universe_index[v]
        if prior_count[g] >= 1:
            rows.append((v, g))
        else:
            skipped_new += 1

    g_rows = np.array([g for _, g in rows], dtype=int)
    x = np.empty((len(rows), len(FEATURE_COLUMNS)))
    for c, name in enumerate(FEATURE_COLUMNS[:-1]):
        hist = np.stack([cache[u][name] for u in range(t)])
        defined_mask = ~np.isnan(hist)
        counts = defined_mask.sum(axis=0)
        sums = np.where(defined_mask, hist, 0.0).sum(axis=0)
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
        x[:, c] = means[g_rows]
    x[:, -1] = prior_count[g_rows]

    # A node can be present without defined importance (zero strength in every
    # prior appearance); such rows cannot be featurized either.
    defined = ~np.isnan(x).any(axis=1)
    skipped_undefined = int((~defined).sum())
    x = x[defined]
    node_ids = tuple(v for (v, _), keep in zip(rows, defined) if keep)

    return FeatureTable(
        columns=FEATURE_COLUMNS,
        X=x,
        node_ids=node_ids,
        as_of=t,
        meta={"skipped_new_nodes": skipped_new, "skipped_undefined": skipped_undefined},
    )


def _strengths_by_node(s: Snapshot) -> dict:
    vals = s.strength()
    return {v: float(x) for v, x in zip(s.node_ids, vals) if x > 0}


def label_presence(tn: TemporalNetwork, t: int) -> dict:
    """1 iff the node carries at least one edge in snapshot t+1.

    Defined for every node present at t.
    """
    _check_horizon(tn, t)
    nxt = _strengths_by_node(tn.snapshots[t + 1])
    return {v: int(v in nxt) for v in _strengths_by_node(tn.snapshots[t])}


def label_change(tn: TemporalNetwork, t: int, threshold: float = 0.05) -> dict:
    """1 iff the relative strength change from t to t+1 exceeds ``threshold``.

    Defined only for nodes with positive strength in both snapshots.
    ``threshold`` must be finite and nonnegative.
    """
    _check_change_threshold(threshold)
    _check_horizon(tn, t)
    cur = _strengths_by_node(tn.snapshots[t])
    nxt = _strengths_by_node(tn.snapshots[t + 1])
    return {v: int(abs(nxt[v] - s0) / s0 > threshold) for v, s0 in cur.items() if v in nxt}


def label_sign(tn: TemporalNetwork, t: int) -> dict:
    """1 iff strength strictly grows from t to t+1; ties are dropped."""
    _check_horizon(tn, t)
    cur = _strengths_by_node(tn.snapshots[t])
    nxt = _strengths_by_node(tn.snapshots[t + 1])
    return {v: int(nxt[v] > s0) for v, s0 in cur.items() if v in nxt and nxt[v] != s0}


def label_rel_change(tn: TemporalNetwork, t: int) -> dict:
    """Relative strength change (S_{t+1} - S_t) / S_t for nodes in both."""
    _check_horizon(tn, t)
    cur = _strengths_by_node(tn.snapshots[t])
    nxt = _strengths_by_node(tn.snapshots[t + 1])
    return {v: (nxt[v] - s0) / s0 for v, s0 in cur.items() if v in nxt}


def _check_change_threshold(threshold: float) -> None:
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ArgumentError(f"change_threshold must be finite and nonnegative, got {threshold}")


def _check_corr_threshold(threshold: float) -> None:
    if not 0 < threshold < 1:
        raise ArgumentError(f"corr_threshold must be in (0, 1), got {threshold}")


def _check_target(target: str) -> None:
    if target not in TARGETS:
        raise ArgumentError(f"unknown target {target!r}; expected one of {TARGETS}")


def _check_horizon(tn: TemporalNetwork, t: int) -> None:
    if not 0 <= t < tn.n_snapshots - 1:
        raise ArgumentError(f"labels at t={t} need snapshot t+1 to exist")


def build_table(
    tn: TemporalNetwork,
    t: int,
    target: str,
    change_threshold: float = 0.05,
    measures_cache: dict | None = None,
) -> FeatureTable:
    """Feature table at t with the requested target attached."""
    _check_target(target)
    table = build_features(tn, t, measures_cache=measures_cache)
    if target == "presence":
        labels = label_presence(tn, t)
    elif target == "change":
        labels = label_change(tn, t, threshold=change_threshold)
    elif target == "sign":
        labels = label_sign(tn, t)
    else:
        labels = label_rel_change(tn, t)
    mask = np.array([v in labels for v in table.node_ids], dtype=bool)
    table = table.select_rows(mask)
    table.target = target
    table.y = np.array([labels[v] for v in table.node_ids], dtype=float)
    return table


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
