"""Correctness checks for one benchmark job, from oracles outside structim.

Expected values come from the generated CSV rows themselves, read here with
the csv module, never through structim:

- analyze: for every snapshot the eigenvalues sum to the trace (0) and their
  squares sum to the squared Frobenius norm 2 * sum(w^2); node and edge counts
  match the rows; every modularity lies in [-1/2, 1] with at least one
  community.
- predict: ``n_rows`` is the number of (anchor, node) pairs with anchor
  1..T-2 whose node was present before the anchor, and the split is the
  time-ordered 40/40/20 cut of those rows. Both follow from the generator and
  the labelling rule alone. Test AUC lies in [0, 1] and inside its own
  bootstrap CI, and beats the prior-null mean AUC (the planted coupling is
  recovered).
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict

REL_TOL = 1e-9


class Oracle:
    """Per-snapshot facts of one generated CSV, in snapshot order."""

    def __init__(self, csv_path: str):
        nodes = defaultdict(set)
        edges = defaultdict(int)
        sq_weight = defaultdict(float)
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)  # header written by ingest.write_edge_csv
            for t, src, dst, value in reader:
                t = int(t)
                nodes[t].update((src, dst))
                edges[t] += 1
                sq_weight[t] += float(value) ** 2
        times = sorted(nodes)
        self.node_sets = [nodes[t] for t in times]
        self.n_edges = [edges[t] for t in times]
        self.frobenius_sq = [2.0 * sq_weight[t] for t in times]

    def expected_rows(self) -> int:
        seen = set(self.node_sets[0])
        rows = 0
        for present in self.node_sets[1:-1]:
            rows += len(present & seen)
            seen |= present
        return rows

    def expected_split(self) -> dict:
        n = self.expected_rows()
        i1, i2 = int(0.4 * n), int(0.8 * n)
        return {"train": i1, "validation": i2 - i1, "test": n - i2}


def check_job(command: str, exit_code, out_dir: str, oracle: Oracle) -> list:
    """Problems found in one job's exit code and artifacts; empty means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"]
    try:
        if command == "analyze":
            return _check_analyze(out_dir, oracle)
        return _check_predict(out_dir, oracle)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"]


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, 1.0)


def _check_analyze(out_dir: str, oracle: Oracle) -> list:
    problems = []
    with open(os.path.join(out_dir, "spectra.json")) as fh:
        snapshots = json.load(fh)["snapshots"]
    if len(snapshots) != len(oracle.node_sets):
        return [f"{len(snapshots)} spectra for {len(oracle.node_sets)} snapshots"]
    for t, snap in enumerate(snapshots):
        lam = snap["eigenvalues"]
        if snap["n_nodes"] != len(oracle.node_sets[t]) or snap["n_edges"] != oracle.n_edges[t]:
            problems.append(f"snapshot {t}: node or edge count differs from the CSV")
        scale = len(lam) * max((abs(v) for v in lam), default=0.0)
        if not _close(math.fsum(lam), 0.0, scale):
            problems.append(f"snapshot {t}: eigenvalues sum to {math.fsum(lam)!r}, not 0")
        sq = math.fsum(v * v for v in lam)
        if not _close(sq, oracle.frobenius_sq[t], oracle.frobenius_sq[t]):
            problems.append(f"snapshot {t}: sum of squared eigenvalues {sq!r} != 2 sum w^2 {oracle.frobenius_sq[t]!r}")
    with open(os.path.join(out_dir, "modularity.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(oracle.node_sets):
        problems.append(f"{len(rows)} modularity rows for {len(oracle.node_sets)} snapshots")
    for row in rows:
        q, k = float(row["modularity"]), int(row["n_communities"])
        if not -0.5 <= q <= 1.0 or k < 1:
            problems.append(f"snapshot {row['snapshot']}: modularity {q!r} with {k} communities")
    return problems


def _check_predict(out_dir: str, oracle: Oracle) -> list:
    problems = []
    with open(os.path.join(out_dir, "prediction.json")) as fh:
        result = json.load(fh)
    if result["n_rows"] != oracle.expected_rows():
        problems.append(f"n_rows {result['n_rows']} != {oracle.expected_rows()} from the CSV")
    if result["split"] != oracle.expected_split():
        problems.append(f"split {result['split']} != {oracle.expected_split()} from the CSV")
    report = result["report"]
    auc, (lo, hi) = report["auc"], report["auc_ci"]
    if not 0.0 <= auc <= 1.0:
        problems.append(f"test AUC {auc!r} outside [0, 1]")
    if not lo <= auc <= hi:
        problems.append(f"test AUC {auc!r} outside its bootstrap CI [{lo!r}, {hi!r}]")
    null_mean = report["null_prior"]["auc"]["mean"]
    if not auc > null_mean:
        problems.append(f"test AUC {auc!r} does not beat the prior-null mean {null_mean!r}")
    return problems
