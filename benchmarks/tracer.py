"""Spans around structim's public functions, recorded from outside the package.

Every module imports the names it uses directly (``from .spectral import
eig_sym``), so a function is wrapped in its defining module *and* in every
structim module that holds the same object; methods are wrapped on their
class. A rebinding missed here would read as zero calls, which the coverage
check in ``coverage_problems`` reports. Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, job, counts]``. Spans stay in memory
and are summarised, and written by the runner, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

BOTH, PREDICT, ANALYZE = ("analyze", "predict"), ("predict",), ("analyze",)


def _edges(args, kwargs, net):
    return {"edges": sum(s.n_edges for s in net.snapshots)}


def _eig_work(args, kwargs, spectrum):
    return {"work_n3": spectrum.n ** 3}


def _merges(args, kwargs, labels):
    return {"merges": len(labels) - (int(labels.max()) + 1)}


def _rows(args, kwargs, table):
    return {"rows": table.n_rows}


def _fit(args, kwargs, model):
    return {"iters": model.n_iter, "separations": int(model.separation_warning)}


# (module, function or Class.method, counter of the result, CLI commands that call it)
TARGETS = (
    ("ingest", "load_network", _edges, BOTH),
    ("graphs", "Snapshot.adjacency", None, BOTH),
    ("graphs", "TemporalNetwork.presence_matrix", None, PREDICT),
    ("spectral", "eig_sym", _eig_work, BOTH),
    ("importance", "node_importance", None, BOTH),
    ("netstats", "detect_communities", _merges, BOTH),
    ("netstats", "modularity", None, BOTH),
    ("netstats", "pagerank", None, BOTH),
    ("netstats", "eigenvector_centrality", None, BOTH),
    ("features", "snapshot_measures", None, BOTH),
    ("features", "build_table", _rows, PREDICT),
    ("features", "prune_correlated", None, PREDICT),
    ("model", "fit_logistic", _fit, PREDICT),
    ("model", "auc_score", None, PREDICT),
    ("model", "bootstrap_auc_ci", None, PREDICT),
    ("model", "permutation_importance", None, PREDICT),
    ("model", "null_prior_predictor", None, PREDICT),
    ("model", "edge_presence_labels", None, PREDICT),
    ("pipeline", "run_prediction", None, PREDICT),
    ("pipeline", "build_horizon_tables", None, PREDICT),
    ("pipeline", "time_ordered_select", None, PREDICT),
    ("svgplot", "line_chart", None, ANALYZE),
    ("svgplot", "bar_chart", None, PREDICT),
    ("svgplot", "violin_chart", None, ANALYZE),
)

JOB_SPAN = "cli.main"


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Recorder:
    """Collects spans; single-threaded, as the benchmark's closed loop is."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, out)
            return out

        return traced


@contextmanager
def instrumented(recorder: Recorder):
    """Wrap every TARGETS entry wherever structim binds it; yields
    {span name: number of bindings replaced}, and restores all on exit."""
    importlib.import_module("structim")
    modules = [m for key, m in list(sys.modules.items()) if key == "structim" or key.startswith("structim.")]
    patches = []
    bindings = {}
    try:
        for module_name, qualname, counter, _ in TARGETS:
            name = span_name(module_name, qualname)
            module = importlib.import_module(f"structim.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, recorder.wrap(name, original, counter))
                bindings[name] = 1
                continue
            original = getattr(module, qualname)
            wrapper = recorder.wrap(name, original, counter)
            bindings[name] = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        bindings[name] += 1
        yield bindings
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of the name
    only, so recursion is not counted twice), self seconds (duration minus
    direct children) and summed counters."""
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: defaultdict(float))
    for idx, (name, start, end, parent, _, counts) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["s"] += end - start
        for key, value in (counts or {}).items():
            entry[key] += value
    return {name: dict(entry) for name, entry in out.items()}


def top_level_seconds(spans) -> float:
    """Summed duration of the spans directly under the job span."""
    roots = {i for i, span in enumerate(spans) if span[0] == JOB_SPAN}
    return sum(end - start for _, start, end, parent, _, _ in spans if parent in roots)


def coverage_problems(summary: dict, command: str) -> list:
    """Names this command is known to call that recorded no call."""
    return [
        f"{span_name(m, q)} recorded no call on a {command} job"
        for m, q, _, commands in TARGETS
        if command in commands and summary.get(span_name(m, q), {}).get("calls", 0) == 0
    ]


def layer_self_seconds(summary: dict) -> dict:
    """Self seconds per layer (the first component of the span name)."""
    out = defaultdict(float)
    for name, entry in summary.items():
        out[name.split(".", 1)[0]] += entry["self_s"]
    return dict(out)
