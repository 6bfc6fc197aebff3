"""Command-line interface.

Subcommands:

  gen barbell / gen synthetic   write edge-list CSVs (plus a .meta.json sidecar)
  importance                    per-node importance for one snapshot
  analyze                       spectra, communities, measure distributions
  predict                       the full prediction pipeline with benchmarks

Inputs are edge-list CSVs (``time,src,dst,value``) or network JSON documents.
``importance`` writes JSON or CSV by its ``--out`` extension; ``analyze`` and
``predict`` write a directory of artifacts that ``--format`` filters by
extension. Every output carries the tool version and the resolved arguments,
either embedded (JSON) or in a sidecar. An option that feeds a library
parameter takes that parameter's default from the function's signature. Exit
codes: 0 success, 2 usage error (a bad option value gets the message of the
library check that owns it; an output that cannot be written names its path),
3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import inspect
import io
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import __version__
from .errors import ArgumentError, DataError, NumericalError
from .features import CHANGE_THRESHOLD, MEASURE_COLUMNS, TARGETS, _check_undirected, _labels, snapshot_measures
from .generators import barbell, repeat_snapshot, synthetic_temporal
from .graphs import STRENGTH_MODES
from .importance import DIRECTED_SCHEME, SCHEMES, node_importance, node_importance_directed
from .ingest import _check_options, load_network, write_edge_csv
from .netstats import TTestResult, _communities, detect_communities, mean_diff_ttest
from .pipeline import _check_prediction_args, run_prediction
from .spectral import eig_sym, select_eigencomponent
from .svgplot import bar_chart, line_chart, violin_chart

# The significance level that ttests.json reports, with its Bonferroni split over the measures.
TTEST_ALPHA = 0.05


def _default(fn, param: str):
    """The default of ``fn``'s parameter ``param``, the one source of the
    default of every option that feeds it."""
    return inspect.signature(fn).parameters[param].default


def _meta(args: argparse.Namespace, command: str) -> dict:
    """Run configuration echoed into every artifact: command plus every
    resolved parameter, including defaulted ones."""
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    return {"tool": "structim", "version": __version__, "command": command, "config": resolved}


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@contextlib.contextmanager
def _output(path: str):
    """Writing ``path``: an OSError (a missing directory, an existing file
    where a directory goes) becomes a usage error that names it."""
    try:
        yield
    except OSError as exc:
        raise ArgumentError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_text(path: str, text: str) -> None:
    with _output(path), open(path, "w", newline="") as fh:
        fh.write(text)


def _make_out_dir(args) -> None:
    """Create ``--out`` after the option checks, so a bad option creates
    nothing, and before the input is read, so an unwritable one costs no work."""
    _check_options(args.aggregation, False)
    with _output(args.out):
        os.makedirs(args.out, exist_ok=True)


def _write_artifacts(args, artifacts) -> list:
    """Write each ``(name, render)`` artifact that ``--format`` keeps (``all``
    or the name's extension) into the ``--out`` directory, calling ``render``
    only for kept ones. Returns the names written, in order."""
    written = []
    for name, render in artifacts:
        if args.format in ("all", name.rsplit(".", 1)[1]):
            _write_text(os.path.join(args.out, name), render())
            written.append(name)
    return written


def _add_io_args(sub):
    sub.add_argument("input", help="edge-list CSV or network JSON")
    sub.add_argument("--aggregation", type=int, default=_default(load_network, "aggregation"),
                     help="time labels per snapshot (default %(default)s)")


def _add_job_args(sub):
    """``analyze`` and ``predict``: the io arguments plus the artifact filter."""
    _add_io_args(sub)
    sub.add_argument("--format", choices=("all", "csv", "json", "svg"), default="all",
                     help="restrict emitted artifact formats")


def cmd_gen(args) -> int:
    if args.family == "barbell":
        snap = barbell(args.n_left, args.bridge, args.n_right, weight=args.weight)
        tn = repeat_snapshot(snap, args.repeats)
    else:
        tn = synthetic_temporal(
            args.n, args.communities, args.hubs, args.coupling, args.horizon, seed=args.seed
        )
    with _output(args.out):
        write_edge_csv(tn, args.out)
    meta = _meta(args, f"gen {args.family}")
    meta["n_snapshots"] = tn.n_snapshots
    meta["n_nodes"] = tn.n_nodes
    meta["n_edges_total"] = sum(s.n_edges for s in tn.snapshots)
    _write_text(args.out + ".meta.json", _json_text(meta))
    print(f"wrote {args.out} ({meta['n_snapshots']} snapshots, {meta['n_nodes']} nodes)")
    return 0


def cmd_importance(args) -> int:
    tn = load_network(args.input, aggregation=args.aggregation, directed=args.scheme == DIRECTED_SCHEME)
    if not 0 <= args.snapshot < tn.n_snapshots:
        raise DataError(f"snapshot {args.snapshot} out of range 0..{tn.n_snapshots - 1}")
    snap = tn.snapshots[args.snapshot]
    if args.scheme == DIRECTED_SCHEME:
        vec = node_importance_directed(snap, strength_mode=args.strength_mode)
    else:
        vec = node_importance(snap, args.scheme)

    meta = _meta(args, "importance")
    if args.out.endswith(".json"):
        doc = {
            "meta": meta,
            "scheme": vec.scheme,
            "snapshot": args.snapshot,
            "values": [
                {
                    "node": node,
                    "value": val,
                    "eig_rank": vec.eig_rank.get(node) if vec.eig_rank else None,
                }
                for node, val in vec.values.items()
            ],
            "excluded_zero_strength": list(vec.excluded),
        }
        _write_text(args.out, _json_text(doc))
    else:
        rows = [
            [node, vec.scheme, repr(val), vec.eig_rank.get(node, "") if vec.eig_rank else ""]
            for node, val in vec.values.items()
        ]
        _write_text(args.out, _csv_text(["node", "scheme", "value", "eig_rank"], rows))
        _write_text(args.out + ".meta.json", _json_text(meta))
    print(f"wrote {args.out} ({len(vec.values)} nodes, {len(vec.excluded)} excluded)")
    return 0


def _ttests(meta: dict, by_measure: dict) -> dict:
    """Welch tests of each measure, present-next against absent-next."""
    tests = []
    for name in MEASURE_COLUMNS:
        absent, present = by_measure[name][0], by_measure[name][1]
        entry = {"measure": name, "n_present": len(present), "n_absent": len(absent)}
        try:
            entry.update(asdict(mean_diff_ttest(present, absent)))
        except DataError as exc:
            entry.update(dict.fromkeys((f.name for f in fields(TTestResult)), None), note=str(exc))
        tests.append(entry)
    return {"meta": meta, "alpha": TTEST_ALPHA, "bonferroni_alpha": TTEST_ALPHA / len(MEASURE_COLUMNS), "tests": tests}


def cmd_analyze(args) -> int:
    _make_out_dir(args)
    tn = load_network(args.input, aggregation=args.aggregation)
    _check_undirected(tn)
    # One pass: each snapshot's spectrum and communities feed its spectra,
    # modularity and eigen-rank rows and its measure rows, then are dropped.
    spectra = []
    mod_rows = []
    rank_rows = []
    measure_rows = []
    values, present = [], []  # per labeled snapshot: its (node, measure) cells, next-snapshot presence
    for t, snap in enumerate(tn.snapshots):
        spec = communities = None
        if snap.n_edges:
            spec = eig_sym(snap.adjacency())
            communities = detect_communities(snap)
            q = _communities(snap)[1]  # kept on the snapshot by detect_communities, not scored again
            mod_rows.append([t, repr(q), int(communities.max()) + 1])
            for node, rank in zip(snap.node_ids, select_eigencomponent(spec)):
                rank_rows.append([t, node, int(rank)])
        spectra.append({"snapshot": t, "n_nodes": snap.n_nodes, "n_edges": snap.n_edges,
                        "eigenvalues": [] if spec is None else spec.eigenvalues.tolist(),
                        "positive_count": 0 if spec is None else spec.positive_count()})

        # Measure distributions split by presence in the next snapshot: the
        # defined (labeled node, measure) cells, node-major.
        if t == tn.n_snapshots - 1:
            continue
        keep, y = _labels(tn, t, "presence", CHANGE_THRESHOLD)
        measures = snapshot_measures(tn, t, spectrum=spec, communities=communities)
        values.append(np.column_stack([measures[name][tn._positions[t][keep]] for name in MEASURE_COLUMNS]))
        present.append(y[keep].astype(int))
        r, c = np.nonzero(~np.isnan(values[-1]))
        measure_rows += zip([t] * r.size, map(snap.node_ids.__getitem__, np.flatnonzero(keep)[r].tolist()),
                            map(MEASURE_COLUMNS.__getitem__, c.tolist()), map(repr, values[-1][r, c].tolist()),
                            present[-1][r].tolist())

    meta = _meta(args, "analyze")
    artifacts = [
        ("spectra.json", lambda: _json_text({"meta": meta, "snapshots": spectra})),
        ("modularity.csv", lambda: _csv_text(["snapshot", "modularity", "n_communities"], mod_rows)),
        ("eigen_ranks.csv", lambda: _csv_text(["snapshot", "node", "eig_rank"], rank_rows)),
    ]
    if mod_rows:
        artifacts.append(("modularity.svg", lambda: line_chart(
            [r[0] for r in mod_rows], [float(r[1]) for r in mod_rows],
            title="Modularity over time", xlabel="snapshot", ylabel="Q",
        )))
    if measure_rows:
        values, present = np.concatenate(values), np.concatenate(present)
        by_measure = {name: {p: col[(present == p) & ~np.isnan(col)] for p in (0, 1)}
                      for name, col in zip(MEASURE_COLUMNS, values.T)}
        artifacts.append(("measures.csv", lambda: _csv_text(
            ["snapshot", "node", "measure", "value", "next_present"], measure_rows)))
        artifacts.append(("ttests.json", lambda: _json_text(_ttests(meta, by_measure))))
        artifacts += [
            (f"violin_{name}.svg", lambda name=name: violin_chart(
                [("absent next", by_measure[name][0]), ("present next", by_measure[name][1])],
                title=f"{name} by next-snapshot presence", ylabel=name,
            ))
            for name in MEASURE_COLUMNS
        ]
    written = _write_artifacts(args, artifacts)
    _write_text(os.path.join(args.out, "run.json"), _json_text({**meta, "artifacts": written}))
    print(f"wrote {len(written) + 1} artifacts to {args.out}")
    return 0


def cmd_predict(args) -> int:
    try:
        grid = tuple(float(v) for v in args.l2_grid.split(","))
    except ValueError:
        raise ArgumentError(f"cannot parse --l2-grid {args.l2_grid!r}") from None
    options = dict(seed=args.seed, l2_grid=grid, change_threshold=args.change_threshold,
                   corr_threshold=args.corr_threshold, null_trials=args.trials, bootstrap_iters=args.bootstrap_iters)
    _check_prediction_args(**options)  # before the input is read
    _make_out_dir(args)
    tn = load_network(args.input, aggregation=args.aggregation)
    result = run_prediction(tn, args.target, **options)
    meta = _meta(args, "predict")
    artifacts = [
        ("prediction.json", lambda: _json_text({"meta": meta, **result.to_json_dict()})),
        ("coefficients.csv", lambda: _csv_text(
            ["feature", "coef", "se", "pvalue", "ci_lo", "ci_hi"],
            [
                [c["feature"], repr(c["coef"]), repr(c["se"]), repr(c["pvalue"]), repr(c["ci_lo"]), repr(c["ci_hi"])]
                for c in result.coefficients
            ],
        )),
    ]
    perm = result.report.permutation_importance if result.report is not None else None
    if perm:
        artifacts.append(("permutation_importance.csv", lambda: _csv_text(
            ["feature", "importance"], [[k, repr(v)] for k, v in perm.items()])))
        artifacts.append(("permutation_importance.svg", lambda: bar_chart(
            list(perm), list(perm.values()), title="Permutation importance", ylabel="mean increase in 1-AUC")))
    if result.shap_values is not None:
        artifacts.append(("shap.csv", lambda: _csv_text(["node", "feature", "phi"], [
            [node, feat, repr(phi)]
            for node, phis in zip(result.shap_rows, result.shap_values.tolist())
            for feat, phi in zip(result.columns, phis)
        ])))
    written = _write_artifacts(args, artifacts)

    if result.report is not None:
        auc = result.report.auc
        ci = result.report.auc_ci
        null_auc = (result.report.null_prior or {}).get("auc", {}).get("mean")
        print(
            f"target={result.target} l2={result.chosen_l2} test AUC={auc if auc is None else f'{auc:.4f}'}"
            f" ci95={ci} null prior AUC={null_auc if null_auc is None else f'{null_auc:.4f}'}"
        )
    else:
        reg = result.regression or {}
        print(f"target={result.target} heldout R2={reg.get('r2_heldout'):.4f}")
    print(f"wrote {len(written)} artifacts to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="structim",
                                     description="Spectral structural importance for weighted temporal networks")
    parser.add_argument("--version", action="version", version=f"structim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate benchmark networks")
    gen_subs = gen.add_subparsers(dest="family", required=True)
    gb = gen_subs.add_parser("barbell", help="two cliques joined by a path")
    gb.add_argument("--n-left", type=int, default=_default(barbell, "n_left"))
    gb.add_argument("--bridge", type=int, default=_default(barbell, "bridge"))
    gb.add_argument("--n-right", type=int, default=_default(barbell, "n_right"))
    gb.add_argument("--weight", type=float, default=_default(barbell, "weight"))
    gb.add_argument("--repeats", type=int, default=1, help="emit the graph at this many time steps")
    gb.add_argument("--out", required=True)
    gb.set_defaults(func=cmd_gen)
    gs = gen_subs.add_parser("synthetic", help="temporal network with importance-coupled dropout")
    gs.add_argument("--n", type=int, default=120)
    gs.add_argument("--communities", type=int, default=4)
    gs.add_argument("--hubs", type=int, default=4)
    gs.add_argument("--coupling", type=float, default=0.0)
    gs.add_argument("--horizon", type=int, default=30)
    gs.add_argument("--seed", type=int, default=_default(synthetic_temporal, "seed"))
    gs.add_argument("--out", required=True)
    gs.set_defaults(func=cmd_gen)

    imp = subs.add_parser("importance", help="per-node importance for one snapshot")
    _add_io_args(imp)
    imp.add_argument("--scheme", choices=SCHEMES + (DIRECTED_SCHEME,), default="mb")
    imp.add_argument("--snapshot", type=int, default=0)
    imp.add_argument("--strength-mode", choices=STRENGTH_MODES,
                     default=_default(node_importance_directed, "strength_mode"))
    imp.add_argument("--out", required=True, help="a .json path, or a CSV path with a .meta.json sidecar")
    imp.set_defaults(func=cmd_importance)

    ana = subs.add_parser("analyze", help="spectra, communities, measure distributions")
    _add_job_args(ana)
    ana.add_argument("--out", required=True, help="output directory")
    ana.set_defaults(func=cmd_analyze)

    pred = subs.add_parser("predict", help="fit and benchmark activity prediction")
    _add_job_args(pred)
    pred.add_argument("--seed", type=int, default=_default(run_prediction, "seed"))
    pred.add_argument("--target", choices=TARGETS, default="presence")
    pred.add_argument("--l2-grid", default=",".join(str(v) for v in _default(run_prediction, "l2_grid")))
    pred.add_argument("--change-threshold", type=float, default=_default(run_prediction, "change_threshold"))
    pred.add_argument("--corr-threshold", type=float, default=_default(run_prediction, "corr_threshold"))
    pred.add_argument("--trials", type=int, default=_default(run_prediction, "null_trials"), help="null-model trials")
    pred.add_argument("--bootstrap-iters", type=int, default=_default(run_prediction, "bootstrap_iters"))
    pred.add_argument("--out", required=True, help="output directory")
    pred.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
