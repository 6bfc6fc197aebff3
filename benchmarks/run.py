"""structim benchmark: whole CLI jobs on generated networks.

    python3 benchmarks/run.py --workload predict-small --seed 11 --seconds 30 --trace 0

Run from anywhere; the program is imported from the checkout's ``src``.

A run first sets up: ``SETUP_REPEATS`` fresh processes each import structim,
generate the workload's networks from ``--seed`` and write their CSVs
(``gen_input.py``). The CSVs must hash identically. The run then drives
``structim.cli.main([...])`` in-process as a closed loop: one caller, one
job at a time, BLAS limited to ``BLAS_THREADS`` thread(s). A round runs one
job on each of the workload's inputs. It starts rounds until ``--seconds``
would be exceeded, at least ``MIN_ROUNDS`` of them, and checks every job's
artifacts against oracles read from its CSV (``oracles.py``). Before every
untraced job it times runs of ``reference_kernel``, a fixed computation in
the benchmark's own code, for ``REFERENCE_SHARE`` of the previous job's time
(at least ``REFERENCE_MIN_KERNELS`` runs), so the kernel samples the core's
speed evenly over the run.

``--trace 0`` reports the end-to-end metrics:

- ``job_ref``: the wall time of one job in units of the reference kernel's
  wall time: the mean wall seconds of a job over all rounds divided by the
  mean wall seconds of a reference kernel over the run. On a shared 2-core
  VM a core runs at one speed for minutes, then about 1.45 times slower for
  minutes (set-up time moves with it), so wall seconds of runs made minutes
  apart spread past any useful bound. The reference, timed on the same core
  between jobs, slows with the job and cancels most of that; a change to the
  program moves the ratio as it moves the job's time. Means, not medians:
  the core also switches state for seconds at a time, and the median of
  short jobs jumps between the two states where the mean moves in
  proportion. The wall seconds (``job_s``: mean, median, tail percentile and
  sample count) are printed and recorded.
- ``setup_s``: median set-up seconds.
- ``peak_rss_mb``: peak resident memory of this process, which runs the jobs.

``--trace 1`` alternates untraced jobs with jobs traced by ``tracer.py``,
both on the first input, and reports the per-layer metrics, per job, plus
``trace.overhead_frac``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
full record (machine, per-job times, hashes, span summary, spans) is written
to ``benchmarks/.results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
# Must be set before numpy is first imported, here and in set-up processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from oracles import Oracle, check_job  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
# Untraced rounds: at least two. Traced runs: one untraced+traced pair.
MIN_ROUNDS = 2
MIN_TRACED_PAIRS = 1
SETUP_TIMEOUT_S = 120
REFERENCE_SHARE = 0.1
REFERENCE_MIN_KERNELS = 3

END_TO_END_UNITS = {"job_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB"}


def reference_kernel() -> float:
    """Fixed work like the program's, in two halves of about equal time:
    dict updates on tuple keys with a sort, and dense symmetric eigenvalues.

    A core's slow state slows the dict half more and the LAPACK half less
    than it slows a job; the mix follows a job's slowdown closer than either.
    """
    totals = {}
    for i in range(60_000):
        key = (i % 37, i % 41)
        totals[key] = totals.get(key, 0.0) + 0.5 * i
    checksum = sorted(totals.items())[-1][1]
    a = np.arange(300 * 300, dtype=float).reshape(300, 300) % 7.0
    for _ in range(3):
        checksum += float(np.linalg.eigvalsh(a + a.T)[-1])
    return checksum


def time_reference(budget_s: float) -> list:
    """Wall seconds of each reference kernel run until ``budget_s`` is spent."""
    times = []
    while len(times) < REFERENCE_MIN_KERNELS or sum(times) < budget_s:
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return times


def _span_metric(span: str, field: str, unit: str, metric: str | None = None, names: tuple | None = None):
    return (metric or f"{span}.{field}", unit, names or (span,), field)


# (metric, unit, span names summed, summary field); see tracer.summarize.
PER_LAYER_SPANS = (
    _span_metric("ingest.load_network", "s", "s"),
    _span_metric("ingest.load_network", "edges", "count", "ingest.edges_parsed"),
    _span_metric("graphs.adjacency", "calls", "count"),
    _span_metric("graphs.adjacency", "s", "s"),
    _span_metric("graphs.presence_matrix", "calls", "count"),
    _span_metric("spectral.eig_sym", "calls", "count"),
    _span_metric("spectral.eig_sym", "s", "s"),
    _span_metric("spectral.eig_sym", "work_n3", "n3"),
    _span_metric("importance.node_importance", "calls", "count"),
    _span_metric("importance.node_importance", "s", "s"),
    _span_metric("netstats.detect_communities", "calls", "count"),
    _span_metric("netstats.detect_communities", "s", "s"),
    _span_metric("netstats.detect_communities", "merges", "count"),
    _span_metric("netstats.modularity", "calls", "count"),
    _span_metric("netstats.modularity", "s", "s"),
    _span_metric("netstats.pagerank", "calls", "count"),
    _span_metric("netstats.pagerank", "s", "s"),
    _span_metric("netstats.eigenvector_centrality", "calls", "count"),
    _span_metric("netstats.eigenvector_centrality", "s", "s"),
    _span_metric("features.snapshot_measures", "calls", "count"),
    _span_metric("features.snapshot_measures", "self_s", "s"),
    _span_metric("features.build_table", "calls", "count"),
    _span_metric("features.build_table", "s", "s"),
    _span_metric("features.prune_correlated", "s", "s"),
    _span_metric("features.build_table", "rows", "count", "features.rows"),
    _span_metric("model.fit_logistic", "calls", "count"),
    _span_metric("model.fit_logistic", "iters", "count"),
    _span_metric("model.fit_logistic", "separations", "count"),
    _span_metric("model.fit_logistic", "s", "s"),
    _span_metric("model.auc_score", "calls", "count"),
    _span_metric("model.auc_score", "s", "s"),
    _span_metric("model.bootstrap_auc_ci", "s", "s"),
    _span_metric("model.permutation_importance", "s", "s"),
    _span_metric("model.null_prior_predictor", "s", "s"),
    _span_metric("model.edge_presence_labels", "s", "s"),
    _span_metric("pipeline.run_prediction", "self_s", "s"),
    _span_metric("pipeline.build_horizon_tables", "s", "s"),
    _span_metric("pipeline.time_ordered_select", "s", "s"),
    _span_metric("cli", "self_s", "s", "cli.self_s", (tracer.JOB_SPAN,)),
    _span_metric("svgplot", "s", "s", names=("svgplot.line_chart", "svgplot.bar_chart", "svgplot.violin_chart")),
    _span_metric("svgplot", "calls", "count", names=("svgplot.line_chart", "svgplot.bar_chart", "svgplot.violin_chart")),
)
# Per-layer metrics the runner measures itself.
PER_LAYER_RUNNER_UNITS = {
    "model.warnings": "count",
    "cli.bytes_written": "bytes",
    "generators.synthetic_temporal.s": "s",
    "trace.overhead_frac": "frac",
}


def per_layer_units() -> dict:
    units = {metric: unit for metric, unit, _, _ in PER_LAYER_SPANS}
    units.update(PER_LAYER_RUNNER_UNITS)
    return units


class SetupError(RuntimeError):
    """The benchmark could not prepare its inputs; no result is printed."""


def run_setup(workload: str, seed: int, out_dir: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "gen_input.py"), "--workload", workload, "--seed", str(seed),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"set-up exceeded {SETUP_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise SetupError(f"set-up exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_structim():
    sys.path.insert(0, SRC)
    import structim
    from structim import cli

    if not os.path.abspath(structim.__file__).startswith(SRC + os.sep):
        raise SetupError(f"structim imported from {structim.__file__}, not from {SRC}")
    return cli


@dataclass
class Job:
    """Outcome of one CLI job."""

    index: int
    traced: bool
    seconds: float = 0.0
    exit_code: object = None
    problems: list = field(default_factory=list)
    warnings: int = 0
    bytes_written: int = 0
    reference_s: list = field(default_factory=list)  # kernel seconds timed just before the job


def run_job(cli, argv, command, out_dir, oracle, index, recorder=None) -> Job:
    job = Job(index, recorder is not None)
    shutil.rmtree(out_dir, ignore_errors=True)
    entry = cli.main
    if recorder is not None:
        recorder.job = index
        entry = recorder.wrap(tracer.JOB_SPAN, cli.main)
    gc.collect()
    sink = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                job.exit_code = entry(argv)
        except SystemExit as exc:
            job.exit_code = exc.code
        except Exception:  # a crashing job is a failed operation, not a failed benchmark
            job.exit_code = traceback.format_exc(limit=-3)
        job.seconds = time.perf_counter() - start
    job.warnings = len(caught)
    job.problems = check_job(command, job.exit_code, out_dir, oracle)
    if os.path.isdir(out_dir):
        job.bytes_written = sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())
    return job


def closed_loop(seconds: float, min_rounds: int, round_fn) -> list:
    """Run rounds back to back; start another only if it should end in time."""
    durations = []
    start = time.perf_counter()
    while len(durations) < min_rounds or time.perf_counter() - start + statistics.median(durations) <= seconds:
        t0 = time.perf_counter()
        round_fn()
        durations.append(time.perf_counter() - t0)
    return durations


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return (100.0 * (k + 1) / len(ordered), ordered[k])


def machine_record(seed: int) -> dict:
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                                    timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "structim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10, check=False).stdout
    except (OSError, subprocess.SubprocessError):
        conf = ""
    for entry in conf.splitlines():
        key, _, value = entry.partition(" ")
        if key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE") and value.strip().isdigit():
            caches[key.split("_")[0].replace("LEVEL", "L")] = int(value)
    return {
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cache_bytes": caches,
        "platform": platform.platform(),
    }


def per_layer_metrics(summary: dict) -> dict:
    out = {}
    for metric, _, names, field in PER_LAYER_SPANS:
        out[metric] = float(sum(summary.get(n, {}).get(field, 0.0) for n in names))
    return out


def _median_of(dicts, key):
    return statistics.median(d[key] for d in dicts)


def benchmark(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (result line dict, full record dict)."""
    workload = WORKLOADS[workload_name]
    if not os.path.isfile(os.path.join(SRC, "structim", "__init__.py")):
        raise SetupError(f"no structim sources under {SRC}")
    work = os.path.join(HERE, ".work", f"{workload_name}-s{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _benchmark(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _benchmark(workload, seed, seconds, trace, work):
    # Relative paths keep the artifacts' echoed arguments, and their size, the
    # same in every checkout.
    rel_work = os.path.relpath(work, ROOT)
    setups = [run_setup(workload.name, seed, os.path.join(work, f"setup{k}")) for k in range(SETUP_REPEATS)]
    hashes = sorted({s["sha256"] for s in setups})
    identity_ok = len(hashes) == 1

    cli = import_structim()
    os.chdir(ROOT)
    csv_paths = [os.path.join(rel_work, "setup0", f"input{i}.csv") for i in range(workload.inputs)]
    out_dir = os.path.join(rel_work, "out")
    argvs = [workload.argv(path, out_dir) for path in csv_paths]
    oracles = [Oracle(path) for path in csv_paths]

    jobs = []
    recorders = []
    bindings = {}

    def untraced(i=0):
        reference_s = time_reference(REFERENCE_SHARE * jobs[-1].seconds if jobs else 0.0)
        jobs.append(run_job(cli, argvs[i], workload.command, out_dir, oracles[i], len(jobs)))
        jobs[-1].reference_s = reference_s

    def round_of_jobs():
        for i in range(workload.inputs):
            untraced(i)

    def traced_pair():
        untraced()
        recorder = tracer.Recorder()
        with tracer.instrumented(recorder) as found:
            bindings.update(found)
            jobs.append(run_job(cli, argvs[0], workload.command, out_dir, oracles[0], len(jobs), recorder))
        recorders.append(recorder)

    tail_kernels = []
    if trace:
        rounds = closed_loop(seconds, MIN_TRACED_PAIRS, traced_pair)
    else:
        rounds = closed_loop(seconds, MIN_ROUNDS, round_of_jobs)
        # Sample the core after the last job too, as before every other one.
        tail_kernels = time_reference(REFERENCE_SHARE * jobs[-1].seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = [j for j in jobs if j.problems]
    plain = [j.seconds for j in jobs if not j.traced]
    kernels = [k for j in jobs if not j.traced for k in j.reference_s] + tail_kernels
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": {"kind": "closed", "callers": 1, "blas_threads": int(BLAS_THREADS), "rounds": len(rounds),
                 "inputs": workload.inputs if not trace else 1, "sub_seeds": workload.sub_seeds(seed)},
        "machine": machine_record(seed),
        "inputs": {"sha256": hashes, "identical": identity_ok, "setups": setups},
        "jobs": [asdict(j) for j in jobs],
        "job_s": {"mean": statistics.fmean(plain), "median": statistics.median(plain), "tail": tail(plain),
                  "samples": len(plain)},
        "job_ref": statistics.fmean(plain) / statistics.fmean(kernels),
        "reference_s": {"mean": statistics.fmean(kernels), "median": statistics.median(kernels),
                        "samples": len(kernels)},
        "setup_s": {"median": _median_of(setups, "setup_s"), "samples": len(setups)},
        "peak_rss_mb": peak_rss_mb,
        "ops": {"attempted": len(jobs), "failed": len(failed), "failed_frac": len(failed) / len(jobs)},
    }
    problems = [] if identity_ok else [f"set-ups with seed {seed} wrote different CSVs: {hashes}"]

    if trace:
        traced_jobs = [j for j in jobs if j.traced]
        per_job = []
        for job, recorder in zip(traced_jobs, recorders):
            summary = tracer.summarize(recorder.spans)
            values = per_layer_metrics(summary)
            values.update({"model.warnings": float(job.warnings), "cli.bytes_written": float(job.bytes_written)})
            per_job.append((job, recorder.spans, summary, values))
        metrics = {k: statistics.median(v[k] for *_, v in per_job) for k in per_job[0][3]}
        metrics["generators.synthetic_temporal.s"] = _median_of(setups, "generate_s")
        traced_s = statistics.fmean(j.seconds for j in traced_jobs)
        overhead = (traced_s - record["job_s"]["mean"]) / record["job_s"]["mean"]
        metrics["trace.overhead_frac"] = overhead

        job, spans, summary, _ = per_job[len(per_job) // 2]
        problems += tracer.coverage_problems(summary, workload.command)
        accounted = tracer.top_level_seconds(spans) + summary[tracer.JOB_SPAN]["self_s"]
        if abs(job.seconds - accounted) > max(abs(overhead), 0.01) * job.seconds:
            problems.append(f"spans account for {accounted:.4f} s of a {job.seconds:.4f} s traced job")
        shares = {layer: s / job.seconds for layer, s in sorted(tracer.layer_self_seconds(summary).items())}
        record.update(
            traced_job_s=traced_s,
            bindings=bindings,
            per_layer=metrics,
            layer_self_share=shares,
            span_summary=summary,
            spans={"fields": ["name", "start", "end", "parent", "job", "counts"], "job": job.index, "rows": spans},
        )
        units = per_layer_units()
    else:
        metrics = {"job_ref": record["job_ref"], "setup_s": record["setup_s"]["median"],
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS

    record["problems"] = problems + [f"job {j.index}: {p}" for j in failed for p in j.problems]
    correct = not problems and not failed
    record["correct"] = correct
    line = {
        "correct": correct,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return line, record


def report(record: dict, line: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  closed loop, 1 caller, BLAS threads "
          f"{m['blas_threads']}, nproc {m['nproc']}")
    print(f"  python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}  blas {m['blas']}  "
          f"commit {m['git_commit'] or 'n/a'}  src {m['src_sha256'][:12]}  caches {m['cache_bytes']}")
    print(f"  input sha256 {', '.join(h[:16] for h in record['inputs']['sha256'])}"
          f"  ({'identical' if record['inputs']['identical'] else 'DIFFERENT'} over {SETUP_REPEATS} set-ups)")
    job_s = record["job_s"]
    tail_txt = f"p{job_s['tail'][0]:.0f} {job_s['tail'][1]:.4f} s" if job_s["tail"] else "no tail (< 11 jobs)"
    print(f"  job_s        mean {job_s['mean']:.4f} s, median {job_s['median']:.4f} s, {tail_txt}, "
          f"{job_s['samples']} untraced jobs on {record['loop']['inputs']} input(s)")
    print(f"  job_ref      {record['job_ref']:.4f} reference kernels per job "
          f"(reference mean {record['reference_s']['mean']:.4f} s)")
    print(f"  setup_s      median {record['setup_s']['median']:.4f} s over {record['setup_s']['samples']} set-ups")
    print(f"  peak_rss_mb  {record['peak_rss_mb']:.1f} MiB")
    ops = record["ops"]
    print(f"  ops_failed_frac {ops['failed_frac']:.4f} ({ops['failed']} failed / {ops['attempted']} attempted)")
    if record["trace"]:
        print(f"  traced job_s mean {record['traced_job_s']:.4f} s")
        for name, value in line["metrics"].items():
            print(f"  {name:42s} {value['value']:.6g} {value['unit']}")
        print("  self-time share of traced job_s by layer: "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(record["layer_self_share"].items(), key=lambda kv: -kv[1])))
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(f"  correct: {'yes' if record['correct'] else 'NO'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    results = os.path.join(HERE, ".results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-s{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
