"""Tiny-size checks of the benchmark's own code.

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from oracles import Oracle, check_job  # noqa: E402
from structim import cli, generators, ingest, spectral  # noqa: E402


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bench") / "tiny.csv")
    ingest.write_edge_csv(generators.synthetic_temporal(40, 2, 4, -2.0, 8, seed=3), path)
    return path


def _traced(argv):
    recorder = tracer.Recorder()
    with tracer.instrumented(recorder) as bindings:
        code = recorder.wrap(tracer.JOB_SPAN, cli.main)(argv)
    return code, tracer.summarize(recorder.spans), recorder.spans, bindings


def test_benchmark_json_names_match_the_runner():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {k: w.why for k, w in run.WORKLOADS.items()}


def test_sub_seeds_start_at_the_seed_and_do_not_repeat():
    for workload in run.WORKLOADS.values():
        seeds = workload.sub_seeds(7)
        assert seeds[0] == 7 and len(set(seeds)) == workload.inputs


def test_traced_analyze_covers_every_rebinding_and_restores(tiny_csv, tmp_path):
    out = str(tmp_path / "analyze")
    original = spectral.eig_sym
    code, summary, spans, bindings = _traced(["analyze", tiny_csv, "--out", out])
    assert code == 0
    assert tracer.coverage_problems(summary, "analyze") == []
    assert bindings["spectral.eig_sym"] >= 4  # spectral, importance, netstats, features, cli, ...
    assert cli.eig_sym is original and spectral.eig_sym is original
    accounted = tracer.top_level_seconds(spans) + summary[tracer.JOB_SPAN]["self_s"]
    assert accounted == pytest.approx(summary[tracer.JOB_SPAN]["s"])
    assert check_job("analyze", code, out, Oracle(tiny_csv)) == []


def test_oracle_rejects_a_wrong_spectrum(tiny_csv, tmp_path):
    out = str(tmp_path / "analyze")
    assert cli.main(["analyze", tiny_csv, "--out", out]) == 0
    path = os.path.join(out, "spectra.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["snapshots"][2]["eigenvalues"][0] *= 1.001
    with open(path, "w") as fh:
        json.dump(doc, fh)
    problems = check_job("analyze", 0, out, Oracle(tiny_csv))
    assert any("snapshot 2" in p for p in problems)
    shutil.rmtree(out)
    assert check_job("analyze", 0, out, Oracle(tiny_csv))[0].startswith("unreadable artifact")


def test_traced_predict_counts(tiny_csv, tmp_path):
    out = str(tmp_path / "predict")
    argv = ["predict", tiny_csv, "--trials", "20", "--bootstrap-iters", "50", "--out", out]
    code, summary, _, _ = _traced(argv)
    assert code == 0
    assert tracer.coverage_problems(summary, "predict") == []
    metrics = run.per_layer_metrics(summary)
    oracle = Oracle(tiny_csv)
    measured = len(oracle.node_sets) - 2  # snapshots before the last anchor
    assert metrics["features.snapshot_measures.calls"] == measured
    assert metrics["graphs.adjacency.calls"] == 12 * measured
    assert metrics["features.rows"] == oracle.expected_rows()
    assert check_job("predict", code, out, oracle) == []
    assert check_job("predict", 3, out, oracle) == ["exit code 3"]


def test_closed_loop_and_tail():
    calls = []
    assert len(run.closed_loop(0.0, 2, lambda: calls.append(1))) == 2
    assert len(calls) == 2
    assert run.tail(range(10)) is None
    assert run.tail(range(20)) == (50.0, 9)


def test_reference_sampling_meets_its_budget():
    assert len(run.time_reference(0.0)) == run.REFERENCE_MIN_KERNELS
    assert sum(run.time_reference(0.2)) >= 0.2
    assert run.reference_kernel() == run.reference_kernel()
