"""The benchmark's tracer wraps structim functions by name; each must exist
and be called.

``benchmarks/tracer.py`` lists in ``TARGETS`` the functions and methods it
wraps, and the traced benchmark fails a job in which a listed name records
no call. A function renamed, folded away or no longer reached would only
show there, so these tests load the tracer (without writing bytecode beside
it), resolve every entry, and run each command traced on a small input.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys
import warnings

import pytest

from structim import cli, ingest, synthetic_temporal

TRACER = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_structim_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = saved
    return tracer


tracer = _load_tracer()
TARGETS = tracer.TARGETS


@pytest.mark.parametrize("module_name,qualname", [entry[:2] for entry in TARGETS])
def test_tracer_target_is_a_structim_function(module_name, qualname):
    module = importlib.import_module(f"structim.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        fn = vars(getattr(module, cls_name))[attr]
    else:
        fn = getattr(module, qualname)
    assert inspect.isfunction(fn)
    assert fn.__module__ == module.__name__
    assert fn.__qualname__ == qualname


def test_each_command_calls_every_name_it_is_traced_for(tmp_path):
    csv = str(tmp_path / "net.csv")
    ingest.write_edge_csv(synthetic_temporal(40, 2, 4, -2.0, 8, seed=3), csv)
    original = cli.eig_sym
    jobs = {"analyze": [], "predict": ["--trials", "20", "--bootstrap-iters", "50"]}
    for command, options in jobs.items():
        recorder = tracer.Recorder()
        with tracer.instrumented(recorder), warnings.catch_warnings():
            # this input's presence_count is constant on predict's training rows; the
            # drop warning is tested in test_model.py
            warnings.filterwarnings("ignore", "dropping near-constant feature columns")
            assert cli.main([command, csv, *options, "--out", str(tmp_path / command)]) == 0
        assert tracer.coverage_problems(tracer.summarize(recorder.spans), command) == []
    assert cli.eig_sym is original
