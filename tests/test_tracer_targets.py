"""The benchmark's tracer wraps structim functions by name; each must exist.

``benchmarks/tracer.py`` lists in ``TARGETS`` the functions and methods it
wraps, and the traced benchmark fails a job in which a listed name records
no call. A function renamed or folded away would only show there, so this
test loads the tracer (without writing bytecode beside it) and resolves
every entry.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

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


TARGETS = _load_tracer().TARGETS


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
