"""The names the benchmark's tracer wraps must exist in fcmc.

``bench/tracing.py`` replaces fcmc functions and methods by name, so a
rename in fcmc breaks ``bench/run.py --trace 1`` and ``--smoke``; the
benchmark's own test is not part of the tier-1 suite.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # stdlib imports only
    return module


def test_traced_functions_and_methods_resolve():
    tracing = _tracing()
    assert tracing.FUNCTIONS and tracing.METHODS
    for span, modname, attr in tracing.FUNCTIONS:
        module = importlib.import_module(modname)
        assert callable(getattr(module, attr, None)), (span, modname, attr)
    for span, modname, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(modname), cls_name, None)
        # the tracer wraps vars(cls)[meth]: the class must define it
        assert cls is not None and callable(vars(cls).get(meth)), \
            (span, modname, cls_name, meth)
    assert hasattr(importlib.import_module("fcmc.multicat"), "FcInstance")
