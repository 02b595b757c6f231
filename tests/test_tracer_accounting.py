"""The benchmark's tracer counts each direct run once.

``bench/tracing.py`` wraps ``check_ainfty_direct``, ``check_category_direct``
and ``check_bimodule_direct`` by object identity under one span name,
``algebra.direct``.  With one direct checker behind those names, a run of
``algebra-check --route both`` must still record one ``algebra.direct``
call, and ``algebra.relations_checked`` must be the generic count plus the
direct count.  The tracer rebinds package functions, so each run happens
in a fresh interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import fcmc
from fcmc.algebra import random_assignment, random_endx
from fcmc.freedg import build_Ainf_category, build_preset
from fcmc.labels import TRIVIAL_MONOID
from fcmc.serde import algebra_job_to_doc, dumps_doc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# loads the tracer as tests/test_traced_names.py does, installs it
# unchanged, runs the command line and prints the tracer's metrics last
TRACED_RUN = """
import importlib.util, json, sys
import fcmc.cli
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
code = fcmc.cli.main(["algebra-check", sys.argv[2], "--route", "both",
                      "--arity", "3", "--format", "json"])
print()
print(json.dumps({"code": code, "metrics": tracer.metrics()}))
"""


def _traced_algebra_check(path):
    src = os.path.dirname(os.path.dirname(fcmc.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    report, traced = proc.stdout.rsplit("\n", 2)[:2]
    return json.loads(report), json.loads(traced)


def test_tracer_counts_one_direct_run_per_both_route_check(tmp_path):
    presets = {
        "category": build_Ainf_category(["x", "y"], TRIVIAL_MONOID),
        "left-module": build_preset("left-module", TRIVIAL_MONOID,
                                    objects=["x"]),
    }
    for name, fc in presets.items():
        X = random_endx(fc.graph, 4, max_dim=2, degree_range=(-1, 2))
        A = random_assignment(fc, X, 1004, 3, density=0.6)
        path = tmp_path / f"{name}.json"
        path.write_text(dumps_doc(algebra_job_to_doc(fc, A)))
        report, traced = _traced_algebra_check(path)
        generic, direct, agree = report["reports"]
        assert (generic["route"], direct["route"]) == (
            "generic", f"{name}-direct")
        assert agree["ok"] and traced["code"] == (0 if report["ok"] else 1)
        calls, counters = traced["metrics"]["calls"], \
            traced["metrics"]["counters"]
        assert calls["algebra.direct"] == 1, name
        assert calls["algebra.check_algebra"] == 1, name
        assert counters["algebra.relations_checked"] == \
            generic["checked"] + direct["checked"], name
        assert counters["algebra.relations_failed"] == \
            len(generic["failures"]) + len(direct["failures"]), name
