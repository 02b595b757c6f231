"""Self-test of the benchmark: ``python3 -m pytest bench/test_bench.py``.

Runs ``run.py --smoke``: small passes of every workload that must emit
every metric named in BENCHMARK.json with its unit, keep every verdict
right, and notice a deliberately negated known answer.
"""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import oracle  # noqa: E402


def test_oracle_family_is_the_acceptance_family():
    family = oracle.graph_family()
    assert len(family) == 177
    assert family[4] == (["w0"], [(f"g{k}", "w0", "w0") for k in range(4)])


@pytest.mark.parametrize("closed", [True, False])
def test_oracle_endpoint_closed(closed):
    verts = ["a", "b"]
    edges = [("p", "a", "b"), ("q", "a", "b")]
    sub_edges = ["p", "q"] if closed else ["p"]
    assert oracle.endpoint_violations(verts, edges, verts, sub_edges) == (
        [] if closed else ["q"])


def test_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
