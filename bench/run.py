#!/usr/bin/env python3
"""Benchmark for the fcmc verifier: time to verdict per job.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N      # every workload
    python3 bench/run.py --smoke                      # self-test

Run from the root of a checkout; ``fcmc`` is imported from ``src/``.
Workloads (see ``workloads.py``): ``fc_audit``, ``free_d2``,
``algebra_check``, ``end_laws``.

The loop is closed: one client, one job at a time, no threads.  A *pass*
runs every job of the workload once, in a fresh child process, and passes
run one after another, so set-up time and peak memory are per pass.
With ``--trace 0`` passes repeat until ``--seconds`` have gone by (at
least ``MIN_PASSES``); each job's time to verdict is its median over the
passes, and the end-to-end metrics are:

* ``setup_s``: child start to first timed job (interpreter start, importing
  fcmc, generating the documents and complexes from the seed); at least
  ``MIN_SETUPS`` samples per run, adding set-up-only children if needed;
* ``wall_s``: the summed time to verdict of every job (one pass' worth);
* ``job_p50_ms`` / ``job_p90_ms``: percentiles of time to verdict per job;
* ``peak_rss_mb``: ``ru_maxrss`` of a pass's child process (median).

The host's speed drifts by tens of percent over seconds (other tenants),
so every time above is reported at a reference speed: the measured time
scaled by probes of a fixed slice of interpreter work taken between jobs
and, by an interval timer, inside long jobs (``SpeedMeter``).  The
measured walls are printed beside the metrics.

Every job's verdict is checked against its known answer; ``error_rate``
(failed over attempted) is printed and carried in the result's
``attempted``/``failed``.  With ``--trace 1`` one untraced and one traced
pass run; the traced child wraps fcmc's public functions (``tracing.py``)
and the per-layer metrics come from its spans.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"
CHILD_TIMEOUT = 170
MIN_SETUPS = 5
MIN_PASSES = 2
PROBE_REF_S = 0.002   # reference speed: the probe takes 2 ms
TICK_S = 0.1          # probe interval inside long jobs
WINDOW_S = 0.25       # probes this close to a job set its speed

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("graphs.enumerate_profile_loops.calls", "count", "lower"),
    ("graphs.enumerate_profile_loops.self_s", "s", "lower"),
    ("graphs.endpoint_closed.self_s", "s", "lower"),
    ("labels.fiber.calls", "count", "lower"),
    ("labels.fiber.self_s", "s", "lower"),
    ("labels.decompose.calls", "count", "lower"),
    ("labels.decompose.self_s", "s", "lower"),
    ("multicat.check_axioms.self_s", "s", "lower"),
    ("multicat.compose.calls", "count", "lower"),
    ("multicat.compose.self_s", "s", "lower"),
    ("multicat.is_factor_closed.self_s", "s", "lower"),
    ("multicat.identities_checked", "count", "higher"),
    ("multicat.identities_skipped", "count", "lower"),
    ("multicat.checked_ratio", "fraction", "higher"),
    ("freedg.delta_generator.calls", "count", "lower"),
    ("freedg.delta_generator.self_s", "s", "lower"),
    ("freedg.delta_generator.hit_ratio", "fraction", "lower"),
    ("freedg.delta.calls", "count", "lower"),
    ("freedg.delta.self_s", "s", "lower"),
    ("freedg.delta.terms_out", "count", "lower"),
    ("freedg.generators.self_s", "s", "lower"),
    ("chain.hat_d.calls", "count", "lower"),
    ("chain.hat_d.self_s", "s", "lower"),
    ("chain.compose_end.calls", "count", "lower"),
    ("chain.compose_end.self_s", "s", "lower"),
    ("chain.compose_end.tuples_scanned", "count_computed", "lower"),
    ("chain.compose_end.fill_ratio", "fraction", "higher"),
    ("chain.check_end_dg.self_s", "s", "lower"),
    ("algebra.check_algebra.self_s", "s", "lower"),
    ("algebra.evaluate_alpha.calls", "count", "lower"),
    ("algebra.evaluate_alpha.self_s", "s", "lower"),
    ("algebra.direct.self_s", "s", "lower"),
    ("algebra.relations_checked", "count", "higher"),
    ("algebra.relations_failed", "count", "lower"),
    ("serde.parse.self_s", "s", "lower"),
    ("serde.emit.self_s", "s", "lower"),
    ("serde.bytes_out", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.self_coverage", "fraction", "higher"),
]


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong verdict)."""


# =================================================================== child


@dataclass(frozen=True)
class _Key:
    edges: tuple
    out: str


def probe() -> float:
    """Seconds for a fixed slice of interpreter work (hashing frozen
    dataclasses, dict updates, exact fractions, string joins), the kind of
    work fcmc does.  Run between jobs, it measures the machine's current
    speed; the collector is kept out of it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen: dict = {}
        acc = Fraction(0)
        for i in range(600):
            key = _Key((i % 31, i % 7), "e")
            seen[key] = seen.get(key, 0) + 1
            if i % 20 == 0:
                acc += Fraction(i % 5, 3)
            ",".join(("e", str(i % 9)))
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class SpeedMeter:
    """Probe samples taken between jobs and, through an interval timer,
    every ``TICK_S`` inside a long job.

    The machine's speed drifts by tens of percent over seconds (other
    tenants on the host), which would swamp any change to fcmc.  Each
    job's time is therefore also reported at the reference speed: its
    measured time times ``PROBE_REF_S`` over the median probe time in and
    around the job.  Time spent in the timer's probes is subtracted from
    the job it interrupted.
    """

    def __init__(self, ticks: bool):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.stolen = 0.0
        self.busy = False
        self.ticks = ticks

    def sample(self) -> float:
        """Take one probe; returns the wall time it cost."""
        self.busy = True
        t0 = time.perf_counter()
        self.samples.append((t0, probe()))
        self.busy = False
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        if not self.busy:
            self.stolen += self.sample()

    def __enter__(self):
        if self.ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.ticks:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float, t1: float) -> float:
        """Reference probe time over the median probe time within
        ``WINDOW_S`` of the interval [t0, t1]."""
        near = [d for t, d in self.samples
                if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        return PROBE_REF_S / statistics.median(near)


def child(args) -> None:
    """One pass (or one set-up) in this process; prints one JSON line."""
    meter = SpeedMeter(ticks=not args.trace)
    setup_probe_s = meter.sample()
    sys.path[:0] = [str(SRC), str(HERE)]
    import fcmc.cli  # noqa: F401  (the jobs call it through sys.modules)
    import workloads
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.build(args.workload, args.seed, str(workdir),
                               args.smoke)
        if args.wrong_answer:
            _negate_known_answer(jobs[0])
        setup_probe_s += meter.sample()
        result = {"setup_probe_s": setup_probe_s,
                  "setup_speed": PROBE_REF_S / statistics.mean(
                      d for _, d in meter.samples),
                  "first_job": time.monotonic()}
        if args.setup_only:
            print(json.dumps(result))
            return
        tracer = run = None
        if args.trace:
            from tracing import JOB_SPAN, Tracer
            tracer = Tracer()
            tracer.install()
            run = tracer.span(JOB_SPAN, workloads.run_job)
        with meter:
            result.update(_run_jobs(jobs, run or workloads.run_job, tracer,
                                    meter))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
        / 1024
    if tracer is not None:
        result["trace"] = tracer.metrics()
        TRACES.mkdir(exist_ok=True)
        tracer.write_spans(TRACES / f"{args.workload}.json")
    print(json.dumps(result))


def _negate_known_answer(job) -> None:
    """Smoke test only: demand the opposite of the known answer."""
    check = job.check

    def negated(outcome):
        reason, counts = check(outcome)
        return (None if reason else "negated known answer held"), counts
    job.check = negated


def _run_jobs(jobs, run, tracer, meter) -> dict:
    """Time every job; ``raw_times`` are as measured (less the meter's
    in-job probes), ``times`` are at the reference speed."""
    raw, spans, failures, counts = [], [], [], {}
    for job in jobs:
        stolen = meter.stolen
        t0 = time.perf_counter()
        try:
            outcome = run(job)
        except SystemExit as exc:   # argparse rejecting a job's argv
            outcome = exc
        except Exception as exc:    # a crash is a failed job, not a stop
            outcome = exc
        t1 = time.perf_counter()
        raw.append(t1 - t0 - (meter.stolen - stolen))
        spans.append((t0, t1))
        if tracer is not None:
            tracer.end_job()
        reason, job_counts = job.check(outcome)
        if reason:
            failures.append(f"{job.name}: {reason}")
        for key, val in job_counts.items():
            counts[key] = counts.get(key, 0) + val
        del outcome
        gc.collect()   # the job's garbage is not the next job's cost
        meter.sample()
    counts["jobs"] = len(jobs)
    times = [t * meter.speed(*span) for t, span in zip(raw, spans)]
    return {"times": times, "raw_times": raw, "failures": failures,
            "counts": counts}


# ================================================================== parent


def run_child(workload, seed, trace=False, setup_only=False, smoke=False,
              wrong_answer=False) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child",
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * smoke + \
        ["--wrong-answer"] * wrong_answer
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} child failed ({proc.returncode}):\n"
                         + proc.stderr[-2000:])
    res = json.loads(lines[-1])
    res["setup_s"] = (res["first_job"] - spawned - res["setup_probe_s"]) \
        * res["setup_speed"]
    return res


def pass_metrics(passes) -> dict:
    """Per-job medians over passes (the jobs of one seed are the same in
    every pass), then the sum and percentiles of those medians."""
    per_job = [statistics.median(ts)
               for ts in zip(*(p["times"] for p in passes))]
    return {"wall_s": sum(per_job),
            "job_p50_ms": 1000 * statistics.median(per_job),
            "job_p90_ms": 1000 * statistics.quantiles(
                per_job, n=10, method="inclusive")[8],
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes)}


def measure(workload, seed, seconds) -> tuple[dict, list[dict]]:
    """Untraced passes for ``seconds``, at least ``MIN_PASSES``."""
    passes, setups = [], []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(run_child(workload, seed))
        setups.append(passes[-1]["setup_s"])
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(workload, seed, setup_only=True)["setup_s"])
    return dict(setup_s=statistics.median(setups),
                **pass_metrics(passes)), passes


def layer_metrics(traced, untraced) -> dict:
    """Per-layer metrics of a traced pass.  Span times are as measured;
    the tracing overhead compares reference-speed walls of the traced and
    the untraced pass, so that a change of machine speed between the two
    does not show as overhead."""
    tr = traced["trace"]
    wall = sum(traced["raw_times"])
    derived = {
        "trace.wall_s": wall,
        "trace.overhead_frac":
            sum(traced["times"]) / sum(untraced["times"]) - 1,
        "trace.self_coverage": sum(tr["self_s"].values()) / wall,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name in tr:
            out[name] = tr[name]
        elif name.endswith(".calls"):
            out[name] = tr["calls"].get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            out[name] = tr["self_s"].get(name[:-len(".self_s")], 0.0)
        else:
            out[name] = tr["counters"].get(name, 0)
    return out


def bench(workload, seed, seconds, trace) -> dict:
    """One driver run: prints the report and returns the result object."""
    if trace:
        untraced = run_child(workload, seed)
        traced = run_child(workload, seed, trace=True)
        passes, timed = [untraced, traced], [untraced]
        values = layer_metrics(traced, untraced)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        values, passes = measure(workload, seed, seconds)
        timed = passes
        units = dict(END_TO_END)
    attempted = sum(len(p["times"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    print(f"workload {workload}, seed {seed}, trace {int(trace)}: "
          f"{len(passes)} pass(es) of {len(passes[0]['times'])} jobs")
    for name, val in values.items():
        print(f"  {name:40s} {val:14.6g} {units[name]}")
    print(f"  {'error_rate':40s} {len(failures) / attempted:14.6g} fraction"
          f" ({len(failures)} of {attempted} jobs failed)")
    raw = statistics.median(sum(p["raw_times"]) for p in timed)
    print(f"  as measured: wall {raw:.4g} s per untraced pass (median), "
          f"reference-speed wall / measured wall "
          f"{statistics.median(sum(p['times']) for p in timed) / raw:.3f}")
    print("counts " + json.dumps(passes[0]["counts"], sort_keys=True))
    for f in failures[:20]:
        print("FAILED " + f, file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in values.items()}}


# =================================================================== smoke


def smoke() -> int:
    """Small passes of every workload: every named metric is emitted with
    its unit, verdicts hold, and a negated known answer is caught."""
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    if [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for w in workloads.WORKLOADS:
        plain = run_child(w, 1, smoke=True)
        traced = run_child(w, 1, trace=True, smoke=True)
        stats = dict(pass_metrics([plain]), setup_s=plain["setup_s"])
        layers = layer_metrics(traced, plain)
        for name, _ in END_TO_END:
            if not stats.get(name, 0) > 0:
                problems.append(f"{w}: {name} missing or not positive")
        for name, _, _ in PER_LAYER:
            if not isinstance(layers.get(name), (int, float)):
                problems.append(f"{w}: per-layer {name} missing")
        for res in (plain, traced):
            problems += [f"{w}: {f}" for f in res["failures"]]
        wrong = run_child(w, 1, smoke=True, wrong_answer=True)
        if not wrong["failures"]:
            problems.append(f"{w}: a negated known answer went unnoticed")
        print(f"smoke {w}: {len(plain['times'])} jobs, "
              f"error_rate {len(plain['failures']) / len(plain['times'])}, "
              f"with a negated answer "
              f"{len(wrong['failures']) / len(wrong['times']):.3f}")
    for p in problems:
        print("PROBLEM " + p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


# ==================================================================== main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--wrong-answer", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "fcmc" / "__init__.py").is_file():
        print(f"error: no fcmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.child:
        child(args)
        return 0
    names = workloads.WORKLOADS if args.workload == "all" \
        else [args.workload]
    if not set(names) <= set(workloads.WORKLOADS):
        print(f"error: workload must be one of {workloads.WORKLOADS} or "
              "all", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        for name in names:
            result = bench(name, args.seed, args.seconds, args.trace)
            print(json.dumps(result, sort_keys=True))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):   # left when not empty
            WORK.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
