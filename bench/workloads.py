"""The four seeded workloads and the known answer of every job.

A workload is a list of :class:`Job`.  Each job is either one ``fcmc``
subcommand run in-process through ``fcmc.cli.main`` (its documents are
written to a work directory first) or one ``check_end_dg`` call.  The
seed only changes the generated inputs; the cost of a pass is kept
nearly seed-independent (fixed graph family, fixed dimension schedules,
seeded renaming and content), so that runs on different seeds compare.

Every job carries a ``check`` that turns the job's outcome into
``(failure reason or None, counts)``.  A job fails on an exception, an
exit code outside 0/1/2 or different from the verdict, a verdict that
differs from the known answer, a FAIL without a witness, or two routes
that disagree.  ``counts`` are deterministic totals (identities checked
and skipped, generators, relations, ...) that show the workload did not
change between two commits.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle

WORKLOADS = ("fc_audit", "free_d2", "algebra_check", "end_laws")

Check = Callable[[object], tuple[Optional[str], dict]]


@dataclass
class Job:
    name: str
    check: Check
    argv: Optional[list[str]] = None       # an fcmc subcommand
    end_args: Optional[tuple] = None       # (EndX, arity, sign_fault)


@dataclass
class CliOutcome:
    code: int
    out: str


def build(workload: str, seed: int, workdir: str, smoke: bool) -> list[Job]:
    builders = {"fc_audit": fc_audit, "free_d2": free_d2,
                "algebra_check": algebra_check, "end_laws": end_laws}
    return builders[workload](seed, workdir, smoke)


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _report_set(outcome) -> tuple[Optional[str], Optional[dict]]:
    """Parse a ``--format json`` run; reject codes outside the contract."""
    if not isinstance(outcome, CliOutcome):
        return f"unexpected outcome {outcome!r}", None
    if outcome.code not in (0, 1, 2):
        return f"exit code {outcome.code} outside 0/1/2", None
    if outcome.code == 2:
        return "exit 2 (input reported unusable) on a valid input", None
    try:
        doc = json.loads(outcome.out)
    except ValueError:
        return "report is not JSON", None
    if doc.get("kind") != "report-set":
        return "output is not a report-set", None
    want = 0 if doc.get("ok") else 1
    if outcome.code != want:
        return f"exit {outcome.code} but report ok={doc.get('ok')}", None
    return None, doc


# ================================================================ fc_audit

AUDIT_FLAGS = ["--arity", "3", "--path-len", "3"]


def _rename(rng, verts, edges):
    """Seeded fresh ids, declaration order kept (so the work is the same)."""
    vnames = [f"v{n}" for n in rng.sample(range(100, 1000), len(verts))]
    enames = [f"e{n}" for n in rng.sample(range(100, 1000), len(edges))]
    vmap = dict(zip(verts, vnames))
    return vnames, [(enames[k], vmap[s], vmap[t])
                    for k, (_, s, t) in enumerate(edges)]


def _random_sub(rng, verts, edges):
    kept = [v for v in verts if rng.random() < 0.75] or [rng.choice(verts)]
    inside = set(kept)
    sub_edges = [e for e in edges
                 if e[1] in inside and e[2] in inside and rng.random() < 0.6]
    return kept, sub_edges


def _graph_doc(verts, edges):
    return {"vertices": list(verts),
            "edges": [{"id": i, "src": s, "tgt": t} for i, s, t in edges]}


def _loops(edges):
    return sum(1 for _, s, t in edges if s == t)


def _iso_class(verts, edges):
    """Isomorphism class of the graph with isolated vertices dropped;
    members of one class audit in the same time."""
    used = sorted({x for _, s, t in edges for x in (s, t)})
    idx = {x: k for k, x in enumerate(used)}
    return len(used), min(
        tuple(sorted((p[idx[s]], p[idx[t]]) for _, s, t in edges))
        for p in itertools.permutations(range(len(used))))


def _composable_pairs(verts, edges):
    """Cost proxy for an audit: composable (cell, slot, cell) triples."""
    cells = oracle.profile_loops(verts, edges, 3)
    by_out: dict = {}
    for c in cells:
        by_out[c[2]] = by_out.get(c[2], 0) + 1
    return sum(by_out.get(e, 0) for c in cells for e in c[1])


def iso_classes(family):
    """Members of the family grouped by isomorphism class with isolated
    vertices dropped, in family order.  Members of one class have the same
    cells up to names, so their audits do the same work."""
    classes: dict = {}
    for k, (verts, edges) in enumerate(family):
        classes.setdefault(_iso_class(verts, edges), []).append(k)
    return list(classes.values())


def labeled_classes(family):
    """The classes audited as labeled instances: graphs with at most two
    loops (labeled audits of three- and four-loop graphs take 10-70 s),
    in classes of two or more members so the seed has a choice, every
    third class by cost so the subset spans cheap to heavy."""
    multi = [ks for ks in iso_classes(family)
             if len(ks) > 1 and family[ks[0]][1]
             and _loops(family[ks[0]][1]) <= 2]
    multi.sort(key=lambda ks: (_composable_pairs(*family[ks[0]]), ks))
    return multi[1::3]


def _check_audit(verts, edges, sub, truncation, outcome):
    err, doc = _report_set(outcome)
    if err:
        return err, {}
    reports = {r.get("report"): r for r in doc["reports"]}
    ax, fcr = reports.get("axioms"), reports.get("factor-closed")
    if ax is None or fcr is None:
        return "missing axioms or factor-closed report", {}
    counts = {"identities_checked": ax["checked"],
              "identities_skipped": ax["skipped"],
              "composites_checked": fcr["checked"],
              "fail_verdicts": int(not fcr["ok"])}
    if not ax["ok"]:
        return f"axiom audit {ax['failure']!r} on a theorem", counts
    violation = oracle.factor_violation(verts, edges, sub[0],
                                        [e[0] for e in sub[1]], 3, 3,
                                        truncation)
    if fcr["ok"] != (violation is None):
        return (f"factor-closed ok={fcr['ok']}, oracle finds "
                f"{violation!r}"), counts
    if not fcr["ok"] and not oracle.is_factor_witness(
            fcr["witness"], verts, edges, sub[0], [e[0] for e in sub[1]],
            3, 3, truncation):
        return f"witness {fcr['witness']!r} is not a violation", counts
    return None, counts


_OUTSIDE = re.compile(r"outside output (\S+)$")


def _check_closed(verdict, violations, label):
    if verdict is None:
        return f"missing {label} verdict"
    if verdict["ok"] != (not violations):
        return f"{label} ok={verdict['ok']}, oracle finds {violations}"
    if not verdict["ok"]:
        m = _OUTSIDE.search(verdict["detail"])
        if not m or m.group(1) not in violations:
            return f"{label} witness {verdict['detail']!r} not a violation"
    return None


def _check_graph(verts, edges, sub, parts, outcome):
    err, doc = _report_set(outcome)
    if err:
        return err, {}
    checks = {r.get("name"): r for r in doc["reports"]}
    if not checks.get("graph", {}).get("ok"):
        return "valid graph reported invalid", {}
    sub_viol = oracle.endpoint_violations(verts, edges, sub[0],
                                          [e[0] for e in sub[1]])
    part_of = {v: k for k, part in enumerate(parts) for v in part}
    kept = [e[0] for e in edges if part_of[e[1]] <= part_of[e[2]]]
    part_viol = oracle.endpoint_violations(verts, edges, verts, kept)
    counts = {"fail_verdicts": int(bool(sub_viol)) + int(bool(part_viol))}
    for verdict, viol, label in (
            (checks.get("endpoint-closed(sub)"), sub_viol, "sub"),
            (checks.get("endpoint-closed(partition)"), part_viol,
             "partition")):
        reason = _check_closed(verdict, viol, label)
        if reason:
            return reason, counts
    return None, counts


def fc_audit(seed, workdir, smoke):
    """Profile-loop audits over the 177-graph family (one seeded member of
    each isomorphism class), labeled audits of a seeded subset, and
    graph-check jobs, each with a seeded sub (and partition)."""
    rng = random.Random(f"fc_audit:{seed}")
    family = oracle.graph_family()
    jobs = []
    classes = iso_classes(family)
    for members in (classes[::20] if smoke else classes):
        k = rng.choice(members)
        verts, edges = _rename(rng, *family[k])
        sub = _random_sub(rng, verts, edges)
        path = _write(workdir, f"pl{k}", {
            "format_version": 1, "kind": "fc-instance",
            "instance": "profile-loop", "graph": _graph_doc(verts, edges),
            "sub": _graph_doc(*sub)})
        jobs.append(Job(
            f"fc-audit profile-loop #{k}",
            lambda o, a=(verts, edges, sub, None): _check_audit(*a, o),
            argv=["fc-audit", path, *AUDIT_FLAGS, "--format", "json",
                  "--seed", str(seed)]))
    classes = labeled_classes(family)
    for members in classes[:2] if smoke else classes:
        k = rng.choice(members)
        verts, edges = _rename(rng, *family[k])
        sub = _random_sub(rng, verts, edges)
        path = _write(workdir, f"lab{k}", {
            "format_version": 1, "kind": "fc-instance",
            "instance": "labeled", "graph": _graph_doc(verts, edges),
            "monoid": {"rank": 1, "truncation": 2}, "reduced": False,
            "sub": _graph_doc(*sub)})
        jobs.append(Job(
            f"fc-audit labeled #{k}",
            lambda o, a=(verts, edges, sub, 2): _check_audit(*a, o),
            argv=["fc-audit", path, *AUDIT_FLAGS, "--labels", "2",
                  "--format", "json", "--seed", str(seed)]))
    for n in range(6 if smoke else 60):
        k = rng.randrange(len(family))
        verts, edges = _rename(rng, *family[k])
        sub = _random_sub(rng, verts, edges)
        order = rng.sample(verts, len(verts))
        cuts = sorted(rng.sample(range(1, len(order)),
                                 rng.randint(0, len(order) - 1)))
        parts = [order[a:b] for a, b in zip([0] + cuts,
                                            cuts + [len(order)])]
        path = _write(workdir, f"graph{n}", {
            "format_version": 1, "kind": "graph",
            "graph": _graph_doc(verts, edges), "sub": _graph_doc(*sub),
            "partition": parts})
        jobs.append(Job(
            f"graph-check #{k}",
            lambda o, a=(verts, edges, sub, parts): _check_graph(*a, o),
            argv=["graph-check", path, "--format", "json",
                  "--seed", str(seed)]))
    return jobs


# ================================================================= free_d2

# (preset argv, arities); the cost of an arity step grows about x4
FREE_GRID = [
    (["ainf"], range(2, 13)),
    (["ainf", "--labels", "1"], range(2, 9)),
    (["ainf", "--labels", "2"], range(2, 8)),
    (["ainf", "--rank", "2", "--labels", "1"], range(2, 6)),
    (["ainf", "--rank", "2", "--labels", "2"], range(2, 6)),
    (["ainf", "--rank", "2"], range(2, 8)),
    (["ainf", "--rank", "3", "--labels", "1"], range(2, 5)),
    (["category"], range(2, 8)),
    (["category", "--labels", "1"], range(2, 5)),
    (["category", "--objects", "3"], range(2, 5)),
    (["category", "--objects", "3", "--labels", "1"], range(2, 4)),
    (["bimodule"], range(2, 9)),
    (["bimodule", "--labels", "1"], range(2, 6)),
    (["bimodule", "--labels", "2"], range(2, 5)),
    (["left-module"], range(2, 6)),
    (["right-module"], range(2, 6)),
    (["left-module", "--labels", "1"], range(2, 5)),
    (["right-module", "--labels", "1"], range(2, 5)),
    (["left-module", "--objects", "3"], range(2, 4)),
    (["right-module", "--objects", "3"], range(2, 4)),
    (["rmodule", "--objects", "3", "--parts", "{1};{2}"], range(2, 6)),
    (["rmodule", "--objects", "3", "--parts", "{3}"], range(2, 5)),
    (["rmodule", "--objects", "3", "--parts", "{1};{1};{1}"], range(2, 5)),
]

# twenty isomorphic jobs of about the median cost (the seed places the
# objects in the parts), so that the median falls inside them
MEDIAN_BLOCK = (["rmodule", "--objects", "4", "--parts", "{1};{1};{2}"], 3, 20)

# cheap cells (tens of ms) that a dropped Leibniz sign breaks at arity >= 4
FAULT_CELLS = [(["ainf"], a) for a in (4, 5, 6, 7)] + \
    [(["bimodule"], a) for a in (4, 5)] + \
    [(["category"], 4), (["left-module"], 4), (["right-module"], 4)]


def _parts(shape: str, rng) -> str:
    """Fill a partition shape like "{1};{2}" with shuffled objects."""
    sizes = [int(k) for k in re.findall(r"\{(\d)\}", shape)]
    objs = [f"o{k}" for k in range(1, sum(sizes) + 1)]
    rng.shuffle(objs)
    out = []
    for size in sizes:
        out.append(",".join(objs[:size]))
        objs = objs[size:]
    return ";".join(out)


def _check_free(expect_ok, outcome):
    err, doc = _report_set(outcome)
    if err:
        return err, {}
    rep = doc["reports"][0] if doc["reports"] else {}
    if rep.get("report") != "delta-squared":
        return "missing delta-squared report", {}
    counts = {"generators": rep["generators"],
              "fail_verdicts": int(not rep["ok"])}
    if rep["generators"] <= 0:
        return "no generators swept", counts
    if rep["ok"] != expect_ok:
        return f"delta^2 ok={rep['ok']}, known answer {expect_ok}", counts
    if not rep["ok"] and not (rep["residues"] and all(
            r.get("residue") for r in rep["residues"])):
        return "FAIL without a residue witness", counts
    return None, counts


def free_d2(seed, workdir, smoke):
    """The preset grid at ascending arities, plus sign-fault jobs whose
    known answer is FAIL.  The seed sets the job order, the recorded
    ``--seed`` and the objects' places in the rmodule partitions."""
    rng = random.Random(f"free_d2:{seed}")
    cells = []
    for preset, arities in FREE_GRID:
        for a in (list(arities)[:2] if smoke else arities):
            cells.append((preset, a, False))
    faults = FAULT_CELLS[:2] if smoke else FAULT_CELLS
    cells += [(preset, a, True) for preset, a in faults]
    preset, a, copies = MEDIAN_BLOCK
    cells += [(preset, a, False)] * (1 if smoke else copies)
    rng.shuffle(cells)
    jobs = []
    for preset, a, fault in cells:
        argv = ["free-d2", *preset, "--arity", str(a), "--format", "json",
                "--seed", str(rng.randrange(10 ** 6))]
        if "--parts" in argv:
            k = argv.index("--parts") + 1
            argv[k] = _parts(argv[k], rng)
        if fault:
            argv.append("--debug-sign-fault")
        jobs.append(Job(" ".join(argv[1:argv.index("--format")]) +
                        (" --debug-sign-fault" if fault else ""),
                        lambda o, ok=not fault: _check_free(ok, o),
                        argv=argv))
    return jobs


# =========================================================== algebra_check

# (preset, complex dimension per edge in sorted edge order, documents).
# The median falls inside the 30 bimodule (1, 1, 1) documents and the
# 90th percentile inside the 22 category (2, 2, 2, 2) ones, below the
# five largest documents, so that percentiles compare across seeds;
# (1, 2) marks a seeded 1 or 2.
ALGEBRA_SCHEDULE = [
    ("ainf", (1,), 40),
    ("bimodule", (1, 1, 1), 30),
    ("ainf", (2,), 5),
    ("bimodule", (2, 2, 2), 10),
    ("category", ((1, 2),) * 4, 10),
    ("category", (2, 2, 2, 2), 22),
    ("category", (3, 3, 3, 3), 5),
]


def _presets():
    from fcmc.freedg import (build_Ainf_bimodule, build_Ainf_category,
                             build_Ainf_operad)
    from fcmc.labels import TRIVIAL_MONOID
    return [("ainf", build_Ainf_operad(TRIVIAL_MONOID)),
            ("category", build_Ainf_category(["x", "y"], TRIVIAL_MONOID)),
            ("bimodule", build_Ainf_bimodule(TRIVIAL_MONOID))]


def _lowest_arity(rep):
    return min((f["arity"] for f in rep["failures"]), default=None)


def _check_algebra(outcome):
    err, doc = _report_set(outcome)
    if err:
        return err, {}
    rel = [r for r in doc["reports"] if r.get("report") == "relations"]
    agree = [r for r in doc["reports"] if r.get("name") == "routes-agree"]
    if len(rel) != 2 or len(agree) != 1:
        return "expected two relation reports and routes-agree", {}
    generic, direct = rel
    counts = {"relations_generic": generic["checked"],
              "relations_direct": direct["checked"],
              "relations_failed": len(generic["failures"]) +
              len(direct["failures"]),
              "fail_verdicts": int(not generic["ok"])}
    if (generic["ok"], _lowest_arity(generic)) != \
            (direct["ok"], _lowest_arity(direct)):
        return "generic and direct routes disagree", counts
    if not agree[0]["ok"]:
        return "routes-agree check failed", counts
    for rep in rel:
        if rep["ok"] == bool(rep["failures"]):
            return f"{rep['route']} verdict and failure list disagree", counts
        if any(not f["witness"] for f in rep["failures"]):
            return f"{rep['route']} FAIL without a witness", counts
    return None, counts


def algebra_check(seed, workdir, smoke):
    """Acceptance-3 style random assignments: ``random_endx`` complexes
    (dim <= 3, degrees -1..2) and ``random_assignment`` maps (density
    0.6, arity 4), checked by ``algebra-check --route both``.

    The complex dimensions follow ``ALGEBRA_SCHEDULE``; the seed picks
    ``random_endx`` seeds that realise them, so the content varies while
    the cost of a pass stays put.
    """
    from fcmc import serde
    from fcmc.algebra import random_assignment, random_endx
    presets = dict(_presets())
    rng = random.Random(f"algebra_check:{seed}")
    jobs = []
    for name, dims, copies in ALGEBRA_SCHEDULE:
        fc = presets[name]
        edges = sorted(fc.graph.edge_ids())
        for _ in range(1 if smoke else copies):
            target = [d if isinstance(d, int) else rng.choice(d)
                      for d in dims]
            while True:
                s = rng.randrange(10 ** 9)
                X = random_endx(fc.graph, s, max_dim=3,
                                degree_range=(-1, 2))
                if [X.complex(e).basis.dim() for e in edges] == target:
                    break
            A = random_assignment(fc, X, s + 1000, 4, density=0.6)
            path = os.path.join(workdir, f"alg{len(jobs)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serde.dumps_doc(serde.algebra_job_to_doc(fc, A)))
            jobs.append(Job(f"algebra-check {name} dims {target}",
                            _check_algebra,
                            argv=["algebra-check", path, "--route", "both",
                                  "--arity", "4", "--format", "json",
                                  "--seed", str(seed)]))
    rng.shuffle(jobs)
    return jobs


# ================================================================ end_laws

GRAPHS = {
    "loop": (["v"], [("e", "v", "v")]),
    "two-loop": (["v"], [("e", "v", "v"), ("f", "v", "v")]),
    "two-vertex": (["v0", "v1"], [("e0", "v0", "v0"), ("e01", "v0", "v1"),
                                  ("e1", "v1", "v1")]),
}

# (graph, dims per edge, arity bound, sign fault, copies); single jobs
# range from under 1 ms to about 1 s.  The median falls inside the 20
# [1, 1, 1] two-vertex jobs, and the 90th percentile inside the ten
# [1, 2, 1] ones that sit below six heavy jobs.
END_SCHEDULE = [
    ("loop", (1,), 1, False, 6),
    ("loop", (1,), 2, False, 6),
    ("loop", (2,), 1, False, 8),
    ("two-loop", (1, 1), 1, False, 6),
    ("loop", (1,), 2, True, 6),
    ("two-loop", (2, 1), 1, False, 8),
    ("two-vertex", (1, 1, 1), 2, False, 20),
    ("loop", (1,), 3, False, 6),
    ("loop", (3,), 1, False, 8),
    ("two-loop", (2, 2), 1, False, 6),
    ("loop", (2,), 2, True, 6),
    ("two-loop", (1, 1), 2, False, 6),
    ("two-vertex", (1, 2, 1), 2, False, 10),
    ("loop", (2,), 2, False, 3),
    ("two-vertex", (2, 1, 1), 2, False, 2),
    ("two-vertex", (2, 2, 1), 2, False, 1),
]

COEFFS = [-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2)]


def _complex(rng, eid, dim, odd_first):
    """Seeded complex: random degrees, d pairs elements one step apart
    (each used at most once, so d^2 = 0 holds structurally)."""
    from fcmc.chain import make_complex
    degs = [rng.randint(-1, 2) for _ in range(dim)]
    if odd_first and degs[0] % 2 == 0:
        degs[0] += 1
    names = [f"{eid}{k}" for k in range(dim)]
    used: set = set()
    d = {}
    for x, dx in zip(names, degs):
        targets = [y for y, dy in zip(names, degs)
                   if dy == dx + 1 and y not in used and x not in used]
        if targets and rng.random() < 0.7:
            y = rng.choice(targets)
            d[x] = {y: rng.choice(COEFFS)}
            used.update((x, y))
    return make_complex(list(zip(names, degs)), d)


def _check_end(expect_ok, rep):
    if isinstance(rep, BaseException) or not hasattr(rep, "ok"):
        return f"unexpected outcome {rep!r}", {}
    counts = {"end_identities_checked": rep.checked,
              "fail_verdicts": int(not rep.ok)}
    if rep.ok != expect_ok:
        return f"End laws ok={rep.ok}, known answer {expect_ok}", counts
    if not rep.ok and not (rep.failure and rep.witness):
        return "FAIL without a witness", counts
    if rep.ok and rep.checked <= 0:
        return "nothing checked", counts
    return None, counts


def end_laws(seed, workdir, smoke):
    """``check_end_dg`` on seeded complexes over one-loop, two-loop and
    two-vertex graphs; sign-fault jobs carry an odd-degree element, which
    the parallel composition identity always catches, so FAIL is their
    known answer."""
    from fcmc.chain import EndX
    from fcmc.graphs import make_graph
    rng = random.Random(f"end_laws:{seed}")
    graphs = {k: make_graph(*v) for k, v in GRAPHS.items()}
    jobs = []
    for gname, dims, arity, fault, copies in END_SCHEDULE:
        for _ in range(1 if smoke else copies):
            if smoke and sum(dims) > 3:
                continue
            eids = [e for e, _, _ in GRAPHS[gname][1]]
            X = EndX(graphs[gname], {
                e: _complex(rng, e, n, fault and k == 0)
                for k, (e, n) in enumerate(zip(eids, dims))})
            jobs.append(Job(f"check_end_dg {gname} dims {list(dims)} "
                            f"arity {arity}" + (" sign_fault" if fault
                                                else ""),
                            lambda o, ok=not fault: _check_end(ok, o),
                            end_args=(X, arity, fault)))
    rng.shuffle(jobs)
    return jobs


def run_job(job: Job):
    """Run one job through the public API, looked up at call time so that
    traced wrappers are used when installed."""
    if job.end_args is not None:
        X, arity, fault = job.end_args
        return sys.modules["fcmc.chain"].check_end_dg(X, arity,
                                                      sign_fault=fault)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = sys.modules["fcmc.cli"].main(job.argv)
    return CliOutcome(code, out.getvalue())
