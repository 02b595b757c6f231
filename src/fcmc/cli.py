"""Batch command line: load descriptions, run verifications, emit reports.

Four subcommands cover the library's checkers:

* ``graph-check``    — graph well-formedness, declared subgraphs, partitions
* ``fc-audit``       — unit laws, associativity, order-independence,
                       factor-closedness of a declared sub-instance
* ``free-d2``        — the square of the free differential on a preset
* ``algebra-check``  — candidate structure maps against a preset's relations

Exit status 0 exactly when every requested check passes; 1 when a check
fails; 2 for unusable input.  Output is deterministic: a report depends
only on the command line and the input file, so reruns are byte-identical.
Default bounds (arity 5, label sum 2, path length 4) are overridden by the
``--arity``, ``--labels`` and ``--path-len`` flags alone.  The direct route
of ``algebra-check`` serves every preset with the standard splitting, the
module presets and ``generalized`` included; a ``custom`` rule table has
none, so ``--route direct`` and ``--route both`` exit 2 on it.  An edge id
must be non-empty and free of "," and ";", the separators of printed
profile-loops, or the graph is invalid.  ``free-d2`` builds a named
preset through ``freedg.build_preset``; ``free-d2 generalized:FILE``
takes ``reduced`` from the document, so ``--unreduced`` exits 2 there.
The square is promised to vanish on reduced structures over graphs
without parallel edges, every named preset's among them.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .graphs import (
    GraphError,
    endpoint_violation,
    is_subgraph,
    partition_subgraph,
    validate_graph,
)
from .labels import LabelError, LabelMonoid
from .multicat import CompositionError, check_axioms, is_factor_closed
from .freedg import PRESETS, FreeDgFc, build_preset, delta_squared_report
from .algebra import AlgebraError, check_algebra, check_both_routes, \
    check_direct, route_disagreement
from .chain import ChainError
from . import serde

DEFAULT_BOUNDS = {"arity": 5, "labels": 2, "path_len": 4}


class CliError(Exception):
    """Unusable input: bad file, bad flag combination, bad description."""


# ------------------------------------------------------------------ bounds


def resolve_bounds(args) -> dict:
    """The defaults, overridden by the bound flags that are set."""
    bounds = {}
    for key, default in DEFAULT_BOUNDS.items():
        val = getattr(args, key, None)
        if val is None:
            val = default
        least = 0 if key == "labels" else 1
        if val < least:
            raise CliError(f"bound {key} must be >= {least}, got {val}")
        bounds[key] = val
    return bounds


# ------------------------------------------------------------------ output


class Run:
    """Collects check results and renders them once, deterministically."""

    def __init__(self, command: str, bounds: dict, seed: int):
        self.command = command
        self.bounds = bounds
        self.seed = seed
        self.lines: list[str] = []
        self.docs: list[dict] = []
        self.notes: list[str] = []
        self.ok = True

    def add(self, report) -> None:
        self.lines.append(report.summary())
        self.docs.append(serde.report_to_doc(report))
        self.ok = self.ok and report.ok

    def add_check(self, name: str, ok: bool, detail: str) -> None:
        self.lines.append(f"{name}: {detail}")
        self.docs.append(serde.check_report_doc(name, ok, detail))
        self.ok = self.ok and ok

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return serde.dumps_doc(serde.report_set_to_doc(
                self.command, self.bounds, self.seed, self.docs,
                self.notes))
        head = [f"command: {self.command}",
                "bounds: arity <= {arity}, label sum <= {labels}, "
                "path length <= {path_len}".format(**self.bounds),
                f"seed: {self.seed}"]
        body = list(self.lines)
        body.extend(f"note: {n}" for n in self.notes)
        tail = [f"verdict: {'PASS' if self.ok else 'FAIL'}"]
        return "\n".join(head + body + tail) + "\n"


def _read_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")
    try:
        return serde.loads_doc(text)
    except serde.SerdeError as exc:
        raise CliError(f"{path}: {exc}")


# ------------------------------------------------------------- graph-check


def cmd_graph_check(args, bounds) -> Run:
    run = Run(f"graph-check {args.file}", bounds, args.seed)
    doc = _read_doc(args.file)
    serde.check_version(doc)
    g = serde.graph_from_doc(serde.field(doc, "graph", "object"),
                             validate=False)
    report = validate_graph(g)
    if report.ok:
        run.add_check("graph", True,
                      f"valid ({len(g.vertices)} vertices, "
                      f"{len(g.edges)} edges)")
    else:
        run.add_check("graph", False, "; ".join(report.problems))
        return run
    if "sub" in doc:
        sub = serde.graph_from_doc(doc["sub"])
        if not is_subgraph(g, sub):
            raise CliError("declared sub is not a subgraph")
        loop = endpoint_violation(g, sub)
        if loop is None:
            run.add_check("endpoint-closed(sub)", True, "yes")
        else:
            run.add_check(
                "endpoint-closed(sub)", False,
                f"NO: inputs {list(loop.inputs.edges)} from "
                f"{loop.inputs.source} admit the outside output "
                f"{loop.output}")
    if "partition" in doc:
        parts = serde.partition_from_doc(doc["partition"])
        psub = partition_subgraph(g, parts)
        loop = endpoint_violation(g, psub)
        if loop is None:
            run.add_check("endpoint-closed(partition)", True,
                          f"yes ({len(psub.edges)} edges kept)")
        else:
            run.add_check("endpoint-closed(partition)", False,
                          f"NO: outside output {loop.output}")
    return run


# --------------------------------------------------------------- fc-audit


def cmd_fc_audit(args, bounds) -> Run:
    run = Run(f"fc-audit {args.file}", bounds, args.seed)
    doc = _read_doc(args.file)
    inst, sub = serde.instance_from_doc(doc, bounds["path_len"],
                                        bounds["labels"])
    run.add(check_axioms(inst, bounds["arity"]))
    if sub is not None:
        run.add(is_factor_closed(inst, sub, bounds["arity"]))
    return run


# ---------------------------------------------------------------- free-d2


def _object_names(count: int) -> list[str]:
    return [f"o{k}" for k in range(1, count + 1)]


def _parse_parts(text: str) -> list[list[str]]:
    return [[v.strip() for v in part.split(",") if v.strip()]
            for part in text.split(";") if part.strip()]


def build_free_preset(preset: str, rank: int, truncation: int,
                      objects: int, parts: Optional[str],
                      reduced: bool) -> tuple[FreeDgFc, Optional[list]]:
    monoid = LabelMonoid(rank, truncation)
    if preset.startswith("generalized:"):
        if not reduced:
            raise CliError("--unreduced does not apply to generalized:FILE; "
                           "the document's \"reduced\" field decides")
        return serde.freedg_from_doc(_read_doc(preset.split(":", 1)[1]))
    if preset not in PRESETS:
        raise CliError(
            f"preset must be one of {tuple(PRESETS)} or generalized:FILE, "
            f"got {preset!r}")
    names = _object_names(objects)
    part_list = _parse_parts(parts) if parts else [[n] for n in names]
    return build_preset(preset, monoid, reduced, names, part_list), None


def cmd_free_d2(args, bounds) -> Run:
    run = Run(f"free-d2 {args.preset}", bounds, args.seed)
    truncation = args.labels if args.labels is not None else 0
    fc, gens = build_free_preset(args.preset, args.rank, truncation,
                                 args.objects, args.parts,
                                 not args.unreduced)
    if args.debug_sign_fault:
        fc = FreeDgFc(fc.labeling, preset=fc.preset,
                      custom_rules=fc.custom_rules, sign_fault=True)
        run.note("debug: Leibniz sign deliberately dropped")
    if not fc.labeling.reduced:
        run.note("curved variant (proposed definition): empty-input "
                 "generators included, the square need not vanish")
    run.add(delta_squared_report(fc, bounds["arity"], bounds["labels"], gens))
    return run


# ----------------------------------------------------------- algebra-check


def cmd_algebra_check(args, bounds) -> Run:
    run = Run(f"algebra-check {args.file} --route {args.route}", bounds,
              args.seed)
    doc = _read_doc(args.file)
    fc, A = serde.algebra_job_from_doc(doc)
    arity, labels = bounds["arity"], bounds["labels"]
    if args.route == "generic":
        run.add(check_algebra(fc, A, arity, labels))
    elif args.route == "direct":
        run.add(check_direct(fc, A, arity, labels))
    else:
        generic, direct, agree = check_both_routes(fc, A, arity, labels)
        run.add(generic)
        run.add(direct)
        run.add_check("routes-agree", agree, "yes" if agree else
                      "NO: " + route_disagreement(generic, direct))
    return run


# ------------------------------------------------------------------ driver


def _bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arity", type=int, default=None,
                   help="composition/relation arity bound (default 5)")
    p.add_argument("--labels", type=int, default=None,
                   help="label coordinate-sum bound (default 2); for "
                   "free-d2 presets this also declares the monoid "
                   "truncation")
    p.add_argument("--path-len", type=int, default=None, dest="path_len",
                   help="materialized input-path length bound (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the report; reruns with the same "
                   "input and seed are byte-identical")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format; json round-trips through the "
                   "parser")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fcmc",
        description="Verification checks for fc-multicategories, free "
        "differentials, and algebra structures.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph-check",
                       help="validate a graph file, optional subgraph and "
                       "partition verdicts")
    g.add_argument("file")
    _bound_flags(g)
    g.set_defaults(fn=cmd_graph_check)

    a = sub.add_parser("fc-audit",
                       help="unit/associativity axioms of an instance, "
                       "plus factor-closedness of a declared sub")
    a.add_argument("file")
    _bound_flags(a)
    a.set_defaults(fn=cmd_fc_audit)

    f = sub.add_parser("free-d2",
                       help="square of the free differential on a preset")
    f.add_argument("preset",
                   help=f"one of {', '.join(PRESETS)} or generalized:FILE")
    f.add_argument("--rank", type=int, default=1,
                   help="label monoid rank for built-in presets")
    f.add_argument("--objects", type=int, default=2,
                   help="object count for category/module presets")
    f.add_argument("--parts", default=None,
                   help="ordered partition for rmodule, e.g. 'o1;o2,o3'")
    f.add_argument("--unreduced", action="store_true",
                   help="include empty-input generators (curved variant); "
                   "built-in presets only")
    f.add_argument("--debug-sign-fault", action="store_true",
                   help="drop the Leibniz sign to demonstrate failure")
    _bound_flags(f)
    f.set_defaults(fn=cmd_free_d2)

    c = sub.add_parser("algebra-check",
                       help="check candidate structure maps against a "
                       "preset's relations")
    c.add_argument("file")
    c.add_argument("--route", choices=("generic", "direct", "both"),
                   default="both",
                   help="generic differential route, displayed relation "
                   "sums, or both with agreement asserted")
    _bound_flags(c)
    c.set_defaults(fn=cmd_algebra_check)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bounds = resolve_bounds(args)
        run = args.fn(args, bounds)
    except (CliError, serde.SerdeError, GraphError, LabelError,
            CompositionError, AlgebraError, ChainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(run.render(args.format))
    return 0 if run.ok else 1


if __name__ == "__main__":
    sys.exit(main())
