"""JSON interchange for graphs, complexes, assignments, and reports.

One structured text format covers every entity the command line touches.
Documents are plain JSON objects with a top-level ``format_version``;
coefficients travel as exact "p/q" strings so floats can never sneak in.
Emission is canonical (sorted keys, fixed indentation), which is what
makes reports byte-identical across runs.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import (
    DirectedGraph,
    Edge,
    GraphError,
    ProfileLoop,
    Vertex,
    profile_loop,
    validate_graph,
)
from .labels import LabelMonoid, LabelingFc, MonoidElem
from .multicat import (
    AxiomReport,
    FactorReport,
    FcInstance,
    FullSub,
    LoopInstance,
    TableInstance,
    TwoCell,
)
from .freedg import (
    CompTree,
    Delta2Report,
    FreeCell,
    FreeDgFc,
    GeneratorSpec,
    free_cell,
    graft,
    inner_position,
    leaf_of,
)
from .chain import CochainComplex, EndX, MultiMap, make_complex, multimap
from .algebra import AlgebraData, RelationFailure, RelationReport

FORMAT_VERSION = 1


class SerdeError(ValueError):
    pass


# ------------------------------------------------------------------ scalars


def scalar_to_str(c) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar_from_str(s) -> int | Fraction:
    """An exact coefficient; an integral one is read as an ``int``."""
    try:
        f = Fraction(_typed(s, "string", "coefficient"))
    except (ValueError, ZeroDivisionError) as exc:
        raise SerdeError(f"bad coefficient {s!r}: {exc}") from None
    return f.numerator if f.denominator == 1 else f


# ---------------------------------------------------------------- documents


def dumps_doc(doc: dict) -> str:
    """Canonical text form: same doc -> same bytes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise SerdeError(f"duplicate key {key!r}")
    return obj


def loads_doc(text: str) -> dict:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SerdeError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        # nesting past the recursion limit, an integer literal past
        # Python's digit limit, or a repeated key
        raise SerdeError(f"unreadable JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise SerdeError("top level must be an object")
    return doc


def check_version(doc: dict) -> None:
    v = field(doc, "format_version", "integer")
    if v != FORMAT_VERSION:
        raise SerdeError(
            f"format_version must be {FORMAT_VERSION}, got {v!r}")


# The JSON types a field may be declared with.  An integer is never a
# boolean (type(True) is bool, not int) and never a float, and nothing is
# coerced: a value of another type is unusable input.
_JSON_TYPES = {
    "string": (str,),
    "integer": (int,),
    "boolean": (bool,),
    "array": (list,),
    "object": (dict,),
    "string or null": (str, type(None)),
    "array or null": (list, type(None)),
}

_REQUIRED = object()


def _typed(value, kind: str, what: str):
    """``value`` itself, if it already has the JSON type ``kind``."""
    if type(value) not in _JSON_TYPES[kind]:
        raise SerdeError(f"{what} must be a JSON {kind}, got {value!r}")
    return value


def field(doc, key: str, kind: str, default=_REQUIRED):
    """The one way a document field is read: ``doc[key]`` checked to be of
    the JSON type ``kind``; a missing optional field gives ``default``."""
    if type(doc) is not dict:
        raise SerdeError(f"expected an object with field {key!r}, "
                         f"got {doc!r}")
    if key in doc:
        return _typed(doc[key], kind, f"field {key!r}")
    if default is _REQUIRED:
        raise SerdeError(f"missing required field {key!r}")
    return default


# ------------------------------------------------------------------- graphs


def graph_to_doc(g: DirectedGraph) -> dict:
    return {"vertices": list(g.vertex_ids()),
            "edges": [{"id": e.id, "src": e.src, "tgt": e.tgt}
                      for e in g.edges]}


def graph_from_doc(doc: dict, validate: bool = True) -> DirectedGraph:
    verts = [Vertex(_typed(v, "string", "vertex id"))
             for v in field(doc, "vertices", "array")]
    edges = [Edge(field(e, "id", "string"), field(e, "src", "string"),
                  field(e, "tgt", "string"))
             for e in field(doc, "edges", "array")]
    g = DirectedGraph(verts, edges)
    if validate:
        report = validate_graph(g)
        if not report.ok:
            raise GraphError("; ".join(report.problems))
    return g


def partition_from_doc(value) -> list[list[str]]:
    """An ordered partition: an array of arrays of vertex ids."""
    return [[_typed(v, "string", "partition vertex id")
             for v in _typed(part, "array", "partition part")]
            for part in _typed(value, "array", "partition")]


# ----------------------------------------------------------- labels, loops


def monoid_to_doc(m: LabelMonoid) -> dict:
    return {"rank": m.rank, "truncation": m.truncation}


def monoid_from_doc(doc: dict) -> LabelMonoid:
    return LabelMonoid(
        rank=field(doc, "rank", "integer"),
        truncation=field(doc, "truncation", "integer"))


def label_to_doc(beta: MonoidElem) -> list[int]:
    return list(beta.coords)


def label_from_doc(arr: list) -> MonoidElem:
    return MonoidElem(tuple(_typed(c, "integer", "label coordinate")
                            for c in arr))


def loop_to_doc(loop: ProfileLoop) -> dict:
    doc = {"inputs": list(loop.inputs.edges), "output": loop.output}
    if not loop.inputs.edges:
        doc["basepoint"] = loop.inputs.source
    return doc


def loop_from_doc(g: DirectedGraph, doc: dict) -> ProfileLoop:
    word = tuple(_typed(e, "string", "input edge id")
                 for e in field(doc, "inputs", "array"))
    out = field(doc, "output", "string")
    basepoint = None if word else field(doc, "basepoint", "string")
    return profile_loop(g, word, out, basepoint)


# -------------------------------------------------------------- complexes


def complex_to_doc(cx: CochainComplex) -> dict:
    diff = []
    for x, vec in sorted(cx.d.items()):
        for y, c in sorted(vec.items()):
            diff.append({"from": x, "to": y, "coeff": scalar_to_str(c)})
    return {"basis": [{"id": x, "degree": d} for x, d in cx.basis.elements],
            "differential": diff}


def complex_from_doc(doc: dict) -> CochainComplex:
    basis = [(field(b, "id", "string"), field(b, "degree", "integer"))
             for b in field(doc, "basis", "array")]
    d: dict[str, dict] = {}
    for entry in field(doc, "differential", "array", []):
        src = field(entry, "from", "string")
        tgt = field(entry, "to", "string")
        c = scalar_from_str(field(entry, "coeff", "string"))
        d.setdefault(src, {})
        d[src][tgt] = d[src].get(tgt, 0) + c
    return make_complex(basis, d)


def multimap_to_doc(xi: MultiMap) -> dict:
    entries = []
    for key, vec in sorted(xi.table.items()):
        for y, c in sorted(vec.items()):
            entries.append({"inputs": list(key), "output": y,
                            "coeff": scalar_to_str(c)})
    return {"inputs": list(xi.inputs), "output": xi.output,
            "degree": xi.degree, "entries": entries}


def multimap_from_doc(X: EndX, doc: dict) -> MultiMap:
    word = tuple(_typed(e, "string", "input edge id")
                 for e in field(doc, "inputs", "array"))
    out = field(doc, "output", "string")
    degree = field(doc, "degree", "integer", 1)
    table: dict[tuple, dict] = {}
    for entry in field(doc, "entries", "array", []):
        key = tuple(_typed(x, "string", "basis id")
                    for x in field(entry, "inputs", "array"))
        y = field(entry, "output", "string")
        c = scalar_from_str(field(entry, "coeff", "string"))
        vec = table.setdefault(key, {})
        vec[y] = vec.get(y, 0) + c
    return multimap(X, word, out, degree, table)


# ------------------------------------------------------- free dg structures


def generator_to_doc(gen: GeneratorSpec) -> dict:
    doc = loop_to_doc(gen.profile)
    doc["name"] = gen.name
    doc["label"] = label_to_doc(gen.label)
    return doc


def generator_from_doc(fc: FreeDgFc, doc: dict) -> GeneratorSpec:
    loop = loop_from_doc(fc.graph, doc)
    beta = label_from_doc(field(doc, "label", "array",
                                [0] * fc.monoid.rank))
    return fc.generator(loop, beta)


def _rule_to_doc(cell: FreeCell) -> list[dict]:
    terms = []
    for t, coeff in sorted(cell.terms, key=lambda tc: str(tc[0])):
        q = inner_position(t)
        terms.append({"coeff": scalar_to_str(coeff),
                      "outer": generator_to_doc(t.gen),
                      "slot": q + 1,
                      "inner": generator_to_doc(t.children[q].gen)})
    return terms


def _rule_from_doc(fc: FreeDgFc, gen: GeneratorSpec,
                   terms: Sequence[dict]) -> FreeCell:
    acc: dict[CompTree, object] = {}
    for term in terms:
        outer = generator_from_doc(fc, field(term, "outer", "object"))
        inner = generator_from_doc(fc, field(term, "inner", "object"))
        slot = field(term, "slot", "integer")
        t = graft(leaf_of(outer), slot, leaf_of(inner))
        c = scalar_from_str(field(term, "coeff", "string"))
        acc[t] = acc.get(t, 0) + c
    # unvalidated: ``FreeDgFc`` validates every rule of its table
    return free_cell(gen.profile, gen.label, 2, acc, validate=False)


def freedg_to_doc(fc: FreeDgFc,
                  gens: Optional[Sequence[GeneratorSpec]] = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "free-dg",
        "graph": graph_to_doc(fc.graph),
        "monoid": monoid_to_doc(fc.monoid),
        "reduced": fc.labeling.reduced,
        "differential": fc.preset,
    }
    if gens is not None:
        doc["generators"] = [generator_to_doc(g) for g in gens]
    if fc.custom_rules:
        doc["rules"] = [{"generator": generator_to_doc(g),
                         "terms": _rule_to_doc(cell)}
                        for g, cell in sorted(fc.custom_rules.items(),
                                              key=lambda kv: kv[0].name)]
    return doc


def freedg_from_doc(doc: dict) -> tuple[FreeDgFc,
                                        Optional[list[GeneratorSpec]]]:
    """Rebuild a free dg structure; the optional second component is the
    generator sweep set a verification run should restrict to."""
    check_version(doc)
    g = graph_from_doc(field(doc, "graph", "object"))
    monoid = monoid_from_doc(field(doc, "monoid", "object",
                                   {"rank": 1, "truncation": 0}))
    labeling = LabelingFc(g, monoid, field(doc, "reduced", "boolean", True))
    differential = field(doc, "differential", "string")
    rules = None
    if differential == "custom":
        # rules name generators, which exist whatever the differential
        fc = FreeDgFc(labeling)
        rules = {}
        for rule in field(doc, "rules", "array", []):
            gen = generator_from_doc(fc, field(rule, "generator", "object"))
            if gen in rules:
                raise SerdeError(f"duplicate rule for {gen.name}")
            rules[gen] = _rule_from_doc(fc, gen,
                                        field(rule, "terms", "array"))
    fc = FreeDgFc(labeling, preset=differential, custom_rules=rules)
    gens = field(doc, "generators", "array", None)
    if gens is not None:
        gens = [generator_from_doc(fc, gd) for gd in gens]
        if len(set(gens)) < len(gens):
            raise SerdeError("duplicate generator in \"generators\"")
    return fc, gens


# ------------------------------------------------------------ fc instances


def cell_to_doc(cell: TwoCell) -> dict:
    doc = loop_to_doc(cell.profile)
    doc["id"] = cell.id
    if cell.label is not None:
        doc["label"] = label_to_doc(cell.label)
    return doc


def cell_from_doc(g: DirectedGraph, doc: dict) -> TwoCell:
    loop = loop_from_doc(g, doc)
    lbl = field(doc, "label", "array", None)
    return TwoCell(field(doc, "id", "string"), loop,
                   None if lbl is None else label_from_doc(lbl))


def table_instance_to_doc(inst: TableInstance) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "fc-instance",
        "instance": "table",
        "graph": graph_to_doc(inst.graph),
        "cells": [cell_to_doc(c) for c in inst.cells()],
        "units": {eid: cell.id for eid, cell in sorted(inst._units.items())},
        "table": [{"outer": o, "slot": i, "inner": v, "result": r}
                  for (o, i, v), r in sorted(inst.table.items())],
    }


def instance_from_doc(doc: dict, path_len: int,
                      label_bound: Optional[int] = None
                      ) -> tuple[FcInstance, Optional[FcInstance]]:
    """Rebuild an instance plus, when declared, its full sub-instance.

    ``path_len`` bounds the materialized cells of the free-like kinds;
    explicit table instances ignore it.
    """
    check_version(doc)
    g = graph_from_doc(field(doc, "graph", "object"))
    kind = field(doc, "instance", "string", "profile-loop")
    if kind == "profile-loop":
        inst: FcInstance = LoopInstance(g, path_len)
    elif kind == "labeled":
        monoid = monoid_from_doc(field(doc, "monoid", "object"))
        monoid = LabelMonoid(monoid.rank, monoid.cap(label_bound))
        reduced = field(doc, "reduced", "boolean", False)
        inst = LoopInstance(g, path_len, LabelingFc(g, monoid, reduced))
    elif kind == "table":
        cells = [cell_from_doc(g, cd) for cd in field(doc, "cells", "array")]
        units = {e: _typed(c, "string", "unit cell id")
                 for e, c in field(doc, "units", "object").items()}
        table = {}
        for row in field(doc, "table", "array", []):
            key = (field(row, "outer", "string"),
                   field(row, "slot", "integer"),
                   field(row, "inner", "string"))
            if key in table:
                raise SerdeError(f"duplicate table row for {key!r}")
            table[key] = field(row, "result", "string")
        inst = TableInstance(g, cells, units, table)
    else:
        raise SerdeError(f"unknown instance kind {kind!r}")
    sub = field(doc, "sub", "object", None)
    if sub is not None:
        sub = FullSub(inst, graph_from_doc(sub))
    return inst, sub


# ------------------------------------------------------------ algebra jobs


def algebra_job_to_doc(fc: FreeDgFc, A: AlgebraData) -> dict:
    """The structure's free-dg block, with ``differential`` named
    ``preset``, plus the complexes and the assigned maps."""
    doc = freedg_to_doc(fc)
    doc["kind"] = "algebra-check"
    doc["preset"] = doc.pop("differential")
    doc["complexes"] = {eid: complex_to_doc(cx)
                        for eid, cx in sorted(A.X.complexes.items())}
    doc["assignment"] = [dict(multimap_to_doc(xi), **loop_to_doc(gen.profile),
                              label=label_to_doc(gen.label))
                         for gen, xi in sorted(A.assignment.items(),
                                               key=lambda kv: kv[0].name)]
    return doc


def algebra_job_from_doc(doc: dict) -> tuple[FreeDgFc, AlgebraData]:
    check_version(doc)
    preset = field(doc, "preset", "string",
                   doc.get("differential", "generalized"))
    fc, _ = freedg_from_doc(dict(doc, differential=preset))
    complexes = {e: complex_from_doc(cd)
                 for e, cd in field(doc, "complexes", "object").items()}
    X = EndX(fc.graph, complexes)
    assignment: dict[GeneratorSpec, MultiMap] = {}
    for entry in field(doc, "assignment", "array", []):
        gen = generator_from_doc(fc, entry)
        if gen in assignment:
            raise SerdeError(f"duplicate assignment for {gen.name}")
        assignment[gen] = multimap_from_doc(X, entry)
    return fc, AlgebraData(X, assignment)


# ----------------------------------------------------------------- reports


def report_to_doc(rep) -> dict:
    if isinstance(rep, Delta2Report):
        return {"format_version": FORMAT_VERSION, "kind": "report",
                "report": "delta-squared", "ok": rep.ok,
                "generators": rep.generators,
                "arity_bound": rep.arity_bound,
                "label_bound": rep.label_bound,
                "residues": [{"generator": n, "residue": r}
                             for n, r in rep.residues]}
    if isinstance(rep, AxiomReport):
        return {"format_version": FORMAT_VERSION, "kind": "report",
                "report": "axioms", "ok": rep.ok,
                "failure": rep.failure,
                "witness": None if rep.witness is None
                else [str(w) for w in rep.witness],
                "checked": rep.checked, "skipped": rep.skipped}
    if isinstance(rep, FactorReport):
        witness = None
        if rep.witness is not None:
            u, i, v = rep.witness
            witness = [u.id, i, v.id]
        return {"format_version": FORMAT_VERSION, "kind": "report",
                "report": "factor-closed", "ok": rep.ok,
                "witness": witness, "checked": rep.checked}
    if isinstance(rep, RelationReport):
        return {"format_version": FORMAT_VERSION, "kind": "report",
                "report": "relations", "ok": rep.ok, "route": rep.route,
                "checked": rep.checked, "arity_bound": rep.arity_bound,
                "label_bound": rep.label_bound,
                "failures": [{"name": f.name, "arity": f.arity,
                              "label": f.label, "witness": f.witness}
                             for f in rep.failures],
                "notes": list(rep.notes)}
    raise SerdeError(f"cannot serialize report {type(rep).__name__}")


def check_report_doc(name: str, ok: bool, detail: str) -> dict:
    """A free-form single-verdict report (graph validity and the like)."""
    return {"format_version": FORMAT_VERSION, "kind": "report",
            "report": "check", "name": name, "ok": bool(ok),
            "detail": detail}


_REPORT_FIELDS = {
    "delta-squared": {"ok": "boolean", "generators": "integer",
                      "arity_bound": "integer", "label_bound": "integer",
                      "residues": "array"},
    "axioms": {"ok": "boolean", "failure": "string or null",
               "witness": "array or null", "checked": "integer",
               "skipped": "integer"},
    "factor-closed": {"ok": "boolean", "witness": "array or null",
                      "checked": "integer"},
    "relations": {"ok": "boolean", "route": "string", "checked": "integer",
                  "arity_bound": "integer", "label_bound": "integer",
                  "failures": "array", "notes": "array"},
    "check": {"ok": "boolean", "name": "string", "detail": "string"},
}

_REPORT_SET_FIELDS = {"command": "string", "bounds": "object",
                      "seed": "integer", "notes": "array", "ok": "boolean",
                      "reports": "array"}


def parse_report(doc: dict) -> dict:
    """Validate a machine-readable report and return its canonical form.

    parse_report(loads_doc(dumps_doc(report_to_doc(r)))) reproduces the
    document exactly, which is the round-trip the batch interface promises.
    """
    check_version(doc)
    if field(doc, "kind", "string") != "report":
        raise SerdeError("not a report document")
    rkind = field(doc, "report", "string")
    if rkind not in _REPORT_FIELDS:
        raise SerdeError(f"unknown report type {rkind!r}")
    for key, kind in _REPORT_FIELDS[rkind].items():
        field(doc, key, kind)
    return {k: doc[k] for k in sorted(doc)}


def report_set_to_doc(command: str, bounds: dict, seed: int,
                      reports: Sequence[dict],
                      notes: Sequence[str] = ()) -> dict:
    """The batch interface's one-object output: every check of a run."""
    return {"format_version": FORMAT_VERSION, "kind": "report-set",
            "command": command,
            "bounds": {k: int(v) for k, v in sorted(bounds.items())},
            "seed": int(seed), "notes": list(notes),
            "ok": all(r["ok"] for r in reports),
            "reports": list(reports)}


def parse_report_set(doc: dict) -> dict:
    check_version(doc)
    if field(doc, "kind", "string") != "report-set":
        raise SerdeError("not a report-set document")
    for key, kind in _REPORT_SET_FIELDS.items():
        field(doc, key, kind)
    reports = [parse_report(r) for r in doc["reports"]]
    if doc["ok"] != all(r["ok"] for r in reports):
        raise SerdeError("ok flag inconsistent with member reports")
    return dict(doc, reports=reports)


def relation_report_from_doc(doc: dict) -> RelationReport:
    parse_report(doc)  # types every top-level field
    if doc["report"] != "relations":
        raise SerdeError("not a relation report")
    return RelationReport(
        doc["ok"], doc["route"], doc["checked"], doc["arity_bound"],
        doc["label_bound"],
        tuple(RelationFailure(field(f, "name", "string"),
                              field(f, "arity", "integer"),
                              field(f, "label", "string"),
                              field(f, "witness", "string"))
              for f in doc["failures"]),
        tuple(_typed(n, "string", "note") for n in doc["notes"]))
