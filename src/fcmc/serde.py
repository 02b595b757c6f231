"""JSON interchange for graphs, complexes, assignments, and reports.

One structured text format covers every entity the command line touches.
Documents are plain JSON objects with a top-level ``format_version``;
coefficients travel as exact "p/q" strings so floats can never sneak in.
Emission is canonical (sorted keys, fixed indentation), which is what
makes reports byte-identical across runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Sequence

from .graphs import (
    DirectedGraph,
    Edge,
    EdgePath,
    GraphError,
    ProfileLoop,
    Vertex,
    validate_graph,
)
from .labels import LabelMonoid, LabelingFc, MonoidElem
from .multicat import (
    AxiomReport,
    FactorReport,
    FcInstance,
    FullSub,
    LabeledInstance,
    ProfileLoopInstance,
    TableInstance,
    TwoCell,
)
from .freedg import (
    PRESETS,
    CompTree,
    Delta2Report,
    FreeCell,
    FreeDgFc,
    GeneratorSpec,
    free_cell,
    graft,
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


def scalar_from_str(s) -> Fraction:
    if not isinstance(s, str):
        raise SerdeError(f"coefficient must be a 'p/q' string, got {s!r}")
    try:
        f = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SerdeError(f"bad coefficient {s!r}: {exc}") from None
    return f


# ---------------------------------------------------------------- documents


def dumps_doc(doc: dict) -> str:
    """Canonical text form: same doc -> same bytes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads_doc(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerdeError(
            f"not valid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(doc, dict):
        raise SerdeError("top level must be an object")
    return doc


def check_version(doc: dict) -> None:
    v = doc.get("format_version")
    if v != FORMAT_VERSION:
        raise SerdeError(
            f"format_version must be {FORMAT_VERSION}, got {v!r}")


def _require(doc: dict, key: str):
    if not isinstance(doc, dict):
        raise SerdeError(f"expected an object with field {key!r}, "
                         f"got {doc!r}")
    if key not in doc:
        raise SerdeError(f"missing required field {key!r}")
    return doc[key]


def _int(value, what: str) -> int:
    # int() would truncate 1.9 to 1 and read true as 1
    if isinstance(value, (bool, float)):
        raise SerdeError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SerdeError(f"{what} must be an integer, got {value!r}") \
            from None


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise SerdeError(f"{what} must be an array, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise SerdeError(f"{what} must be an object, got {value!r}")
    return value


# ------------------------------------------------------------------- graphs


def graph_to_doc(g: DirectedGraph) -> dict:
    return {"vertices": list(g.vertex_ids()),
            "edges": [{"id": e.id, "src": e.src, "tgt": e.tgt}
                      for e in g.edges]}


def graph_from_doc(doc: dict, validate: bool = True) -> DirectedGraph:
    verts = _array(_require(doc, "vertices"), "vertices")
    edges = _array(_require(doc, "edges"), "edges")
    for e in edges:
        for k in ("id", "src", "tgt"):
            if k not in _object(e, "edge entry"):
                raise SerdeError(f"edge entry missing {k!r}: {e!r}")
    g = DirectedGraph((Vertex(str(v)) for v in verts),
                      (Edge(str(e["id"]), str(e["src"]), str(e["tgt"]))
                       for e in edges))
    if validate:
        report = validate_graph(g)
        if not report.ok:
            raise GraphError("; ".join(report.problems))
    return g


def partition_from_doc(value) -> list[list[str]]:
    """An ordered partition: an array of arrays of vertex ids."""
    return [[str(v) for v in _array(part, "partition part")]
            for part in _array(value, "partition")]


# ----------------------------------------------------------- labels, loops


def monoid_to_doc(m: LabelMonoid) -> dict:
    return {"rank": m.rank, "truncation": m.truncation}


def monoid_from_doc(doc: dict) -> LabelMonoid:
    return LabelMonoid(
        rank=_int(_require(doc, "rank"), "monoid rank"),
        truncation=_int(_require(doc, "truncation"), "monoid truncation"))


def label_to_doc(beta: MonoidElem) -> list[int]:
    return list(beta.coords)


def label_from_doc(arr) -> MonoidElem:
    if not isinstance(arr, (list, tuple)):
        raise SerdeError(f"label must be an integer array, got {arr!r}")
    return MonoidElem(tuple(_int(c, "label coordinate") for c in arr))


def loop_to_doc(loop: ProfileLoop) -> dict:
    doc = {"inputs": list(loop.inputs.edges), "output": loop.output}
    if not loop.inputs.edges:
        doc["basepoint"] = loop.inputs.source
    return doc


def loop_from_doc(g: DirectedGraph, doc: dict) -> ProfileLoop:
    word = tuple(str(e) for e in _array(_require(doc, "inputs"), "inputs"))
    out = str(_require(doc, "output"))
    if word:
        src = g.edge(word[0]).src
        tgt = g.edge(word[-1]).tgt
    else:
        src = tgt = str(_require(doc, "basepoint"))
    return ProfileLoop(EdgePath(word, src, tgt), out)


# -------------------------------------------------------------- complexes


def complex_to_doc(cx: CochainComplex) -> dict:
    diff = []
    for x, vec in sorted(cx.d.items()):
        for y, c in sorted(vec.items()):
            diff.append({"from": x, "to": y, "coeff": scalar_to_str(c)})
    return {"basis": [{"id": x, "degree": d} for x, d in cx.basis.elements],
            "differential": diff}


def complex_from_doc(doc: dict) -> CochainComplex:
    basis = [(str(_require(b, "id")),
              _int(_require(b, "degree"), "basis degree"))
             for b in _array(_require(doc, "basis"), "basis")]
    d: dict[str, dict] = {}
    for entry in _array(doc.get("differential", []), "differential"):
        src = str(_require(entry, "from"))
        tgt = str(_require(entry, "to"))
        c = scalar_from_str(_require(entry, "coeff"))
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
    word = tuple(str(e) for e in _array(_require(doc, "inputs"), "inputs"))
    out = str(_require(doc, "output"))
    degree = _int(doc.get("degree", 1), "map degree")
    table: dict[tuple, dict] = {}
    for entry in _array(doc.get("entries", []), "entries"):
        key = tuple(str(x) for x in
                    _array(_require(entry, "inputs"), "entry inputs"))
        y = str(_require(entry, "output"))
        c = scalar_from_str(_require(entry, "coeff"))
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
    beta = label_from_doc(doc.get("label", [0] * fc.monoid.rank))
    return fc.generator(loop, beta)


def _rule_to_doc(cell: FreeCell) -> list[dict]:
    terms = []
    for t, coeff in sorted(cell.terms, key=lambda tc: str(tc[0])):
        inner_slot = None
        width = 0
        for child in t.children:
            if isinstance(child, CompTree):
                inner_slot = width + 1
                inner = child
                break
            width += 1
        if inner_slot is None:
            raise SerdeError("rule term has no inner node")
        terms.append({"coeff": scalar_to_str(coeff),
                      "outer": generator_to_doc(t.gen),
                      "slot": inner_slot,
                      "inner": generator_to_doc(inner.gen)})
    return terms


def _rule_from_doc(fc: FreeDgFc, gen: GeneratorSpec,
                   terms: Sequence[dict]) -> FreeCell:
    acc: dict[CompTree, object] = {}
    for term in _array(terms, "rule terms"):
        outer = generator_from_doc(fc, _require(term, "outer"))
        inner = generator_from_doc(fc, _require(term, "inner"))
        slot = _int(_require(term, "slot"), "rule slot")
        t = graft(leaf_of(outer), slot, leaf_of(inner))
        c = scalar_from_str(_require(term, "coeff"))
        acc[t] = acc.get(t, 0) + c
    return free_cell(gen.profile, gen.label, 2, acc)


def freedg_to_doc(fc: FreeDgFc,
                  gens: Optional[Sequence[GeneratorSpec]] = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "free-dg",
        "graph": graph_to_doc(fc.graph),
        "monoid": monoid_to_doc(fc.monoid),
        "reduced": fc.labeling.reduced,
        "differential": "custom" if fc.custom_rules is not None
        else fc.preset,
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
    g = graph_from_doc(_require(doc, "graph"))
    monoid = monoid_from_doc(doc.get("monoid",
                                     {"rank": 1, "truncation": 0}))
    reduced = bool(doc.get("reduced", True))
    labeling = LabelingFc(g, monoid, reduced)
    differential = str(_require(doc, "differential"))
    if differential == "custom":
        # rules name generators, which exist whatever the differential
        fc = FreeDgFc(g, labeling)
        rules = {}
        for rule in _array(doc.get("rules", []), "rules"):
            gen = generator_from_doc(fc, _require(rule, "generator"))
            rules[gen] = _rule_from_doc(fc, gen, _require(rule, "terms"))
        fc = FreeDgFc(g, labeling, preset="custom", custom_rules=rules)
    elif differential in PRESETS + ("generalized",):
        fc = FreeDgFc(g, labeling, preset=differential)
    else:
        raise SerdeError(
            f"differential must be one of "
            f"{PRESETS + ('generalized', 'custom')}, got {differential!r}")
    gens = None
    if "generators" in doc:
        gens = [generator_from_doc(fc, gd)
                for gd in _array(doc["generators"], "generators")]
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
    lbl = label_from_doc(doc["label"]) if "label" in doc else None
    return TwoCell(str(_require(doc, "id")), loop, lbl)


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
    g = graph_from_doc(_require(doc, "graph"))
    kind = str(doc.get("instance", "profile-loop"))
    if kind == "profile-loop":
        inst: FcInstance = ProfileLoopInstance(g, path_len)
    elif kind == "labeled":
        monoid = monoid_from_doc(_require(doc, "monoid"))
        monoid = LabelMonoid(monoid.rank, monoid.cap(label_bound))
        inst = LabeledInstance(LabelingFc(g, monoid,
                                          bool(doc.get("reduced", False))),
                               path_len)
    elif kind == "table":
        cells = [cell_from_doc(g, cd)
                 for cd in _array(_require(doc, "cells"), "cells")]
        units = {str(e): str(c) for e, c in
                 _object(_require(doc, "units"), "units").items()}
        table = {}
        for row in _array(doc.get("table", []), "table"):
            key = (str(_require(row, "outer")),
                   _int(_require(row, "slot"), "table slot"),
                   str(_require(row, "inner")))
            table[key] = str(_require(row, "result"))
        inst = TableInstance(g, cells, units, table)
    else:
        raise SerdeError(f"unknown instance kind {kind!r}")
    sub = None
    if "sub" in doc:
        sub_graph = graph_from_doc(doc["sub"])
        sub = FullSub(inst, sub_graph)
    return inst, sub


# ------------------------------------------------------------ algebra jobs


def algebra_job_to_doc(fc: FreeDgFc, A: AlgebraData) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "algebra-check",
        "preset": fc.preset,
        "graph": graph_to_doc(fc.graph),
        "monoid": monoid_to_doc(fc.monoid),
        "reduced": fc.labeling.reduced,
        "complexes": {eid: complex_to_doc(cx)
                      for eid, cx in sorted(A.X.complexes.items())},
        "assignment": [dict(multimap_to_doc(xi),
                            label=label_to_doc(gen.label))
                       for gen, xi in sorted(A.assignment.items(),
                                             key=lambda kv: kv[0].name)],
    }
    return doc


def algebra_job_from_doc(doc: dict) -> tuple[FreeDgFc, AlgebraData]:
    check_version(doc)
    fc, _ = freedg_from_doc(dict(doc, differential=doc.get(
        "preset", doc.get("differential", "generalized")),
        kind="free-dg"))
    cx_docs = _object(_require(doc, "complexes"), "complexes")
    complexes = {str(e): complex_from_doc(cd) for e, cd in cx_docs.items()}
    X = EndX(fc.graph, complexes)
    assignment: dict[GeneratorSpec, MultiMap] = {}
    for entry in _array(doc.get("assignment", []), "assignment"):
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
    "delta-squared": {"ok", "generators", "arity_bound", "label_bound",
                      "residues"},
    "axioms": {"ok", "failure", "witness", "checked", "skipped"},
    "factor-closed": {"ok", "witness", "checked"},
    "relations": {"ok", "route", "checked", "arity_bound", "label_bound",
                  "failures", "notes"},
    "check": {"ok", "name", "detail"},
}


def parse_report(doc: dict) -> dict:
    """Validate a machine-readable report and return its canonical form.

    parse_report(loads_doc(dumps_doc(report_to_doc(r)))) reproduces the
    document exactly, which is the round-trip the batch interface promises.
    """
    check_version(doc)
    if doc.get("kind") != "report":
        raise SerdeError("not a report document")
    rkind = doc.get("report")
    if rkind not in _REPORT_FIELDS:
        raise SerdeError(f"unknown report type {rkind!r}")
    missing = _REPORT_FIELDS[rkind] - set(doc)
    if missing:
        raise SerdeError(f"report missing fields {sorted(missing)}")
    if not isinstance(doc["ok"], bool):
        raise SerdeError("ok must be boolean")
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
    if doc.get("kind") != "report-set":
        raise SerdeError("not a report-set document")
    for key in ("command", "bounds", "seed", "notes", "ok", "reports"):
        if key not in doc:
            raise SerdeError(f"report-set missing field {key!r}")
    reports = [parse_report(r) for r in doc["reports"]]
    if doc["ok"] != all(r["ok"] for r in reports):
        raise SerdeError("ok flag inconsistent with member reports")
    return dict(doc, reports=reports)


def relation_report_from_doc(doc: dict) -> RelationReport:
    parse_report(doc)
    if doc.get("report") != "relations":
        raise SerdeError("not a relation report")
    return RelationReport(
        bool(doc["ok"]), str(doc["route"]), int(doc["checked"]),
        int(doc["arity_bound"]), int(doc["label_bound"]),
        tuple(RelationFailure(f["name"], int(f["arity"]), f["label"],
                              f["witness"])
              for f in doc["failures"]),
        tuple(doc["notes"]))
