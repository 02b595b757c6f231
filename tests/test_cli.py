import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fcmc
from fcmc.cli import main
from fcmc.serde import (
    algebra_job_to_doc,
    dumps_doc,
    freedg_from_doc,
    freedg_to_doc,
    graph_to_doc,
    loads_doc,
    parse_report_set,
)
from fcmc.algebra import AlgebraData, AlgebraError, check_direct, lift_dga
from fcmc.chain import EndX, make_complex
from fcmc.freedg import FreeDgFc, build_Ainf_bimodule, build_Ainf_operad, \
    build_preset
from fcmc.graphs import build_pair_graph, subgraph
from fcmc.multicat import FullSub, LoopInstance, is_factor_closed
from fcmc.labels import TRIVIAL_MONOID, LabelMonoid

BIMOD_GRAPH = {"vertices": ["v0", "v1"],
               "edges": [{"id": "e0", "src": "v0", "tgt": "v0"},
                         {"id": "e01", "src": "v0", "tgt": "v1"},
                         {"id": "e1", "src": "v1", "tgt": "v1"}]}

LOOP_GRAPH = {"vertices": ["v"],
              "edges": [{"id": "e", "src": "v", "tgt": "v"}]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else dumps_doc(doc))
    return str(path)


def dual_doc():
    fc, A = lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": 1}, ("eps", "eps"): {}})
    return algebra_job_to_doc(fc, A)


def perturbed_doc():
    fc, A = lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1, "eps": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": -1}, ("eps", "eps"): {}})
    return algebra_job_to_doc(fc, A)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ bounds


def test_default_bounds_printed(capsys, monkeypatch):
    # bounds come from the flags alone; the environment is not read
    monkeypatch.setenv("FCMC_BOUNDS", "arity=3,path-len=2")
    code, out, _ = run(capsys, ["free-d2", "ainf"])
    assert code == 0
    assert "arity <= 5, label sum <= 2, path length <= 4" in out


def test_nonpositive_bound_rejected(capsys):
    code, _, err = run(capsys, ["free-d2", "ainf", "--arity", "0"])
    assert code == 2


@pytest.mark.parametrize("flags, message", [
    (["--labels", "-1"], "error: bound labels must be >= 0, got -1\n"),
    (["--arity", "0"], "error: bound arity must be >= 1, got 0\n"),
    (["--path-len", "0"], "error: bound path_len must be >= 1, got 0\n"),
])
def test_bound_error_names_the_minimum(capsys, flags, message):
    code, _, err = run(capsys, ["free-d2", "ainf", *flags])
    assert (code, err) == (2, message)


def test_zero_label_bound_accepted(capsys):
    code, out, _ = run(capsys, ["free-d2", "ainf", "--arity", "3",
                                "--labels", "0"])
    assert code == 0 and "label sum <= 0" in out


# ----------------------------------------------------------------- free-d2


@pytest.mark.parametrize("preset", ["ainf", "category", "bimodule",
                                    "left-module", "right-module",
                                    "rmodule"])
def test_free_d2_presets_pass(capsys, preset):
    code, out, _ = run(capsys, ["free-d2", preset, "--arity", "4"])
    assert code == 0
    assert "verdict: PASS" in out


def test_free_d2_labels_flag_declares_truncation(capsys):
    code, out, _ = run(capsys, ["free-d2", "ainf", "--arity", "4",
                                "--labels", "2"])
    assert code == 0
    assert "label <= 2" in out
    # without the flag the preset is trivially labeled
    _, out2, _ = run(capsys, ["free-d2", "ainf", "--arity", "4"])
    assert "label <= 0" in out2


def test_free_d2_sign_fault_fails(capsys):
    code, out, _ = run(capsys, ["free-d2", "ainf", "--arity", "4",
                                "--debug-sign-fault"])
    assert code == 1
    assert "NONZERO" in out and "verdict: FAIL" in out


def test_free_d2_unreduced_notes_curved(capsys):
    code, out, _ = run(capsys, ["free-d2", "ainf", "--arity", "3",
                                "--unreduced"])
    assert code == 1
    assert "curved" in out


# sha256 of the --format json stdout and the exit code of free-d2 runs
# covering labels, rank 2, a partition, curvature inserts with the curved
# note, and sign-fault residues; a speed-up of the free-dg layer must
# leave every byte as it is
FREE_D2_PINS = [
    (["ainf", "--labels", "1", "--arity", "5"], 0,
     "8a84bd239a312f6fd88644184657cf1615a3f061db11bd5cf7c1ea4281dd562a"),
    (["ainf", "--rank", "2", "--labels", "1", "--arity", "4"], 0,
     "c97d203357afde6e4a32814d21975ccc2644fa309bcf8578f63e2b42e162a986"),
    (["bimodule", "--labels", "1", "--arity", "4"], 0,
     "ab25fc3cb9a32094a2ee168f7cdafa0db8c92ddcb2c1253b5e4ae5d8d2b86079"),
    (["rmodule", "--objects", "3", "--parts", "o1;o2,o3", "--arity", "4"], 0,
     "844e93263fb167bd3f1d27d41d2d5420467d47adc0fbc30cde856212a3d0034b"),
    (["ainf", "--unreduced", "--arity", "3"], 1,
     "af52a1b42075accd73d3e4bf7f7aeff8fca4e0591b8aa091719379b562bec0d4"),
    (["category", "--arity", "4", "--debug-sign-fault"], 1,
     "c857002a39e0fae6dfb2cf9f68195f17f7b33e6b1aeca010a696b24348d77262"),
    (["ainf", "--labels", "1", "--arity", "5", "--debug-sign-fault"], 1,
     "b71cfd5c31afdda0ec3fd7839d187421361496902d4f011400f9be6e9b6967fc"),
    (["category", "--unreduced", "--arity", "3"], 1,
     "4c123d7b437fa814b7faa8368621b691b253d903165db04b81418661e3daa114"),
    # twin-bearing and labeled: swept through the quotient that merges the
    # objects, residues pulled back to each of the full structure's
    # generators
    (["left-module", "--objects", "3", "--labels", "1", "--arity", "4",
      "--debug-sign-fault"], 1,
     "67adc3a19e88d7f6b3ae571883c739747b9e4362d5da3404fa5b503a35500120"),
    (["category", "--objects", "3", "--labels", "1", "--arity", "4"], 0,
     "0c986ceaa01c3f320d5e9ab02ccb00c9d2592efe7318a0732c0c4e4178fe0d44"),
    # the two-loop document of test_free_d2_parallel_loops_square_not_zero,
    # named relative to the working directory, since the report's
    # "command" holds the path
    (["generalized:bc.json", "--arity", "2", "--path-len", "2"], 1,
     "898c4f9d3924f14ebadc64d3c5aa6fc15b57888fb9c46a7d30b013d638756d80"),
]


@pytest.mark.parametrize("argv, code, digest", FREE_D2_PINS,
                         ids=[" ".join(a) for a, _, _ in FREE_D2_PINS])
def test_free_d2_json_bytes_are_pinned(capsys, monkeypatch, tmp_path, argv,
                                       code, digest):
    write(tmp_path, "bc.json", _one_vertex_docs(["b", "c"])["free-d2"])
    monkeypatch.chdir(tmp_path)
    got, out, _ = run(capsys, ["free-d2", *argv, "--format", "json"])
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def _fc_instance(graph, sub=None, **fields):
    doc = {"format_version": 1, "kind": "fc-instance",
           "instance": "profile-loop", "graph": graph, **fields}
    return doc if sub is None else dict(doc, sub=sub)


def _graph(edges):
    verts = sorted({x for _, s, t in edges for x in (s, t)})
    return {"vertices": verts,
            "edges": [{"id": i, "src": s, "tgt": t} for i, s, t in edges]}


# members 24, 35 and 38 of the acceptance graph family
FOUR_LOOPS = _graph([(f"g{k}", "w0", "w0") for k in range(4)])
PARALLEL = _graph([("g0", "w0", "w0"), ("g1", "w0", "w1"),
                   ("g2", "w0", "w1"), ("g3", "w1", "w0")])
TWO_VERTEX = _graph([("g0", "w0", "w0"), ("g1", "w0", "w1"),
                     ("g2", "w1", "w0"), ("g3", "w1", "w1")])

# sha256 of the --format json stdout and the exit code of fc-audit runs
# covering plain instances with length overflows, labeled products of
# ranks 1 and 2, a hand-built table, an axiom failure and a sub that is
# not factor-closed; a speed-up of the audit must leave every byte as it is
FC_AUDIT_PINS = [
    ("four-loops", lambda: _fc_instance(FOUR_LOOPS),
     ["--arity", "4", "--path-len", "4"], 0,
     "5260423a7e0b77e764869f612d44889c43a3259a20ca15485d22b4475a4e0aba"),
    ("parallel-sub", lambda: _fc_instance(
        PARALLEL, _graph([("g0", "w0", "w0")])),
     ["--arity", "3", "--path-len", "4"], 0,
     "8c56b69378d1e7c40841c8b05cc9a3a562d908669d7deabc5e1f2306c7ff0989"),
    ("two-vertex", lambda: _fc_instance(TWO_VERTEX),
     ["--arity", "4", "--path-len", "4"], 0,
     "1a5b012f3f5662ded49480b4f75b882906f0a795b72962e9c6084ef7059a910e"),
    ("labeled-rank1-unreduced-sub", lambda: _fc_instance(
        BIMOD_GRAPH, {"vertices": ["v0"],
                      "edges": [{"id": "e0", "src": "v0", "tgt": "v0"}]},
        instance="labeled", monoid={"rank": 1, "truncation": 2},
        reduced=False),
     ["--arity", "3", "--path-len", "3", "--labels", "2"], 0,
     "247d593cd0b65a21dc8d8294d9cd09b2827b14b95f2503461f80e193f3b4de8b"),
    ("labeled-rank2-reduced", lambda: _fc_instance(
        _graph([("a", "v", "v"), ("b", "v", "v")]), instance="labeled",
        monoid={"rank": 2, "truncation": 2}, reduced=True),
     ["--arity", "3", "--path-len", "3", "--labels", "2"], 0,
     "c96f8c1ddb4acc502e2284e1cd3912db9159a0abb3575904efc071a0ba86d0a7"),
    ("table", lambda: _table_doc(), ["--arity", "3"], 0,
     "26c184ae30a608a6e56b7e737cdfffee339144b013899763b834b221461b553f"),
    ("corrupted-table", lambda: _table_doc(result_for_left_unit="u"),
     ["--arity", "3"], 1,
     "f056021eb456ccc165658d534d78a213ed0d59047a01661c6ea3be44371d4d29"),
    ("not-factor-closed", lambda: _fc_instance(
        graph_to_doc(build_pair_graph(["a", "b"])),
        {"vertices": ["a", "b"],
         "edges": [{"id": "a->b", "src": "a", "tgt": "b"}]}),
     ["--arity", "3", "--path-len", "3"], 1,
     "6b83b59e24ccf376cea33cfaaad019fcf94f9555fa86477d36787237f78b7923"),
]


@pytest.mark.parametrize("name, make_doc, flags, code, digest",
                         FC_AUDIT_PINS, ids=[p[0] for p in FC_AUDIT_PINS])
def test_fc_audit_json_bytes_are_pinned(capsys, monkeypatch, tmp_path, name,
                                        make_doc, flags, code, digest):
    write(tmp_path, f"{name}.json", make_doc())
    # named relative to the working directory, since the report's
    # "command" holds the path
    monkeypatch.chdir(tmp_path)
    got, out, _ = run(capsys, ["fc-audit", f"{name}.json", *flags,
                               "--format", "json"])
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_free_d2_unknown_preset(capsys):
    code, _, err = run(capsys, ["free-d2", "nope"])
    assert code == 2 and "preset" in err


def test_free_d2_curved_note_follows_the_document(capsys, tmp_path):
    # a document's "reduced" field decides; --unreduced cannot override it
    for reduced in (True, False):
        fc = build_Ainf_operad(TRIVIAL_MONOID, reduced)
        path = write(tmp_path, f"ainf-{reduced}.json", freedg_to_doc(fc))
        code, out, _ = run(capsys, ["free-d2", f"generalized:{path}",
                                    "--arity", "3"])
        assert code in (0, 1) and ("curved variant" in out) is not reduced
        code, out, err = run(capsys, ["free-d2", f"generalized:{path}",
                                      "--unreduced"])
        assert code == 2 and not out
        assert err.startswith("error: --unreduced") and "reduced" in err


def test_free_d2_generalized_file(capsys, tmp_path):
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    path = write(tmp_path, "bimod.json",
                 freedg_to_doc(fc, gens=fc.generators(3)))
    code, out, _ = run(capsys, ["free-d2", f"generalized:{path}"])
    assert code == 0
    assert "all 9 generators" in out


def _custom_rules_doc():
    base = build_Ainf_operad(LabelMonoid(1, 1))
    gens = base.generators(2)
    fc = FreeDgFc(base.labeling, preset="custom",
                  custom_rules={g: base.delta_generator(g) for g in gens})
    return freedg_to_doc(fc, gens=gens)


def _bimodule_free_doc():
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    return dict(freedg_to_doc(fc, gens=fc.generators(2)),
                differential="generalized")


def test_free_d2_rule_term_off_its_generator_exits_2(capsys, tmp_path):
    doc = _custom_rules_doc()
    # one input more on an inner factor: the term leaves its generator's
    # profile
    inner = next(r for r in doc["rules"] if r["terms"])["terms"][0]["inner"]
    inner["inputs"].append("e")
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, ["free-d2", f"generalized:{path}"])
    assert code == 2 and not out
    assert "has profile" in err


def test_free_d2_rmodule_parts(capsys):
    code, out, _ = run(capsys, ["free-d2", "rmodule", "--objects", "3",
                                "--parts", "o1;o2,o3", "--arity", "3"])
    assert code == 0


def test_free_d2_parallel_loops_square_not_zero(capsys, tmp_path):
    # two loops b, c on one vertex: the arity-1 generators m[b;c] and
    # m[c;b] compose onto the unit profiles b;b and c;c, where the reduced
    # structure has no generator whose differential could cancel the
    # composite, so delta^2 = 0 is promised only without parallel edges
    path = write(tmp_path, "bc.json", _one_vertex_docs(["b", "c"])["free-d2"])
    code, out, _ = run(capsys, ["free-d2", f"generalized:{path}",
                                "--arity", "2", "--path-len", "2"])
    assert code == 1
    assert "delta^2 NONZERO on 8 of 10 generators:" in out
    assert "m[c;b](m[b;c](b))" in out


# -------------------------------------------------------------- graph-check


def _one_vertex_docs(ids):
    """A graph-check, fc-audit, free-d2 and algebra-check document on one
    vertex with a loop per id."""
    graph = {"vertices": ["v"],
             "edges": [{"id": i, "src": "v", "tgt": "v"} for i in ids]}
    point = {"basis": [{"id": "x", "degree": 0}], "differential": []}
    return {
        "graph-check": {"format_version": 1, "kind": "graph",
                        "graph": graph},
        "fc-audit": {"format_version": 1, "kind": "fc-instance",
                     "instance": "profile-loop", "graph": graph},
        "free-d2": {"format_version": 1, "kind": "free-dg", "graph": graph,
                    "differential": "generalized"},
        "algebra-check": {"format_version": 1, "kind": "algebra-check",
                          "graph": graph, "preset": "generalized",
                          "complexes": {i: point for i in ids}},
    }


@pytest.mark.parametrize("ids, clean", [
    (["a", "b", "a,b"], ["a", "b", "c"]),
    (["a", "b;a", "a;b", "b"], ["a", "c", "d", "b"]),
    (["", "b"], ["c", "b"]),
], ids=["comma", "semicolon", "empty"])
def test_ambiguous_edge_ids_are_invalid_input(capsys, tmp_path, ids, clean):
    # printed profile-loops join edge ids with "," and ";": such ids once
    # made a free loop instance fail its own axioms
    flags = ["--arity", "2", "--path-len", "2"]
    for command, doc in _one_vertex_docs(clean).items():
        path = write(tmp_path, "clean.json", doc)
        target = f"generalized:{path}" if command == "free-d2" else path
        code, out, _ = run(capsys, [command, target, *flags])
        # a free loop instance satisfies its axioms; free-d2 may fail,
        # since parallel loops give arity-1 generators between them
        assert code == 0 or (code, command) == (1, "free-d2"), command
    for command, doc in _one_vertex_docs(ids).items():
        path = write(tmp_path, "bad.json", doc)
        target = f"generalized:{path}" if command == "free-d2" else path
        code, out, err = run(capsys, [command, target, *flags])
        if command == "graph-check":
            assert code == 1 and "graph: ambiguous edge id" in out
        else:
            assert (code, out) == (2, ""), command
            assert err.startswith("error: ambiguous edge id"), command


def test_graph_check_valid_with_sub_and_partition(capsys, tmp_path):
    path = write(tmp_path, "g.json", {
        "format_version": 1, "kind": "graph", "graph": BIMOD_GRAPH,
        "sub": {"vertices": ["v0", "v1"],
                "edges": [{"id": "e0", "src": "v0", "tgt": "v0"},
                          {"id": "e1", "src": "v1", "tgt": "v1"}]},
        "partition": [["v0"], ["v1"]]})
    code, out, _ = run(capsys, ["graph-check", path])
    assert code == 0
    assert "endpoint-closed(sub): yes" in out
    assert "endpoint-closed(partition): yes" in out


def test_graph_check_dangling_edge_names_it(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {
        "format_version": 1, "kind": "graph",
        "graph": {"vertices": ["v"],
                  "edges": [{"id": "loose", "src": "v", "tgt": "w"}]}})
    code, out, _ = run(capsys, ["graph-check", path])
    assert code == 1
    assert "loose" in out


def test_graph_check_not_closed_witness(capsys, tmp_path):
    path = write(tmp_path, "nc.json", {
        "format_version": 1, "kind": "graph",
        "graph": {"vertices": ["a", "b"],
                  "edges": [{"id": "aa", "src": "a", "tgt": "a"},
                            {"id": "ab", "src": "a", "tgt": "b"}]},
        "sub": {"vertices": ["a", "b"],
                "edges": [{"id": "ab", "src": "a", "tgt": "b"}]}})
    code, out, _ = run(capsys, ["graph-check", path])
    assert code == 1
    assert "NO" in out and "aa" in out


@pytest.mark.parametrize("inside, outside", [("p", "q"), ("q", "p")])
def test_graph_check_witness_between_parallel_edges(capsys, tmp_path,
                                                    inside, outside):
    # u->w edges p and q straddle the sub: the witness closes the sub's
    # path by the one outside it
    edges = [{"id": "p", "src": "u", "tgt": "w"},
             {"id": "q", "src": "u", "tgt": "w"},
             {"id": "l", "src": "u", "tgt": "u"}]
    path = write(tmp_path, "par.json", {
        "format_version": 1, "kind": "graph",
        "graph": {"vertices": ["u", "w"], "edges": edges},
        "sub": {"vertices": ["u", "w"],
                "edges": [e for e in edges if e["id"] in (inside, "l")]}})
    code, out, _ = run(capsys, ["graph-check", path])
    assert code == 1
    assert (f"endpoint-closed(sub): NO: inputs ['{inside}'] from u admit "
            f"the outside output {outside}\n") in out


def test_graph_check_parse_error_location(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["graph-check", str(path)])
    assert code == 2
    assert "line 1" in err


def test_graph_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["graph-check", str(tmp_path / "no.json")])
    assert code == 2


# ---------------------------------------------------------------- fc-audit


def test_fc_audit_profile_loop_with_sub(capsys, tmp_path):
    path = write(tmp_path, "a.json", {
        "format_version": 1, "kind": "fc-instance",
        "instance": "profile-loop", "graph": BIMOD_GRAPH,
        "sub": {"vertices": ["v0"],
                "edges": [{"id": "e0", "src": "v0", "tgt": "v0"}]}})
    code, out, _ = run(capsys, ["fc-audit", path, "--arity", "3",
                                "--path-len", "3"])
    assert code == 0
    assert "factor-closed" in out


def test_fc_audit_not_factor_closed(capsys, tmp_path):
    # the pair graph on a, b with a sub keeping only a->b: a composite
    # inside the sub factors through the unit-like cell ;a->a outside it
    g = build_pair_graph(["a", "b"])
    path = write(tmp_path, "p.json", {
        "format_version": 1, "kind": "fc-instance",
        "instance": "profile-loop", "graph": graph_to_doc(g),
        "sub": {"vertices": ["a", "b"],
                "edges": [{"id": "a->b", "src": "a", "tgt": "b"}]}})
    fc = LoopInstance(g, 3)
    expected = is_factor_closed(fc, FullSub(fc, subgraph(g, ["a", "b"],
                                                         ["a->b"])), 3)
    u, i, v = expected.witness
    flags = ["--arity", "3", "--path-len", "3"]
    code, out, _ = run(capsys, ["fc-audit", path, *flags])
    assert code == 1
    line = ("NOT factor-closed: a->a,a->b;a->b o_1 ;a->a lands inside "
            "with a factor outside")
    assert line == expected.summary()
    assert line in out.splitlines()
    code, out, _ = run(capsys, ["fc-audit", path, *flags,
                                "--format", "json"])
    assert code == 1
    doc = loads_doc(out)
    assert dumps_doc(parse_report_set(doc)) == out
    assert doc["ok"] is False
    report = doc["reports"][-1]
    assert report["report"] == "factor-closed" and not report["ok"]
    assert report["witness"] == [u.id, i, v.id] == [
        "a->a,a->b;a->b", 1, ";a->a"]
    assert report["checked"] == expected.checked


def test_fc_audit_labeled(capsys, tmp_path):
    path = write(tmp_path, "l.json", {
        "format_version": 1, "kind": "fc-instance", "instance": "labeled",
        "graph": LOOP_GRAPH, "monoid": {"rank": 1, "truncation": 2}})
    code, out, _ = run(capsys, ["fc-audit", path, "--arity", "2",
                                "--path-len", "2", "--labels", "1"])
    assert code == 0



@pytest.mark.parametrize("doc, labels", [
    ({"instance": "profile-loop", "graph": BIMOD_GRAPH,
      "sub": {"vertices": ["v0"],
              "edges": [{"id": "e0", "src": "v0", "tgt": "v0"}]}}, []),
    ({"instance": "profile-loop",
      "graph": graph_to_doc(build_pair_graph(["a", "b"]))}, []),
    ({"instance": "labeled", "graph": LOOP_GRAPH,
      "monoid": {"rank": 1, "truncation": 2}}, ["--labels", "1"]),
    ({"instance": "labeled", "graph": BIMOD_GRAPH,
      "monoid": {"rank": 1, "truncation": 1}}, ["--labels", "1"]),
], ids=["bimodule-sub", "pair", "labeled-loop", "labeled-bimodule"])
def test_fc_audit_checked_does_not_fall_as_the_length_bound_rises(
        capsys, tmp_path, doc, labels):
    # a longer path bound adds cells, so every report checks at least
    # the comparisons it checked before
    path = write(tmp_path, "a.json", {"format_version": 1,
                                      "kind": "fc-instance", **doc})
    rows = []
    for length in (1, 2, 3, 4):
        code, out, _ = run(capsys, ["fc-audit", path, "--arity", "3",
                                    "--path-len", str(length), *labels,
                                    "--format", "json"])
        reports = loads_doc(out)["reports"]
        assert code == 0 and all(r["ok"] for r in reports)
        rows.append([(r["report"], r["checked"]) for r in reports])
    for low, high in zip(rows, rows[1:]):
        assert [r for r, _ in low] == [r for r, _ in high]
        assert all(a <= b for (_, a), (_, b) in zip(low, high)), rows
    assert rows[0] != rows[-1]

def _table_doc(result_for_left_unit="m"):
    return {"format_version": 1, "kind": "fc-instance", "instance": "table",
            "graph": LOOP_GRAPH,
            "cells": [{"id": "u", "inputs": ["e"], "output": "e"},
                      {"id": "m", "inputs": ["e", "e"], "output": "e"}],
            "units": {"e": "u"},
            "table": [{"outer": "m", "slot": 1, "inner": "u",
                       "result": result_for_left_unit},
                      {"outer": "m", "slot": 2, "inner": "u", "result": "m"},
                      {"outer": "u", "slot": 1, "inner": "u", "result": "u"},
                      {"outer": "u", "slot": 1, "inner": "m",
                       "result": "m"}]}


def test_fc_audit_hand_built_table(capsys, tmp_path):
    path = write(tmp_path, "t.json", _table_doc())
    code, out, _ = run(capsys, ["fc-audit", path])
    assert code == 0
    assert "skipped out-of-bound" in out


def test_fc_audit_corrupted_table_fails_with_witness(capsys, tmp_path):
    path = write(tmp_path, "t.json", _table_doc(result_for_left_unit="u"))
    code, out, _ = run(capsys, ["fc-audit", path])
    assert code == 1
    assert "FAIL" in out and "m" in out


def test_fc_audit_wrong_composite_profile_fails_cleanly(tmp_path):
    doc = _table_doc()
    doc["table"] += [{"outer": "m", "slot": 2, "inner": "m", "result": "u"}]
    path = write(tmp_path, "t.json", doc)
    src = os.path.dirname(os.path.dirname(fcmc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fcmc.cli", "fc-audit", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL: composite profile on m, 2, m" in proc.stdout
    assert "Traceback" not in proc.stderr


# ------------------------------------------------------------ algebra-check


def test_algebra_check_dual_numbers_both_routes(capsys, tmp_path):
    path = write(tmp_path, "d.json", dual_doc())
    code, out, _ = run(capsys, ["algebra-check", path])
    assert code == 0
    assert "[generic]" in out and "[ainf-direct]" in out
    assert "routes-agree: yes" in out


def test_algebra_check_perturbed_fails_arity3(capsys, tmp_path):
    path = write(tmp_path, "p.json", perturbed_doc())
    code, out, _ = run(capsys, ["algebra-check", path, "--arity", "4"])
    assert code == 1
    assert "lowest arity 3" in out
    assert "residue" in out
    assert "routes-agree: yes" in out


def test_algebra_check_single_routes(capsys, tmp_path):
    path = write(tmp_path, "d.json", dual_doc())
    for route in ("generic", "direct"):
        code, out, _ = run(capsys, ["algebra-check", path, "--route", route])
        assert code == 0


def test_algebra_check_direct_unavailable(capsys, tmp_path):
    # a custom rule table is the one presentation without a direct route:
    # one message, whichever route asks for it
    base = build_Ainf_operad(TRIVIAL_MONOID)
    custom = FreeDgFc(base.labeling, preset="custom",
                      custom_rules={g: base.delta_generator(g)
                                    for g in base.generators(2)})
    _, A = lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": 1}, ("eps", "eps"): {}})
    path = write(tmp_path, "c.json", algebra_job_to_doc(custom, A))
    for route in ("direct", "both"):
        code, out, err = run(capsys, ["algebra-check", path, "--route",
                                      route])
        assert (code, out, err) == (
            2, "", "error: no direct checker for preset 'custom'\n")
    with pytest.raises(AlgebraError,
                       match="no direct checker for preset 'custom'"):
        check_direct(custom, A, 3)
    # any rule table, the empty one included, is the custom preset
    for rules in ({}, dict(custom.custom_rules)):
        with pytest.raises(AlgebraError,
                           match="no direct checker for preset 'custom'"):
            check_direct(FreeDgFc(base.labeling, custom_rules=rules), A, 3)
    # every preset with the standard splitting has the direct route
    doc = dual_doc()
    doc["preset"] = "generalized"
    fc = build_preset("left-module", TRIVIAL_MONOID, objects=["o1"])
    cx = make_complex([("x", 0)], {})
    mod_doc = algebra_job_to_doc(fc, AlgebraData(
        EndX(fc.graph, {e.id: cx for e in fc.graph.edges}), {}))
    assert mod_doc["preset"] == "left-module"
    for name, preset_doc in (("g.json", doc), ("m.json", mod_doc)):
        path = write(tmp_path, name, preset_doc)
        code, out, _ = run(capsys, ["algebra-check", path])
        assert code in (0, 1) and "routes-agree: yes" in out
        assert f"[{preset_doc['preset']}-direct]" in out
    for preset in ("left-module", "right-module", "rmodule", "generalized"):
        rep = check_direct(FreeDgFc(base.labeling, preset=preset), A,
                           3)
        assert rep.ok and rep.route == f"{preset}-direct"


def test_algebra_check_bad_assignment_profile(capsys, tmp_path):
    doc = dual_doc()
    doc["assignment"][0]["output"] = "missing-edge"
    path = write(tmp_path, "b.json", doc)
    code, _, err = run(capsys, ["algebra-check", path])
    assert code == 2


# e0 ends at v0 and e1 starts at v1, so "e0,e1" is no path, although its
# first source and last target are e01's endpoints
NON_PATH = {"inputs": ["e0", "e1"], "output": "e01", "label": [0]}


def _non_path_assignment_doc():
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    X = EndX(fc.graph, {e: make_complex([(f"b{e}", -1)], {})
                        for e in ("e0", "e01", "e1")})
    doc = algebra_job_to_doc(fc, AlgebraData(X, {}))
    doc["assignment"] = [dict(NON_PATH, degree=1, entries=[])]
    return doc


def _non_path_table_doc():
    return {"format_version": 1, "kind": "fc-instance", "instance": "table",
            "graph": BIMOD_GRAPH,
            "cells": [{"id": f"u{e}", "inputs": [e], "output": e}
                      for e in ("e0", "e01", "e1")] + [dict(NON_PATH, id="c")],
            "units": {e: f"u{e}" for e in ("e0", "e01", "e1")},
            "table": []}


def _non_path_generator_doc():
    doc = _bimodule_free_doc()
    doc["generators"].append(dict(NON_PATH, name="m[e0,e1;e01]"))
    return doc


@pytest.mark.parametrize("argv, make_doc", [
    (["algebra-check", "--route", "generic"], _non_path_assignment_doc),
    (["algebra-check", "--route", "direct"], _non_path_assignment_doc),
    (["algebra-check", "--route", "both"], _non_path_assignment_doc),
    (["fc-audit"], _non_path_table_doc),
    (["free-d2"], _non_path_generator_doc),
], ids=["algebra-generic", "algebra-direct", "algebra-both", "fc-audit",
        "free-d2"])
def test_non_path_word_exits_2(capsys, tmp_path, argv, make_doc):
    path = write(tmp_path, "bad.json", make_doc())
    if argv[0] == "free-d2":
        path = f"generalized:{path}"
    code, out, err = run(capsys, argv[:1] + [path] + argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_algebra_check_custom_rules_survive_the_document(capsys, tmp_path):
    # the standard rules up to arity 3, as a custom presentation read back
    # from its document; the dual-number product below is not associative,
    # which only the arity-3 rule sees
    base = build_Ainf_operad(TRIVIAL_MONOID)
    fc, _ = freedg_from_doc(freedg_to_doc(FreeDgFc(
        base.labeling,
        custom_rules={g: base.delta_generator(g)
                      for g in base.generators(3)})))
    _, A = lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1, "eps": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": -1}, ("eps", "eps"): {}})
    doc = algebra_job_to_doc(fc, A)
    path = write(tmp_path, "custom.json", doc)
    code, out, _ = run(capsys, ["algebra-check", path, "--route", "generic",
                                "--arity", "3"])
    assert code == 1
    assert "lowest arity 3" in out
    assert doc["preset"] == "custom" and len(doc.get("rules", [])) == 2


def _d_squared_nonzero_doc():
    doc = dual_doc()
    doc["complexes"]["e"] = {
        "basis": [{"id": "a", "degree": 0}, {"id": "b", "degree": 1},
                  {"id": "c", "degree": 2}],
        "differential": [{"from": "a", "to": "b", "coeff": "1"},
                         {"from": "b", "to": "c", "coeff": "1"}]}
    return doc


def _unknown_basis_id_doc():
    doc = dual_doc()
    doc["assignment"][0]["entries"][0]["inputs"][0] = "nowhere"
    return doc


@pytest.mark.parametrize("make_doc", [_d_squared_nonzero_doc,
                                      _unknown_basis_id_doc])
def test_algebra_check_bad_complex_or_map_exits_2(tmp_path, make_doc):
    path = write(tmp_path, "bad.json", make_doc())
    src = os.path.dirname(os.path.dirname(fcmc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "fcmc.cli",
                           "algebra-check", path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _edit(make_doc, edit):
    def make():
        doc = make_doc()
        edit(doc)
        return doc
    return make


def _basis(doc):
    return doc["complexes"]["e"]["basis"]


def _graph_with_partition_doc():
    return {"format_version": 1, "kind": "graph", "graph": BIMOD_GRAPH,
            "partition": [["v0"], ["v1"]]}


def _graph_doc_with_ids(vertex, edge):
    return {"format_version": 1, "kind": "graph",
            "graph": {"vertices": [vertex, "v"],
                      "edges": [{"id": edge, "src": "v", "tgt": vertex}]}}


def _labeled_doc():
    return {"format_version": 1, "kind": "fc-instance", "instance": "labeled",
            "graph": LOOP_GRAPH, "monoid": {"rank": 1, "truncation": 2}}


def _text(make_doc, old, new):
    """A document's text with its first ``old`` replaced by ``new``: for
    texts no dict can hold, such as an object with a repeated key."""
    def make():
        text = dumps_doc(make_doc())
        assert old in text
        return text.replace(old, new, 1)
    return make


MALFORMED = [
    ("algebra-check", "basis-no-degree",
     _edit(dual_doc, lambda d: _basis(d)[0].pop("degree"))),
    ("algebra-check", "basis-degree-not-int",
     _edit(dual_doc, lambda d: _basis(d)[0].update(degree="x"))),
    ("algebra-check", "basis-entry-not-object",
     _edit(dual_doc, lambda d: _basis(d).__setitem__(0, "x"))),
    ("algebra-check", "map-degree-not-int",
     _edit(dual_doc, lambda d: d["assignment"][0].update(degree="x"))),
    ("algebra-check", "monoid-rank-not-int",
     _edit(dual_doc, lambda d: d["monoid"].update(rank="x"))),
    ("algebra-check", "label-coordinate-not-int",
     _edit(dual_doc, lambda d: d["assignment"][0].update(label=["a"]))),
    ("algebra-check", "complexes-not-object",
     _edit(dual_doc, lambda d: d.update(complexes=[]))),
    ("algebra-check", "preset-not-string",
     _edit(dual_doc, lambda d: d.update(preset=5))),
    # an id no basis declares is malformed whatever its coefficient
    ("algebra-check", "zero-entry-to-unknown-id",
     _edit(dual_doc, lambda d: d["assignment"][0]["entries"].append(
         dict(d["assignment"][0]["entries"][0], output="nowhere",
              coeff="0")))),
    ("algebra-check", "zero-differential-to-unknown-id",
     _edit(dual_doc, lambda d: d["complexes"]["e"]["differential"].append(
         {"from": "1", "to": "nowhere", "coeff": "0"}))),
    ("fc-audit", "unit-names-unknown-cell",
     _edit(_table_doc, lambda d: d.update(units={"e": "nowhere"}))),
    ("fc-audit", "result-names-unknown-cell",
     _edit(_table_doc, lambda d: d["table"][0].update(result="nowhere"))),
    ("fc-audit", "slot-not-int",
     _edit(_table_doc, lambda d: d["table"][0].update(slot="x"))),
    ("fc-audit", "slot-float",
     _edit(_table_doc, lambda d: d["table"][1].update(slot=1.9))),
    ("fc-audit", "slot-bool",
     _edit(_table_doc, lambda d: d["table"][1].update(slot=True))),
    # rows the audit could never read, or that silently replace another
    ("fc-audit", "conflicting-duplicate-row",
     _edit(lambda: _table_doc("u"), lambda d: d["table"].append(
         {"outer": "m", "slot": 1, "inner": "u", "result": "m"}))),
    ("fc-audit", "slot-zero",
     _edit(_table_doc, lambda d: d["table"][0].update(slot=0))),
    ("fc-audit", "slot-beyond-arity",
     _edit(_table_doc, lambda d: d["table"][0].update(slot=7))),
    ("fc-audit", "outer-names-unknown-cell",
     _edit(_table_doc, lambda d: d["table"][0].update(outer="nowhere"))),
    ("fc-audit", "inner-names-unknown-cell",
     _edit(_table_doc, lambda d: d["table"][0].update(inner="nowhere"))),
    # the audit asks every used edge for its unit
    ("fc-audit", "no-unit-for-used-edge",
     _edit(_table_doc, lambda d: d.update(units={}))),
    ("graph-check", "partition-not-list",
     _edit(_graph_with_partition_doc, lambda d: d.update(partition=5))),
    ("graph-check", "null-ids", lambda: _graph_doc_with_ids(None, None)),
    ("graph-check", "integer-ids", lambda: _graph_doc_with_ids(1, 2)),
    ("fc-audit", "reduced-string",
     _edit(_labeled_doc, lambda d: d.update(reduced="false"))),
    # a second rule for one generator would silently replace the first
    ("free-d2", "duplicate-rule",
     _edit(_custom_rules_doc, lambda d: d["rules"].append(
         dict(d["rules"][0], terms=[])))),
    # a generator listed twice would be swept and counted twice
    ("free-d2", "repeated-generator",
     _edit(_bimodule_free_doc, lambda d: d["generators"].append(
         d["generators"][0]))),
    # a repeated key, whose last value JSON readers silently keep: at the
    # top level, in a nested object and in an array's object
    ("free-d2", "repeated-key-reduced",
     _text(_bimodule_free_doc, '"reduced": true',
           '"reduced": true,\n  "reduced": false')),
    ("fc-audit", "repeated-key-units",
     _text(_table_doc, '"e": "u"', '"e": "m",\n    "e": "u"')),
    ("algebra-check", "repeated-key-coeff",
     _text(dual_doc, '"coeff": "-1"',
           '"coeff": "0",\n          "coeff": "-1"')),
]


# the field an error message must name, where that is pinned
NAMED_FIELD = {"preset-not-string": "field 'preset'",
               "zero-entry-to-unknown-id": "unknown basis id 'nowhere'",
               "zero-differential-to-unknown-id":
                   "unknown basis id 'nowhere'",
               "no-unit-for-used-edge": "error: no unit declared for edge 'e'",
               "repeated-generator": "duplicate generator",
               "repeated-key-reduced": "duplicate key 'reduced'",
               "repeated-key-units": "duplicate key 'e'",
               "repeated-key-coeff": "duplicate key 'coeff'"}


@pytest.mark.parametrize("command, name, make_doc",
                         [pytest.param(c, n, m, id=f"{c}-{n}")
                          for c, n, m in MALFORMED])
def test_malformed_document_exits_2(tmp_path, command, name, make_doc):
    path = write(tmp_path, "bad.json", make_doc())
    src = os.path.dirname(os.path.dirname(fcmc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    if command == "free-d2":  # free-d2 reads a document as a preset
        path = f"generalized:{path}"
    proc = subprocess.run([sys.executable, "-m", "fcmc.cli", command, path],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert NAMED_FIELD.get(name, "") in proc.stderr


@pytest.mark.parametrize("command", ["free-d2", "graph-check", "fc-audit",
                                     "algebra-check"])
def test_non_utf8_document_exits_2(tmp_path, command):
    # also documents that decode but not parse: nesting past the recursion
    # limit, and an integer literal past Python's digit limit
    payloads = [b'\xff\xfe{"a":1}', b"[" * 200_000 + b"]" * 200_000,
                b'{"format_version": ' + b"1" * 5000 + b"}"]
    path = tmp_path / "bad.json"
    target = f"generalized:{path}" if command == "free-d2" else str(path)
    src = os.path.dirname(os.path.dirname(fcmc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for payload in payloads:
        path.write_bytes(payload)
        proc = subprocess.run(
            [sys.executable, "-m", "fcmc.cli", command, target],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        assert not proc.stdout


# ------------------------------------------------------- output discipline


def test_json_output_round_trips_and_is_deterministic(capsys, tmp_path):
    path = write(tmp_path, "p.json", perturbed_doc())
    argv = ["algebra-check", path, "--arity", "3", "--format", "json",
            "--seed", "11"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 1
    assert out1 == out2
    doc = loads_doc(out1)
    assert dumps_doc(parse_report_set(doc)) == out1
    assert doc["seed"] == 11
    assert doc["ok"] is False
    assert doc["bounds"] == {"arity": 3, "labels": 2, "path_len": 4}


def test_text_output_deterministic(capsys):
    _, out1, _ = run(capsys, ["free-d2", "category", "--arity", "4"])
    _, out2, _ = run(capsys, ["free-d2", "category", "--arity", "4"])
    assert out1 == out2


def test_seed_recorded_in_text(capsys):
    _, out, _ = run(capsys, ["free-d2", "ainf", "--seed", "9"])
    assert "seed: 9" in out


# ------------------------------------------------------ exit-code contract
#
# Valid documents of every subcommand (free-d2 reads its document as a
# generalized:FILE preset), mutated a few times each: a field or array item
# dropped, a value replaced by one of another type, two ids swapped, an
# array truncated.  Whatever the document, the run must end with 0 (PASS),
# 1 (FAIL) or 2 (error: ...), and never with a traceback.

FUZZ_BASES = [
    (["fc-audit", "--arity", "3", "--path-len", "3"],
     {"format_version": 1, "kind": "fc-instance",
      "instance": "profile-loop", "graph": BIMOD_GRAPH,
      "sub": {"vertices": ["v0"],
              "edges": [{"id": "e0", "src": "v0", "tgt": "v0"}]}}),
    (["fc-audit", "--arity", "2", "--path-len", "2", "--labels", "1"],
     {"format_version": 1, "kind": "fc-instance", "instance": "labeled",
      "graph": LOOP_GRAPH, "monoid": {"rank": 1, "truncation": 2},
      "reduced": False, "sub": LOOP_GRAPH}),
    (["fc-audit", "--arity", "3"], _table_doc()),
    (["graph-check"],
     {"format_version": 1, "kind": "graph", "graph": BIMOD_GRAPH,
      "sub": {"vertices": ["v0", "v1"],
              "edges": [{"id": "e0", "src": "v0", "tgt": "v0"},
                        {"id": "e1", "src": "v1", "tgt": "v1"}]},
      "partition": [["v0"], ["v1"]]}),
    (["algebra-check", "--arity", "3"], dual_doc()),
    (["algebra-check", "--arity", "3", "--route", "direct"],
     perturbed_doc()),
    (["free-d2", "--arity", "3"], _custom_rules_doc()),
    (["free-d2", "--arity", "3", "--labels", "1"], _bimodule_free_doc()),
]

OTHER_TYPES = [None, True, False, 0, -1, 2, 1.0, 1.5, "", "x", [], {}]


def _paths(node, at=()):
    """Every (path, value) below the root, containers before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield at + (key,), child
        yield from _paths(child, at + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    argv, base = draw(st.sampled_from(FUZZ_BASES))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["drop", "retype", "swap", "truncate"]))
        if kind == "swap":
            strings = [p for p, v in paths if isinstance(v, str)]
            if len(strings) < 2:
                continue
            a, b = draw(st.lists(st.sampled_from(strings), min_size=2,
                                 max_size=2, unique=True))
            pa, pb = _parent(doc, a), _parent(doc, b)
            pa[a[-1]], pb[b[-1]] = pb[b[-1]], pa[a[-1]]
        elif kind == "truncate":
            arrays = [p for p, v in paths if isinstance(v, list) and v]
            if not arrays:
                continue
            path = draw(st.sampled_from(arrays))
            arr = _parent(doc, path)[path[-1]]
            del arr[draw(st.integers(0, len(arr) - 1)):]
        else:
            if not paths:
                continue
            path, value = draw(st.sampled_from(paths))
            parent = _parent(doc, path)
            if kind == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(st.sampled_from(
                    [v for v in OTHER_TYPES if type(v) is not type(value)]))
    return argv, doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_documents())
def test_mutated_documents_keep_the_exit_code_contract(fuzz_dir, case):
    argv, doc = case
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc))
    target = f"generalized:{path}" if argv[0] == "free-d2" else str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], target, *argv[1:]])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and not out
    else:
        verdict = "verdict: PASS" if code == 0 else "verdict: FAIL"
        assert out.endswith(verdict + "\n"), out
