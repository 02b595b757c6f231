from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fcmc.graphs import CompositionError, GraphError, make_graph, profile_loop
from fcmc.labels import TRIVIAL_MONOID, LabelMonoid, label
from fcmc.multicat import TableInstance, TwoCell, check_axioms
from fcmc.freedg import (PRESETS, FreeDgFc, build_Ainf_bimodule,
                         build_Ainf_operad, build_preset)
from fcmc.chain import ChainError, EndX, make_complex, multimap
from fcmc.algebra import AlgebraData, check_algebra, lift_dga
from fcmc.serde import (
    SerdeError,
    algebra_job_from_doc,
    algebra_job_to_doc,
    check_report_doc,
    complex_from_doc,
    complex_to_doc,
    dumps_doc,
    freedg_from_doc,
    freedg_to_doc,
    generator_from_doc,
    generator_to_doc,
    graph_from_doc,
    graph_to_doc,
    instance_from_doc,
    loads_doc,
    multimap_from_doc,
    multimap_to_doc,
    parse_report,
    parse_report_set,
    relation_report_from_doc,
    report_set_to_doc,
    report_to_doc,
    scalar_from_str,
    scalar_to_str,
    table_instance_to_doc,
)


def dual():
    return lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": 1}, ("eps", "eps"): {}})


# ------------------------------------------------------------------ scalars


def test_scalar_strings():
    assert scalar_to_str(5) == "5"
    assert scalar_to_str(Fraction(-3, 7)) == "-3/7"
    assert scalar_from_str("22/4") == Fraction(11, 2)
    assert scalar_from_str("-9") == -9


def test_integral_coefficients_read_as_int():
    for text in ("2", "4/2"):
        c = scalar_from_str(text)
        assert type(c) is int and c == 2
    c = scalar_from_str("3/2")
    assert type(c) is Fraction and c == Fraction(3, 2)


def test_scalar_rejects_numbers_and_junk():
    with pytest.raises(SerdeError):
        scalar_from_str(0.5)
    with pytest.raises(SerdeError):
        scalar_from_str("1/0")
    with pytest.raises(SerdeError):
        scalar_from_str("one half")


@given(st.fractions())
def test_scalar_round_trip(q):
    assert scalar_from_str(scalar_to_str(q)) == q


# ---------------------------------------------------------------- documents


def test_loads_doc_rejects_a_repeated_key_at_any_depth():
    for text in ('{"a": 1, "a": 1}', '{"a": [{"b": 1, "c": 2, "b": 3}]}'):
        with pytest.raises(SerdeError, match="duplicate key"):
            loads_doc(text)
    assert loads_doc('{"a": {"a": 1}, "b": [{"a": 2}]}') == {
        "a": {"a": 1}, "b": [{"a": 2}]}


def test_loads_doc_errors_carry_location():
    with pytest.raises(SerdeError, match="line 1"):
        loads_doc("{nope")
    with pytest.raises(SerdeError, match="object"):
        loads_doc("[1, 2]")


def test_dumps_doc_is_canonical():
    a = dumps_doc({"b": 1, "a": 2})
    b = dumps_doc({"a": 2, "b": 1})
    assert a == b


# ------------------------------------------------------------------- graphs


def test_graph_round_trip():
    g = make_graph(["v0", "v1"], [("e0", "v0", "v0"), ("e01", "v0", "v1")])
    doc = graph_to_doc(g)
    assert graph_to_doc(graph_from_doc(doc)) == doc


def test_graph_from_doc_validates():
    doc = {"vertices": ["v"], "edges": [{"id": "e", "src": "v",
                                         "tgt": "nowhere"}]}
    with pytest.raises(GraphError, match="nowhere"):
        graph_from_doc(doc)
    assert graph_from_doc(doc, validate=False).edges[0].tgt == "nowhere"


def test_graph_from_doc_missing_fields():
    with pytest.raises(SerdeError, match="edges"):
        graph_from_doc({"vertices": []})
    with pytest.raises(SerdeError, match="src"):
        graph_from_doc({"vertices": ["v"], "edges": [{"id": "e",
                                                      "tgt": "v"}]})


# -------------------------------------------------------------- complexes


def test_complex_round_trip():
    cx = make_complex([("x", 0), ("y", 1), ("z", 1)],
                      {"x": {"y": Fraction(1, 2), "z": -1}})
    doc = complex_to_doc(cx)
    assert complex_to_doc(complex_from_doc(doc)) == doc


def test_complex_from_doc_validates_d_squared():
    doc = {"basis": [{"id": "a", "degree": 0}, {"id": "b", "degree": 1},
                     {"id": "c", "degree": 2}],
           "differential": [{"from": "a", "to": "b", "coeff": "1"},
                            {"from": "b", "to": "c", "coeff": "1"}]}
    with pytest.raises(ChainError):
        complex_from_doc(doc)


def test_multimap_round_trip():
    _, A = dual()
    for xi in A.assignment.values():
        doc = multimap_to_doc(xi)
        assert multimap_to_doc(multimap_from_doc(A.X, doc)) == doc


def test_multimap_degree_defaults_to_one():
    _, A = dual()
    doc = {"inputs": ["e", "e"], "output": "e",
           "entries": [{"inputs": ["1", "1"], "output": "1",
                        "coeff": "-1"}]}
    assert multimap_from_doc(A.X, doc).degree == 1


# ------------------------------------------------------------------ freedg


def test_freedg_round_trip_named():
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    doc = freedg_to_doc(fc, gens=fc.generators(3))
    fc2, gens = freedg_from_doc(doc)
    assert freedg_to_doc(fc2, gens=gens) == doc
    assert fc2.preset == "bimodule"
    assert len(gens) == 9


def test_freedg_round_trip_custom_rules():
    base = build_Ainf_operad(TRIVIAL_MONOID)
    gen = base.generators(3)[-1]
    fc = FreeDgFc(base.labeling, preset="custom",
                  custom_rules={gen: base.delta_generator(gen)})
    doc = freedg_to_doc(fc)
    fc2, _ = freedg_from_doc(doc)
    assert freedg_to_doc(fc2) == doc
    assert fc2.delta_generator(gen) == base.delta_generator(gen)
    other = base.generators(2)[0]
    assert fc2.delta_generator(other).is_zero()
    empty = FreeDgFc(base.labeling, custom_rules={})
    assert freedg_to_doc(empty)["differential"] == "custom"


def _round_trip_cases():
    objects, parts = ["o1", "o2"], [["o1"], ["o2"]]
    monoid = LabelMonoid(1, 1)
    cases = {name: build_preset(name, monoid, True, objects, parts)
             for name in PRESETS}
    base = cases["ainf"]
    cases["generalized"] = FreeDgFc(base.labeling)
    cases["custom"] = FreeDgFc(base.labeling, custom_rules={
        g: base.delta_generator(g) for g in base.generators(3)})
    cases["empty table"] = FreeDgFc(base.labeling, custom_rules={})
    return cases


@pytest.mark.parametrize("case", [*PRESETS, "generalized", "custom",
                                  "empty table"])
def test_freedg_round_trip_keeps_the_differential(case):
    fc = _round_trip_cases()[case]
    fc2, _ = freedg_from_doc(freedg_to_doc(fc))
    assert fc2.preset == fc.preset == (
        "custom" if case == "empty table" else case)
    assert fc2.custom_rules == fc.custom_rules
    gens = fc.generators(4)
    assert fc2.generators(4) == gens
    for g in gens:
        assert fc2.delta_generator(g) == fc.delta_generator(g), g.name


def test_freedg_rejects_unknown_differential():
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    doc = dict(freedg_to_doc(fc), differential="mystery")
    with pytest.raises(CompositionError, match="mystery"):
        freedg_from_doc(doc)


def test_freedg_requires_version():
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    doc = dict(freedg_to_doc(fc))
    del doc["format_version"]
    with pytest.raises(SerdeError, match="format_version"):
        freedg_from_doc(doc)


def test_generator_doc_uses_basepoint_for_empty_inputs():
    fc = build_Ainf_operad(TRIVIAL_MONOID, reduced=False)
    nullary = [g for g in fc.generators(2) if g.arity() == 0][0]
    doc = generator_to_doc(nullary)
    assert doc["basepoint"] == "v"
    assert generator_from_doc(fc, doc) == nullary


# --------------------------------------------------------- fc instances


def test_instance_from_doc_profile_loop_and_sub():
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    doc = {"format_version": 1, "kind": "fc-instance",
           "instance": "profile-loop", "graph": graph_to_doc(fc.graph),
           "sub": {"vertices": ["v0"],
                   "edges": [{"id": "e0", "src": "v0", "tgt": "v0"}]}}
    inst, sub = instance_from_doc(doc, 3)
    assert check_axioms(inst, 3).ok
    assert sub is not None
    assert all(set(c.profile.inputs.edges) <= {"e0"} for c in sub.cells())


def test_instance_from_doc_labeled_caps_truncation():
    g = make_graph(["v"], [("e", "v", "v")])
    doc = {"format_version": 1, "kind": "fc-instance", "instance": "labeled",
           "graph": graph_to_doc(g), "monoid": {"rank": 1, "truncation": 3}}
    inst, _ = instance_from_doc(doc, 2, label_bound=1)
    assert max(c.label.total() for c in inst.cells()) == 1


def test_table_instance_round_trip():
    g = make_graph(["v"], [("e", "v", "v")])
    from fcmc.graphs import EdgePath, ProfileLoop
    loop1 = ProfileLoop(EdgePath(("e",), "v", "v"), "e")
    loop2 = ProfileLoop(EdgePath(("e", "e"), "v", "v"), "e")
    inst = TableInstance(
        g, [TwoCell("u", loop1), TwoCell("m", loop2)], {"e": "u"},
        {("m", 1, "u"): "m", ("m", 2, "u"): "m", ("u", 1, "u"): "u",
         ("u", 1, "m"): "m"})
    doc = table_instance_to_doc(inst)
    inst2, _ = instance_from_doc(doc, 4)
    assert table_instance_to_doc(inst2) == doc
    assert check_axioms(inst2, 3).ok


def test_labeled_table_instance_round_trip():
    g = make_graph(["v"], [("e", "v", "v")])
    loop1 = profile_loop(g, ["e"], "e")
    cells = [TwoCell("u", loop1, label(0)), TwoCell("p", loop1, label(1)),
             TwoCell("m", profile_loop(g, ["e", "e"], "e"), label(0))]
    inst = TableInstance(
        g, cells, {"e": "u"},
        {("u", 1, "u"): "u", ("u", 1, "p"): "p", ("p", 1, "u"): "p",
         ("u", 1, "m"): "m", ("m", 1, "u"): "m", ("m", 2, "u"): "m"})
    doc = table_instance_to_doc(inst)
    assert [c.get("label") for c in doc["cells"]] == [[0], [1], [0]]
    inst2, _ = instance_from_doc(doc, 4)
    assert inst2.cells() == cells
    assert table_instance_to_doc(inst2) == doc
    assert check_axioms(inst2, 3) == check_axioms(inst, 3)


def test_instance_from_doc_unknown_kind():
    g = make_graph(["v"], [("e", "v", "v")])
    doc = {"format_version": 1, "kind": "fc-instance", "instance": "weird",
           "graph": graph_to_doc(g)}
    with pytest.raises(SerdeError, match="weird"):
        instance_from_doc(doc, 2)


# ------------------------------------------------------------ algebra jobs


def test_algebra_job_round_trip():
    fc, A = dual()
    doc = algebra_job_to_doc(fc, A)
    fc2, A2 = algebra_job_from_doc(doc)
    assert algebra_job_to_doc(fc2, A2) == doc
    assert check_algebra(fc2, A2, 5).ok


def test_algebra_job_round_trip_labeled_m0():
    # an empty-input map needs its generator's basepoint in the document
    fc = build_Ainf_operad(LabelMonoid(1, 1))
    X = EndX(fc.graph, {"e": make_complex([("a", 1)], {})})
    m0 = fc.generator(profile_loop(fc.graph, [], "e"), label(1))
    A = AlgebraData(X, {m0: multimap(X, (), "e", 1, {(): {"a": 1}})})
    doc = loads_doc(dumps_doc(algebra_job_to_doc(fc, A)))
    assert doc["assignment"][0]["basepoint"] == "v"
    fc2, A2 = algebra_job_from_doc(doc)
    assert algebra_job_to_doc(fc2, A2) == doc
    [(gen, xi)] = A2.assignment.items()
    assert gen == m0 and xi.table == {(): {"a": 1}}


def test_algebra_job_duplicate_assignment():
    fc, A = dual()
    doc = algebra_job_to_doc(fc, A)
    doc["assignment"] = doc["assignment"] + doc["assignment"][:1]
    with pytest.raises(SerdeError, match="duplicate"):
        algebra_job_from_doc(doc)


# ----------------------------------------------------------------- reports


def _all_reports():
    fc, A = dual()
    from fcmc.freedg import delta_squared_report
    from fcmc.multicat import FullSub, LoopInstance, is_factor_closed
    inst = LoopInstance(fc.graph, 3)
    sub = FullSub(inst, fc.graph)
    return [
        delta_squared_report(fc, 4),
        check_axioms(inst, 3),
        is_factor_closed(inst, sub, 3),
        check_algebra(fc, A, 4),
    ]


def test_report_docs_round_trip():
    for rep in _all_reports():
        doc = report_to_doc(rep)
        text = dumps_doc(doc)
        back = parse_report(loads_doc(text))
        assert dumps_doc(back) == text


def test_relation_report_object_round_trip():
    fcp, Ap = lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1, "eps": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": -1}, ("eps", "eps"): {}})
    rep = check_algebra(fcp, Ap, 4)
    doc = report_to_doc(rep)
    rep2 = relation_report_from_doc(doc)
    assert rep2 == rep
    assert report_to_doc(rep2) == doc


def test_parse_report_rejects_bad_docs():
    with pytest.raises(SerdeError):
        parse_report({"format_version": 1, "kind": "report",
                      "report": "axioms", "ok": True})
    with pytest.raises(SerdeError):
        parse_report({"format_version": 1, "kind": "report",
                      "report": "nonsense", "ok": True})
    with pytest.raises(SerdeError):
        parse_report({"kind": "report", "report": "check", "ok": True,
                      "name": "n", "detail": "d"})


def test_report_set_round_trip():
    docs = [report_to_doc(r) for r in _all_reports()]
    docs.append(check_report_doc("graph", True, "valid"))
    rset = report_set_to_doc("free-d2 ainf", {"arity": 5, "labels": 2,
                                              "path_len": 4}, 0, docs,
                             ["a note"])
    text = dumps_doc(rset)
    assert dumps_doc(parse_report_set(loads_doc(text))) == text
    broken = dict(rset, ok=not rset["ok"])
    with pytest.raises(SerdeError, match="inconsistent"):
        parse_report_set(broken)
