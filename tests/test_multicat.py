from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from fcmc.graphs import (
    CompositionError,
    EdgePath,
    GraphError,
    ProfileLoop,
    build_bimodule_graph,
    build_pair_graph,
    build_partition_subgraph,
    endpoint_violation,
    identity_loop,
    is_loop_of,
    make_graph,
    partition_subgraph,
    profile_loop,
    subgraph,
)
from fcmc import multicat
from fcmc.cli import main
from fcmc.labels import LabelError, LabelMonoid, LabelingFc, label
from fcmc.multicat import (
    AxiomReport,
    FactorReport,
    FcInstance,
    _check_associativity,
    _check_gamma_orders,
    _count_associativity,
    _Indexed,
    OutOfBound,
    TableInstance,
    TwoCell,
    FullSub,
    LoopInstance,
    cell_token,
    check_axioms,
    gamma,
    is_factor_closed,
    loop_token,
    substituted_profile,
)
from fcmc.serde import dumps_doc, graph_to_doc
from oracles import ref_factor_closed, ref_gamma_orders
from test_acceptance import all_subgraphs, graph_family


def single_loop():
    return make_graph(["v"], [("e", "v", "v")])


def cell_of(fc, edges, output, label=None):
    """Look up the instance cell over a given profile (and label)."""
    g = fc.graph
    loop = profile_loop(g, edges, output)
    for c in fc.cells():
        if c.profile == loop and c.label == label:
            return c
    raise AssertionError(f"no cell over {edges};{output} with label {label}")


def table_from_instance(fc, bound):
    """Materialize a free-like instance into an explicit TableInstance."""
    cells = [c for c in fc.cells() if c.arity() <= bound]
    ids = {c.id for c in cells}
    units = {}
    for e in fc.graph.edges:
        u = fc.unit(e.id)
        if u.id in ids:
            units[e.id] = u.id
    table = {}
    by_out = {}
    for c in cells:
        by_out.setdefault(c.profile.output, []).append(c)
    for u in cells:
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            for v in by_out.get(eid, []):
                uv = fc.compose(u, i, v)
                if not isinstance(uv, OutOfBound) and uv.id in ids:
                    table[(u.id, i, v.id)] = uv.id
    return TableInstance(fc.graph, cells, units, table)


# ---------------------------------------------------------------- unit cells

def test_identity_cell_profile_loop_instance():
    fc = LoopInstance(single_loop(), 3)
    u = fc.unit("e")
    assert u.profile.inputs.edges == ("e",)
    assert u.profile.output == "e"
    assert len(u.profile.inputs.edges) == 1


def test_identity_cell_labeled_is_zero():
    lfc = LabelingFc(single_loop(), LabelMonoid(1, 2), reduced=False)
    fc = LoopInstance(lfc.graph, 3, lfc)
    assert fc.unit("e").label == label(0)


def test_identity_cell_missing_edge():
    fc = LoopInstance(single_loop(), 3)
    with pytest.raises(GraphError):
        fc.unit("zz")


# --------------------------------------------------------------- composition

def test_compose_with_unit_is_identity():
    fc = LoopInstance(build_bimodule_graph(), 4)
    u = cell_of(fc, ["e0", "e01", "e1"], "e01")
    for i, eid in enumerate(u.profile.inputs.edges, start=1):
        assert fc.compose(u, i, fc.unit(eid)) == u
    assert fc.compose(fc.unit("e01"), 1, u) == u


def test_compose_substitution_on_bimodule_graph():
    fc = LoopInstance(build_bimodule_graph(), 5)
    u = cell_of(fc, ["e0", "e01", "e1"], "e01")
    v = cell_of(fc, ["e0", "e01"], "e01")
    uv = fc.compose(u, 2, v)
    assert uv.profile.inputs.edges == ("e0", "e0", "e01", "e1")
    assert uv.profile.output == "e01"


def test_compose_empty_inner_removes_slot():
    fc = LoopInstance(build_bimodule_graph(), 4)
    u = cell_of(fc, ["e0", "e01"], "e01")
    empty = cell_of(fc, [], "e0")
    uv = fc.compose(u, 1, empty)
    assert uv.profile.inputs.edges == ("e01",)


def test_compose_slot_mismatch():
    fc = LoopInstance(build_bimodule_graph(), 4)
    u = cell_of(fc, ["e0", "e01"], "e01")
    v = cell_of(fc, ["e1"], "e1")
    with pytest.raises(CompositionError):
        fc.compose(u, 1, v)
    with pytest.raises(CompositionError):
        fc.compose(u, 3, v)


def test_compose_out_of_bound_length():
    fc = LoopInstance(single_loop(), 2)
    u = cell_of(fc, ["e", "e"], "e")
    assert fc.compose(u, 1, u) == OutOfBound(
        "length", "input length 3 exceeds bound 2")


def test_labeled_composition_adds_labels():
    lfc = LabelingFc(single_loop(), LabelMonoid(1, 2), reduced=False)
    fc = LoopInstance(lfc.graph, 3, lfc)
    u = cell_of(fc, ["e"], "e", label(1))
    uv = fc.compose(u, 1, u)
    assert uv.label == label(2)
    # one more unit of label leaves the truncation
    assert fc.compose(uv, 1, u) == OutOfBound(
        "label", "label (3) exceeds truncation 2")
    # the label is checked before the length
    long = cell_of(fc, ["e", "e", "e"], "e", label(2))
    assert fc.compose(long, 1, long) == OutOfBound(
        "label", "label (4) exceeds truncation 2")


def test_table_instance_missing_entry_is_out_of_bound():
    fc = _loop_table({"1": 1, "m": 2}, [("m", 1, "1", "m")])
    m, one = cell_of(fc, ["e", "e"], "e"), fc.unit("e")
    assert fc.compose(m, 1, one) == m
    assert fc.compose(m, 2, one) == OutOfBound(
        "missing-entry", "no table entry for ('m', 2, '1')")


def test_out_of_bound_kind_is_required_and_known():
    with pytest.raises(TypeError):
        OutOfBound("input length 3 exceeds bound 2")
    with pytest.raises(ValueError, match="unknown out-of-bound kind"):
        OutOfBound("arity", "input length 3 exceeds bound 2")


def test_labeled_fiber_example():
    g = build_bimodule_graph()
    lfc = LabelingFc(g, LabelMonoid(1, 1), reduced=False)
    fc = LoopInstance(lfc.graph, 2, lfc)
    over = [c.label for c in fc.cells()
            if c.profile == profile_loop(g, ["e0"], "e0")]
    assert set(over) == {label(0), label(1)}


def test_label_additivity_everywhere():
    lfc = LabelingFc(build_bimodule_graph(), LabelMonoid(1, 2), reduced=False)
    fc = LoopInstance(lfc.graph, 3, lfc)
    cells = fc.cells()
    by_out = {}
    for c in cells:
        by_out.setdefault(c.profile.output, []).append(c)
    seen = 0
    for u in cells:
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            for v in by_out.get(eid, []):
                uv = fc.compose(u, i, v)
                if isinstance(uv, OutOfBound):
                    continue
                assert uv.label.coords == tuple(
                    a + b for a, b in zip(u.label.coords, v.label.coords))
                seen += 1
    assert seen > 100


# --------------------------------------------------------------------- gamma

def test_gamma_of_units_is_identity():
    fc = LoopInstance(build_bimodule_graph(), 4)
    u = cell_of(fc, ["e0", "e01", "e1"], "e01")
    ids = [fc.unit(e) for e in u.profile.inputs.edges]
    assert gamma(fc, u, ids) == u


def test_gamma_order_independence_exhaustive():
    fc = LoopInstance(build_bimodule_graph(), 3)
    cells = fc.cells()
    by_out = {}
    for c in cells:
        by_out.setdefault(c.profile.output, []).append(c)
    compared = 0
    for u in cells:
        n = u.arity()
        if n < 2:
            continue
        slots = [by_out.get(e, []) for e in u.profile.inputs.edges]
        for inners in itertools.product(*slots):
            results = [gamma(fc, u, inners, order)
                       for order in itertools.permutations(range(1, n + 1))]
            concrete = [r for r in results if not isinstance(r, OutOfBound)]
            if len(concrete) > 1:
                assert all(r == concrete[0] for r in concrete)
                compared += 1
    assert compared > 50


def test_gamma_labeled_additivity():
    lfc = LabelingFc(single_loop(), LabelMonoid(1, 3), reduced=False)
    fc = LoopInstance(lfc.graph, 4, lfc)
    u = cell_of(fc, ["e", "e"], "e", label(1))
    inners = [cell_of(fc, ["e"], "e", label(1)),
              cell_of(fc, [], "e", label(1))]
    out = gamma(fc, u, inners)
    assert out.label == label(3)
    assert out.profile.inputs.edges == ("e",)


def test_gamma_validation():
    fc = LoopInstance(build_bimodule_graph(), 4)
    u = cell_of(fc, ["e0", "e01"], "e01")
    good = [cell_of(fc, [], "e0"), fc.unit("e01")]
    with pytest.raises(CompositionError):
        gamma(fc, u, good[:1])
    with pytest.raises(CompositionError):
        gamma(fc, u, good, order=[1, 1])


# -------------------------------------------------------------------- audits

def test_check_axioms_profile_loop_instances():
    for g in (single_loop(),
              build_bimodule_graph(),
              make_graph(["v"], [("a", "v", "v"), ("b", "v", "v")])):
        report = check_axioms(LoopInstance(g, 3), 3)
        assert report.ok, report.summary()
        assert report.checked > 0


def test_check_axioms_labeled_instance():
    lfc = LabelingFc(build_bimodule_graph(), LabelMonoid(1, 2), reduced=False)
    report = check_axioms(LoopInstance(lfc.graph, 3, lfc), 3)
    assert report.ok, report.summary()


def test_check_axioms_reduced_labeling():
    lfc = LabelingFc(single_loop(), LabelMonoid(1, 2), reduced=True)
    report = check_axioms(LoopInstance(lfc.graph, 3, lfc), 3)
    assert report.ok, report.summary()


def test_check_axioms_corrupted_table():
    fc = LoopInstance(single_loop(), 3)
    table = table_from_instance(fc, 3)
    # redirect one unit composition to a wrong cell
    u = cell_of(fc, ["e", "e"], "e")
    unit = fc.unit("e")
    wrong = cell_of(fc, ["e", "e", "e"], "e")
    rows = dict(table.table)
    rows[(u.id, 1, unit.id)] = wrong.id
    table = TableInstance(table.graph, table.cells(), {"e": unit.id}, rows)
    report = check_axioms(table, 3)
    assert not report.ok
    assert report.witness is not None


def test_table_instance_rows_are_read_only():
    # the audit caches the table built from the rows, so edits must fail
    fc = LoopInstance(single_loop(), 3)
    table = table_from_instance(fc, 3)
    assert check_axioms(table, 3).ok
    key = next(iter(table.table))
    with pytest.raises(TypeError):
        table.table[key] = cell_of(fc, ["e"], "e").id
    with pytest.raises(TypeError):
        table.table[("e,e;e", 1, "e,e;e")] = "e;e"
    assert check_axioms(table, 3).ok


def test_table_instance_rejects_a_non_path_cell():
    g = build_bimodule_graph()
    loop = ProfileLoop(EdgePath(("e0", "e1"), "v0", "v1"), "e01")
    with pytest.raises(GraphError, match="invalid profile"):
        TableInstance(g, [TwoCell("c", loop, None)], {}, {})


def test_table_instance_materialization_passes():
    fc = LoopInstance(build_bimodule_graph(), 3)
    report = check_axioms(table_from_instance(fc, 3), 3)
    assert report.ok, report.summary()


def test_table_instance_validation():
    g = single_loop()
    bad_profile = TwoCell("c", profile_loop(g, ["e"], "e"), None)
    with pytest.raises(GraphError):
        TableInstance(g, [bad_profile, bad_profile], {}, {})
    with pytest.raises(GraphError):
        TableInstance(g, [TwoCell("c", profile_loop(g, [], "e"), None)],
                      {"e": "c"}, {})
    unit = TwoCell("c", profile_loop(g, ["e"], "e"), None)
    with pytest.raises(GraphError):
        TableInstance(g, [unit], {"e": "nowhere"}, {})
    with pytest.raises(GraphError):
        TableInstance(g, [unit], {"e": "c"}, {("c", 1, "c"): "nowhere"})
    # a row's key must name declared cells and a slot that can take the
    # inner cell, or the audit could never read it
    with pytest.raises(GraphError):
        TableInstance(g, [unit], {"e": "c"}, {("nowhere", 1, "c"): "c"})
    with pytest.raises(GraphError):
        TableInstance(g, [unit], {"e": "c"}, {("c", 1, "nowhere"): "c"})
    for slot in (0, 2, -1):
        with pytest.raises(CompositionError, match="out of range"):
            TableInstance(g, [unit], {"e": "c"}, {("c", slot, "c"): "c"})
    g2 = make_graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    cells = [TwoCell("c", profile_loop(g2, ["e"], "e"), None),
             TwoCell("d", profile_loop(g2, ["f"], "f"), None)]
    with pytest.raises(CompositionError, match="wants 'e'"):
        TableInstance(g2, cells, {"e": "c", "f": "d"}, {("c", 1, "d"): "c"})


# ------------------------------------------------- full subs, factor-closure

def test_full_sub_on_whole_graph_is_same():
    fc = LoopInstance(build_bimodule_graph(), 3)
    sub = FullSub(fc, fc.graph)
    assert set(c.id for c in sub.cells()) == set(c.id for c in fc.cells())


def test_full_sub_restricts_words():
    g = build_pair_graph(["a", "b"])
    fc = LoopInstance(g, 3)
    part = build_partition_subgraph(["a", "b"], [["a"], ["b"]])
    sub = FullSub(fc, part)
    for c in sub.cells():
        assert "b->a" not in c.profile.inputs.edges
        assert c.profile.output != "b->a"
    assert check_axioms(sub, 3).ok


def test_full_sub_unit_rejects_an_edge_outside():
    g = build_pair_graph(["a", "b"])
    fc = LoopInstance(g, 3)
    sub = FullSub(fc, build_partition_subgraph(["a", "b"], [["a"], ["b"]]))
    assert sub.unit("a->a") == fc.unit("a->a")
    with pytest.raises(GraphError, match="not in the subgraph"):
        sub.unit("b->a")


def test_factor_closed_on_endpoint_closed_sub():
    g = build_pair_graph(["a", "b"])
    fc = LoopInstance(g, 3)
    part = build_partition_subgraph(["a", "b"], [["a"], ["b"]])
    report = is_factor_closed(fc, FullSub(fc, part), 3)
    assert report.ok
    assert report.checked > 0


def test_factor_closed_fails_without_endpoint_closure():
    g = build_pair_graph(["a", "b"])
    fc = LoopInstance(g, 3)
    open_sub = subgraph(g, ["a", "b"], ["a->b"])
    report = is_factor_closed(fc, FullSub(fc, open_sub), 3)
    assert not report.ok
    u, i, v = report.witness
    # the offending composite uses an empty-input (unit-like) insertion
    composite = fc.compose(u, i, v)
    assert set(composite.profile.inputs.edges) <= {"a->b"}
    assert v.arity() == 0 or u.arity() == 1


def test_factor_closed_whole_instance():
    fc = LoopInstance(build_bimodule_graph(), 3)
    report = is_factor_closed(fc, fc, 3)
    assert report.ok


def test_factor_closed_rejects_foreign_sub():
    g = build_pair_graph(["a", "b"])
    h = build_pair_graph(["a", "c"])
    fc = LoopInstance(g, 2)
    other = LoopInstance(h, 2)
    with pytest.raises(GraphError):
        is_factor_closed(fc, other, 2)


def test_factor_closed_rejects_a_cell_the_ambient_lacks():
    # same graph, but the candidate's population reaches length 3 and the
    # ambient's only length 2
    g = build_pair_graph(["a", "b"])
    with pytest.raises(GraphError, match="not a cell of the ambient"):
        is_factor_closed(LoopInstance(g, 2), LoopInstance(g, 3), 2)


def _factor_ids(report):
    """(ok, witness ids, checked) of a FactorReport or an oracle triple."""
    ok, witness, checked = (report if isinstance(report, tuple) else
                            (report.ok, report.witness, report.checked))
    if witness is not None:
        u, i, v = witness
        witness = (u.id, i, v.id)
    return ok, witness, checked


@pytest.mark.parametrize("sub_edges", [["a->a", "b->b"], ["a->b"]],
                         ids=["closed", "open"])
def test_factor_closed_loop_instance_sub_matches_full_sub(sub_edges):
    # the sub's own loop instance misses the cells over edges outside it
    # instead of raising on them
    g = build_pair_graph(["a", "b"])
    fc = LoopInstance(g, 3)
    part = subgraph(g, ["a", "b"], sub_edges)
    assert not LoopInstance(part, 3).contains(cell_of(fc, ["b->a"], "b->a"))
    want = _factor_ids(is_factor_closed(fc, FullSub(fc, part), 3))
    assert _factor_ids(is_factor_closed(fc, LoopInstance(part, 3), 3)) == want
    assert want[0] == (sub_edges != ["a->b"])


@pytest.mark.parametrize("make_fc", [
    lambda g: LoopInstance(g, 3),
    lambda g: table_from_instance(LoopInstance(g, 3), 3),
], ids=["loop", "table"])
def test_factor_closed_matches_oracle(make_fc):
    # at bound 2 some composites of arity 3 lie beyond the cap and count
    beyond = 0
    for g in graph_family()[::3]:
        fc = make_fc(g)
        beyond += sum(map(len, fc._indexed(2).beyond.values()))
        for part in all_subgraphs(g):
            sub = FullSub(fc, part)
            assert (_factor_ids(is_factor_closed(fc, sub, 2))
                    == _factor_ids(ref_factor_closed(fc, sub, 2))), part.edges
    assert beyond > 0


class _CountingLoops(LoopInstance):
    calls = 0

    def compose(self, u, i, v):
        self.calls += 1
        return super().compose(u, i, v)


def test_factor_check_reads_the_axiom_table():
    g = build_pair_graph(["a", "b"])
    fc = _CountingLoops(g, 3)
    assert check_axioms(fc, 3).ok
    swept = fc.calls
    for edges in (["a->a", "b->b"], ["a->b"]):
        is_factor_closed(fc, FullSub(fc, subgraph(g, ["a", "b"], edges)), 3)
    assert fc.calls == swept > 0


def test_factor_check_counts_composites_beyond_the_cap():
    # u o_1 w = c has arity 3: outside the population at bound 2, inside
    # the sub, while u and w use the edge f outside it
    g = make_graph(["v"], [("e", "v", "v"), ("f", "v", "v")])
    u = TwoCell("u", profile_loop(g, ["f", "e"], "e"))
    w = TwoCell("w", profile_loop(g, ["e", "e"], "f"))
    c = TwoCell("c", profile_loop(g, ["e", "e", "e"], "e"))
    fc = TableInstance(g, [u, w, c], {}, {("u", 1, "w"): "c"})
    sub = FullSub(fc, subgraph(g, ["v"], ["e"]))
    assert is_factor_closed(fc, sub, 2) == FactorReport(False, (u, 1, w), 1)


def test_loop_token_readable():
    g = build_bimodule_graph()
    assert loop_token(profile_loop(g, ["e0", "e01"], "e01")) == "e0,e01;e01"
    assert loop_token(profile_loop(g, [], "e0")) == ";e0"


# ------------------------------------------------------ axiom failure kinds
#
# One hand-built table instance per failure kind of check_axioms, over the
# one-loop graph with unit "1" (no unit entries unless listed).  Every
# unlisted composition is out of bound, so the whole report is pinned.  A
# failure's counts include the failing comparison and everything counted
# before it, gamma fillings included.

def _loop_table(arities, entries, labels=None):
    g = single_loop()
    cells = [TwoCell(c, profile_loop(g, ["e"] * n, "e"),
                     None if labels is None else label(labels[c]))
             for c, n in arities.items()]
    table = {(o, i, v): r for o, i, v, r in entries}
    return TableInstance(g, cells, {"e": "1"}, table)


AXIOM_FAILURES = [
    pytest.param(
        {"1": 1, "m": 2},
        [("1", 1, "m", "1")],
        ("left unit law", ("m",), 1, 2), id="left-unit"),
    pytest.param(
        {"1": 1, "m": 2},
        [("1", 1, "m", "m"), ("m", 1, "1", "m"), ("m", 2, "1", "1")],
        ("right unit law", ("m", 2), 3, 2), id="right-unit"),
    pytest.param(
        {"1": 1, "a": 1, "b": 1, "c": 1, "p": 1, "q": 1, "s": 1, "t": 1},
        [("a", 1, "b", "p"), ("p", 1, "c", "q"),
         ("b", 1, "c", "s"), ("a", 1, "s", "t")],
        ("nested associativity", ("a", 1, "b", 1, "c"), 1, 16),
        id="nested"),
    pytest.param(
        {"1": 1, "a": 1, "b": 1, "m": 2, "p": 2, "q": 2, "r": 2, "s": 2},
        [("m", 1, "a", "p"), ("p", 2, "b", "q"),
         ("m", 2, "b", "r"), ("r", 1, "a", "s")],
        ("parallel associativity", ("m", 1, "a", 2, "b"), 1, 21),
        id="parallel"),
    pytest.param(
        {"1": 1, "a": 1, "b": 1, "c": 1,
         "u": 3, "p": 3, "q": 3, "r1": 3, "s": 3, "t": 3, "r2": 3},
        [("u", 1, "a", "p"), ("p", 2, "b", "q"), ("q", 3, "c", "r1"),
         ("u", 3, "c", "s"), ("s", 2, "b", "t"), ("t", 1, "a", "r2")],
        ("gamma order-dependence",
         ("u", ("a", "b", "c"), (1, 2, 3), (3, 2, 1)), 1, 64),
        id="gamma"),
    # m o_2 m names the unary "1", whose one slot the nested-associativity
    # lookup would index past
    pytest.param(
        {"1": 1, "m": 2},
        [("m", 2, "m", "1"), ("m", 2, "1", "m")],
        ("composite profile", ("m", 2, "m"), 1, 4), id="composite-profile"),
]


@pytest.mark.parametrize("arities, entries, expected", AXIOM_FAILURES)
def test_check_axioms_failure_kinds(arities, entries, expected):
    failure, witness, checked, skipped = expected
    report = check_axioms(_loop_table(arities, entries), 3)
    assert report == AxiomReport(False, failure, witness, checked, skipped)


# ------------------------------------------- gamma audit vs the replay oracle


def _gamma_audit(fc, bound):
    """The audit's verdict: (checked, skipped), or the failure and witness."""
    report = _check_gamma_orders(_Indexed(fc, bound), 0, 0)
    if report.ok:
        return report.checked, report.skipped
    return report.failure, report.witness


def _gamma_oracle(fc, bound):
    """ref_gamma_orders on the instance's table, built with fc.compose."""
    cells = [c for c in fc.cells() if c.arity() <= bound]
    idx = {c.id: k for k, c in enumerate(cells)}
    table = {}
    for x, u in enumerate(cells):
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            for k, v in enumerate(cells):
                if v.profile.output == eid:
                    uv = fc.compose(u, i, v)
                    if not isinstance(uv, OutOfBound) and uv.id in idx:
                        table[(x, i, k)] = idx[uv.id]
    plain = [(c.arity(), c.label.total() if c.label is not None else 0,
              c.profile.output, c.profile.inputs.edges) for c in cells]
    result = ref_gamma_orders(plain, table)
    if result[0] == "pass":
        return result[1], result[2]
    _, u, inners, first_order, order = result
    return ("gamma order-dependence",
            (cells[u].id, tuple(cells[k].id for k in inners),
             first_order, order))


def _two_loops():
    return make_graph(["v"], [("a", "v", "v"), ("b", "v", "v")])


def _labeled(g, truncation, reduced):
    return LoopInstance(g, 3, LabelingFc(g, LabelMonoid(1, truncation),
                                         reduced))


LOOP_INSTANCES = pytest.mark.parametrize("make_fc", [
    lambda: LoopInstance(single_loop(), 3),
    lambda: LoopInstance(_two_loops(), 3),
    lambda: LoopInstance(build_bimodule_graph(), 3),
    lambda: LoopInstance(build_pair_graph(["a", "b"]), 3),
    lambda: _labeled(single_loop(), 2, reduced=False),
    lambda: _labeled(single_loop(), 2, reduced=True),
    lambda: _labeled(build_bimodule_graph(), 1, reduced=False),
], ids=["loop", "two-loops", "bimodule", "pair", "labeled-loop",
        "labeled-loop-reduced", "labeled-bimodule"])


@LOOP_INSTANCES
def test_contains_rejects_the_other_label_kind(make_fc):
    # a labeled cell is never a cell of an unlabeled instance, and the
    # reverse, even when its id is the canonical one
    fc = make_fc()
    for c in fc.cells():
        assert fc.contains(c)
        other = label(0) if c.label is None else None
        flipped = TwoCell(cell_token(c.profile, other), c.profile, other)
        assert not fc.contains(flipped)


@LOOP_INSTANCES
def test_contains_agrees_with_the_population(make_fc):
    # seeded words of existing edges, composable or not, read with the
    # endpoints of their first and last edges: a cell is contained iff it
    # is one of cells()
    fc = make_fc()
    g = fc.graph
    population = set(fc.cells())
    edges = g.edge_ids()
    labels = [None] if fc.labeling is None else LabelMonoid(
        1, fc.labeling.monoid.truncation + 1).elements()
    rng = random.Random(17)
    hits = 0
    for _ in range(400):
        word = tuple(rng.choice(edges)
                     for _ in range(rng.randint(0, fc.max_len + 1)))
        if word:
            src, tgt = g.edge(word[0]).src, g.edge(word[-1]).tgt
        else:
            src = tgt = rng.choice(g.vertex_ids())
        loop = ProfileLoop(EdgePath(word, src, tgt), rng.choice(edges))
        beta = rng.choice(labels)
        cell = TwoCell(cell_token(loop, beta), loop, beta)
        assert fc.contains(cell) == (cell in population), cell.id
        hits += cell in population
    assert hits


@LOOP_INSTANCES
def test_compose_and_unit_return_the_population_cells(make_fc):
    # interned cells: every in-bound composite and every unit is the very
    # object the population holds, and out-of-bound reasons are pinned
    fc = make_fc()
    cells = fc.cells()
    own = {id(c) for c in cells}
    for e in fc.graph.edges:
        assert id(fc.unit(e.id)) in own
    lab = fc.labeling
    kinds = set()
    for u in cells:
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            for v in cells:
                if v.profile.output != eid:
                    continue
                uv = fc.compose(u, i, v)
                total = (None if lab is None
                         else u.label.total() + v.label.total())
                length = u.arity() - 1 + v.arity()
                if total is not None and total > lab.monoid.truncation:
                    kinds.add("label")
                    assert uv == OutOfBound(
                        "label", f"label ({total}) exceeds truncation "
                        f"{lab.monoid.truncation}")
                elif length > fc.max_len:
                    kinds.add("length")
                    assert uv == OutOfBound(
                        "length",
                        f"input length {length} exceeds bound {fc.max_len}")
                else:
                    assert id(uv) in own
                    assert uv.profile == substituted_profile(
                        u.profile, i, v.profile)
    assert kinds == ({"length"} if lab is None else {"label", "length"})


@LOOP_INSTANCES
def test_compose_still_rejects_bad_slots_and_ranks(make_fc):
    fc = make_fc()
    u = next(c for c in fc.cells() if c.arity() == 2)
    v = fc.unit(u.profile.inputs.edges[0])
    for i in (0, 3):
        with pytest.raises(CompositionError, match="out of range"):
            fc.compose(u, i, v)
    wrong = next((c for c in fc.cells()
                  if c.profile.output != u.profile.inputs.edges[0]), None)
    if wrong is not None:
        with pytest.raises(CompositionError, match="wants"):
            fc.compose(u, 1, wrong)
    if fc.labeling is not None:
        rank2 = TwoCell(v.id, v.profile, label(0, 0))
        with pytest.raises(LabelError, match="rank mismatch"):
            fc.compose(u, 1, rank2)


def test_loop_instance_rejects_labeling_over_another_graph():
    lfc = LabelingFc(single_loop(), LabelMonoid(1, 1), reduced=False)
    with pytest.raises(GraphError, match="different graph"):
        LoopInstance(build_bimodule_graph(), 3, lfc)


@LOOP_INSTANCES
def test_gamma_audit_matches_oracle_on_instances(make_fc):
    fc = make_fc()
    got = _gamma_audit(fc, 3)
    assert got == _gamma_oracle(fc, 3)
    assert got[0] > 0


@st.composite
def random_tables(draw):
    """A partial, generally non-associative table over one or two loops.

    Several cells share each profile, and every entry names a cell over
    the substituted profile, so orders can disagree but never mis-shape.
    """
    g = draw(st.sampled_from([single_loop(), _two_loops()]))
    edges = [e.id for e in g.edges]
    labeled = draw(st.booleans())
    cells = []
    for k in range(draw(st.integers(3, 10))):
        word = draw(st.lists(st.sampled_from(edges), max_size=3))
        lab = label(draw(st.integers(0, 2))) if labeled else None
        cells.append(TwoCell(f"c{k}", profile_loop(g, word, edges[0]), lab))
    if len(edges) > 1:
        cells += [TwoCell(f"d{k}", profile_loop(g, word, "b"),
                          label(0) if labeled else None)
                  for k, word in enumerate([["b"], [], ["a", "b"]])]
    by_profile = {}
    for c in cells:
        by_profile.setdefault(c.profile, []).append(c.id)
    density = draw(st.floats(0.5, 1.0))
    table = {}
    for u in cells:
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            for v in cells:
                if v.profile.output != eid:
                    continue
                ids = by_profile.get(substituted_profile(u.profile, i,
                                                         v.profile))
                if ids and draw(st.floats(0, 1)) < density:
                    table[(u.id, i, v.id)] = draw(st.sampled_from(ids))
    return TableInstance(g, cells, {}, table), draw(st.integers(2, 3))


@settings(max_examples=300, deadline=None)
@given(case=random_tables())
def test_gamma_audit_matches_oracle_on_random_tables(case):
    fc, bound = case
    assert _gamma_audit(fc, bound) == _gamma_oracle(fc, bound)


# ------------------------------------------ composition table vs a full sweep


def _swept_table(fc, bound):
    """``_Indexed``'s comp (rows as item lists), beyond, bad_profile and
    labels_add, rebuilt by composing every (cell, slot, candidate)."""
    cells = [c for c in fc.cells() if c.arity() <= bound]
    idx = {c.id: k for k, c in enumerate(cells)}
    total = [0 if c.label is None else c.label.total() for c in cells]
    comp, beyond, bad, adds = [], {}, None, True
    for x, u in enumerate(cells):
        rows = []
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            row = []
            for k, v in enumerate(cells):
                if v.profile.output != eid:
                    continue
                uv = fc.compose(u, i, v)
                if isinstance(uv, OutOfBound):
                    continue
                if uv.id not in idx:
                    beyond.setdefault((x, i), {})[k] = uv
                    continue
                row.append((k, idx[uv.id]))
                want = substituted_profile(u.profile, i, v.profile)
                if bad is None and (
                        uv.profile.inputs.edges != want.inputs.edges
                        or uv.profile.output != want.output):
                    bad = (u.id, i, v.id)
                adds = adds and total[idx[uv.id]] == total[x] + total[k]
            rows.append(row)
        comp.append(rows)
    return comp, beyond, bad, adds


def _table_fields(fc, bound):
    ix = _Indexed(fc, bound)
    return ([[list(row.items()) for row in rows] for rows in ix.comp],
            ix.beyond, ix.bad_profile, ix.labels_add)


def _four_loops():
    return make_graph(["v"], [(e, "v", "v") for e in "abcd"])


@LOOP_INSTANCES
def test_table_matches_full_sweep_on_instances(make_fc):
    fc = make_fc()
    assert _table_fields(fc, 3) == _swept_table(fc, 3)


def test_table_matches_full_sweep_on_a_full_sub_and_beyond_the_cap():
    g = build_pair_graph(["a", "b"])
    sub = FullSub(LoopInstance(g, 3), build_partition_subgraph(
        ["a", "b"], [["a"], ["b"]]))
    assert _table_fields(sub, 3) == _swept_table(sub, 3)
    # input length 4 is in bound, arity 4 is beyond the cap
    fc = LoopInstance(_four_loops(), 4)
    got = _table_fields(fc, 3)
    assert got == _swept_table(fc, 3)
    assert got[1]


@settings(max_examples=100, deadline=None)
@given(case=random_tables())
def test_table_matches_full_sweep_on_random_tables(case):
    fc, bound = case
    assert _table_fields(fc, bound) == _swept_table(fc, bound)


class _LengthCounting(LoopInstance):
    def __init__(self, *args):
        super().__init__(*args)
        self.length_rows = {}

    def compose(self, u, i, v):
        uv = super().compose(u, i, v)
        if isinstance(uv, OutOfBound) and uv.kind == "length":
            key = (u.id, i)
            self.length_rows[key] = self.length_rows.get(key, 0) + 1
        return uv


@pytest.mark.parametrize("max_len", [3, 4])
def test_table_composes_one_length_overflow_per_row(max_len):
    # a slot's candidates come in ascending arity, and the first length
    # overflow ends the row
    fc = _LengthCounting(_four_loops(), max_len)
    _Indexed(fc, 3)
    assert fc.length_rows
    assert max(fc.length_rows.values()) == 1


# Hand-built tables over the one-loop graph with unary cells and cells of
# one higher arity n: each slot takes any unary cell, so there are
# (n-ary cells) * (unary cells)**n inner tuples, all but one skipped.

def test_gamma_audit_some_orders_complete():
    # only inserting slot 1 first completes: u o_2 b is missing
    fc = _loop_table({"1": 1, "a": 1, "b": 1, "u": 2, "p": 2, "q": 2},
                     [("u", 1, "a", "p"), ("p", 2, "b", "q")])
    expected = (1, 3 * 3 ** 2 - 1)
    assert _gamma_audit(fc, 3) == expected == _gamma_oracle(fc, 3)


CONVERGING = [("u", 1, "a", "p"), ("p", 2, "b", "q1"), ("q1", 3, "c", "r"),
              ("u", 2, "b", "s"), ("s", 1, "a", "q2")]
TERNARY = {"1": 1, "a": 1, "b": 1, "c": 1,
           "u": 3, "p": 3, "s": 3, "q1": 3, "q2": 3, "r": 3, "r2": 3}


def test_gamma_audit_same_mask_different_composites():
    # orders 1,2,3 and 2,1,3 fill slots {1, 2} with q1 and q2, which
    # both give r when c goes in: the full composites agree
    fc = _loop_table(TERNARY, CONVERGING + [("q2", 3, "c", "r")])
    expected = (1, 7 * 4 ** 3 - 1)
    assert _gamma_audit(fc, 3) == expected == _gamma_oracle(fc, 3)
    # ... and when q2 o_3 c is r2 instead, they disagree
    fc = _loop_table(TERNARY, CONVERGING + [("q2", 3, "c", "r2")])
    expected = ("gamma order-dependence",
                ("u", ("a", "b", "c"), (1, 2, 3), (2, 1, 3)))
    assert _gamma_audit(fc, 3) == expected == _gamma_oracle(fc, 3)


# u o_1 a = p1, u o_2 b = p2, u o_3 c = p3, then p1 o_2 b = q12,
# p1 o_3 c = q13 and p2 o_3 c = q23: exactly the orders 1,2,3 / 1,3,2 /
# 2,3,1 fill all three slots, ending in slots 3, 2 and 1
THREE_ORDERS = [("u", 1, "a", "p1"), ("u", 2, "b", "p2"), ("u", 3, "c", "p3"),
                ("p1", 2, "b", "q12"), ("p1", 3, "c", "q13"),
                ("p2", 3, "c", "q23")]
THREE_CELLS = ["u", "p1", "p2", "p3", "q12", "q13", "q23", "t3", "t2", "t1"]
THREE_LAST = [("q12", 3, "c", "t3"), ("q13", 2, "b", "t2"),
              ("q23", 1, "a", "t1")]


def test_gamma_audit_three_distinct_composites():
    # the three completing orders reach t3, t2 and t1, and the witness is
    # the first two orders
    unary = {"1": 1, "a": 1, "b": 1, "c": 1}
    fc = _loop_table(unary | {c: 3 for c in THREE_CELLS},
                     THREE_ORDERS + THREE_LAST)
    expected = ("gamma order-dependence",
                ("u", ("a", "b", "c"), (1, 2, 3), (1, 3, 2)))
    assert _gamma_audit(fc, 3) == expected == _gamma_oracle(fc, 3)


def test_gamma_audit_three_composites_converge():
    # the same prefix one arity up: slots 1-3 reach t3, t2 and t1, a set
    # of three, and filling slot 4 with d takes each of them to r
    unary = {"1": 1, "a": 1, "b": 1, "c": 1, "d": 1}
    fc = _loop_table(unary | {c: 4 for c in THREE_CELLS + ["r"]},
                     THREE_ORDERS + THREE_LAST
                     + [(t, 4, "d", "r") for t in ("t1", "t2", "t3")])
    expected = (1, 11 * 5 ** 4 - 1)
    assert _gamma_audit(fc, 4) == expected == _gamma_oracle(fc, 4)
    # ... and when t3, the third composite the audit meets, goes elsewhere,
    # the orders disagree
    fc = _loop_table(unary | {c: 4 for c in THREE_CELLS + ["r", "r2"]},
                     THREE_ORDERS + THREE_LAST
                     + [("t1", 4, "d", "r"), ("t2", 4, "d", "r"),
                        ("t3", 4, "d", "r2")])
    expected = ("gamma order-dependence",
                ("u", ("a", "b", "c", "d"), (1, 2, 3, 4), (1, 3, 2, 4)))
    assert _gamma_audit(fc, 4) == expected == _gamma_oracle(fc, 4)


def test_gamma_prunes_by_label_only_where_labels_add():
    # the unit 1 with unit rows for 1, a binary m and a ternary t, and
    # m o_1 m = m o_2 m = t; (m; 1, m) and (m; m, 1) complete at t, and
    # labels (0), (1), (1) do not add under m o m = t, so a label budget
    # must not prune them
    rows = [("1", 1, c, c) for c in ("1", "m", "t")]
    rows += [(c, i, "1", c) for c, n in (("m", 2), ("t", 3))
             for i in range(1, n + 1)]
    rows += [("m", 1, "m", "t"), ("m", 2, "m", "t")]
    for labels in (None, {"1": 0, "m": 1, "t": 1}):
        fc = _loop_table({"1": 1, "m": 2, "t": 3}, rows, labels)
        assert fc._indexed(3).labels_add == (labels is None)
        report = check_axioms(fc, 3)
        assert (report.ok, report.checked, report.skipped) == (True, 40, 13)
        assert _gamma_audit(fc, 3) == _gamma_oracle(fc, 3)


# ---------------------------------------------- gamma by coherence, if closed
#
# On a table certified closed, check_axioms counts the gamma fillings in
# closed form instead of sweeping them.  The reference is the same audit
# with the certificate withdrawn, which sweeps.

def _swept_axioms(fc, bound):
    """check_axioms on ``fc`` with the gamma identities swept; ``fc`` must
    be a fresh instance, as its cached table loses its certificate."""
    fc._indexed(bound).closed = False
    return check_axioms(fc, bound)


@pytest.fixture
def no_closed_form(monkeypatch):
    """Make the closed form fail the test wherever it is reached."""
    def closed_form(ix, checked, skipped):
        raise AssertionError("an uncertified table reached the closed form")
    monkeypatch.setattr(multicat, "_count_gamma_fillings", closed_form)


class _UnitFree(FcInstance):
    """A table instance without units: its unit cells compose with
    nothing, so check_axioms skips the unit laws and audits the rest."""

    def __init__(self, table):
        self.graph = table.graph
        self.table = table

    def cells(self):
        return self.table.cells()

    def unit(self, eid):
        return TwoCell("unit", identity_loop(self.graph, eid))

    def compose(self, u, i, v):
        if "unit" in (u.id, v.id):
            return OutOfBound("missing-entry", "no unit")
        return self.table.compose(u, i, v)


# a seeded subset of the acceptance family, fixed here before any run
COHERENCE_GRAPHS = sorted(random.Random(20261020).sample(range(177), 10))


@pytest.mark.parametrize("k", COHERENCE_GRAPHS)
def test_closed_form_matches_the_sweep_on_the_family(k):
    g = graph_family()[k]
    for make_fc in (lambda: LoopInstance(g, 3),
                    lambda: _labeled(g, 2, reduced=False),
                    lambda: _labeled(g, 2, reduced=True)):
        fc = make_fc()
        assert fc._indexed(3).closed
        report = check_axioms(fc, 3)
        assert report.ok
        assert report == _swept_axioms(make_fc(), 3)


@st.composite
def closed_tables(draw, per_class=2):
    """A table over the one-loop graph with one to ``per_class`` cells per
    (arity, label total) class up to drawn caps, and an entry, naming a
    cell of its class, for exactly the pairs that fit the caps: closed by
    construction, and thin with one cell per class.  Entries name the
    first cell of their class (the free loop instance, with the other
    cells as extra inputs) or are drawn."""
    g = single_loop()
    labeled = draw(st.booleans())
    cap_a = draw(st.integers(1, 3))
    cap_l = draw(st.integers(0, 2)) if labeled else 0
    cells, by_class = [], {}
    for n in range(cap_a + 1):
        for t in range(cap_l + 1):
            for c in range(draw(st.integers(1, per_class))):
                cell = TwoCell(f"c{n}.{t}.{c}",
                               profile_loop(g, ["e"] * n, "e"),
                               label(t) if labeled else None)
                cells.append(cell)
                by_class.setdefault((n, t), []).append(cell.id)
    free = draw(st.booleans())
    table = {}
    for u, v in itertools.product(cells, cells):
        n = u.arity() + v.arity() - 1
        t = 0 if not labeled else u.label.total() + v.label.total()
        if u.arity() == 0 or n > cap_a or t > cap_l:
            continue
        ids = by_class[(n, t)]
        for i in range(1, u.arity() + 1):
            table[(u.id, i, v.id)] = (ids[0] if free
                                      else draw(st.sampled_from(ids)))
    return TableInstance(g, cells, {}, table), cap_a


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(closed_tables(), random_tables()))
def test_closed_form_matches_the_sweep_on_random_tables(case):
    table, bound = case
    fc = _UnitFree(table)
    report = check_axioms(fc, bound)
    assert report == _swept_axioms(_UnitFree(table), bound)


@settings(max_examples=30, deadline=None)
@given(case=closed_tables())
def test_closed_tables_are_certified(case):
    table, bound = case
    assert _UnitFree(table)._indexed(bound).closed


def test_a_table_with_an_entry_removed_is_swept(no_closed_form):
    # the materialized loop instances are closed; without any one row a
    # pair that fits has no entry
    for make_fc in (lambda: LoopInstance(single_loop(), 3),
                    lambda: _labeled(single_loop(), 1, reduced=True)):
        full = table_from_instance(make_fc(), 3)
        assert full._indexed(3).closed
        for key in sorted(full.table):
            fc = _without_row(full, key)
            assert not fc._indexed(3).closed, key
            check_axioms(fc, 3)


def _without_row(full, key):
    """The table instance ``full`` with row ``key`` dropped."""
    rows = {k: r for k, r in full.table.items() if k != key}
    return TableInstance(full.graph, full.cells(), {
        e: full.unit(e).id for e in full.graph.edge_ids()}, rows)


# rows of the one-loop table at arity 5 (fc-audit's default), drawn with a
# seed fixed here before any run
ARITY_5_FULL = table_from_instance(LoopInstance(single_loop(), 5), 5)
ARITY_5_DROPPED = random.Random(20261021).sample(sorted(ARITY_5_FULL.table), 4)


@pytest.mark.parametrize("key", ARITY_5_DROPPED, ids=str)
def test_sweep_matches_the_oracle_at_arity_5(key, no_closed_form,
                                             monkeypatch):
    fc = _without_row(ARITY_5_FULL, key)
    assert not fc._indexed(5).closed
    got = _gamma_audit(fc, 5)
    assert got == _gamma_oracle(fc, 5) and got[0] > 0
    # check_axioms sweeps the same fillings on top of its other counts
    counts = []

    def sweep(ix, checked, skipped):
        counts.append((checked, skipped))
        return _check_gamma_orders(ix, checked, skipped)
    monkeypatch.setattr(multicat, "_check_gamma_orders", sweep)
    report = check_axioms(fc, 5)
    [(checked, skipped)] = counts
    assert report == AxiomReport(True, None, None, checked + got[0],
                                 skipped + got[1])


class _Dropping(LoopInstance):
    """A loop instance whose population lacks one cell, which compose
    still returns: within the caps, but beyond the table."""

    def __init__(self, graph, max_len, dropped, labeling=None):
        super().__init__(graph, max_len, labeling)
        self.dropped = dropped

    def cells(self):
        return [c for c in super().cells() if c.id != self.dropped]


def test_a_composite_beyond_the_table_withdraws_the_certificate(
        no_closed_form):
    # e,e;e is within the length bound but not in the population, so
    # (e,e,e;e; ;e, ;e, ;e) completes in no order: a skipped filling,
    # which a closed table never has
    fc = _Dropping(single_loop(), 3, "e,e;e")
    ix = fc._indexed(3)
    assert ix.beyond and not ix.closed
    assert check_axioms(fc, 3).ok
    got = _gamma_audit(fc, 3)
    assert got == _gamma_oracle(fc, 3) and got[1] > 0


class _TightLength(TableInstance):
    """A table whose length bound, 2, is below its population's arity."""

    def compose(self, u, i, v):
        if u.arity() - 1 + v.arity() > 2:
            return OutOfBound("length", "input length exceeds bound 2")
        return super().compose(u, i, v)


def test_a_fitting_pair_skipped_by_length_withdraws_the_certificate():
    # every length overflow the table meets is a pair whose labels do not
    # fit, and every entry present fits; but the candidates the length
    # rule skips after it include pairs that fit (p o_1 c1, b1 o_1 b1,
    # c1 o_1 p)
    g = single_loop()
    cells = [TwoCell(c, profile_loop(g, ["e"] * n, "e"), label(t))
             for c, n, t in [("q", 1, 2), ("p", 1, 1), ("b2", 2, 2),
                             ("b1", 2, 1), ("c2", 3, 2), ("c1", 3, 1)]]
    rows = {("p", 1, "p"): "q", ("p", 1, "b1"): "b2",
            ("b1", 1, "p"): "b2", ("b1", 2, "p"): "b2"}
    ix = _Indexed(_TightLength(g, cells, {}, rows), 3)
    assert ix.labels_add and ix.bad_profile is None
    assert not ix.closed


def test_a_table_whose_labels_do_not_add_is_swept(no_closed_form):
    # every pair that fits has an entry and no other pair has one, but
    # m o_i p = m and m o_i m = t do not add labels; then the label budget
    # does not bound the composites, and counting within it would report
    # 78 checked and 41 skipped
    rows = [("1", 1, c, c) for c in ("1", "z", "p", "m", "t")]
    rows += [(c, i, "1", c) for c, n in (("p", 1), ("m", 2), ("t", 3))
             for i in range(1, n + 1)]
    rows += [("p", 1, "m", "m")]
    rows += [("m", i, v, r) for i in (1, 2)
             for v, r in (("z", "p"), ("p", "m"), ("m", "t"))]
    fc = _loop_table({"1": 1, "z": 0, "p": 1, "m": 2, "t": 3}, rows,
                     {"1": 0, "z": 1, "p": 1, "m": 0, "t": 1})
    ix = fc._indexed(3)
    assert not ix.labels_add and not ix.closed
    assert check_axioms(fc, 3) == AxiomReport(True, None, None, 81, 88)
    assert _gamma_audit(fc, 3) == _gamma_oracle(fc, 3)


PARTIAL_TABLES = [pytest.param(arities, entries, id=p.id)
                  for p in AXIOM_FAILURES
                  for arities, entries, _ in [p.values]] + [
    pytest.param({"1": 1, "a": 1, "b": 1, "u": 2, "p": 2, "q": 2},
                 [("u", 1, "a", "p"), ("p", 2, "b", "q")], id="some-orders"),
    pytest.param(TERNARY, CONVERGING + [("q2", 3, "c", "r")],
                 id="converging"),
    pytest.param({"1": 1, "a": 1, "b": 1, "c": 1}
                 | {c: 3 for c in THREE_CELLS}, THREE_ORDERS + THREE_LAST,
                 id="three-orders"),
]


@pytest.mark.parametrize("arities, entries", PARTIAL_TABLES)
def test_partial_tables_are_swept(arities, entries, no_closed_form):
    fc = _loop_table(arities, entries)
    assert not fc._indexed(3).closed
    check_axioms(fc, 3)


# ------------------------- nested and parallel identities, if closed and thin
#
# On a table certified closed and thin, check_axioms counts the nested and
# parallel identities instead of comparing their routes.  The reference is
# the loops, called on the same table.

def _associativity_both_ways(ix):
    """The count and the loops on one table, from zero counts."""
    return _count_associativity(ix, 0, 0), _check_associativity(ix, 0, 0)


@pytest.fixture
def no_count(monkeypatch):
    """Make the count fail the test wherever it is reached."""
    def count(ix, checked, skipped):
        raise AssertionError("a table that is not thin reached the count")
    monkeypatch.setattr(multicat, "_count_associativity", count)


@pytest.mark.parametrize("make_fc, bound", [
    (lambda g: LoopInstance(g, 3), 3),
    (lambda g: LoopInstance(g, 4), 4),
    (lambda g: LoopInstance(g, 3, LabelingFc(g, LabelMonoid(1, 2), False)),
     3),
], ids=["plain-3", "plain-4", "labeled-3"])
def test_count_matches_the_loops_on_the_family(make_fc, bound):
    # the instances of acceptance 6 that it audits at these bounds
    for g in graph_family():
        ix = make_fc(g)._indexed(bound)
        assert ix.closed and ix.thin, g.edges
        count, loops = _associativity_both_ways(ix)
        assert count == loops, g.edges


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(closed_tables(per_class=1), random_tables()))
def test_count_matches_the_loops_on_random_tables(case):
    table, bound = case
    ix = _UnitFree(table)._indexed(bound)
    if ix.closed and ix.thin:
        count, loops = _associativity_both_ways(ix)
        assert count == loops
    # elsewhere check_axioms loops, as the sweep reference does
    assert check_axioms(_UnitFree(table), bound) == _swept_axioms(
        _UnitFree(table), bound)


def test_count_matches_the_loops_on_the_corrupted_tables():
    # the table of test_check_axioms_corrupted_table, before its unit row
    # is redirected, and the same table over a rank-2 labeling
    g = single_loop()
    for fc in (LoopInstance(g, 3),
               LoopInstance(g, 3, LabelingFc(g, LabelMonoid(2, 1), False))):
        ix = table_from_instance(fc, 3)._indexed(3)
        assert ix.closed and ix.thin
        count, loops = _associativity_both_ways(ix)
        assert count == loops and count.checked > 0
    # redirected, the table is no longer closed, and is looped over
    fc = LoopInstance(g, 3)
    table = table_from_instance(fc, 3)
    rows = dict(table.table)
    rows[(cell_of(fc, ["e", "e"], "e").id, 1, fc.unit("e").id)] = cell_of(
        fc, ["e", "e", "e"], "e").id
    table = TableInstance(g, table.cells(), {"e": fc.unit("e").id}, rows)
    assert not table._indexed(3).closed
    assert check_axioms(table, 3) == _swept_axioms(
        TableInstance(g, table.cells(), {"e": fc.unit("e").id}, rows), 3)


def test_a_closed_table_with_two_cells_over_one_profile_is_looped_over(
        no_count):
    # a and b over e;e, and x o_1 a = b, x o_1 b = a: every pair fits and
    # has an entry, but (a o a) o a = a while a o (a o a) = b
    g = single_loop()
    cells = [TwoCell(c, profile_loop(g, ["e"], "e")) for c in "ab"]
    rows = {(x, 1, y): "b" if y == "a" else "a" for x in "ab" for y in "ab"}
    fc = _UnitFree(TableInstance(g, cells, {}, rows))
    ix = fc._indexed(1)
    assert ix.closed and not ix.thin
    # the count would pass it
    assert _count_associativity(ix, 0, 0).ok
    report = check_axioms(fc, 1)
    assert (report.failure, report.witness) == (
        "nested associativity", ("a", 1, "a", 1, "a"))


def test_a_closed_table_whose_coordinates_do_not_add_is_looped_over(
        no_count):
    # rank-2 labels: z o_1 p = q and z o_1 q = p agree with the factors in
    # total but not in coordinates, so (z o z) o p = q, z o (z o p) = p
    g = single_loop()
    cells = [TwoCell(c, profile_loop(g, ["e"], "e"), label(*co))
             for c, co in (("z", (0, 0)), ("p", (1, 0)), ("q", (0, 1)))]
    rows = {("z", 1, "z"): "z", ("z", 1, "p"): "q", ("z", 1, "q"): "p",
            ("p", 1, "z"): "p", ("q", 1, "z"): "q"}
    fc = _UnitFree(TableInstance(g, cells, {}, rows))
    ix = fc._indexed(1)
    assert ix.closed and ix.labels_add and not ix.thin
    assert _count_associativity(ix, 0, 0).ok
    report = check_axioms(fc, 1)
    assert (report.failure, report.witness) == (
        "nested associativity", ("z", 1, "z", 1, "p"))


def test_coordinate_swaps_withdraw_thinness(no_count):
    # every row of the rank-2 table whose composite has a twin of the same
    # profile and total, redirected to the twin: still closed, not thin
    g = single_loop()
    full = table_from_instance(
        LoopInstance(g, 3, LabelingFc(g, LabelMonoid(2, 1), False)), 3)
    twins = {}
    for c in full.cells():
        twins.setdefault((c.profile, c.label.total()), []).append(c.id)
    by_id = {c.id: c for c in full.cells()}
    caught = 0
    for key, r in sorted(full.table.items()):
        c = by_id[r]
        twin = [t for t in twins[(c.profile, c.label.total())] if t != r]
        if not twin:
            continue
        rows = dict(full.table) | {key: twin[0]}
        fc = TableInstance(g, full.cells(), {"e": full.unit("e").id}, rows)
        ix = fc._indexed(3)
        assert ix.closed and not ix.thin, key
        report = check_axioms(fc, 3)
        assert not report.ok, key
        caught += report.failure in ("nested associativity",
                                     "parallel associativity")
    assert caught > 0


# ------------------------------------------------ labeled tables as products
#
# A labeled loop instance builds its table from its plain instance's table
# and the monoid's addition (LoopInstance._build_table, _Indexed._expand).
# The references are the table _Indexed composes entry by entry, the full
# sweep _swept_table, and the audits on the composed table.

def _every_field(ix):
    """Every field of a table; rows and beyond entries as item lists, so
    that their key order counts."""
    return ([[list(row.items()) for row in rows] for rows in ix.comp],
            [(key, list(extra.items())) for key, extra in ix.beyond.items()],
            ix.cells, ix.arity, ix.by_out, ix.totals, ix.arity_cap,
            ix.label_cap, ix.labels_add, ix.bad_profile, ix.closed, ix.thin)


@pytest.fixture
def expansions(monkeypatch):
    """Count the tables built as products."""
    made = []
    expand = _Indexed._expand

    def counted(ix, fc, plain):
        made.append(fc)
        return expand(ix, fc, plain)
    monkeypatch.setattr(_Indexed, "_expand", counted)
    return made


# members of the acceptance family with at most 40 plain cells at length
# 4 (116 of 177; the others' labeled tables make the full sweep below too
# slow for a unit test), sampled with a seed fixed here before any run
PRODUCT_GRAPHS = sorted(random.Random(20261022).sample(
    [k for k, g in enumerate(graph_family())
     if len(LoopInstance(g, 4).cells()) <= 40], 8))
# (length bound, arity bound); a bound below the length leaves composites
# beyond the table
PRODUCT_SHAPES = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)]


@pytest.mark.parametrize("k", PRODUCT_GRAPHS)
def test_labeled_product_matches_the_composed_table(k, expansions):
    # ranks 1 and 2, truncations 0-2, reduced and unreduced, on every
    # shape; the reports on a seeded sub of each graph too
    g = graph_family()[k]
    part = random.Random(k).choice(list(all_subgraphs(g)))
    for rank, truncation, reduced, (max_len, bound) in itertools.product(
            (1, 2), (0, 1, 2), (False, True), PRODUCT_SHAPES):
        def make():
            return LoopInstance(g, max_len, LabelingFc(
                g, LabelMonoid(rank, truncation), reduced))
        fc, ref = make(), make()
        ref._tables = {bound: _Indexed(ref, bound)}
        got = fc._indexed(bound)
        assert expansions[-1] is fc
        assert _every_field(got) == _every_field(ref._indexed(bound))
        assert _table_fields(fc, bound) == _swept_table(fc, bound)
        assert got.closed and got.thin
        assert check_axioms(fc, bound) == check_axioms(ref, bound)
        assert is_factor_closed(fc, FullSub(fc, part), bound) == (
            is_factor_closed(ref, FullSub(ref, part), bound))


def test_the_product_sample_has_composites_beyond_the_table():
    # a plain composite beyond the table at shape (4, 2) is one beyond the
    # unreduced labeled tables there, at zero labels
    assert sum(len(LoopInstance(graph_family()[k], 4)._indexed(2).beyond)
               for k in PRODUCT_GRAPHS) > 0


class _Corrupting(LoopInstance):
    """A labeled loop instance whose compose gives one composite the
    wrong label: (e,e;e@(0)) o_1 (e;e@(1)) is e,e;e@(2)."""

    def compose(self, u, i, v):
        uv = super().compose(u, i, v)
        if (u.id, i, v.id) == ("e,e;e@(0)", 1, "e;e@(1)"):
            return self._lookup(uv.profile.inputs.edges, "e", (2,))
        return uv


@pytest.fixture
def no_product(monkeypatch):
    """Make the product fail the test wherever it is reached."""
    def expand(ix, fc, plain):
        raise AssertionError("a table was built as a product")
    monkeypatch.setattr(_Indexed, "_expand", expand)


def test_a_labeled_instance_that_composes_otherwise_is_composed(no_product):
    g = single_loop()
    fc = _Corrupting(g, 3, LabelingFc(g, LabelMonoid(1, 2), False))
    ix = fc._indexed(3)
    assert not ix.labels_add and not ix.closed
    assert _table_fields(fc, 3) == _swept_table(fc, 3)
    # the report of the compose build, which composes every labeled pair
    assert check_axioms(fc, 3) == AxiomReport(
        False, "nested associativity",
        ("e,e;e@(0)", 1, "e;e@(1)", 1, ";e@(0)"), 226, 77)


def test_a_labeled_instance_with_another_population_is_composed(
        no_product):
    # e,e;e@(1) is within the bounds but not in the population
    g = single_loop()
    fc = _Dropping(g, 3, "e,e;e@(1)", LabelingFc(g, LabelMonoid(1, 2), False))
    ix = fc._indexed(3)
    assert ix.beyond and not ix.closed
    assert _table_fields(fc, 3) == _swept_table(fc, 3)
    assert check_axioms(fc, 3) == AxiomReport(True, None, None, 619, 325)


# ------------------------------------------------------- renaming invariance

# a seeded subset of the acceptance family, fixed here before any run
RENAMED_GRAPHS = sorted(random.Random(20261019).sample(range(177), 12))


def _renamed(g, rng, reverse=True):
    """``g`` under a seeded bijection of vertex and edge ids, declared in
    reverse order unless ``reverse`` is false, with the two id maps."""
    vids, eids = list(g.vertex_ids()), list(g.edge_ids())
    vmap = dict(zip(vids, rng.sample([f"x{k}" for k in range(len(vids))],
                                     len(vids))))
    emap = dict(zip(eids, rng.sample([f"f{k}" for k in range(len(eids))],
                                     len(eids))))
    order = reversed if reverse else list
    h = make_graph([vmap[v] for v in order(vids)],
                   [(emap[e.id], vmap[e.src], vmap[e.tgt])
                    for e in order(g.edges)])
    return h, vmap, emap


def test_renaming_preserves_audits():
    family = graph_family()
    assert len(family) == 177
    rng = random.Random(7)
    for index in RENAMED_GRAPHS:
        g = family[index]
        h, vmap, emap = _renamed(g, rng)
        for make in (lambda x: LoopInstance(x, 3),
                     lambda x: LoopInstance(x, 3, LabelingFc(
                         x, LabelMonoid(1, 1), False))):
            a, b = check_axioms(make(g), 3), check_axioms(make(h), 3)
            assert ((a.ok, a.failure, a.checked, a.skipped)
                    == (b.ok, b.failure, b.checked, b.skipped)), index
        inst, inst_h = LoopInstance(g, 3), LoopInstance(h, 3)
        for sub in all_subgraphs(g):
            sub_h = subgraph(h, [vmap[v] for v in sub.vertex_ids()],
                             [emap[e] for e in sub.edge_ids()])
            w, w_h = endpoint_violation(g, sub), endpoint_violation(h, sub_h)
            assert (w is None) == (w_h is None), (index, sub.edges)
            if w is not None:
                ins = w.inputs
                mapped = ProfileLoop(
                    EdgePath(tuple(emap[e] for e in ins.edges),
                             vmap[ins.source], vmap[ins.target]),
                    emap[w.output])
                assert is_loop_of(h, mapped) and is_loop_of(h, w_h)
            # a failing report stops at its first failing pair in (u, slot,
            # v) order, which follows declaration order, so ``checked``
            # only has to agree on a full sweep
            f = is_factor_closed(inst, FullSub(inst, sub), 3)
            f_h = is_factor_closed(inst_h, FullSub(inst_h, sub_h), 3)
            assert f.ok == f_h.ok, (index, sub.edges)
            assert not f.ok or f.checked == f_h.checked, (index, sub.edges)


# ------------------------------------------- graph-check and isolated vertices


def _seeded_partition(rng, vids):
    """An ordered partition of ``vids`` into seeded consecutive parts."""
    order = rng.sample(list(vids), len(vids))
    cuts = sorted(rng.sample(range(1, len(order)),
                             rng.randint(0, len(order) - 1)))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [len(order)])]


def _closure_checks(tmp_path, g, sub, parts):
    """graph-check's two endpoint-closed reports, name -> (ok, detail)."""
    path = tmp_path / "graph.json"
    path.write_text(dumps_doc({
        "format_version": 1, "kind": "graph", "graph": graph_to_doc(g),
        "sub": graph_to_doc(sub), "partition": parts}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["graph-check", str(path), "--format", "json"])
    checks = {r["name"]: (r["ok"], r["detail"])
              for r in json.loads(out.getvalue())["reports"]
              if r["name"] != "graph"}
    assert sorted(checks) == ["endpoint-closed(partition)",
                              "endpoint-closed(sub)"]
    assert code == (0 if all(ok for ok, _ in checks.values()) else 1)
    return checks


SUB_WITNESS = re.compile(
    r"NO: inputs (\[.*\]) from (\S+) admit the outside output (\S+)$")
PARTITION_WITNESS = re.compile(r"NO: outside output (\S+)$")


def _witness(name, detail):
    """A failing closure check's witness: (input edges, source, output) for
    the sub, (output,) for the partition."""
    if name == "endpoint-closed(sub)":
        m = SUB_WITNESS.fullmatch(detail)
        return tuple(ast.literal_eval(m.group(1))), m.group(2), m.group(3)
    return (PARTITION_WITNESS.fullmatch(detail).group(1),)


def _map_witness(w, vmap, emap):
    if len(w) == 3:
        return tuple(emap[e] for e in w[0]), vmap[w[1]], emap[w[2]]
    return (emap[w[0]],)


def _violates(g, sub, witness):
    """Is ``witness`` a violation of endpoint-closedness of ``sub`` in g?
    Its output edge must lie outside the sub, and its target must be
    reachable inside the sub from its source (along the given inputs, when
    they are printed)."""
    out = g.edge(witness[-1])
    if sub.has_edge(out.id) or not sub.has_vertex(out.src):
        return False
    if len(witness) == 3:
        inputs, source, _ = witness
        return (source == out.src and all(sub.has_edge(e) for e in inputs)
                and is_loop_of(g, ProfileLoop(
                    EdgePath(inputs, source, out.tgt), out.id)))
    seen, todo = {out.src}, [out.src]
    while todo:
        for e in sub.out_edges(todo.pop()):
            if e.tgt not in seen:
                seen.add(e.tgt)
                todo.append(e.tgt)
    return out.tgt in seen


def test_renaming_preserves_graph_check(tmp_path):
    # the verdicts never change; with declaration order kept the witness
    # is the renamed one, and in reverse order it is still a violation
    family = graph_family()
    rng = random.Random(19)
    for index in RENAMED_GRAPHS:
        g = family[index]
        for reverse in (False, True):
            h, vmap, emap = _renamed(g, rng, reverse)
            back_v = {new: old for old, new in vmap.items()}
            back_e = {new: old for old, new in emap.items()}
            for sub in all_subgraphs(g):
                sub_h = subgraph(h, [vmap[v] for v in sub.vertex_ids()],
                                 [emap[e] for e in sub.edge_ids()])
                parts = _seeded_partition(rng, g.vertex_ids())
                psub = partition_subgraph(g, parts)
                got = _closure_checks(tmp_path, g, sub, parts)
                got_h = _closure_checks(
                    tmp_path, h, sub_h, [[vmap[v] for v in p] for p in parts])
                for name, (ok, detail) in got.items():
                    ok_h, detail_h = got_h[name]
                    assert ok == ok_h, (index, name, sub.edges)
                    if ok:
                        assert detail == detail_h
                        continue
                    w, w_h = _witness(name, detail), _witness(name, detail_h)
                    if not reverse:
                        assert w_h == _map_witness(w, vmap, emap)
                    assert _violates(
                        g, sub if name == "endpoint-closed(sub)" else psub,
                        _map_witness(w_h, back_v, back_e)), (index, name)


# a seeded subset of the acceptance family, fixed here before any run
ISOLATED_GRAPHS = sorted(random.Random(20261020).sample(range(177), 8))


def test_isolated_vertex_changes_no_verdict(tmp_path):
    family = graph_family()
    rng = random.Random(23)
    for index in ISOLATED_GRAPHS:
        g = family[index]
        vids = list(g.vertex_ids())
        h = make_graph(vids + ["iso"], [(e.id, e.src, e.tgt) for e in g.edges])
        for make in (lambda x: LoopInstance(x, 3),
                     lambda x: LoopInstance(x, 3, LabelingFc(
                         x, LabelMonoid(1, 1), False))):
            a, b = check_axioms(make(g), 3), check_axioms(make(h), 3)
            assert ((a.ok, a.failure, a.checked, a.skipped)
                    == (b.ok, b.failure, b.checked, b.skipped)), index
        inst, inst_h = LoopInstance(g, 3), LoopInstance(h, 3)
        for sub in all_subgraphs(g):
            f = is_factor_closed(inst, FullSub(inst, sub), 3)
            parts = _seeded_partition(rng, vids)
            got = _closure_checks(tmp_path, g, sub, parts)
            # the isolated vertex joins a seeded part or gets its own
            k = rng.randrange(len(parts) + 1)
            parts_h = ([p + ["iso"] if j == k else p
                        for j, p in enumerate(parts)] if k < len(parts)
                       else parts + [["iso"]])
            for extra in ([], ["iso"]):
                sub_h = subgraph(h, list(sub.vertex_ids()) + extra,
                                 sub.edge_ids())
                f_h = is_factor_closed(inst_h, FullSub(inst_h, sub_h), 3)
                assert (f.ok, f.checked) == (f_h.ok, f_h.checked), index
                assert got == _closure_checks(tmp_path, h, sub_h, parts_h)
