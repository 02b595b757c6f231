from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from fcmc.graphs import (
    CompositionError,
    DirectedGraph,
    Edge,
    EdgePath,
    GraphError,
    ProfileLoop,
    Vertex,
    build_bimodule_graph,
    build_module_graph,
    build_pair_graph,
    build_partition_subgraph,
    concatenate,
    empty_path,
    endpoint_violation,
    enumerate_paths,
    enumerate_profile_loops,
    is_endpoint_closed,
    is_loop_of,
    is_subgraph,
    make_graph,
    make_path,
    partition_subgraph,
    path_vertices,
    profile_loop,
    subgraph,
    twin_quotient,
    validate_graph,
)
from fcmc.labels import TRIVIAL_MONOID

from oracles import (
    ref_endpoint_closed,
    ref_paths,
    ref_profile_loops,
    ref_subgraphs,
    ref_twin_classes,
)
from test_acceptance import graph_family
from test_algebra import DENSE_CASES


def single_loop():
    return make_graph(["v"], [("e", "v", "v")])


def as_raw(g):
    """(vertices, edge triples) form consumed by the oracle functions."""
    return list(g.vertex_ids()), [(e.id, e.src, e.tgt) for e in g.edges]


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 4))
    vs = [f"v{i}" for i in range(n)]
    m = draw(st.integers(0, 6))
    edges = []
    for k in range(m):
        s = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, n - 1))
        edges.append((f"x{k}", vs[s], vs[t]))
    return make_graph(vs, edges)


# ---------------------------------------------------------------- validation

def test_validate_smallest_graph():
    assert validate_graph(single_loop()).ok


def test_validate_reports_dangling_endpoint():
    g = DirectedGraph([Vertex("v")], [Edge("e", "v", "w")])
    report = validate_graph(g)
    assert not report.ok
    assert any("dangling" in p for p in report.problems)
    with pytest.raises(GraphError, match="dangling"):
        make_graph(["v"], [("e", "v", "w")])


def test_validate_reports_duplicates():
    g = DirectedGraph([Vertex("v"), Vertex("v")], [])
    assert not validate_graph(g).ok
    g = DirectedGraph([Vertex("v")], [Edge("e", "v", "v"), Edge("e", "v", "v")])
    assert any("duplicate edge" in p for p in validate_graph(g).problems)


@pytest.mark.parametrize("ids", [["a", "b", "a,b"], ["a", "b;a", "a;b", "b"],
                                 ["", "b"]], ids=["comma", "semicolon", "empty"])
def test_validate_reports_ambiguous_edge_ids(ids):
    # "a;a" with output "a,b" and "a,b;a" print alike, so ids that are empty
    # or hold a separator of the printed profile-loop are rejected
    g = DirectedGraph([Vertex("v")], [Edge(i, "v", "v") for i in ids])
    bad = [i for i in ids if not i or "," in i or ";" in i]
    assert validate_graph(g).problems == tuple(
        f"ambiguous edge id {i!r} (empty, or holds ',' or ';')" for i in bad)
    with pytest.raises(GraphError, match="ambiguous edge id"):
        make_graph(["v"], [(i, "v", "v") for i in ids])


def test_validate_bimodule_graph():
    assert validate_graph(build_bimodule_graph()).ok


# --------------------------------------------------------------------- paths

def test_make_path_rejects_noncomposable():
    g = build_bimodule_graph()
    with pytest.raises(CompositionError):
        make_path(g, ["e01", "e0"])
    with pytest.raises(GraphError):
        make_path(g, [])  # no basepoint


def test_concatenate_edges():
    g = build_bimodule_graph()
    p = concatenate([make_path(g, ["e0"]), make_path(g, ["e01"])])
    assert p.edges == ("e0", "e01")
    assert (p.source, p.target) == ("v0", "v1")


def test_concatenate_empty_is_identity():
    g = single_loop()
    e = make_path(g, ["e"])
    assert concatenate([empty_path(g, "v"), e]) == e
    assert concatenate([e, empty_path(g, "v")]) == e


def test_concatenate_three_on_bimodule_graph():
    g = build_bimodule_graph()
    p = concatenate([make_path(g, ["e0"]), make_path(g, ["e01"]),
                     make_path(g, ["e1"])])
    assert p.edges == ("e0", "e01", "e1")


def test_concatenate_mismatch():
    g = build_bimodule_graph()
    with pytest.raises(CompositionError):
        concatenate([make_path(g, ["e01"]), make_path(g, ["e01"])])
    with pytest.raises(CompositionError):
        concatenate([])


def test_concatenate_associative_exhaustive():
    # every composable triple on two fixed graphs, path length <= 3
    for g in (build_bimodule_graph(),
              make_graph(["v"], [("a", "v", "v"), ("b", "v", "v")])):
        paths = enumerate_paths(g, 3)
        for p, q, r in itertools.product(paths, repeat=3):
            if p.target != q.source or q.target != r.source:
                continue
            left = concatenate([concatenate([p, q]), r])
            right = concatenate([p, concatenate([q, r])])
            assert left == right == concatenate([p, q, r])


def test_path_vertices():
    g = build_bimodule_graph()
    p = make_path(g, ["e0", "e01", "e1"])
    assert path_vertices(g, p) == ("v0", "v0", "v1", "v1")
    assert path_vertices(g, empty_path(g, "v1")) == ("v1",)


# ------------------------------------------------------- edges between


def _assert_between_is_a_scan(g):
    """``between`` gives, for every ordered pair, the edges of a scan of
    ``g.edges`` in declaration order; a pair without one gives ()."""
    vids = g.vertex_ids()
    empty = 0
    for u in vids:
        for w in vids:
            scan = tuple(e.id for e in g.edges if (e.src, e.tgt) == (u, w))
            assert g.between(u, w) == scan, (g, u, w)
            empty += not scan
    assert g.between("no such vertex", vids[0]) == ()
    return empty


def test_between_is_a_scan_on_the_graph_family():
    family = graph_family()
    assert len(family) == 177
    empty = [_assert_between_is_a_scan(g) for g in family]
    # the family has pairs without an edge and pairs with parallel edges
    assert sum(empty) > 0
    assert any(len(g.between(e.src, e.tgt)) > 1
               for g in family for e in g.edges)


@pytest.mark.parametrize("name", ["two-loops", "parallel-edges"])
def test_between_keeps_parallel_edges_in_declaration_order(name):
    g = DENSE_CASES[name](TRIVIAL_MONOID, True).graph
    _assert_between_is_a_scan(g)
    src, tgt = g.edges[0].src, g.edges[0].tgt
    assert g.between(src, tgt) == ("b", "c")
    # the same edges declared the other way round
    flipped = subgraph(g, g.vertex_ids(), reversed(g.edge_ids()))
    _assert_between_is_a_scan(flipped)
    assert flipped.between(src, tgt) == ("c", "b")


def test_between_is_a_scan_on_built_graphs():
    # subgraphs (edges kept in the order given), partition subgraphs and
    # twin quotients index their own edges
    for g in graph_family():
        vids, eids = g.vertex_ids(), g.edge_ids()
        _assert_between_is_a_scan(subgraph(g, vids, eids[::2]))
        _assert_between_is_a_scan(subgraph(g, vids, eids[::-1]))
        _assert_between_is_a_scan(partition_subgraph(g, [vids[:1],
                                                         vids[1:]]))
        _assert_between_is_a_scan(twin_quotient(g)[0])


def test_enumerate_paths_single_loop():
    got = {(p.source, p.edges) for p in enumerate_paths(single_loop(), 2)}
    assert got == {("v", ()), ("v", ("e",)), ("v", ("e", "e"))}


def test_enumerate_paths_bimodule_len1():
    got = {(p.source, p.edges) for p in enumerate_paths(build_bimodule_graph(), 1)}
    assert got == {("v0", ()), ("v1", ()), ("v0", ("e0",)), ("v1", ("e1",)),
                   ("v0", ("e01",))}


def test_enumerate_paths_no_edges():
    g = make_graph(["a", "b"], [])
    assert {(p.source, p.edges) for p in enumerate_paths(g, 5)} == {
        ("a", ()), ("b", ())}


@given(small_graphs(), st.integers(0, 4))
def test_enumerate_paths_matches_reference(g, max_len):
    got = {(p.source, p.edges) for p in enumerate_paths(g, max_len)}
    assert got == ref_paths(*as_raw(g), max_len)


@given(small_graphs(), st.integers(0, 3), st.integers(0, 3))
@settings(deadline=None)
def test_enumerate_paths_prefix_property(g, m, extra):
    n = m + extra
    shorter = {p for p in enumerate_paths(g, n) if len(p) <= m}
    assert shorter == set(enumerate_paths(g, m))


def test_enumerate_paths_source_target_filters():
    paths = enumerate_paths(build_bimodule_graph(), 3)
    forward = [p.edges for p in paths if (p.source, p.target) == ("v0", "v1")]
    assert forward == [("e01",), ("e0", "e01"), ("e01", "e1"),
                       ("e0", "e0", "e01"), ("e0", "e01", "e1"),
                       ("e01", "e1", "e1")]
    assert not [p for p in paths if (p.source, p.target) == ("v1", "v0")]


# ------------------------------------------------------------- profile-loops

def test_is_loop_of_bimodule():
    g = build_bimodule_graph()
    assert is_loop_of(g, ProfileLoop(make_path(g, ["e0", "e01", "e1"]), "e01"))
    assert not is_loop_of(g, ProfileLoop(make_path(g, ["e1"]), "e0"))
    assert is_loop_of(g, ProfileLoop(empty_path(g, "v0"), "e0"))


def test_is_loop_of_foreign_ids():
    g = build_bimodule_graph()
    assert not is_loop_of(g, ProfileLoop(make_path(g, ["e0"]), "nope"))
    assert not is_loop_of(g, ProfileLoop(EdgePath(("zz",), "v0", "v0"), "e0"))
    assert not is_loop_of(g, ProfileLoop(EdgePath((), "zz", "zz"), "e0"))


def test_is_loop_of_needs_a_path():
    g = build_bimodule_graph()
    # e0 ends at v0 and e1 starts at v1: the word is no path, although
    # its first source and last target are e01's endpoints
    assert not is_loop_of(g, ProfileLoop(EdgePath(("e0", "e1"), "v0", "v1"),
                                         "e01"))
    # a nonempty path must start where its first edge does
    assert not is_loop_of(g, ProfileLoop(EdgePath(("e1",), "v0", "v1"),
                                         "e01"))
    # and end where its last edge does
    assert not is_loop_of(g, ProfileLoop(EdgePath(("e0",), "v0", "v1"),
                                         "e01"))
    # an empty path sits at one vertex
    assert not is_loop_of(g, ProfileLoop(EdgePath((), "v0", "v1"), "e01"))


def test_profile_loop_constructor():
    g = build_bimodule_graph()
    loop = profile_loop(g, ["e0", "e01"], "e01")
    assert loop.arity() == 2
    # empty inputs default their basepoint to the output's source
    assert profile_loop(g, [], "e1").inputs.source == "v1"
    with pytest.raises(CompositionError):
        profile_loop(g, ["e1"], "e01")
    with pytest.raises(CompositionError):
        profile_loop(g, ["e0", "e1"], "e01")
    with pytest.raises(CompositionError):
        profile_loop(g, [], "e01", "v1")
    with pytest.raises(GraphError):
        profile_loop(g, ["e0"], "nope")
    with pytest.raises(GraphError):
        profile_loop(g, ["zz"], "e0")


def test_enumerate_profile_loops_single_loop():
    got = {(l.inputs.source, l.inputs.edges, l.output)
           for l in enumerate_profile_loops(single_loop(), 1)}
    assert got == {("v", (), "e"), ("v", ("e",), "e")}


def test_enumerate_profile_loops_bimodule():
    loops = {(l.inputs.source, l.inputs.edges, l.output)
             for l in enumerate_profile_loops(build_bimodule_graph(), 3)}
    assert len(loops) == 14  # frozen from the reference enumeration
    assert ("v0", ("e0", "e01", "e1"), "e01") in loops
    assert ("v0", ("e0", "e01"), "e01") in loops
    # e1 starts at v1, so no loop with output e1 can have inputs from v0
    assert not any(out == "e1" and src == "v0" for src, _, out in loops)
    assert not any(out == "e0" and "e01" in mid for _, mid, out in loops)


def test_enumerate_profile_loops_no_edges():
    assert enumerate_profile_loops(make_graph(["a"], []), 3) == []


@given(small_graphs(), st.integers(0, 3))
def test_profile_loops_match_reference(g, max_len):
    got = {(l.inputs.source, l.inputs.edges, l.output)
           for l in enumerate_profile_loops(g, max_len)}
    assert got == ref_profile_loops(*as_raw(g), max_len)


@given(small_graphs())
def test_profile_loops_lie_in_enumerations(g):
    paths = set(enumerate_paths(g, 3))
    for loop in enumerate_profile_loops(g, 3):
        assert loop.inputs in paths
        assert g.has_edge(loop.output)
        assert is_loop_of(g, loop)


# ------------------------------------------------------------------ builders

def test_pair_graph_sizes():
    assert len(build_pair_graph(["v"]).edges) == 1
    assert len(build_pair_graph(["a", "b"]).edges) == 4
    assert len(build_pair_graph(["a", "b", "c"]).edges) == 9


def test_module_graphs():
    left = build_module_graph(["v"], "left")
    assert len(left.vertices) == 2 and len(left.edges) == 2
    assert len(build_module_graph(["a", "b"], "left").edges) == 6
    right = build_module_graph(["a", "b"], "right")
    assert right.out_edges("*") == ()
    assert len([e for e in right.edges if e.tgt == "*"]) == 2
    with pytest.raises(GraphError):
        build_module_graph(["*", "v"], "left")
    with pytest.raises(GraphError):
        build_module_graph(["v"], "up")


def test_bimodule_graph_shape():
    g = build_bimodule_graph()
    assert len(g.edges) == 3
    assert g.edge("e01").src == "v0" and g.edge("e01").tgt == "v1"
    assert not any(e.src == "v1" and e.tgt == "v0" for e in g.edges)


def test_partition_subgraph_two_singletons():
    sub = build_partition_subgraph(["a", "b"], [["a"], ["b"]])
    assert set(sub.edge_ids()) == {"a->a", "a->b", "b->b"}


def test_partition_subgraph_single_part_is_everything():
    v = ["a", "b", "c"]
    assert set(build_partition_subgraph(v, [v]).edge_ids()) == set(
        build_pair_graph(v).edge_ids())


def test_partition_subgraph_bad_partitions():
    with pytest.raises(GraphError):
        build_partition_subgraph(["a", "b"], [["a"]])
    with pytest.raises(GraphError):
        build_partition_subgraph(["a", "b"], [["a", "b"], ["b"]])
    with pytest.raises(GraphError):
        build_partition_subgraph(["a"], [["a", "z"]])


def ordered_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for tail in ordered_partitions(rest):
        for i in range(len(tail)):
            yield tail[:i] + [[first] + tail[i]] + tail[i + 1:]
        yield [[first]] + tail


def test_partition_subgraphs_are_endpoint_closed():
    # exhaustive over ordered partitions of up to three objects
    for objs in (["a"], ["a", "b"], ["a", "b", "c"]):
        g = build_pair_graph(objs)
        for parts in ordered_partitions(objs):
            sub = build_partition_subgraph(objs, parts)
            assert is_endpoint_closed(g, sub)
            assert ref_endpoint_closed(*as_raw(g), sub.vertex_ids(),
                                       sub.edge_ids(), 4)


# ------------------------------------------------------- endpoint-closedness

def test_subgraph_helpers():
    g = build_pair_graph(["a", "b"])
    sub = subgraph(g, ["a", "b"], ["a->a", "a->b", "b->b"])
    assert is_subgraph(g, sub)
    assert not is_subgraph(sub, g)
    with pytest.raises(GraphError):
        subgraph(g, ["a"], ["a->b"])
    with pytest.raises(GraphError):
        is_endpoint_closed(sub, g)


def test_endpoint_closed_spec_cases():
    g = build_pair_graph(["a", "b"])
    assert is_endpoint_closed(g, subgraph(g, ["a", "b"],
                                          ["a->a", "a->b", "b->b"]))
    assert not is_endpoint_closed(g, subgraph(g, ["a", "b"], ["a->b"]))
    assert is_endpoint_closed(g, g)


def test_endpoint_violation_witness():
    g = build_pair_graph(["a", "b"])
    sub = subgraph(g, ["a", "b"], ["a->b"])
    witness = endpoint_violation(g, sub)
    assert witness is not None
    # the empty path at a already forces the loop a->a
    assert witness.inputs.edges == ()
    assert witness.output in {"a->a", "b->b"}
    assert is_loop_of(g, witness)
    assert endpoint_violation(g, g) is None


def test_endpoint_closed_agrees_with_bounded_bruteforce():
    for g in (build_pair_graph(["a", "b"]),
              build_bimodule_graph(),
              build_pair_graph(["a", "b", "c"]),
              make_graph(["u", "w"], [("p", "u", "w"), ("q", "u", "w"),
                                      ("l", "u", "u")])):
        raw_v, raw_e = as_raw(g)
        for vs, es in ref_subgraphs(raw_v, raw_e):
            sub = subgraph(g, vs, es)
            want = ref_endpoint_closed(raw_v, raw_e, vs, es, 4)
            assert is_endpoint_closed(g, sub) == want, (vs, es)


def test_endpoint_witness_always_valid():
    g = build_pair_graph(["a", "b", "c"])
    raw_v, raw_e = as_raw(g)
    for vs, es in ref_subgraphs(raw_v, raw_e):
        sub = subgraph(g, vs, es)
        witness = endpoint_violation(g, sub)
        if witness is None:
            continue
        assert is_loop_of(g, witness)
        assert set(witness.inputs.edges) <= set(es)
        assert witness.output not in set(es)


def test_endpoint_violation_picks_the_parallel_edge_outside_the_sub():
    # u->w edges p and q straddle the sub, with the loop l at u: the
    # witness closes the sub's path by the first u->w edge outside it
    g = make_graph(["u", "w"], [("p", "u", "w"), ("q", "u", "w"),
                                ("l", "u", "u")])
    for inside, outside in (("p", "q"), ("q", "p")):
        witness = endpoint_violation(g, subgraph(g, ["u", "w"],
                                                 [inside, "l"]))
        assert witness == ProfileLoop(EdgePath((inside,), "u", "w"),
                                      outside)
    # with two edges outside, the first declared one
    g = make_graph(["u", "w"], [("p", "u", "w"), ("r", "u", "w"),
                                ("q", "u", "w"), ("l", "u", "u")])
    witness = endpoint_violation(g, subgraph(g, ["u", "w"], ["q", "l"]))
    assert witness == ProfileLoop(EdgePath(("q",), "u", "w"), "p")
    witness = endpoint_violation(g, subgraph(g, ["u", "w"], ["p", "l"]))
    assert witness == ProfileLoop(EdgePath(("p",), "u", "w"), "r")


def test_graph_equality_ignores_declaration_order():
    g1 = make_graph(["a", "b"], [("x", "a", "b"), ("y", "b", "a")])
    g2 = make_graph(["b", "a"], [("y", "b", "a"), ("x", "a", "b")])
    assert g1 == g2
    assert hash(g1) == hash(g2)


# ------------------------------------------------------------ twin quotient


def _phi_is_bijective_per_pair(g, q, vmap, emap):
    """phi is a graph map onto q, bijective on the edges of each ordered
    pair, and sends the i-th edge of a pair to the i-th of its image."""
    by_pair, q_pair = {}, {}
    for e in g.edges:
        by_pair.setdefault((e.src, e.tgt), []).append(e.id)
    for e in q.edges:
        q_pair.setdefault((e.src, e.tgt), []).append(e.id)
    for u in g.vertex_ids():
        for w in g.vertex_ids():
            image = [emap[e] for e in by_pair.get((u, w), [])]
            if image != q_pair.get((vmap[u], vmap[w]), []):
                return False
    return all(q.edge(emap[e.id]).src == vmap[e.src]
               and q.edge(emap[e.id]).tgt == vmap[e.tgt] for e in g.edges)


def _check_quotient(g):
    """Check twin_quotient(g) against the definition; return it."""
    q, vmap, emap = twin_quotient(g)
    classes = ref_twin_classes(*as_raw(g))
    assert sorted(q.vertex_ids()) == sorted(cls[0] for cls in classes)
    assert vmap == {v: cls[0] for cls in classes for v in cls}
    # the full subgraph on the representatives
    assert q == subgraph(g, q.vertex_ids(),
                         [e.id for e in g.edges
                          if {e.src, e.tgt} <= set(q.vertex_ids())])
    assert set(emap) == set(g.edge_ids())
    assert _phi_is_bijective_per_pair(g, q, vmap, emap)
    if len(classes) == len(g.vertices):
        assert q is g
        assert vmap == {v: v for v in g.vertex_ids()}
        assert emap == {e: e for e in g.edge_ids()}
    return q, vmap, emap


@pytest.mark.parametrize("objects", [["a", "b"], ["a", "b", "c"]])
def test_twin_quotient_of_a_pair_graph_is_one_loop(objects):
    q, vmap, emap = _check_quotient(build_pair_graph(objects))
    assert q.vertex_ids() == ("a",) and q.edge_ids() == ("a->a",)
    assert set(vmap.values()) == {"a"} and set(emap.values()) == {"a->a"}


@pytest.mark.parametrize("side", ["left", "right"])
def test_twin_quotient_of_a_module_graph_is_one_object_and_star(side):
    for objects in (["a", "b"], ["a", "b", "c"]):
        q, vmap, _ = _check_quotient(build_module_graph(objects, side))
        arm = "*->a" if side == "left" else "a->*"
        assert q.vertex_ids() == ("a", "*")
        assert set(q.edge_ids()) == {"a->a", arm}
        assert vmap["*"] == "*"


@pytest.mark.parametrize("parts", [
    [["a"], ["b", "c"]],
    [["a", "b"], ["c", "d"]],
    [["c"], ["a", "d"], ["b"]],
    [["a", "b", "c"]],
])
def test_twin_quotient_of_a_partition_subgraph_is_one_vertex_per_part(parts):
    objects = sorted(v for part in parts for v in part)
    q, vmap, _ = _check_quotient(build_partition_subgraph(objects, parts))
    assert len(q.vertices) == len(parts)
    assert {vmap[v] for part in parts for v in part} == set(q.vertex_ids())
    for part in parts:
        assert len({vmap[v] for v in part}) == 1


def test_twin_free_graphs_are_their_own_quotient():
    g = build_bimodule_graph()
    assert twin_quotient(g) == (g, {"v0": "v0", "v1": "v1"},
                                {e: e for e in g.edge_ids()})
    assert twin_quotient(g)[0] is g
    # one vertex: nothing to merge
    g = single_loop()
    assert twin_quotient(g)[0] is g


def test_twins_need_equal_self_and_cross_counts():
    # u and v agree on w, but u->u differs from u->v
    g = make_graph(["u", "v", "w"], [("l", "u", "u"), ("m", "v", "v"),
                                     ("a", "u", "w"), ("b", "v", "w")])
    assert twin_quotient(g)[0] is g
    # the bimodule shape: no other vertex, but u->v is not v->u
    g = make_graph(["u", "v"], [("l", "u", "u"), ("m", "v", "v"),
                                ("a", "u", "v")])
    assert twin_quotient(g)[0] is g
    # equal self counts, no cross edges: still not twins
    g = make_graph(["u", "v"], [("l", "u", "u"), ("m", "v", "v")])
    assert twin_quotient(g)[0] is g
    # adding the cross edges makes them twins
    g = make_graph(["u", "v"], [("l", "u", "u"), ("m", "v", "v"),
                                ("a", "u", "v"), ("b", "v", "u")])
    q, vmap, emap = _check_quotient(g)
    assert q.edge_ids() == ("l",) and set(emap.values()) == {"l"}


def test_isolated_vertices_merge():
    q, vmap, emap = _check_quotient(make_graph(["a", "b", "c"], []))
    assert q.vertex_ids() == ("a",) and vmap == dict.fromkeys("abc", "a")
    g = make_graph(["x", "a", "b"], [("l", "x", "x")])
    q, vmap, _ = _check_quotient(g)
    assert q.vertex_ids() == ("x", "a") and vmap["b"] == "a"


def test_phi_takes_parallel_edges_by_declaration_index():
    # u and v twins with two edges on and between them, declared shuffled
    g = make_graph(["u", "v"], [
        ("vu1", "v", "u"), ("uu1", "u", "u"), ("vv1", "v", "v"),
        ("uv1", "u", "v"), ("uu2", "u", "u"), ("vu2", "v", "u"),
        ("uv2", "u", "v"), ("vv2", "v", "v")])
    q, vmap, emap = _check_quotient(g)
    assert q.edge_ids() == ("uu1", "uu2")
    assert [emap[e] for e in ("uu1", "uu2", "uv1", "uv2", "vu1", "vu2",
                              "vv1", "vv2")] == ["uu1", "uu2"] * 4


def test_twin_quotient_on_the_graph_family():
    family = graph_family()
    twinned = [k for k, g in enumerate(family) if _check_quotient(g)[0] is not g]
    assert len(family) == 177 and len(twinned) == 17


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_twin_quotient_on_blown_up_graphs(data):
    # a random class graph, each class blown up into twins: c edges on and
    # between a class's members, k edges between members of two classes
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    names = [[f"c{i}m{j}" for j in range(n)] for i, n in enumerate(sizes)]
    edges = []
    for i, ci in enumerate(names):
        for k, ck in enumerate(names):
            count = data.draw(st.integers(0, 2))
            edges += [(u, w) for u in ci for w in ck for _ in range(count)]
    order = data.draw(st.permutations(range(len(edges))))
    g = make_graph([v for cls in names for v in cls],
                   [(f"e{n}", *edges[n]) for n in order])
    q, vmap, _ = _check_quotient(g)
    assert len(q.vertices) <= len(names)
