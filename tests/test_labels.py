from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from fcmc.graphs import (
    EdgePath,
    ProfileLoop,
    build_bimodule_graph,
    build_pair_graph,
    enumerate_profile_loops,
    profile_loop,
)
from fcmc.labels import (
    LabelError,
    LabelMonoid,
    LabelingFc,
    MonoidElem,
    TRIVIAL_MONOID,
    add,
    decompose,
    fiber,
    in_fiber,
    label,
)

from oracles import ref_decompose, ref_labels_upto

coords = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple)


def test_add_identity():
    assert add(label(0), label(0)) == label(0)


def test_add_componentwise():
    assert add(label(1, 0), label(0, 2)) == label(1, 2)


def test_add_rank_mismatch():
    with pytest.raises(LabelError):
        add(label(1), label(1, 0))


def test_negative_coords_rejected():
    with pytest.raises(LabelError):
        label(1, -1)


def test_add_commutative_exhaustive():
    # all rank-2 pairs with coordinate sum <= 3 on each side
    elems = [MonoidElem(t) for t in ref_labels_upto(2, 3)]
    for a, b in itertools.product(elems, repeat=2):
        assert add(a, b) == add(b, a)


def test_add_associative_and_unital_exhaustive():
    elems = [MonoidElem(t) for t in ref_labels_upto(1, 3)]
    zero = label(0)
    for a, b, c in itertools.product(elems, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
    for a in elems:
        assert add(a, zero) == a == add(zero, a)


@given(coords, coords)
def test_add_matches_tuple_sum(a, b):
    if len(a) != len(b):
        with pytest.raises(LabelError):
            add(MonoidElem(a), MonoidElem(b))
        return
    got = add(MonoidElem(a), MonoidElem(b))
    assert got.coords == tuple(x + y for x, y in zip(a, b))


def test_decompose_zero():
    assert decompose(label(0)) == [(label(0), label(0))]


def test_decompose_rank1():
    assert decompose(label(2)) == [
        (label(0), label(2)), (label(1), label(1)), (label(2), label(0))]


def test_decompose_rank2_count():
    assert len(decompose(label(1, 1))) == 4


@given(coords)
def test_decompose_complete_and_counted(c):
    beta = MonoidElem(c)
    got = decompose(beta)
    as_tuples = {(a.coords, b.coords) for a, b in got}
    assert as_tuples == ref_decompose(c)
    assert len(got) == len(as_tuples)  # duplicate-free
    expected = 1
    for ci in c:
        expected *= ci + 1
    assert len(got) == expected


@given(coords)
def test_decompose_swap_closed(c):
    beta = MonoidElem(c)
    pairs = set(decompose(beta))
    assert {(b, a) for a, b in pairs} == pairs
    for a, b in pairs:
        assert add(a, b) == beta


def test_monoid_validation():
    with pytest.raises(LabelError):
        LabelMonoid(rank=0, truncation=1)
    with pytest.raises(LabelError):
        LabelMonoid(rank=1, truncation=-1)


def test_monoid_elements_enumeration():
    m = LabelMonoid(rank=2, truncation=1)
    assert m.elements() == [label(0, 0), label(0, 1), label(1, 0)]
    assert TRIVIAL_MONOID.elements() == [label(0)]
    got = {e.coords for e in LabelMonoid(rank=2, truncation=2).elements()}
    assert got == ref_labels_upto(2, 2)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("truncation", [0, 1, 2, 3])
def test_monoid_elements_match_the_brute_force_filter(rank, truncation):
    # the order is by total, then lexicographic
    brute = sorted(ref_labels_upto(rank, truncation),
                   key=lambda t: (sum(t), t))
    got = [e.coords for e in LabelMonoid(rank, truncation).elements()]
    assert got == brute


def test_monoid_elements_at_high_rank():
    # 1 + 30 + C(31, 2): built without the 3^30 candidate vectors
    elems = LabelMonoid(rank=30, truncation=2).elements()
    assert len(elems) == 496
    assert len(set(elems)) == 496 and all(e.total() <= 2 for e in elems)


def test_monoid_contains():
    m = LabelMonoid(rank=1, truncation=2)
    assert m.contains(label(2))
    assert not m.contains(label(3))  # truncation applies
    assert not m.contains(label(1, 1))  # rank applies


def test_fiber_unreduced_empty_inputs():
    g = build_bimodule_graph()
    lfc = LabelingFc(g, LabelMonoid(rank=1, truncation=1), reduced=False)
    loop = profile_loop(g, [], "e0")
    assert set(fiber(lfc, loop)) == {label(0), label(1)}


def test_fiber_reduced_drops_zero_on_empty_inputs_only():
    g = build_bimodule_graph()
    lfc = LabelingFc(g, LabelMonoid(rank=1, truncation=1), reduced=True)
    assert set(fiber(lfc, profile_loop(g, [], "e0"))) == {label(1)}
    assert set(fiber(lfc, profile_loop(g, ["e0"], "e0"))) == {label(0), label(1)}


def test_fiber_empty_for_non_loops():
    g = build_bimodule_graph()
    lfc = LabelingFc(g, LabelMonoid(rank=1, truncation=1), reduced=False)
    bad = ProfileLoop(EdgePath(("e1",), "v1", "v1"), "e0")
    assert fiber(lfc, bad) == []
    # an edge outside the graph is boundary data of no profile-loop
    for foreign in (ProfileLoop(EdgePath(("x",), "v1", "v1"), "e0"),
                    ProfileLoop(EdgePath(("e0",), "v0", "v0"), "x")):
        assert fiber(lfc, foreign) == []
        assert not in_fiber(lfc, foreign, label(0))


@pytest.mark.parametrize("graph", [build_bimodule_graph(),
                                   build_pair_graph(["a", "b"])],
                         ids=["bimodule", "pair"])
def test_in_fiber_matches_fiber_exhaustively(graph):
    # boundary data whose endpoints match no edge of the graph
    non_loop = ProfileLoop(EdgePath((graph.edges[-1].id,), "x", "x"),
                           graph.edges[0].id)
    loops = enumerate_profile_loops(graph, 3) + [non_loop]
    for rank, truncation, reduced in itertools.product(
            (1, 2), (0, 1, 2), (False, True)):
        lfc = LabelingFc(graph, LabelMonoid(rank, truncation), reduced)
        labels = [MonoidElem(t) for t in ref_labels_upto(rank, truncation + 1)]
        for loop in loops:
            members = fiber(lfc, loop)
            for beta in labels:
                assert in_fiber(lfc, loop, beta) == (beta in members), (
                    loop, beta, rank, truncation, reduced)
    assert fiber(lfc, non_loop) == []
