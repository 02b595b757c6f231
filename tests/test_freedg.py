import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fcmc.freedg
from fcmc.chain import ChainError
from fcmc.graphs import (CompositionError, EdgePath, ProfileLoop, make_graph,
                         enumerate_profile_loops, identity_loop,
                         twin_quotient)
from fcmc.labels import (LabelMonoid, LabelingFc, MonoidElem, TRIVIAL_MONOID,
                         fiber, label)
from fcmc.multicat import OutOfBound
from fcmc.freedg import (
    CompTree,
    FreeCell,
    FreeDgFc,
    GeneratorSpec,
    build_Ainf_bimodule,
    build_Ainf_category,
    build_Ainf_operad,
    build_preset,
    compose_cells,
    delta_squared_report,
    format_tree,
    free_cell,
    generator_cell,
    graft,
    inner_position,
    leaf_of,
    signed_graft,
    tree_degree,
    tree_label,
    tree_leaves,
    tree_nodes,
    tree_profile,
    unit_tree,
    validate_tree,
)
from oracles import (
    ref_ainf_delta_terms,
    ref_bimodule_delta_terms,
    ref_delta_tree,
    ref_left_module_delta_terms,
    ref_planar_trees,
    ref_rank,
    ref_rule_terms,
)
from test_acceptance import graph_family


def ainf():
    return build_Ainf_operad(TRIVIAL_MONOID)


def m_loop(n):
    return ProfileLoop(EdgePath(("e",) * n, "v", "v"), "e")


def m_gen(fc, n, beta=None):
    return fc.generator(m_loop(n), beta if beta is not None else fc.monoid.zero())


def bim_loop(n0, n1):
    word = ("e0",) * n0 + ("e01",) + ("e1",) * n1
    return ProfileLoop(EdgePath(word, "v0", "v1"), "e01")


# ------------------------------------------------------------------- trees


def test_leaf_tree_shape():
    fc = ainf()
    t = leaf_of(m_gen(fc, 3))
    assert tree_leaves(t) == ("e", "e", "e")
    assert tree_degree(t) == 1
    assert tree_profile(t) == m_loop(3)
    validate_tree(t)


def test_graft_single_node_makes_two_node_tree():
    fc = ainf()
    a, b = leaf_of(m_gen(fc, 3)), leaf_of(m_gen(fc, 2))
    for i in (1, 2, 3):
        t = graft(a, i, b)
        assert tree_degree(t) == 2
        assert tree_leaves(t) == ("e",) * 4
        assert isinstance(t.children[i - 1], CompTree)
        validate_tree(t)


def test_graft_nested_axiom_trees():
    # (a o_i b) o_{i-1+j} c and a o_i (b o_j c) are the same planar tree
    fc = ainf()
    a, b, c = (leaf_of(m_gen(fc, n)) for n in (3, 2, 2))
    for i in (1, 2, 3):
        for j in (1, 2):
            lhs = graft(graft(a, i, b), i - 1 + j, c)
            rhs = graft(a, i, graft(b, j, c))
            assert lhs == rhs


def test_graft_parallel_axiom_trees():
    # grafting into disjoint slots commutes as planar trees
    fc = ainf()
    a, b, c = (leaf_of(m_gen(fc, n)) for n in (4, 2, 3))
    arity_b = 2
    for i in (1, 2, 3, 4):
        for k in range(i + 1, 5):
            lhs = graft(graft(a, i, b), k - 1 + arity_b, c)
            rhs = graft(graft(a, k, c), i, b)
            assert lhs == rhs


def test_graft_axioms_all_small_triples():
    # exhaustive over generator triples giving trees with <= 4 nodes
    fc = ainf()
    gens = [leaf_of(m_gen(fc, n)) for n in (2, 3, 4)]
    for a, b, c in itertools.product(gens, repeat=3):
        na = len(a.children)
        nb = len(b.children)
        for i in range(1, na + 1):
            for j in range(1, nb + 1):
                assert graft(graft(a, i, b), i - 1 + j, c) == \
                    graft(a, i, graft(b, j, c))
            for k in range(i + 1, na + 1):
                assert graft(graft(a, i, b), k - 1 + nb, c) == \
                    graft(graft(a, k, c), i, b)


def test_graft_slot_mismatch_raises():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    n11 = leaf_of(bim.generator(bim_loop(1, 1), bim.monoid.zero()))
    m0 = bim.generator(
        ProfileLoop(EdgePath(("e0", "e0"), "v0", "v0"), "e0"),
        bim.monoid.zero())
    # slot 2 of n11 wants an e01-producing tree, m0 produces e0
    with pytest.raises(CompositionError):
        graft(n11, 2, leaf_of(m0))
    with pytest.raises(CompositionError):
        graft(n11, 99, leaf_of(m0))


def test_signed_graft_parity():
    # grafting left of an existing node moves it past the new one
    fc = ainf()
    b = leaf_of(m_gen(fc, 2))
    t = graft(b, 2, b)  # m2(e, m2(e, e))
    _, sign = signed_graft(t, 1, b)
    assert sign == -1
    _, sign = signed_graft(t, 2, b)
    assert sign == 1


# ---------------------------------------------------------- composite cells


def test_normalize_unit_laws():
    fc = ainf()
    g = generator_cell(m_gen(fc, 2))
    unit = fc.unit_cell("e")
    assert compose_cells(fc, g, 1, unit) == g
    assert compose_cells(fc, unit, 1, g) == g
    # the unit's tree carries the structure's zero, of the monoid's rank
    fc2 = build_Ainf_operad(LabelMonoid(rank=2, truncation=1))
    unit = fc2.unit_cell("e")
    assert unit.label == label(0, 0)
    assert free_cell(unit.profile, unit.label, 0, dict(unit.terms)) == unit
    g = generator_cell(m_gen(fc2, 2, label(1, 0)))
    assert compose_cells(fc2, g, 2, unit) == g
    assert compose_cells(fc2, unit, 1, g) == g


def test_normalize_nested_parenthesizations_agree():
    fc = ainf()
    a, b, c = (generator_cell(m_gen(fc, n)) for n in (3, 2, 2))
    left = compose_cells(fc, compose_cells(fc, a, 2, b), 2, c)
    right = compose_cells(fc, a, 2, compose_cells(fc, b, 1, c))
    assert left == right
    assert len(left.terms) == 1 and left.terms[0][1] == 1


def test_normalize_cancellation():
    fc = ainf()
    g = generator_cell(m_gen(fc, 2))
    assert (g + g.scale(-1)).is_zero()


def test_delta_of_unit_is_zero():
    fc = ainf()
    du = fc.delta(fc.unit_cell("e"))
    assert du.is_zero()


# ------------------------------------------------------- operad differential


def test_delta_m2_vanishes():
    fc = ainf()
    assert fc.delta_generator(m_gen(fc, 2)).is_zero()


def test_delta_m3_frozen():
    fc = ainf()
    m2, m3 = m_gen(fc, 2), m_gen(fc, 3)
    got = fc.delta_generator(m3)
    expected = compose_cells(fc, generator_cell(m2), 1,
                             generator_cell(m2)).scale(-1) + \
        compose_cells(fc, generator_cell(m2), 2, generator_cell(m2)).scale(-1)
    assert got == expected
    assert len(got.terms) == 2
    assert all(c == -1 for _, c in got.terms)


def test_delta_term_counts_match_oracle():
    fc = ainf()
    for n in range(2, 9):
        got = len(fc.delta_generator(m_gen(fc, n)).terms)
        assert got == ref_ainf_delta_terms(n)


def test_delta_squared_m4():
    fc = ainf()
    d = fc.delta_generator(m_gen(fc, 4))
    assert len(d.terms) == 5
    assert fc.delta(d).is_zero()


def test_delta_squared_sweep_operad():
    rep = delta_squared_report(ainf(), 8)
    assert rep.ok and rep.generators == 7
    assert "delta^2 = 0" in rep.summary()


# At label 0 the trees over one arity-n profile-loop, graded by their node
# count, are the cellular chains of the associahedron K_n (the one-node tree
# is the top cell, binary trees are the vertices).  d^2 = 0 alone would
# pass sign conventions or generator sets with the wrong homology; K_n is
# contractible, so the homology is one class, at the binary trees.


def _oracle_tree(fc, t):
    if t is None:
        return "e"
    return CompTree(m_gen(fc, len(t)), tuple(_oracle_tree(fc, c) for c in t))


def _node_count(t):
    return 0 if t is None else 1 + sum(_node_count(c) for c in t)


@pytest.mark.parametrize("n, count",
                         [(2, 1), (3, 3), (4, 11), (5, 45), (6, 197),
                          (7, 903)])
def test_delta_on_trees_is_the_associahedron_chain_complex(n, count):
    fc = ainf()
    trees = ref_planar_trees(n)
    assert len(trees) == count
    column = {}  # tree -> (node count, index among the trees of that count)
    by_nodes = {k: [] for k in range(1, n)}
    for t in trees:
        k = _node_count(t)
        tree = _oracle_tree(fc, t)
        column[tree] = (k, len(by_nodes[k]))
        by_nodes[k].append(tree)
    rank = {0: 0, n - 1: 0}
    for k in range(1, n - 1):
        rows = []
        for tree in by_nodes[k]:
            image = fc.delta(free_cell(m_loop(n), fc.monoid.zero(), k,
                                       {tree: 1}))
            assert all(column.get(t2, (None,))[0] == k + 1
                       for t2, _ in image.terms)
            rows.append({column[t2][1]: c for t2, c in image.terms})
        rank[k] = ref_rank(rows)
    betti = [len(by_nodes[k]) - rank[k] - rank[k - 1] for k in range(1, n)]
    assert betti == [0] * (n - 2) + [1]


def test_operad_generator_arities():
    fc = ainf()
    assert [g.arity() for g in fc.generators(6)] == [2, 3, 4, 5, 6]


# ------------------------------------------------------------ labeled operad


def test_labeled_operad_generator_family():
    fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
    names = [g.name for g in fc.generators(3)]
    assert "m[;e]@(1)" in names          # labeled empty-input generator
    assert "m[;e]@(0)" not in names      # removed by the reduced labeling
    assert "m[e;e]@(1)" in names         # labeled single-input generator
    assert "m[e;e]@(0)" not in names     # the unit case


def test_delta_of_labeled_empty_input_generator():
    fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
    g = fc.generator(m_loop(0), label(1))
    # every splitting needs a zero-labeled factor of excluded shape
    assert fc.delta_generator(g).is_zero()


def test_delta_squared_sweep_labeled():
    rep = delta_squared_report(build_Ainf_operad(LabelMonoid(1, 2)), 6)
    assert rep.ok and rep.generators == 19
    rep2 = delta_squared_report(build_Ainf_operad(LabelMonoid(2, 2)), 5)
    assert rep2.ok and rep2.generators == 34


def test_delta_preserves_label_and_raises_degree():
    fc = build_Ainf_operad(LabelMonoid(1, 2))
    g = fc.generator(m_loop(2), label(1))
    d = fc.delta_generator(g)
    assert d.label == label(1) and d.degree == 2
    for t, _ in d.terms:
        assert tree_label(t) == label(1)
        assert tree_degree(t) == 2


def test_delta_out_of_bound_label():
    fc = build_Ainf_operad(LabelMonoid(1, 1))
    over = free_cell(m_loop(2), label(2), 1,
                     {leaf_of(build_Ainf_operad(LabelMonoid(1, 2)).generator(
                         m_loop(2), label(2))): 1}, validate=False)
    assert fc.delta(over) == OutOfBound(
        "label", "label (2) exceeds truncation 1")


# --------------------------------------------------------- curved (unreduced)


def test_curved_operad_has_empty_input_generator():
    fc = build_Ainf_operad(TRIVIAL_MONOID, reduced=False)
    names = [g.name for g in fc.generators(3)]
    assert names == ["m[;e]", "m[e,e;e]", "m[e,e,e;e]"]


def test_curved_delta_m2_inserts_curvature():
    fc = build_Ainf_operad(TRIVIAL_MONOID, reduced=False)
    d = fc.delta_generator(m_gen(fc, 2))
    # -(m3 o_1 m0 + m3 o_2 m0 + m3 o_3 m0)
    assert len(d.terms) == 3
    assert all(c == -1 for _, c in d.terms)
    assert all("m[;e]" in format_tree(t) for t, _ in d.terms)
    assert fc.delta_generator(m_gen(fc, 0)).is_zero()


def test_curved_square_not_zero():
    # with empty-input operations the differential need not square to zero
    rep = delta_squared_report(build_Ainf_operad(TRIVIAL_MONOID,
                                                 reduced=False), 4)
    assert not rep.ok
    assert any("m[;e]" in residue for _, residue in rep.residues)


# ----------------------------------------------------------- category preset


def test_category_one_object_matches_operad():
    cat = build_Ainf_category(["v"], TRIVIAL_MONOID)
    op = ainf()
    for bound in (4, 6):
        cg, og = cat.generators(bound), op.generators(bound)
        assert [g.arity() for g in cg] == [g.arity() for g in og]
        for g_cat, g_op in zip(cg, og):
            assert len(cat.delta_generator(g_cat).terms) == \
                len(op.delta_generator(g_op).terms)


def test_category_reduced_excludes_empty_inputs():
    cat = build_Ainf_category(["x", "y"], TRIVIAL_MONOID)
    assert all(g.arity() >= 2 for g in cat.generators(4))


def test_category_two_object_zigzag_generator():
    cat = build_Ainf_category(["v0", "v1"], TRIVIAL_MONOID)
    loop = ProfileLoop(
        EdgePath(("v0->v1", "v1->v0"), "v0", "v0"), "v0->v0")
    g = cat.generator(loop, cat.monoid.zero())
    assert g in cat.generators(2)


def test_delta_squared_sweep_category():
    rep = delta_squared_report(build_Ainf_category(["x", "y"],
                                                   TRIVIAL_MONOID), 5)
    assert rep.ok and rep.generators > 100


# ----------------------------------------------------------- bimodule preset


def test_bimodule_generator_family_small():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    assert [g.name for g in bim.generators(3)] == [
        "m[e0,e0;e0]", "m[e0,e01;e01]", "m[e01,e1;e01]", "m[e1,e1;e1]",
        "m[e0,e0,e0;e0]", "m[e0,e0,e01;e01]", "m[e0,e01,e1;e01]",
        "m[e01,e1,e1;e01]", "m[e1,e1,e1;e1]",
    ]


def test_bimodule_delta_n10_vanishes():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    g = bim.generator(bim_loop(1, 0), bim.monoid.zero())
    assert bim.delta_generator(g).is_zero()


def test_bimodule_delta_n11_frozen():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    z = bim.monoid.zero()
    n11 = generator_cell(bim.generator(bim_loop(1, 1), z))
    n10 = generator_cell(bim.generator(bim_loop(1, 0), z))
    n01 = generator_cell(bim.generator(bim_loop(0, 1), z))
    got = bim.delta_generator(bim.generator(bim_loop(1, 1), z))
    expected = compose_cells(bim, n01, 1, n10).scale(-1) + \
        compose_cells(bim, n10, 2, n01).scale(-1)
    assert got == expected


def test_bimodule_middle_sum_slot():
    # the action generator composed into the right-hand block sits after
    # the left inputs and the middle edge
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    z = bim.monoid.zero()
    n0, n1 = 1, 2
    g = bim.generator(bim_loop(n0, n1), z)
    right_action = bim.generator(
        ProfileLoop(EdgePath(("e1", "e1"), "v1", "v1"), "e1"), z)
    d = bim.delta_generator(g)
    hits = [t for t, _ in d.terms
            if len(t.children) > n0 + 1
            and isinstance(t.children[n0 + 1], CompTree)
            and t.children[n0 + 1].gen == right_action]
    # r1 = 0 is the only room for a 2-input block inside n1 = 2, and the
    # inner node lands exactly at position n0 + r1 + 2
    assert len(hits) == 1


def test_bimodule_delta_term_counts_match_oracle():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    z = bim.monoid.zero()
    for n0 in range(0, 4):
        for n1 in range(0, 3):
            if n0 == n1 == 0:
                continue
            got = len(bim.delta_generator(
                bim.generator(bim_loop(n0, n1), z)).terms)
            assert got == ref_bimodule_delta_terms(n0, n1)


def test_bimodule_delta_squared_n21():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    d = bim.delta_generator(bim.generator(bim_loop(2, 1), bim.monoid.zero()))
    assert len(d.terms) == ref_bimodule_delta_terms(2, 1)
    assert bim.delta(d).is_zero()


def test_delta_squared_sweep_bimodule():
    rep = delta_squared_report(build_Ainf_bimodule(TRIVIAL_MONOID), 6)
    assert rep.ok


def test_labeled_bimodule_curvature_exchange():
    bim = build_Ainf_bimodule(LabelMonoid(rank=1, truncation=1))
    g = bim.generator(bim_loop(0, 0), label(1))
    d = bim.delta_generator(g)
    assert len(d.terms) == 2
    names = sorted(t.children[0].gen.name if isinstance(t.children[0], CompTree)
                   else t.children[1].gen.name for t, _ in d.terms)
    assert names == ["m[;e0]@(1)", "m[;e1]@(1)"]
    rep = delta_squared_report(bim, 4)
    assert rep.ok


def test_bimodule_equals_generalized_on_same_graph():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    gen = FreeDgFc(LabelingFc(bim.graph, TRIVIAL_MONOID, reduced=True))
    assert gen.generators(4) == bim.generators(4)
    for g in bim.generators(4):
        assert gen.delta_generator(g) == bim.delta_generator(g)


# ------------------------------------------------------------ module presets


def test_left_module_generator_words():
    lm = build_preset("left-module", TRIVIAL_MONOID, objects=["v"])
    words = [g.profile.inputs.edges for g in lm.generators(3)]
    assert ("*->v", "v->v") in words
    assert ("*->v", "v->v", "v->v") in words
    # the added edge always heads the word; no word ends with it
    for w in words:
        assert all(e != "*->v" for e in w[1:])


def test_right_module_generator_words():
    rm = build_preset("right-module", TRIVIAL_MONOID, objects=["v"])
    words = [g.profile.inputs.edges for g in rm.generators(3)]
    assert ("v->v", "v->*") in words
    for w in words:
        assert all(e != "v->*" for e in w[:-1])


def test_module_no_output_at_missing_loop():
    lm = build_preset("left-module", TRIVIAL_MONOID, objects=["v"])
    outs = {g.profile.output for g in lm.generators(4)}
    assert outs == {"v->v", "*->v"}


def test_left_module_delta_term_counts():
    lm = build_preset("left-module", TRIVIAL_MONOID, objects=["v"])
    z = lm.monoid.zero()
    for a in range(1, 5):
        loop = ProfileLoop(
            EdgePath(("*->v",) + ("v->v",) * a, "*", "v"), "*->v")
        got = len(lm.delta_generator(lm.generator(loop, z)).terms)
        assert got == ref_left_module_delta_terms(a)


def test_delta_squared_sweep_modules():
    for side in ("left", "right"):
        rep = delta_squared_report(
            build_preset(f"{side}-module", TRIVIAL_MONOID, objects=["v"]), 6)
        assert rep.ok
    rep = delta_squared_report(
        build_preset("rmodule", TRIVIAL_MONOID, objects=["a", "b"],
                     parts=[["a"], ["b"]]), 4)
    assert rep.ok


def test_bad_module_side_rejected():
    with pytest.raises(CompositionError, match="got 'sideways-module'"):
        build_preset("sideways-module", TRIVIAL_MONOID, objects=["v"])


# ------------------------------------------------------------ cell operations


def test_compose_cells_label_overflow():
    fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
    c = generator_cell(fc.generator(m_loop(2), label(1)))
    assert compose_cells(fc, c, 1, c) == OutOfBound(
        "label", "label (2) exceeds truncation 1")


def test_compose_cells_slot_checks():
    fc = ainf()
    c2 = generator_cell(m_gen(fc, 2))
    with pytest.raises(CompositionError):
        compose_cells(fc, c2, 3, c2)


def test_free_cell_homogeneity_enforced():
    fc = ainf()
    t2, t3 = leaf_of(m_gen(fc, 2)), leaf_of(m_gen(fc, 3))
    with pytest.raises(CompositionError):
        free_cell(m_loop(2), TRIVIAL_MONOID.zero(), 1, {t3: 1})
    big = graft(t2, 1, t2)
    with pytest.raises(CompositionError):
        free_cell(m_loop(3), TRIVIAL_MONOID.zero(), 1, {big: 1})


def test_free_cell_error_paths():
    fc = ainf()
    m2, m3 = m_gen(fc, 2), m_gen(fc, 3)
    with pytest.raises(CompositionError,
                       match=re.escape("node m[e,e;e] has 1 children for 2 "
                                       "inputs")):
        validate_tree(CompTree(m2, ("e",)))
    with pytest.raises(CompositionError,
                       match="cannot add inhomogeneous cells"):
        generator_cell(m2) + generator_cell(m3)
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    zero = bim.monoid.zero()
    n11 = leaf_of(bim.generator(bim_loop(1, 1), zero))
    # a unit's one leaf is its edge; n11 produces e01
    with pytest.raises(CompositionError,
                       match="cannot graft 'e01' onto unit leaf 'e0'"):
        signed_graft(unit_tree(bim.graph, "e0", zero), 1, n11)
    # n11's first leaf is e0
    with pytest.raises(CompositionError,
                       match="unit over 'e1' does not match leaf 'e0'"):
        signed_graft(n11, 1, unit_tree(bim.graph, "e1", zero))
    lab = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
    t = leaf_of(m_gen(lab, 2, label(1)))
    with pytest.raises(CompositionError,
                       match=re.escape("has label (1), cell declares (0)")):
        free_cell(m_loop(2), label(0), 1, {t: 1})


@pytest.mark.parametrize("coeff", [1.0, 0.5, True])
def test_free_cell_rejects_inexact_coefficients(coeff):
    fc = ainf()
    g2 = m_gen(fc, 2)
    t2 = leaf_of(g2)
    for terms in ({t2: coeff}, [(t2, coeff)]):
        with pytest.raises(ChainError, match="not an int or Fraction"):
            free_cell(g2.profile, g2.label, 1, terms)
    # a custom rule is checked through the same validated constructor
    g3, m2 = m_gen(fc, 3), leaf_of(g2)
    rule = free_cell(g3.profile, g3.label, 2, {graft(m2, 1, m2): coeff},
                     validate=False)
    with pytest.raises(ChainError, match="not an int or Fraction"):
        FreeDgFc(fc.labeling, custom_rules={g3: rule})


def test_generator_needs_a_path():
    # e0 ends at v0, e1 starts at v1: no generator sits over the word,
    # although its first source and last target are e01's endpoints
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    loop = ProfileLoop(EdgePath(("e0", "e1"), "v0", "v1"), "e01")
    with pytest.raises(CompositionError, match="no generator"):
        bim.generator(loop, bim.monoid.zero())
    assert loop not in {g.profile for g in bim.generators(3)}


def test_cell_addition_collects_and_cancels():
    fc = ainf()
    c = generator_cell(m_gen(fc, 2))
    assert (c + c).coefficient(leaf_of(m_gen(fc, 2))) == 2
    assert (c - c).is_zero()
    assert str(c.scale(0)) == "0"


# ------------------------------------------------------------------- Leibniz


def test_leibniz_on_all_generator_pairs():
    fc = ainf()
    cells = [generator_cell(g) for g in fc.generators(5)]
    checked = 0
    for c1, c2 in itertools.product(cells, cells):
        for i in range(1, c1.profile.arity() + 1):
            lhs = fc.delta(compose_cells(fc, c1, i, c2))
            rhs = compose_cells(fc, fc.delta(c1), i, c2) + \
                compose_cells(fc, c1, i, fc.delta(c2)).scale(
                    1 if c1.degree % 2 == 0 else -1)
            assert lhs == rhs
            checked += 1
    assert checked == 56


def test_leibniz_with_composite_factors():
    bim = build_Ainf_bimodule(TRIVIAL_MONOID)
    z = bim.monoid.zero()
    cells = [generator_cell(g) for g in bim.generators(3)]
    pairs = 0
    for c1, c2 in itertools.product(cells, cells):
        for i in range(1, c1.profile.arity() + 1):
            if c1.profile.inputs.edges[i - 1] != c2.profile.output:
                continue
            cc = compose_cells(bim, c1, i, c2)
            for c3 in cells[:4]:
                for j in range(1, cc.profile.arity() + 1):
                    if cc.profile.inputs.edges[j - 1] != c3.profile.output:
                        continue
                    lhs = bim.delta(compose_cells(bim, cc, j, c3))
                    rhs = compose_cells(bim, bim.delta(cc), j, c3) + \
                        compose_cells(bim, cc, j, bim.delta(c3))
                    assert lhs == rhs
                    pairs += 1
    assert pairs > 100


# -------------------------------------------------------------- graded axioms


def test_cell_nested_axiom():
    fc = ainf()
    a, b, c = (generator_cell(m_gen(fc, n)) for n in (3, 2, 2))
    for i in range(1, 4):
        for j in range(1, 3):
            lhs = compose_cells(fc, compose_cells(fc, a, i, b), i - 1 + j, c)
            rhs = compose_cells(fc, a, i, compose_cells(fc, b, j, c))
            assert lhs == rhs


def test_cell_parallel_axiom_koszul_sign():
    fc = ainf()
    a, b, c = (generator_cell(m_gen(fc, n)) for n in (4, 2, 3))
    nb = 2
    for i in range(1, 5):
        for k in range(i + 1, 5):
            lhs = compose_cells(fc, compose_cells(fc, a, i, b), k - 1 + nb, c)
            sign = -1 if (b.degree * c.degree) % 2 else 1
            rhs = compose_cells(fc, compose_cells(fc, a, k, c), i, b).scale(sign)
            assert lhs == rhs


def test_parallel_axiom_sign_with_even_factor():
    # a degree-2 factor composes with no sign flip
    fc = ainf()
    a = generator_cell(m_gen(fc, 3))
    b = compose_cells(fc, generator_cell(m_gen(fc, 2)), 1,
                      generator_cell(m_gen(fc, 2)))  # degree 2, arity 3
    c = generator_cell(m_gen(fc, 2))
    lhs = compose_cells(fc, compose_cells(fc, a, 1, b), 3 + 1, c)
    rhs = compose_cells(fc, compose_cells(fc, a, 2, c), 1, b)
    assert lhs == rhs


# -------------------------------------------------------- delta on any cell


@st.composite
def random_operad_trees(draw):
    fc = ainf()
    t = leaf_of(m_gen(fc, draw(st.integers(2, 4))))
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(2, 3))
        slot = draw(st.integers(1, len(tree_leaves(t))))
        t = graft(t, slot, leaf_of(m_gen(fc, n)))
    return t


@given(random_operad_trees())
@settings(max_examples=60, deadline=None)
def test_delta_squared_on_arbitrary_trees(t):
    fc = ainf()
    cell = free_cell(tree_profile(t), TRIVIAL_MONOID.zero(), tree_degree(t),
                     {t: 1})
    assert fc.delta(fc.delta(cell)).is_zero()


@given(random_operad_trees())
@settings(max_examples=40, deadline=None)
def test_tree_boundary_bookkeeping(t):
    validate_tree(t)
    assert tree_profile(t).arity() == len(tree_leaves(t))
    assert tree_label(t).is_zero()


def _ref_delta(fc, cell):
    acc = {}
    for t, x in cell.terms:
        for t2, c2 in ref_delta_tree(fc, t):
            acc[t2] = acc.get(t2, 0) + x * c2
    return free_cell(cell.profile, cell.label, cell.degree + 1, acc,
                     validate=False)


@given(random_operad_trees())
@settings(max_examples=60, deadline=None)
def test_delta_on_arbitrary_trees_matches_reference(t):
    fc = ainf()
    cell = free_cell(tree_profile(t), TRIVIAL_MONOID.zero(), tree_degree(t),
                     {t: 1})
    d1 = fc.delta(cell)
    assert d1 == _ref_delta(fc, cell)
    assert fc.delta(d1) == _ref_delta(fc, d1)


def test_delta_on_rules_matches_reference():
    # generator cells are one-node words, rule cells two-node words
    fc0 = ainf()
    g3, g4 = m_gen(fc0, 3), m_gen(fc0, 4)
    custom = FreeDgFc(fc0.labeling,
                      custom_rules={g3: fc0.delta_generator(g3)})
    cases = [
        (fc0, 6, None),
        (build_Ainf_category(["x", "y"], TRIVIAL_MONOID), 4, None),
        (build_Ainf_bimodule(LabelMonoid(rank=1, truncation=1)), 4, None),
        (build_preset("left-module", TRIVIAL_MONOID, objects=["v"]), 5, None),
        (build_preset("right-module", TRIVIAL_MONOID, objects=["v"]), 5, None),
        (build_preset("rmodule", TRIVIAL_MONOID, objects=["a", "b"],
                      parts=[["a"], ["b"]]), 4, None),
        (build_Ainf_operad(LabelMonoid(rank=2, truncation=2)), 3, None),
        (FreeDgFc(fc0.labeling, sign_fault=True), 5, None),
        (custom, 4, [g3, g4]),
    ]
    for fc, arity, gens in cases:
        gens = gens or fc.generators(arity)
        assert gens
        for gen in gens:
            for cell in (generator_cell(gen), fc.delta_generator(gen)):
                assert fc.delta(cell) == _ref_delta(fc, cell), gen.name


# every shape of structure, with labels, and the sign-fault mode
DEEP_TREE_SHAPES = {
    "bimodule": lambda: build_Ainf_bimodule(LabelMonoid(rank=1,
                                                        truncation=1)),
    "category": lambda: build_Ainf_category(["x", "y", "z"],
                                            TRIVIAL_MONOID),
    "rmodule": lambda: build_preset("rmodule", TRIVIAL_MONOID,
                                    objects=["a", "b"], parts=[["a"], ["b"]]),
    "left-module": lambda: build_preset("left-module", TRIVIAL_MONOID,
                                        objects=["x", "y"]),
    "ainf rank 2": lambda: build_Ainf_operad(LabelMonoid(rank=2,
                                                         truncation=2)),
    "sign fault": lambda: FreeDgFc(
        build_Ainf_bimodule(LabelMonoid(rank=1, truncation=1)).labeling,
        sign_fault=True),
}


def random_deep_tree(fc, rng, nodes):
    """A tree of ``nodes`` generators of arity <= 3, grown from a random
    generator by grafting a random generator onto a random leaf, each
    within what is left of the truncation; only the last graft may take
    the tree's last leaf (labeled structures have empty-input
    generators)."""
    pool = fc.generators(3)
    t = leaf_of(rng.choice([g for g in pool if g.arity()]))
    while len(tree_nodes(t)) < nodes:
        budget = fc.monoid.truncation - tree_label(t).total()
        leaves = tree_leaves(t)
        last = len(tree_nodes(t)) == nodes - 1
        fits = [(i, g) for i, e in enumerate(leaves, 1) for g in pool
                if g.profile.output == e and g.label.total() <= budget
                and (last or len(leaves) - 1 + g.arity())]
        i, g = rng.choice(fits)
        t = graft(t, i, leaf_of(g))
    return t


@pytest.mark.parametrize("shape", sorted(DEEP_TREE_SHAPES))
def test_delta_on_deep_trees_matches_reference(shape):
    fc = DEEP_TREE_SHAPES[shape]()
    for seed in range(8):
        rng = random.Random(f"{shape}:{seed}")
        t = random_deep_tree(fc, rng, rng.randint(3, 5))
        cell = free_cell(tree_profile(t), tree_label(t), tree_degree(t),
                         {t: 1})
        image = fc.delta(cell)
        assert image == _ref_delta(fc, cell), (seed, format_tree(t))
        assert fc.delta(image) == _ref_delta(fc, image), (seed,
                                                          format_tree(t))


def test_delta_on_trees_with_a_unit_node_matches_reference():
    # a unit node has degree 0: it shifts no sign and has no rule
    fc = ainf()
    m2, m3 = m_gen(fc, 2), m_gen(fc, 3)
    unit = unit_tree(fc.graph, "e", fc.monoid.zero())
    for t in (unit,
              CompTree(m3, (unit, CompTree(m2, ("e", "e")), "e")),
              CompTree(m3, ("e", CompTree(m2, ("e", unit)),
                            CompTree(m2, (unit, "e"))))):
        cell = free_cell(tree_profile(t), tree_label(t), tree_degree(t),
                         {t: 1})
        image = fc.delta(cell)
        assert image == _ref_delta(fc, cell), format_tree(t)
        square = fc.delta(image)
        assert square == _ref_delta(fc, image), format_tree(t)
        assert square.is_zero()


# ------------------------------------------------- custom rules & diagnostics


def test_custom_only_presentation():
    fc0 = ainf()
    g3, g4 = m_gen(fc0, 3), m_gen(fc0, 4)
    fc = FreeDgFc(fc0.labeling,
                  custom_rules={g3: fc0.delta_generator(g3)})
    assert fc.delta_generator(g3) == fc0.delta_generator(g3)
    assert fc.delta_generator(g4).is_zero()
    rep = delta_squared_report(fc, 4, gens=[g3, g4])
    assert rep.ok and rep.generators == 2
    # an empty table is a presentation too: every generator is closed
    empty = FreeDgFc(fc0.labeling, custom_rules={})
    assert empty.delta_generator(g3).is_zero()


def test_preset_is_custom_exactly_with_a_rule_table():
    lab = ainf().labeling
    assert FreeDgFc(lab).preset == "generalized"
    assert FreeDgFc(lab).graph is lab.graph
    assert FreeDgFc(lab, custom_rules={}).preset == "custom"
    assert FreeDgFc(lab, preset="custom", custom_rules={}).preset == "custom"
    # "custom" names a rule table, and a named preset has the standard
    # splitting, so neither comes without the other
    for preset, rules in (("custom", None), ("mystery", None),
                          ("ainf", {}), ("mystery", {})):
        with pytest.raises(CompositionError, match=f"got '{preset}'"):
            FreeDgFc(lab, preset=preset, custom_rules=rules)
    # the table builds named presets only: "generalized" has no graph
    with pytest.raises(CompositionError, match="got 'generalized'"):
        build_preset("generalized", TRIVIAL_MONOID)


def test_custom_rule_validation():
    fc0 = ainf()
    g3, g4 = m_gen(fc0, 3), m_gen(fc0, 4)
    with pytest.raises(CompositionError):
        FreeDgFc(fc0.labeling,
                 custom_rules={g3: fc0.delta_generator(g4)})
    with pytest.raises(CompositionError):
        FreeDgFc(fc0.labeling,
                 custom_rules={g4: fc0.delta(fc0.delta_generator(g4))})
    # degree 2 over the generator's boundary, but not a two-node tree: the
    # shape check itself must reject the rule
    m2 = leaf_of(m_gen(fc0, 2))
    for gen, tree in ((g4, graft(graft(m2, 1, m2), 1, m2)),
                      (g3, leaf_of(g3))):
        rule = free_cell(gen.profile, gen.label, 2, {tree: 1}, validate=False)
        with pytest.raises(CompositionError, match="two-node degree-2"):
            FreeDgFc(fc0.labeling, custom_rules={gen: rule})
    with pytest.raises(CompositionError, match="no inner node"):
        inner_position(leaf_of(g3))
    # a two-node degree-2 term whose nodes are not two generators: a unit
    # under a degree-2 node
    h = GeneratorSpec("h", g3.profile, g3.label, degree=2)
    unit = unit_tree(fc0.graph, "e", fc0.monoid.zero())
    rule = free_cell(g3.profile, g3.label, 2,
                     {CompTree(h, ("e", unit, "e")): 1})
    with pytest.raises(CompositionError, match="cell of generators"):
        FreeDgFc(fc0.labeling, custom_rules={g3: rule})


def test_custom_rule_terms_must_be_valid_trees():
    # delta reads a rule term as its outer node, inner node and the inner
    # node's position alone, so a rule term must be a valid tree over its
    # generator's boundary
    fc0 = ainf()
    g3, m2 = m_gen(fc0, 3), m_gen(fc0, 2)
    short_root = CompTree(g3, ("e", CompTree(m2, ("e", "e"))))
    with_bad_leaf = CompTree(m2, (CompTree(m2, ("e", "e")), "x"))
    for tree in (short_root, with_bad_leaf):
        rule = free_cell(g3.profile, g3.label, 2, {tree: 1}, validate=False)
        with pytest.raises(CompositionError):
            FreeDgFc(fc0.labeling, custom_rules={g3: rule})


def test_rule_tables_hold_generators_only():
    # a unit carries no differential, so a rule keyed by one is rejected,
    # not kept and ignored: {1[e]: m[e,e;e](m[;e](),e)} on unreduced ainf
    curved = build_Ainf_operad(TRIVIAL_MONOID, reduced=False)
    unit = unit_tree(curved.graph, "e", curved.monoid.zero()).gen
    term = graft(leaf_of(m_gen(curved, 2)), 1, leaf_of(m_gen(curved, 0)))
    rule = free_cell(unit.profile, unit.label, 2, {term: 1})
    assert format_tree(term) == "m[e,e;e](m[;e](),e)"
    with pytest.raises(CompositionError,
                       match=re.escape("no generator over e;e with label")):
        FreeDgFc(curved.labeling, custom_rules={unit: rule})
    # a term's node must be a generator too: m[;e] is none when reduced,
    # and a renamed spec over a generator's boundary is none either
    fc0 = ainf()
    g3 = m_gen(fc0, 3)
    with pytest.raises(CompositionError, match="no generator over ;e"):
        FreeDgFc(fc0.labeling,
                 custom_rules={g3: curved.delta_generator(m_gen(curved, 3))})
    m2, x = leaf_of(m_gen(fc0, 2)), leaf_of(
        GeneratorSpec("x", m_loop(2), fc0.monoid.zero()))
    for tree in (graft(m2, 1, x), graft(x, 2, m2)):
        rule = free_cell(g3.profile, g3.label, 2, {tree: 1})
        with pytest.raises(CompositionError, match="names x, not a gen"):
            FreeDgFc(fc0.labeling, custom_rules={g3: rule})


def test_label_bound_is_capped_by_truncation():
    rep = delta_squared_report(build_Ainf_operad(LabelMonoid(1, 1)), 3,
                               label_bound=5)
    assert rep.label_bound == 1
    assert "label <= 1" in rep.summary()


def test_sign_fault_breaks_square_zero():
    fc = FreeDgFc(ainf().labeling, sign_fault=True)
    rep = delta_squared_report(fc, 4)
    assert not rep.ok
    assert any("m[e,e,e,e;e]" == name for name, _ in rep.residues)
    assert "NONZERO" in rep.summary()


def test_unit_tree_composes_neutrally():
    fc = ainf()
    u = unit_tree(fc.graph, "e", fc.monoid.zero())
    t = leaf_of(m_gen(fc, 2))
    assert graft(t, 1, u) == t
    assert graft(u, 1, t) == t
    assert tree_degree(u) == 0


def test_unit_with_a_subtree_child_is_rejected():
    # a unit takes only its leaf: 1[e](m2) would print as 1[e], dropping
    # m2, and evaluate as the identity of the wrong shape
    fc = ainf()
    u, m2 = unit_tree(fc.graph, "e", fc.monoid.zero()), m_gen(fc, 2)
    bad = CompTree(u.gen, (leaf_of(m2),))
    with pytest.raises(CompositionError, match=r"unit 1\[e\] has a subtree"):
        validate_tree(bad)
    with pytest.raises(CompositionError, match="has a subtree"):
        free_cell(m2.profile, m2.label, 1, {bad: 1})
    # deeper in a tree too
    with pytest.raises(CompositionError, match="has a subtree"):
        validate_tree(CompTree(m2, ("e", bad)))
    # grafting onto a unit gives the subtree itself, which validates
    validate_tree(graft(u, 1, leaf_of(m2)))
    validate_tree(u)


# ------------------------------------------------------ interned generators


def test_generator_is_interned():
    fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
    loop, beta = m_loop(3), label(1)
    gen = fc.generator(loop, beta)
    assert fc.generator(loop, beta) is gen
    # equal boundary data built independently finds the same object
    assert fc.generator(m_loop(3), label(1)) is gen
    assert any(g is gen for g in fc.generators(3))
    with pytest.raises(CompositionError):
        fc.generator(m_loop(1), label(0))
    # a spec built outside and met first in a walked tree keeps its one id
    # when the structure interns its generator
    fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
    spec = GeneratorSpec("m[e,e;e]@(1)", m_loop(2), label(1))
    fc.delta(generator_cell(spec))
    assert fc.generator(m_loop(2), label(1)) is spec
    assert fc._nodes == [None, *fc._node_ids]


def test_equal_trees_and_specs_hash_equal_and_keep_repr():
    fc = ainf()
    m2, m3 = m_gen(fc, 2), m_gen(fc, 3)
    spec = GeneratorSpec(m2.name, m_loop(2), label(0))
    assert spec == m2 and spec is not m2 and hash(spec) == hash(m2)
    assert repr(spec) == (
        "GeneratorSpec(name='m[e,e;e]', profile=ProfileLoop(inputs=EdgePath("
        "edges=('e', 'e'), source='v', target='v'), output='e'), "
        "label=MonoidElem(coords=(0,)), degree=1)")
    t = CompTree(m3, ("e", CompTree(m2, ("e", "e")), "e"))
    built = CompTree(GeneratorSpec(m3.name, m_loop(3), label(0)),
                     ("e", CompTree(spec, ("e", "e")), "e"))
    assert built == t and hash(built) == hash(t)
    assert repr(built) == repr(t) == f"CompTree(gen={m3!r}, children=('e', " \
        f"CompTree(gen={m2!r}, children=('e', 'e')), 'e'))"
    assert {t: 5}[built] == 5
    assert CompTree(m2, ("e", "e")) != CompTree(m3, ("e", "e", "e"))


# Run under two hash seeds: "dump PATH" pickles a spec and its one-node
# tree; "load PATH" unpickles them next to a structure's own and prints
# whether each is found as a dictionary key.
_PICKLE_SCRIPT = """
import pickle, sys
from fcmc.freedg import build_Ainf_operad, leaf_of
from fcmc.graphs import EdgePath, ProfileLoop
from fcmc.labels import LabelMonoid, label
fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
gen = fc.generator(ProfileLoop(EdgePath(("e", "e"), "v", "v"), "e"), label(1))
mode, path = sys.argv[1:]
if mode == "dump":
    with open(path, "wb") as f:
        pickle.dump((gen, leaf_of(gen)), f)
else:
    with open(path, "rb") as f:
        spec, tree = pickle.load(f)
    print(spec == gen, spec in {gen: 1}, tree in {leaf_of(gen): 1},
          fc._node_id(spec) == fc._node_id(gen))
"""


def test_specs_and_trees_pickled_under_another_hash_seed_are_found(tmp_path):
    src = os.path.dirname(os.path.dirname(fcmc.freedg.__file__))
    path = str(tmp_path / "spec.pickle")
    for seed, mode in (("1", "dump"), ("2", "load")):
        proc = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, mode, path],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
    assert proc.stdout.split() == ["True"] * 4


def test_sign_fault_residue_strings_unchanged():
    fc0 = ainf()
    fc = FreeDgFc(fc0.labeling, sign_fault=True)
    rep = delta_squared_report(fc, 4)
    assert rep.residues == (("m[e,e,e,e;e]",
        "2*m[e,e;e](e,m[e,e;e](e,m[e,e;e](e,e))) "
        "+ 2*m[e,e;e](e,m[e,e;e](m[e,e;e](e,e),e)) "
        "+ 2*m[e,e;e](m[e,e;e](e,m[e,e;e](e,e)),e) "
        "+ 2*m[e,e;e](m[e,e;e](m[e,e;e](e,e),e),e)"),)
    b = build_Ainf_bimodule(LabelMonoid(rank=1, truncation=1))
    rep = delta_squared_report(
        FreeDgFc(b.labeling, sign_fault=True), 4)
    assert (rep.generators, len(rep.residues)) == (35, 21)
    assert hashlib.sha256(repr(rep.residues).encode()).hexdigest() == (
        "746032c166987095e571ccdd3bb589ea9558eb74b217b278d6db253d3267ff7a")



def test_generators_are_interned_specs_and_lookup_is_keyed():
    for fc in (build_Ainf_category(["x", "y"], TRIVIAL_MONOID),
               build_Ainf_bimodule(LabelMonoid(rank=1, truncation=1)),
               build_Ainf_operad(LabelMonoid(rank=2, truncation=2))):
        # a curvature insert (s = 0) puts an arity-5 outer node into the
        # rules of arity 4, so the sweep at 4 reads rules up to arity 5
        for gen in fc.generators(5):
            for rt, _ in fc.delta_generator(gen).terms:
                inner = next(c for c in rt.children if isinstance(c, CompTree))
                # both nodes of a rule term are the specs stored for their
                # generators; the trees around them are plain values
                assert rt.gen is fc.generator(rt.gen.profile, rt.gen.label)
                assert inner.gen is fc.generator(inner.gen.profile,
                                                 inner.gen.label)
                assert inner == leaf_of(inner.gen)
        # the generator table holds node ids, 0 where there is none; a
        # generator's id is given when it is interned
        assert all(type(v) is int for v in fc._generators.values())
        for node in fc._generators.values():
            if node:
                spec = fc._nodes[node]
                assert not spec.is_unit() and fc._node_ids[spec] == node
        # generator answers by the keyed lookup, no-generator keys included
        rank, cap = fc.monoid.rank, fc.monoid.truncation
        answers = set()
        for loop in enumerate_profile_loops(fc.graph, 3):
            ins = loop.inputs
            for coords in itertools.product(range(cap + 2), repeat=rank):
                beta = MonoidElem(coords)
                found = fc._find(ins.source, ins.target, ins.edges,
                                 loop.output, beta)
                if found == 0:
                    with pytest.raises(CompositionError,
                                       match="no generator over"):
                        fc.generator(loop, beta)
                else:
                    gen = fc.generator(loop, beta)
                    assert gen is fc._nodes[found]
                    assert (gen.profile, gen.label) == (loop, beta)
                answers.add(found == 0)
        assert answers == {True, False}
        # warmed up, the d^2 sweep stores nothing: output trees stay out
        keys = len(fc._generators)
        assert fc.delta(fc.unit_cell(fc.graph.edges[0].id)).is_zero()
        assert delta_squared_report(fc, 4).ok
        assert len(fc._generators) == keys
        # and a second sweep grows no table on the structure
        sizes = {k: len(v) for k, v in vars(fc).items()
                 if isinstance(v, (dict, list))}
        ids = dict(fc._node_ids)
        assert delta_squared_report(fc, 4).ok
        assert fc._node_ids == ids
        assert sizes == {k: len(v) for k, v in vars(fc).items()
                         if isinstance(v, (dict, list))}
        # the id table holds generator and unit specs only, and the rules
        # it compiled hold ids and coefficients, no word or tree
        assert fc._nodes == [None, *ids]
        assert any(spec.is_unit() for spec in ids)
        for spec, node in ids.items():
            assert fc._nodes[node] is spec
            assert spec.is_unit() or fc.generator(spec.profile,
                                                  spec.label) is spec
        for records in fc._word_rules[1:]:
            assert records is None or all(
                type(outer) is int and type(inner) is int and type(q) is int
                for outer, inner, q, _ in records)


# ------------------------------------------------- the d^2 sweep on rule words

PRESET_ARGS = {
    "ainf": ((), ()),
    "category": (("x", "y"), ()),
    "bimodule": ((), ()),
    "left-module": (("x", "y"), ()),
    "right-module": (("x", "y"), ()),
    "rmodule": (("a", "b", "c"), (("a",), ("b", "c"))),
}
MONOIDS = {"trivial": TRIVIAL_MONOID, "rank 1": LabelMonoid(1, 2),
           "rank 2": LabelMonoid(2, 1)}
# sweep bounds sized to keep the delta(delta_generator) reference quick
SWEEP_ARITY = {"trivial": 5, "rank 1": 4, "rank 2": 3}


def _custom_structure():
    """A rule table with non-unit coefficients and rules missing past
    arity 3, so the square has residues."""
    fc0 = build_Ainf_operad(LabelMonoid(1, 1))
    return FreeDgFc(fc0.labeling, custom_rules={
        g: fc0.delta_generator(g).scale(Fraction(k % 3 + 1, 2))
        for k, g in enumerate(fc0.generators(3))})


SWEEP_CASES = {
    **{f"{name} {mon}": (lambda name=name, mon=mon: build_preset(
        name, MONOIDS[mon], True, *PRESET_ARGS[name]), SWEEP_ARITY[mon])
       for name in PRESET_ARGS for mon in MONOIDS},
    "unreduced ainf rank 1": (lambda: build_preset(
        "ainf", LabelMonoid(1, 1), False), 3),
    "custom": (_custom_structure, 4),
}


def _no_rule_cell(self, gen):
    raise AssertionError(f"delta_generator({gen.name}) called")


def _with_fault(fc, fault):
    return FreeDgFc(fc.labeling, preset=fc.preset,
                    custom_rules=fc.custom_rules, sign_fault=fault)


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_on_rule_words_matches_delta_of_the_rule_cell(case, fault,
                                                           monkeypatch):
    make, arity = SWEEP_CASES[case]
    fc = _with_fault(make(), fault)
    # the sweep reads the rule records alone, never a rule cell
    with monkeypatch.context() as m:
        m.setattr(FreeDgFc, "delta_generator", _no_rule_cell)
        rep = delta_squared_report(fc, arity)
    ref = _with_fault(make(), fault)
    gens = ref.generators(arity)
    residues = tuple((g.name, str(d2)) for g in gens
                     if not (d2 := ref.delta(ref.delta_generator(g))).is_zero())
    assert (rep.ok, rep.generators, rep.residues) == (not residues, len(gens),
                                                      residues)
    if fault or case.startswith(("unreduced", "custom")):
        assert residues, case


def _spec_key(gen):
    ins = gen.profile.inputs
    return (ins.source, ins.edges, gen.profile.output, gen.label.coords)


@pytest.mark.parametrize("mon", ["trivial", "rank 1"])
@pytest.mark.parametrize("name", sorted(PRESET_ARGS))
def test_rule_records_from_the_splitting_loop_match_the_rule_cell(name, mon):
    # both the compiled records and the cell read off them against the
    # brute-force splitting, reduced and unreduced (curvature inserts)
    monoid = LabelMonoid(1, 1) if mon == "rank 1" else TRIVIAL_MONOID
    for reduced in (True, False):
        fc = build_preset(name, monoid, reduced, *PRESET_ARGS[name])
        gens = fc.generators(5)
        assert gens
        for gen in gens:
            want = ref_rule_terms(fc, gen)
            records = fc._records(gen)
            assert all(c == -1 for *_, c in records), gen.name
            assert sorted((_spec_key(fc._nodes[outer]), q,
                           _spec_key(fc._nodes[inner]))
                          for outer, inner, q, _ in records) == want, gen.name
            cell = fc.delta_generator(gen)
            assert (cell.profile, cell.label, cell.degree) == (
                gen.profile, gen.label, 2)
            read = []
            for rt, c in cell.terms:
                q, inner = next((q, t) for q, t in enumerate(rt.children)
                                if isinstance(t, CompTree))
                edges = rt.gen.profile.inputs.edges
                assert c == -1 and rt == CompTree(
                    rt.gen, edges[:q] + (leaf_of(inner.gen),)
                    + edges[q + 1:]), gen.name
                read.append((_spec_key(rt.gen), q, _spec_key(inner.gen)))
            assert sorted(read) == want, gen.name


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("mon", ["trivial", "rank 1"])
@pytest.mark.parametrize("name", sorted(PRESET_ARGS))
def test_rule_compilation_interns_only_generators_it_reads(name, mon,
                                                           reduced):
    # a splitting whose inner factor is no generator must not intern its
    # outer one: every interned generator is enumerated or named by a
    # compiled record
    monoid = LabelMonoid(1, 1) if mon == "rank 1" else TRIVIAL_MONOID
    fc = build_preset(name, monoid, reduced, *PRESET_ARGS[name])
    delta_squared_report(fc, 4)
    read = {fc._node_ids[g] for g in fc.generators(4)}
    read.update(node for records in fc._word_rules if records
                for outer, inner, _, _ in records for node in (outer, inner))
    interned = {node for node in fc._generators.values() if node}
    assert interned - read == set()
    if reduced and mon == "trivial":
        # no empty-input generator, so nothing above the swept arity
        assert max(fc._nodes[node].arity() for node in interned) == 4


def test_delta_generator_of_units_and_custom_generators():
    # the cases a rule's records cover besides the standard splitting: a
    # unit has none, a custom generator has its table's terms or none
    custom = _custom_structure()
    fc0 = build_Ainf_operad(custom.monoid)
    for fc in (fc0, custom):
        unit = fc.unit_cell("e").terms[0][0].gen
        assert fc.delta_generator(unit) == FreeCell(
            identity_loop(fc.graph, "e"), fc.monoid.zero(), 1, ())
    ruled = fc0.generators(3)
    unruled = [g for g in fc0.generators(4) if g not in custom.custom_rules]
    assert set(ruled) == set(custom.custom_rules) and unruled

    def check_cells():
        for g in unruled:
            assert custom.delta_generator(g) == FreeCell(g.profile, g.label,
                                                         2, ())
        for g in ruled:
            rule = custom.custom_rules[g]
            assert custom.delta_generator(g) == rule, g.name
            assert str(custom.delta_generator(g)) == str(rule)
        # the table's coefficients are fractions, not all -1
        assert {c for g in ruled for _, c in custom.delta_generator(g).terms
                } >= {Fraction(-1, 2), Fraction(-3, 2)}

    check_cells()
    assert not delta_squared_report(custom, 4).ok
    check_cells()                       # the sweep leaves them as they were
    # a table entry built unsorted and with a repeated term is kept
    # normalized, so its cell sums the repeat as delta's splice does
    g3 = m_gen(fc0, 3)
    t = fc0.delta_generator(g3).terms
    raw = FreeCell(g3.profile, g3.label, 2, (t[1], t[0], t[0]))
    fc = FreeDgFc(fc0.labeling, custom_rules={g3: raw})
    assert fc.delta_generator(g3) == fc.custom_rules[g3] == free_cell(
        g3.profile, g3.label, 2, {t[0][0]: -2, t[1][0]: -1})
    assert fc.delta(generator_cell(g3)) == fc.delta_generator(g3)


@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("mon", sorted(MONOIDS))
@pytest.mark.parametrize("name", sorted(PRESET_ARGS))
def test_generators_follow_the_fibers(name, mon, reduced):
    fc = build_preset(name, MONOIDS[mon], reduced, *PRESET_ARGS[name])
    for arity, max_label in ((3, None), (2, 1), (3, 0)):
        cap = fc.monoid.cap(max_label)
        want = [fc.generator(loop, b)
                for loop in enumerate_profile_loops(fc.graph, arity)
                for b in fiber(fc.labeling, loop)
                if b.total() <= cap
                and not (loop.inputs.edges == (loop.output,)
                         and b.is_zero())]
        assert fc.generators(arity, max_label) == want


# the square of each generator against delta applied to its rule cell: the
# sweep sums closed-form three-node terms, delta splices general words
CROSS_CHECK_PRESETS = {
    "ainf": ((), (), 6),
    "category": (("x", "y"), (), 4),
    "left-module": (("x", "y"), (), 4),
    "bimodule": ((), (), 4),
    "rmodule": (("a", "b", "c"), (("a",), ("b", "c")), 3),
}


def _two_loop_structure():
    graph = make_graph(["v"], [("b", "v", "v"), ("c", "v", "v")])
    return FreeDgFc(LabelingFc(graph, TRIVIAL_MONOID, True))


CROSS_CHECK_CASES = {
    **{f"{name} {mon} reduced={reduced}": (
        lambda name=name, mon=mon, reduced=reduced: build_preset(
            name, LabelMonoid(*mon), reduced, *CROSS_CHECK_PRESETS[name][:2]),
        CROSS_CHECK_PRESETS[name][2] - (mon[1] > 0))
       for name in CROSS_CHECK_PRESETS for mon in ((1, 0), (1, 1), (2, 1))
       for reduced in (True, False)},
    "custom": (_custom_structure, 4),
    "two loops": (_two_loop_structure, 3),
}


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("case", sorted(CROSS_CHECK_CASES))
def test_square_matches_delta_of_the_rule_cell(case, fault):
    make, arity = CROSS_CHECK_CASES[case]
    fc = _with_fault(make(), fault)
    gens = fc.generators(arity)
    assert gens
    for g in gens:
        assert fc._square(g) == fc.delta(fc.delta_generator(g)), g.name


# the d^2 sweep runs on the twin quotient and pulls residues back; the full
# per-generator sweep on the structure itself is the definition it must
# reproduce, generator by generator and byte for byte
TWIN_SWEEP_PRESETS = {
    "ainf": ((), (), 5),
    "category 2": (("x", "y"), (), 4),
    "category 3": (("x", "y", "z"), (), 4),
    "bimodule": ((), (), 4),
    "left-module": (("x", "y"), (), 4),
    "right-module": (("x", "y"), (), 4),
    "rmodule": (("a", "b", "c"), (("a",), ("b", "c")), 3),
    "rmodule 2+2": (("a", "b", "c", "d"), (("a", "c"), ("b", "d")), 3),
}


def _full_sweep(fc, arity):
    """(generators, residues) of the per-generator ``_square`` sweep on fc
    itself, with no quotient."""
    gens = fc.generators(arity)
    return len(gens), tuple((g.name, str(d2)) for g in gens
                            if not (d2 := fc._square(g)).is_zero())


def _assert_quotient_sweep_is_the_full_sweep(make, arity):
    # separate structures, so that the report and the reference share no
    # interned generator or compiled rule
    rep = delta_squared_report(make(), arity)
    count, residues = _full_sweep(make(), arity)
    assert (rep.ok, rep.generators, rep.residues) == (not residues, count,
                                                      residues)
    return residues


@pytest.mark.parametrize("fault", [False, True])
@pytest.mark.parametrize("reduced", [True, False])
@pytest.mark.parametrize("mon", ["trivial", "rank 1"])
@pytest.mark.parametrize("case", sorted(TWIN_SWEEP_PRESETS))
def test_quotient_sweep_matches_the_full_sweep_on_presets(case, mon, reduced,
                                                          fault):
    objects, parts, arity = TWIN_SWEEP_PRESETS[case]
    monoid = LabelMonoid(1, 1) if mon == "rank 1" else TRIVIAL_MONOID
    arity -= mon == "rank 1"

    def make():
        return _with_fault(build_preset(case.split()[0], monoid, reduced,
                                        objects, parts), fault)
    residues = _assert_quotient_sweep_is_the_full_sweep(make, arity)
    # a dropped sign shows from arity 4 on, and sooner through the
    # empty-input generators at label 1
    broken = not reduced or fault and (arity >= 4 or mon == "rank 1")
    assert bool(residues) == broken, case


def _generalized(g, monoid, reduced, fault):
    return FreeDgFc(LabelingFc(g, monoid, reduced), sign_fault=fault)


def test_quotient_sweep_matches_the_full_sweep_on_the_graph_family():
    twinned = [g for g in graph_family() if twin_quotient(g)[0] is not g]
    assert len(twinned) == 17
    nonzero = 0
    for g in twinned:
        # one bound less at three or four loops on one vertex, whose
        # sweeps would take seconds
        loops = max(sum(e.src == e.tgt == v for e in g.edges)
                    for v in g.vertex_ids())
        for monoid, arity in ((TRIVIAL_MONOID, 3), (LabelMonoid(1, 1), 2)):
            arity -= loops > 2
            for reduced in (True, False):
                for fault in (False, True):
                    nonzero += bool(_assert_quotient_sweep_is_the_full_sweep(
                        lambda: _generalized(g, monoid, reduced, fault),
                        arity))
    assert nonzero


def _blown_up(rng):
    """A graph of twins: two classes, the first of two or three members
    with c = 2 edges on and between them (parallel edges between twins),
    the second of one or two, 0 to 2 edges from each member of one class
    to each of the other, declared in a shuffled order."""
    sizes = [rng.choice((2, 3)), rng.choice((1, 2))]
    names = [[f"c{i}m{j}" for j in range(n)] for i, n in enumerate(sizes)]
    counts = {(0, 0): 2, (1, 1): rng.randrange(2),
              (0, 1): rng.randrange(3), (1, 0): rng.randrange(3)}
    pairs = [(u, w) for (i, k), n in counts.items()
             for u in names[i] for w in names[k] for _ in range(n)]
    rng.shuffle(pairs)
    return make_graph([v for cls in names for v in cls],
                      [(f"e{n}", u, w) for n, (u, w) in enumerate(pairs)])


@pytest.mark.parametrize("seed", range(4))
def test_quotient_sweep_matches_the_full_sweep_with_parallel_twin_edges(seed):
    g = _blown_up(random.Random(f"twins:{seed}"))
    assert len(twin_quotient(g)[0].vertices) == 2
    for reduced in (True, False):
        for fault in (False, True):
            # parallel edges break the square even when reduced
            assert _assert_quotient_sweep_is_the_full_sweep(
                lambda: _generalized(g, TRIVIAL_MONOID, reduced, fault), 2)


def test_square_is_summed_once_per_quotient_generator(monkeypatch):
    # category over three objects sweeps ainf's generators, each once; a
    # twin-free graph and a custom table are swept on the structure itself
    seen = []
    square = FreeDgFc._square

    def counted(self, gen):
        seen.append((self, gen))
        return square(self, gen)
    monkeypatch.setattr(FreeDgFc, "_square", counted)
    fc = build_Ainf_category(["x", "y", "z"], TRIVIAL_MONOID)
    rep = delta_squared_report(fc, 4)
    assert rep.ok and rep.generators == len(fc.generators(4)) > 100
    assert len({id(s) for s, _ in seen}) == 1 and seen[0][0] is not fc
    assert sorted(g.arity() for _, g in seen) == [2, 3, 4]
    assert seen[0][0].graph.vertex_ids() == ("x",)
    for fc in (build_Ainf_bimodule(TRIVIAL_MONOID), _custom_structure()):
        seen.clear()
        rep = delta_squared_report(fc, 4)
        assert [s for s, _ in seen] == [fc] * rep.generators


@pytest.mark.parametrize("variant", ["sign_fault", "unreduced"])
@pytest.mark.parametrize("name", ["ainf", "category", "left-module"])
def test_bounded_sweeps_restrict_the_larger_sweep(name, variant):
    # residues at arity <= a and label <= l are the arity-4, label-2
    # run's residues on the generators within those bounds
    def make():
        fc = build_preset(name, LabelMonoid(1, 2), variant != "unreduced",
                          *PRESET_ARGS[name])
        return _with_fault(fc, variant == "sign_fault")
    big = make()
    rep = delta_squared_report(big, 4, 2)
    spec = {g.name: g for g in big.generators(4, 2)}
    assert rep.residues and len(spec) == rep.generators
    for a in (2, 3):
        for l in (0, 1):
            small = delta_squared_report(make(), a, l)
            inside = {n for n, g in spec.items()
                      if g.arity() <= a and g.label.total() <= l}
            assert small.generators == len(inside)
            assert small.residues == tuple(r for r in rep.residues
                                           if r[0] in inside), (a, l)


def _category_3(fault):
    return _with_fault(build_Ainf_category(["x", "y", "z"], LabelMonoid(1, 1)),
                       fault)


def _interned_nothing(fc):
    return (not fc._generators and not fc._node_ids and fc._nodes == [None]
            and fc._word_rules == [None])


def test_quotient_sweep_interns_nothing_in_the_structure():
    # the sweep counts a twin-bearing structure's generators through the
    # quotient: a vanishing sweep interns none of them, and a failing one
    # builds its residues' specs without interning them either
    fc = _category_3(False)
    rep = delta_squared_report(fc, 4)
    assert rep.ok and _interned_nothing(fc)
    assert rep.generators == len(_category_3(False).generators(4)) > 100
    fc = _category_3(True)
    rep = delta_squared_report(fc, 4)
    count, residues = _full_sweep(_category_3(True), 4)
    assert (rep.ok, rep.generators, rep.residues) == (False, count, residues)
    assert _interned_nothing(fc)
    # over a twin-free graph the sweep squares fc itself, so it interns
    # the generators it counts
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    rep = delta_squared_report(fc, 3)
    assert len(fc._nodes) - 1 >= rep.generators == len(fc.generators(3))


def _assert_phi_carries_generators(g, monoid, arity):
    q, vmap, emap = twin_quotient(g)
    assert q is not g
    hits = 0
    for reduced in (True, False):
        fc = FreeDgFc(LabelingFc(g, monoid, reduced))
        fq = FreeDgFc(LabelingFc(q, monoid, reduced))
        for loop in enumerate_profile_loops(g, arity):
            ins = loop.inputs
            image = (vmap[ins.source], vmap[ins.target],
                     tuple(emap[e] for e in ins.edges), emap[loop.output])
            for beta in monoid.elements():
                is_gen = bool(fc._find(ins.source, ins.target, ins.edges,
                                       loop.output, beta))
                assert is_gen == bool(fq._find(*image, beta)), (
                    loop, beta, reduced)
                hits += is_gen
    return hits


def test_phi_carries_generators_on_the_graph_family():
    # the count of the quotient sweep rests on this: a (profile-loop,
    # label) pair is a generator exactly when its image under phi is one
    twinned = [g for g in graph_family() if twin_quotient(g)[0] is not g]
    assert len(twinned) == 17
    hits = 0
    for g in twinned:
        loops = max(sum(e.src == e.tgt == v for e in g.edges)
                    for v in g.vertex_ids())
        for monoid, arity in ((TRIVIAL_MONOID, 3), (LabelMonoid(1, 1), 2)):
            hits += _assert_phi_carries_generators(g, monoid,
                                                   arity - (loops > 2))
    assert hits


@pytest.mark.parametrize("seed", range(4))
def test_phi_carries_generators_with_parallel_twin_edges(seed):
    g = _blown_up(random.Random(f"twins:{seed}"))
    for monoid in (TRIVIAL_MONOID, LabelMonoid(1, 1)):
        assert _assert_phi_carries_generators(g, monoid, 2)
