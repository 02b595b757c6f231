import itertools
import math
import random
from fractions import Fraction

import pytest

from fcmc.graphs import (EdgePath, ProfileLoop, enumerate_profile_loops,
                         make_graph)
from fcmc.labels import LabelMonoid, LabelingFc, TRIVIAL_MONOID, label
import fcmc.algebra
from fcmc.freedg import (
    FreeDgFc,
    GeneratorSpec,
    build_Ainf_bimodule,
    build_Ainf_category,
    build_Ainf_operad,
    build_module_preset,
    build_rmodule_preset,
    compose_cells,
    generator_cell,
    graft,
    leaf_of,
)
from fcmc.chain import (
    ChainError,
    EndX,
    compose_end,
    hat_d,
    make_complex,
    multimap,
    zero_map,
)
from fcmc.algebra import (
    AlgebraData,
    AlgebraError,
    RelationFailure,
    RelationReport,
    _direct_index,
    _direct_residues,
    _direct_tables,
    _failing_pairs,
    _residue_witness,
    algebra_residue,
    check_algebra,
    check_both_routes,
    check_direct,
    evaluate_alpha,
    lift_dga,
    random_assignment,
    random_endx,
    route_disagreement,
)
from fcmc.serde import (algebra_job_from_doc, algebra_job_to_doc,
                        freedg_from_doc, freedg_to_doc)
from oracles import ref_ainf_residue, ref_direct_residues


def dual_numbers():
    return lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": 1}, ("eps", "eps"): {}})


def perturbed_dual_numbers():
    # drop associativity: (eps*1)*1 != eps*(1*1) under this table
    return lift_dga([("1", 0), ("eps", 0)], {}, {
        ("1", "1"): {"1": 1, "eps": 1}, ("1", "eps"): {"eps": 1},
        ("eps", "1"): {"eps": -1}, ("eps", "eps"): {}})


def upper_triangular():
    basis = [("E11", 0), ("E12", 0), ("E22", 0)]
    prod = {}
    for a in ("E11", "E12", "E22"):
        for b in ("E11", "E12", "E22"):
            i, j = int(a[1]), int(a[2])
            k, l = int(b[1]), int(b[2])
            prod[(a, b)] = {f"E{i}{l}": 1} if j == k else {}
    return lift_dga(basis, {}, prod)


def strict_two_object_category():
    """Pair-graph category with every hom one-dimensional and strictly
    associative composition, shifted into the preset's conventions."""
    fc = build_Ainf_category(["u", "w"], TRIVIAL_MONOID)
    complexes = {e.id: make_complex([(f"b_{e.id}", -1)], {})
                 for e in fc.graph.edges}
    X = EndX(fc.graph, complexes)
    assignment = {}
    for gen in fc.generators(2):
        e1, e2 = gen.profile.inputs.edges
        out = gen.profile.output
        # one-dimensional homs in shifted degree -1: the product sign is
        # the first argument's parity, here always -1
        assignment[gen] = multimap(
            X, (e1, e2), out, 1,
            {(f"b_{e1}", f"b_{e2}"): {f"b_{out}": -1}})
    return fc, AlgebraData(X, assignment)


def ground_field_bimodule():
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    complexes = {e: make_complex([(f"b{e}", -1)], {})
                 for e in ("e0", "e01", "e1")}
    X = EndX(fc.graph, complexes)
    z = fc.monoid.zero()

    def gen(word, out):
        return fc.generator(
            ProfileLoop(EdgePath(word,
                                 "v0" if word[0] != "e1" else "v1",
                                 "v1" if out != "e0" else "v0"), out), z)

    def entry(word, out):
        key = tuple(f"b{e}" for e in word)
        return multimap(X, word, out, 1, {key: {f"b{out}": -1}})

    assignment = {
        gen(("e0", "e0"), "e0"): entry(("e0", "e0"), "e0"),
        gen(("e1", "e1"), "e1"): entry(("e1", "e1"), "e1"),
        gen(("e0", "e01"), "e01"): entry(("e0", "e01"), "e01"),
        gen(("e01", "e1"), "e01"): entry(("e01", "e1"), "e01"),
    }
    return fc, AlgebraData(X, assignment)


# -------------------------------------------------------------- constructing


def test_algebra_data_validates_boundary():
    fc, A = dual_numbers()
    g2 = fc.generators(2)[0]
    bad = zero_map(A.X, ("e",), "e", 1)
    with pytest.raises(AlgebraError):
        AlgebraData(A.X, {g2: bad})


def test_algebra_data_validates_degree():
    fc, A = dual_numbers()
    g2 = fc.generators(2)[0]
    bad = zero_map(A.X, ("e", "e"), "e", 0)
    with pytest.raises(AlgebraError):
        AlgebraData(A.X, {g2: bad})


def test_unassigned_generator_acts_as_zero():
    fc, A = dual_numbers()
    g3 = fc.generators(3)[-1]
    assert g3 not in A.assignment
    assert A.alpha_of(g3).is_zero()


def test_lift_dga_rejects_a_degree_that_is_no_int():
    # a degree of 0.9 once shifted to 0 through int()
    with pytest.raises(ChainError, match="is not an int"):
        lift_dga([("a", 0.9)], {}, {})


def test_lift_dga_rejects_degree_breaking_table():
    with pytest.raises(AlgebraError):
        lift_dga([("a", 0), ("b", 1)], {}, {("a", "a"): {"b": 1}})


@pytest.mark.parametrize("table, unknown", [
    ({("1", "u"): {"w": 1}}, "w"),
    ({("1", "u"): {"w": 0}}, "w"),
    ({("q", "u"): {"u": 1}}, "q"),
    ({("1", "q"): {"u": 1}}, "q"),
])
def test_lift_dga_rejects_unknown_elements(table, unknown):
    # an undeclared factor or product is unusable input, not a KeyError
    with pytest.raises(AlgebraError, match=f"unknown element '{unknown}'"):
        lift_dga([("1", 0), ("u", 1)], {}, table)


@pytest.mark.parametrize("bad", [1.0, True])
def test_lift_dga_rejects_inexact_coefficients(bad):
    with pytest.raises(ChainError):
        lift_dga([("1", 0), ("eps", 0)], {}, {
            ("1", "1"): {"1": 1}, ("1", "eps"): {"eps": bad},
            ("eps", "1"): {"eps": 1}, ("eps", "eps"): {}})
    with pytest.raises(ChainError):
        lift_dga([("x", 0), ("y", 1)], {"x": {"y": bad}}, {})


# ------------------------------------------------------------ evaluate_alpha


def test_evaluate_single_node_is_the_assignment():
    fc, A = dual_numbers()
    g2 = fc.generators(2)[0]
    assert evaluate_alpha(A, generator_cell(g2)) == A.alpha_of(g2)


def test_evaluate_zero_cell_is_zero_map():
    fc, A = dual_numbers()
    g2 = fc.generators(2)[0]
    cell = generator_cell(g2)
    assert evaluate_alpha(A, cell - cell).is_zero()


def test_evaluate_unit_cell_is_identity():
    from fcmc.chain import identity_map
    fc, A = dual_numbers()
    assert evaluate_alpha(A, fc.unit_cell("e")) == identity_map(A.X, "e")


def test_evaluate_alpha_respects_composition():
    # alpha(c1 o_i c2) = alpha(c1) o_i alpha(c2) including all signs
    fc, A = dual_numbers()
    cells = [generator_cell(g) for g in fc.generators(4)]
    checked = 0
    for c1, c2 in itertools.product(cells, cells):
        for i in range(1, c1.profile.arity() + 1):
            lhs = evaluate_alpha(A, compose_cells(fc, c1, i, c2))
            rhs = compose_end(A.X, evaluate_alpha(A, c1), i,
                              evaluate_alpha(A, c2))
            assert lhs == rhs
            checked += 1
    assert checked > 10


def test_evaluate_alpha_composition_with_random_maps():
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    X = random_endx(fc.graph, 5, degree_range=(-1, 2))
    A = random_assignment(fc, X, 6, 3, density=0.8)
    cells = [generator_cell(g) for g in fc.generators(3)]
    for c1, c2 in itertools.product(cells, cells):
        for i in range(1, c1.profile.arity() + 1):
            lhs = evaluate_alpha(A, compose_cells(fc, c1, i, c2))
            rhs = compose_end(A.X, evaluate_alpha(A, c1), i,
                              evaluate_alpha(A, c2))
            assert lhs == rhs


def test_evaluate_alpha_single_node_graft_base_case():
    from fcmc.freedg import free_cell, tree_profile, tree_degree
    fc, A = dual_numbers()
    g2 = fc.generators(2)[0]
    t = leaf_of(g2)
    for i in (1, 2):
        grafted = graft(t, i, t)
        cell = free_cell(tree_profile(grafted), fc.monoid.zero(),
                         tree_degree(grafted), {grafted: 1})
        lhs = evaluate_alpha(A, cell)
        rhs = compose_end(A.X, A.alpha_of(g2), i, A.alpha_of(g2))
        assert lhs == rhs


# ------------------------------------------------------------ generic route


def test_zero_assignment_on_zero_differential_passes():
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    X = EndX(fc.graph, {"e": make_complex([("p", 0), ("q", 1)], {})})
    rep = check_algebra(fc, AlgebraData(X, {}), 5)
    assert rep.ok


def test_dual_numbers_pass_arity6():
    fc, A = dual_numbers()
    assert check_algebra(fc, A, 6).ok
    assert check_direct(fc, A, 6).ok


def test_upper_triangular_passes_arity5():
    fc, A = upper_triangular()
    assert check_algebra(fc, A, 5).ok
    assert check_direct(fc, A, 5).ok


def test_perturbed_fails_at_arity_3_with_witness():
    fc, A = perturbed_dual_numbers()
    g, d, agree = check_both_routes(fc, A, 5)
    assert agree and not g.ok and not d.ok
    assert g.lowest_failing_arity() == 3
    assert d.lowest_failing_arity() == 3
    assert "residue" in g.failures[0].witness
    assert "residue" in d.failures[0].witness
    assert "FAIL" in g.summary()


def test_report_fields():
    fc, A = dual_numbers()
    rep = check_algebra(fc, A, 4)
    assert rep.lowest_failing_arity() is None
    assert rep.route == "generic"
    assert "pass" in rep.summary()


# ------------------------------------------------------------- direct route


def test_direct_arity1_relation_is_d_squared():
    # with only the identity-shaped index, the relation sum collapses to
    # applying d twice; validated complexes make it vanish
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    cx = make_complex([("x", 0), ("y", 1)], {"x": {"y": 1}})
    A = AlgebraData(EndX(fc.graph, {"e": cx}), {})
    rep = check_direct(fc, A, 1)
    assert rep.ok


def test_ainf_labelled_document_on_pair_graph_runs_direct_route():
    # the preset name only names the report's route: the direct route reads
    # the relation sums off whatever graph the document carries
    cat = build_Ainf_category(["u", "w"], TRIVIAL_MONOID)
    X = random_endx(cat.graph, 5, max_dim=2, degree_range=(-1, 2))
    doc = algebra_job_to_doc(
        cat, random_assignment(cat, X, 1005, 3, density=0.6))
    doc["preset"] = "ainf"
    fc, A = algebra_job_from_doc(doc)
    assert fc.preset == "ainf" and fc.graph == cat.graph
    generic, direct, agree = check_both_routes(fc, A, 3)
    assert direct.route == "ainf-direct"
    assert agree and not generic.ok and direct.failures
    assert direct.checked == check_direct(cat, A, 3).checked


def test_strict_category_passes_both_routes():
    fc, A = strict_two_object_category()
    g = check_algebra(fc, A, 5)
    d = check_direct(fc, A, 5)
    assert g.ok and d.ok


def test_one_object_category_matches_operad_checker():
    fc, A = dual_numbers()
    cat = build_Ainf_category(["v"], TRIVIAL_MONOID)
    # transplant the same tables onto the pair-graph presentation
    cx = A.X.complex("e")
    X = EndX(cat.graph, {"v->v": cx})
    assignment = {}
    for gen, xi in A.assignment.items():
        cat_gen = cat.generator(
            ProfileLoop(EdgePath(("v->v",) * gen.arity(), "v", "v"),
                        "v->v"), cat.monoid.zero())
        assignment[cat_gen] = multimap(X, ("v->v",) * gen.arity(), "v->v",
                                       1, xi.table)
    B = AlgebraData(X, assignment)
    assert check_direct(cat, B, 5).ok == \
        check_direct(fc, A, 5).ok


def test_broken_category_composition_fails():
    fc, A = strict_two_object_category()
    tweaked = dict(A.assignment)
    victim = next(g for g in tweaked
                  if g.profile.inputs.edges == ("u->u", "u->u"))
    tweaked[victim] = multimap(
        A.X, ("u->u", "u->u"), "u->u", 1,
        {("b_u->u", "b_u->u"): {"b_u->u": 2}})
    B = AlgebraData(A.X, tweaked)
    g_rep = check_algebra(fc, B, 4)
    d_rep = check_direct(fc, B, 4)
    assert not g_rep.ok and not d_rep.ok
    assert g_rep.lowest_failing_arity() == d_rep.lowest_failing_arity() == 3


def test_ground_field_bimodule_passes():
    fc, A = ground_field_bimodule()
    g = check_algebra(fc, A, 5)
    d = check_direct(fc, A, 5)
    assert g.ok and d.ok


def test_zero_bimodule_passes():
    fc = build_Ainf_bimodule(TRIVIAL_MONOID)
    X = random_endx(fc.graph, 3, degree_range=(-1, 2))
    rep = check_direct(fc, AlgebraData(X, {}), 4)
    gen = check_algebra(fc, AlgebraData(X, {}), 4)
    assert rep.ok and gen.ok


# --------------------------------------------------------- route equivalence


@pytest.mark.parametrize("maker,preset_name", [
    (lambda: build_Ainf_operad(TRIVIAL_MONOID), "ainf"),
    (lambda: build_Ainf_category(["x", "y"], TRIVIAL_MONOID), "category"),
    (lambda: build_Ainf_bimodule(TRIVIAL_MONOID), "bimodule"),
])
def test_routes_agree_on_random_assignments(maker, preset_name):
    fc = maker()
    fails = 0
    for seed in range(15):
        X = random_endx(fc.graph, seed, degree_range=(-1, 2))
        A = random_assignment(fc, X, seed + 1000, 3, density=0.6)
        g, d, agree = check_both_routes(fc, A, 3)
        assert agree
        fails += (not g.ok)
    assert fails > 0  # the population must exercise the failing branch


def test_routes_agree_on_labeled_preset():
    fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=1))
    for seed in range(8):
        X = random_endx(fc.graph, seed, degree_range=(-1, 2))
        A = random_assignment(fc, X, seed, 3, density=0.6)
        g, d, agree = check_both_routes(fc, A, 3)
        assert agree


def test_routes_agree_below_the_truncation():
    # a label bound under the truncation skips labels on both routes
    fc = build_Ainf_operad(LabelMonoid(rank=1, truncation=2))
    loops = len(enumerate_profile_loops(fc.graph, 3))
    fails = 0
    for seed in range(6):
        X = random_endx(fc.graph, seed, degree_range=(-1, 2))
        A = random_assignment(fc, X, seed, 3, density=0.6)
        g1, d1, agree1 = check_both_routes(fc, A, 3, 1)
        g2, d2, agree2 = check_both_routes(fc, A, 3, 2)
        assert agree1 and agree2
        assert g1.label_bound == d1.label_bound == 1
        assert d1.checked == loops * 2  # labels (0) and (1) on every loop
        assert set(g1.failures) <= set(g2.failures)
        assert set(d1.failures) <= set(d2.failures)
        fails += len(g1.failures)
    assert fails > 0


def test_route_disagreement_names_the_failing_pairs():
    def report(route, names):
        return RelationReport(False, route, 9, 3, 1, tuple(
            RelationFailure(name, 2, beta, "w") for name, beta in names))

    generic = report("generic", [("m[e,e;e]@(1)", "(1)"),
                                 ("m[e,e,e;e]@(0)", "(0)")])
    same = report("ainf-direct", [("relation[e,e,e;e]@(0)", "(0)"),
                                  ("relation[e,e;e]@(1)", "(1)")])
    assert route_disagreement(generic, same) is None
    # the same lowest arity and verdict, but another pair
    other = report("ainf-direct", [("relation[e,e,e;e]@(0)", "(0)"),
                                   ("relation[e,e;e]@(0)", "(0)")])
    assert route_disagreement(generic, other) == (
        "only generic fails on e,e;e@(1); "
        "only ainf-direct fails on e,e;e@(0)")


# ---------------------------------------------------------- change of basis

# acceptance 3's presets and jobs; this subset of its seeds was fixed
# before the test first ran
BASIS_CHANGE_PRESETS = {
    "ainf": lambda: build_Ainf_operad(TRIVIAL_MONOID),
    "category": lambda: build_Ainf_category(["x", "y"], TRIVIAL_MONOID),
    "bimodule": lambda: build_Ainf_bimodule(TRIVIAL_MONOID),
    "left-module": lambda: build_module_preset(["x"], "left",
                                               TRIVIAL_MONOID),
    "right-module": lambda: build_module_preset(["x"], "right",
                                                TRIVIAL_MONOID),
    "rmodule": lambda: build_rmodule_preset(["x", "y"], [["x"], ["y"]],
                                            TRIVIAL_MONOID),
}
BASIS_CHANGE_SEEDS = (0, 7, 19, 33, 46)


def _rebuilt(A, complexes, table_of):
    X = EndX(A.X.graph, complexes)
    return AlgebraData(X, {
        gen: multimap(X, xi.inputs, xi.output, xi.degree, table_of(xi))
        for gen, xi in A.assignment.items()})


def _scaled(A, seed):
    """A in the basis lam_x * x of every complex, with seeded lam_x in
    Q^x: the coefficient c of y in f(x_1, ..., x_k) becomes
    c * lam_x1 * ... * lam_xk / lam_y, on d as on every map."""
    rng = random.Random(seed)
    lam = {(e, x): rng.choice((2, -3, Fraction(1, 2), Fraction(-2, 3), -1))
           for e, cx in sorted(A.X.complexes.items())
           for x in cx.basis.ids()}

    def scale(ins, out, table):
        return {args: {y: Fraction(c) * math.prod(
                    lam[e, x] for e, x in zip(ins, args)) / lam[out, y]
                       for y, c in vec.items()}
                for args, vec in table.items()}
    complexes = {
        e: make_complex(cx.basis.elements, {
            x: vec for (x,), vec in scale(
                (e,), e, {(x,): v for x, v in cx.d.items()}).items()})
        for e, cx in A.X.complexes.items()}
    return _rebuilt(A, complexes,
                    lambda xi: scale(xi.inputs, xi.output, xi.table))


def _reordered(A):
    """A with the order of every complex's basis reversed."""
    complexes = {e: make_complex(cx.basis.elements[::-1], cx.d)
                 for e, cx in A.X.complexes.items()}
    return _rebuilt(A, complexes, lambda xi: xi.table)


def _route_outcome(fc, A):
    generic, direct, agree = check_both_routes(fc, A, 4)
    assert agree
    return [(rep.checked, _failing_pairs(rep)) for rep in (generic, direct)]


def test_routes_are_invariant_under_change_of_basis():
    # a diagonal change of basis and a reordered basis give an isomorphic
    # algebra, so both routes fail on the same pairs with the same counts
    fails = jobs = 0
    for name, build in BASIS_CHANGE_PRESETS.items():
        fc = build()
        for seed in BASIS_CHANGE_SEEDS:
            X = random_endx(fc.graph, seed, max_dim=3, degree_range=(-1, 2))
            A = random_assignment(fc, X, seed + 1000, 4, density=0.6)
            want = _route_outcome(fc, A)
            assert _route_outcome(fc, _scaled(A, seed)) == want, (name, seed)
            assert _route_outcome(fc, _reordered(A)) == want, (name, seed)
            fails += bool(want[0][1])
            jobs += 1
    # the subset must exercise both verdicts for the invariance to mean much
    assert 0 < fails < jobs
    # a random assignment fails wherever its maps meet, whatever the
    # coefficients; the passing fixtures cancel exactly, so they also catch
    # a change of basis applied wrongly (dividing by lam_y is not optional)
    for fixture in (upper_triangular, strict_two_object_category,
                    ground_field_bimodule, perturbed_dual_numbers):
        fc, A = fixture()
        want = _route_outcome(fc, A)
        assert bool(want[0][1]) == (fixture is perturbed_dual_numbers)
        for seed in BASIS_CHANGE_SEEDS:
            assert _route_outcome(fc, _scaled(A, seed)) == want, (
                fixture.__name__, seed)
        assert _route_outcome(fc, _reordered(A)) == want, fixture.__name__


def test_generic_residue_matches_external_reference():
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    for seed in range(10):
        X = random_endx(fc.graph, seed, degree_range=(-1, 2))
        A = random_assignment(fc, X, seed + 1000, 4, density=0.6)
        cx = X.complex("e")
        ids = cx.basis.ids()
        idx = {x: k for k, x in enumerate(ids)}
        degs = [cx.degree(x) for x in ids]
        d_of = {idx[x]: {idx[y]: c for y, c in v.items()}
                for x, v in cx.d.items()}
        maps = {}
        for gen, xi in A.assignment.items():
            maps[gen.arity()] = {
                tuple(idx[a] for a in key): {idx[y]: c
                                             for y, c in vec.items()}
                for key, vec in xi.table.items()}
        for n in range(2, 5):
            ref = ref_ainf_residue(len(ids), degs, d_of, maps, n)
            gen = fc.generator(
                ProfileLoop(EdgePath(("e",) * n, "v", "v"), "e"),
                fc.monoid.zero())
            mine = algebra_residue(fc, A, gen)
            mine_idx = {
                tuple(idx[a] for a in key): {idx[y]: c
                                             for y, c in vec.items()}
                for key, vec in mine.table.items()}
            assert mine_idx == ref


DIRECT_PRESETS = {
    "ainf": lambda m, red: build_Ainf_operad(m, red),
    "category": lambda m, red: build_Ainf_category(["x", "y"], m, red),
    "bimodule": lambda m, red: build_Ainf_bimodule(m, red),
    "left-module": lambda m, red: build_module_preset(["x"], "left", m, red),
    "right-module": lambda m, red: build_module_preset(["x"], "right", m,
                                                       red),
    "rmodule": lambda m, red: build_rmodule_preset(["x", "y"],
                                                   [["x"], ["y"]], m, red),
}


def _generalized(vertices, edges):
    graph = make_graph(vertices, edges)
    return lambda m, red: FreeDgFc(LabelingFc(graph, m, red))


# generalized structures with two bridges between one pair of endpoints,
# so that the order in which bridges are met is exercised
DENSE_CASES = {
    **DIRECT_PRESETS,
    "two-loops": _generalized(["v"], [("b", "v", "v"), ("c", "v", "v")]),
    "parallel-edges": _generalized(
        ["u", "v"], [("b", "u", "v"), ("c", "u", "v"), ("p", "u", "u"),
                     ("q", "v", "v")]),
}


@pytest.mark.parametrize("reduced", [True, False],
                         ids=["reduced", "curved"])
@pytest.mark.parametrize("preset", sorted(DENSE_CASES))
def test_direct_residues_match_dense_reference(preset, reduced):
    # the sparse walk must return the dense scan's full ordered residue
    # list on every (profile-loop, label), and check_direct must report the
    # first residue of each failing pair as its witness
    monoids = [LabelMonoid(1, 1)]
    if preset == "ainf":
        monoids.append(LabelMonoid(2, 1))
    nonzero = 0
    for monoid in monoids:
        fc = DENSE_CASES[preset](monoid, reduced)
        for seed in range(6):
            X = random_endx(fc.graph, seed, max_dim=2, degree_range=(-1, 2))
            A = random_assignment(fc, X, seed + 100, 3, density=0.6)
            index = _direct_index(fc, A, fc.monoid.elements())
            expected = []
            for loop in enumerate_profile_loops(fc.graph, 3):
                for beta in fc.monoid.elements():
                    ref = ref_direct_residues(fc, A, loop, beta)
                    assert _direct_residues(index, loop, beta) == \
                        ref, (preset, reduced, monoid, seed, loop, beta)
                    if ref:
                        expected.append((loop.arity(), str(beta),
                                         _residue_witness(*ref[0])))
            rep = check_direct(fc, A, 3)
            assert [(f.arity, f.label, f.witness)
                    for f in rep.failures] == expected
            nonzero += len(expected)
    assert nonzero > 0  # the population must exercise nonzero residues


def _reference_residue(fc, A, gen):
    """The relation's meaning: hat_d(alpha(m)) minus alpha of m's rule
    cell, evaluated tree by tree."""
    return hat_d(A.X, A.alpha_of(gen)).sub(
        evaluate_alpha(A, fc.delta_generator(gen)))


def _custom_tables(fc0, arity):
    """Custom rule tables over fc0's labeling: empty, copied from fc0 up to
    the arity, and copied with coefficients -1/2, -1, -3/2 and 2 up to one
    below it (the generators above are delta-closed there)."""
    gens = fc0.generators(arity)
    low = fc0.generators(arity - 1)
    coeffs = [Fraction(1, 2), 1, Fraction(3, 2), -2]
    return {
        "empty": FreeDgFc(fc0.labeling, custom_rules={}),
        "copied": FreeDgFc(fc0.labeling, custom_rules={
            g: fc0.delta_generator(g) for g in gens}),
        "scaled": FreeDgFc(fc0.labeling, custom_rules={
            g: fc0.delta_generator(g).scale(coeffs[k % len(coeffs)])
            for k, g in enumerate(low)}),
    }


def _assert_residues_match(fc, A, arity):
    """algebra_residue against the reference on every generator in
    bounds, and check_algebra's report against the reference residues;
    returns the number of nonzero residues."""
    gens = fc.generators(arity)
    failures = []
    for gen in gens:
        ref = _reference_residue(fc, A, gen)
        assert algebra_residue(fc, A, gen) == ref, (fc.preset, gen.name)
        if not ref.is_zero():
            key = ref.support()[0]
            failures.append(RelationFailure(
                gen.name, gen.arity(), str(gen.label),
                _residue_witness(key, ref.apply(key))))
    rep = check_algebra(fc, A, arity)
    assert (rep.ok, rep.checked, rep.failures) == (
        not failures, len(gens), tuple(failures))
    return len(failures)


RESIDUE_MONOIDS = {"rank 1": LabelMonoid(1, 1), "rank 2": LabelMonoid(2, 1)}


@pytest.mark.parametrize("mon", sorted(RESIDUE_MONOIDS))
@pytest.mark.parametrize("reduced", [True, False],
                         ids=["reduced", "curved"])
@pytest.mark.parametrize("preset", sorted(DIRECT_PRESETS))
def test_residue_over_rule_records_matches_the_rule_cell(preset, reduced,
                                                         mon):
    # the generic route sums over rule records; the meaning it must keep
    # is hat_d(alpha(m)) - evaluate_alpha(A, delta_generator(m)), on the
    # preset and on custom tables over its labeling
    fc0 = DIRECT_PRESETS[preset](RESIDUE_MONOIDS[mon], reduced)
    for kind, fc in {"preset": fc0, **_custom_tables(fc0, 3)}.items():
        nonzero = 0
        for seed in range(8):
            X = random_endx(fc.graph, seed, max_dim=3, degree_range=(-1, 2))
            A = random_assignment(fc, X, seed + 100, 3, density=0.6)
            nonzero += _assert_residues_match(fc, A, 3)
        assert nonzero, kind  # the population must exercise nonzero residues


@pytest.mark.parametrize("mon", sorted(RESIDUE_MONOIDS))
@pytest.mark.parametrize("reduced", [True, False],
                         ids=["reduced", "curved"])
@pytest.mark.parametrize("preset", sorted(DIRECT_PRESETS))
def test_custom_tables_survive_the_document(preset, reduced, mon):
    # every table the structure accepts names generators only, so its
    # document reads back as the same table with the same differential
    fc0 = DIRECT_PRESETS[preset](RESIDUE_MONOIDS[mon], reduced)
    for kind, fc in _custom_tables(fc0, 3).items():
        fc2, _ = freedg_from_doc(freedg_to_doc(fc))
        assert fc2.custom_rules == fc.custom_rules, kind
        for g in fc.generators(3):
            assert fc2.delta_generator(g) == fc.delta_generator(g), g.name


FIXTURES = [dual_numbers, perturbed_dual_numbers, upper_triangular,
            strict_two_object_category, ground_field_bimodule]


@pytest.mark.parametrize("make", FIXTURES, ids=lambda f: f.__name__)
def test_residue_over_rule_records_matches_the_rule_cell_on_fixtures(make):
    fc0, A = make()
    arity = 4 if fc0.preset == "ainf" else 3
    for fc in (fc0, *_custom_tables(fc0, arity).values()):
        _assert_residues_match(fc, A, arity)


def _raise(*args, **kwargs):
    raise AssertionError("the generic route evaluated a rule cell")


def test_check_algebra_builds_no_rule_cell(monkeypatch):
    cases = [make() for make in FIXTURES]
    for preset in ("ainf", "bimodule", "rmodule"):
        fc0 = DIRECT_PRESETS[preset](LabelMonoid(1, 1), True)
        X = random_endx(fc0.graph, 5, max_dim=2, degree_range=(-1, 2))
        for fc in (fc0, _custom_tables(fc0, 3)["scaled"]):
            cases.append((fc, random_assignment(fc, X, 9, 3, density=0.6)))
    want = [check_algebra(fc, A, 3) for fc, A in cases]
    assert any(not rep.ok for rep in want) and any(rep.ok for rep in want)
    # fresh structures, so no record is compiled before the patch
    fresh = [(FreeDgFc(fc.labeling, preset=fc.preset,
                       custom_rules=fc.custom_rules), A) for fc, A in cases]
    monkeypatch.setattr(FreeDgFc, "delta_generator", _raise)
    monkeypatch.setattr(fcmc.algebra, "evaluate_alpha", _raise)
    monkeypatch.setattr(fcmc.algebra, "_evaluate_tree", _raise)
    assert [check_algebra(fc, A, 3) for fc, A in fresh] == want


def test_checks_build_only_the_labels_within_their_bound(monkeypatch):
    # a check's label bound, not the structure's truncation, sets how many
    # labels it builds: those within the clipped bound, a prefix of the
    # monoid's elements, so the reports are the same
    fc = build_Ainf_operad(LabelMonoid(3, 20))
    X = random_endx(fc.graph, 1)
    A = random_assignment(fc, X, 1, 2, 1)
    full = fc.monoid.elements()
    low = [b for b in full if b.total() <= 1]
    assert low == full[:len(low)] == LabelMonoid(3, 1).elements()
    built = []
    elements = LabelMonoid.elements

    def counted(self):
        out = elements(self)
        built.append(len(out))
        return out

    monkeypatch.setattr(LabelMonoid, "elements", counted)
    gens = fc.generators(2, 1)
    generic, direct, agree = check_both_routes(fc, A, 2, 1)
    assert built and set(built) == {len(low)}
    monkeypatch.undo()
    assert gens == [g for g in fc.generators(2) if g.label.total() <= 1]
    assert generic.checked == len(gens)
    assert direct.checked == len(low) * len(
        enumerate_profile_loops(fc.graph, 2))
    assert (generic.label_bound, direct.label_bound) == (1, 1)


def _names(code):
    """Every global or attribute name a code object and its nested code
    objects (comprehensions, lambdas) refer to."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names(const)
    return names


def test_direct_route_shares_no_code_with_generic_route():
    generic = {"hat_d", "compose_end", "delta_generator", "evaluate_alpha",
               "algebra_residue", "_evaluate_tree", "_records", "_residue",
               "_alpha_by_node", "_bridges", "_label_splits", "_splittings"}
    for fn in (_direct_residues, _direct_index, _direct_tables,
               check_direct):
        assert not _names(fn.__code__) & generic, fn.__name__


def test_assignment_keys_must_be_generators():
    # renamed keys sit over generator profiles and labels but are not the
    # structure's generators; the generic route used to read them as zero
    # and the direct route used them
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    X = random_endx(fc.graph, 0, 3, (-1, 2))
    A = random_assignment(fc, X, 100, 3, density=0.6)
    assert A.assignment
    renamed = AlgebraData(X, {
        GeneratorSpec("x" + gen.name, gen.profile, gen.label): xi
        for gen, xi in A.assignment.items()})
    for check in (check_algebra, check_direct, check_both_routes):
        with pytest.raises(AlgebraError, match="not a generator"):
            check(fc, renamed, 3)
    with pytest.raises(AlgebraError, match="not a generator"):
        algebra_residue(fc, renamed, next(iter(renamed.assignment)))
    # the renamed specs were not made nodes of the structure
    assert not any(gen in fc._node_ids for gen in renamed.assignment)


def test_curved_preset_notes():
    fc = build_Ainf_operad(TRIVIAL_MONOID, reduced=False)
    X = EndX(fc.graph, {"e": make_complex([("p", -1)], {})})
    rep = check_algebra(fc, AlgebraData(X, {}), 3)
    assert any("curved" in n for n in rep.notes)
    assert "curved" in rep.summary()


def test_sampler_determinism():
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    X1 = random_endx(fc.graph, 42)
    X2 = random_endx(fc.graph, 42)
    assert X1.complexes == X2.complexes
    A1 = random_assignment(fc, X1, 7, 3)
    A2 = random_assignment(fc, X2, 7, 3)
    assert A1.assignment == A2.assignment
