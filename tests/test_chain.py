from fractions import Fraction
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ref_compose, ref_hat_d

from fcmc.graphs import CompositionError, enumerate_profile_loops, make_graph
from fcmc.chain import (
    ChainError,
    CochainComplex,
    EndX,
    GradedBasis,
    check_end_dg,
    compose_end,
    hat_d,
    identity_map,
    make_complex,
    multimap,
    zero_map,
)


def loop_graph():
    return make_graph(["v"], [("e", "v", "v")])


def two_term():
    # x in degree 0 mapping onto y in degree 1
    return make_complex([("x", 0), ("y", 1)], {"x": {"y": 1}})


def end_two_term():
    return EndX(loop_graph(), {"e": two_term()})


# ------------------------------------------------------------------ building


def test_basis_rejects_duplicates():
    with pytest.raises(ChainError):
        GradedBasis([("x", 0), ("x", 1)])


def test_complex_rejects_wrong_degree_step():
    with pytest.raises(ChainError):
        make_complex([("x", 0), ("y", 2)], {"x": {"y": 1}})


def test_complex_rejects_nonzero_d_squared():
    with pytest.raises(ChainError):
        make_complex([("a", 0), ("b", 1), ("c", 2)],
                     {"a": {"b": 1}, "b": {"c": 1}})


def test_complex_accepts_cancelling_d_squared():
    cx = make_complex([("a", 0), ("b", 1), ("b2", 1), ("c", 2)],
                      {"a": {"b": 1, "b2": 1}, "b": {"c": 1},
                       "b2": {"c": -1}})
    assert cx.apply_d(cx.d_of("a")) == {}


def test_multimap_degree_consistency_is_hard_error():
    X = end_two_term()
    with pytest.raises(ChainError):
        multimap(X, ("e",), "e", 0, {("x",): {"y": 1}})
    good = multimap(X, ("e",), "e", 1, {("x",): {"y": 1}})
    assert good.degree == 1


def test_multimap_fraction_coefficients():
    X = end_two_term()
    xi = multimap(X, ("e",), "e", 0, {("x",): {"x": Fraction(1, 2)}})
    assert xi.scale(2).apply(("x",)) == {"x": 1}
    assert xi.sub(xi).is_zero()


def test_multimap_add_rejects_a_shape_mismatch():
    X = end_two_term()
    xi = multimap(X, ("e",), "e", 0, {("x",): {"x": 1}})
    for other in (multimap(X, ("e",), "e", 1, {("x",): {"y": 1}}),
                  multimap(X, (), "e", 0, {(): {"x": 1}})):
        with pytest.raises(ChainError, match="shape mismatch"):
            xi.add(other)
        with pytest.raises(ChainError, match="shape mismatch"):
            xi.sub(other)


@pytest.mark.parametrize("bad", [-3.0, 0.5, True, "1"])
def test_make_complex_rejects_inexact_coefficients(bad):
    with pytest.raises(ChainError):
        make_complex([("x", 0), ("y", 1)], {"x": {"y": bad}})


@pytest.mark.parametrize("bad", [-3.0, 0.5, True, "1"])
def test_multimap_rejects_inexact_coefficients(bad):
    X = end_two_term()
    with pytest.raises(ChainError):
        multimap(X, ("e",), "e", 1, {("x",): {"y": bad}})
    with pytest.raises(ChainError):
        multimap(X, (), "e", 0, {(): {"x": bad}})


def test_endx_requires_all_edges():
    g = make_graph(["v0", "v1"], [("e0", "v0", "v0"), ("e01", "v0", "v1")])
    with pytest.raises(Exception):
        EndX(g, {"e0": two_term()})


def test_arity_zero_maps_are_elements():
    X = end_two_term()
    el = multimap(X, (), "e", 1, {(): {"y": 1}})
    assert el.arity() == 0
    assert el.apply(()) == {"y": 1}
    # hat_d of an element is d of the element
    assert hat_d(X, el).is_zero()  # y is a cycle
    el0 = multimap(X, (), "e", 0, {(): {"x": 1}})
    assert hat_d(X, el0).apply(()) == {"y": 1}


# --------------------------------------------------------------------- hat_d


def test_hat_d_frozen_example():
    X = end_two_term()
    xi = multimap(X, ("e",), "e", 0, {("x",): {"x": 1}})
    dxi = hat_d(X, xi)
    assert dxi.degree == 1
    assert dxi.table == {("x",): {"y": 1}}


def test_hat_d_identity_is_zero():
    X = end_two_term()
    assert hat_d(X, identity_map(X, "e")).is_zero()


def test_hat_d_zero_differential_complex():
    g = loop_graph()
    X = EndX(g, {"e": make_complex([("p", 0), ("q", 1)], {})})
    for loop in enumerate_profile_loops(g, 2):
        for args in itertools.product(["p", "q"],
                                      repeat=loop.arity()):
            for y in ("p", "q"):
                xi = multimap(X, loop.inputs.edges, loop.output,
                              X.complex("e").degree(y)
                              - sum(X.complex("e").degree(a) for a in args),
                              {tuple(args): {y: 1}})
                assert hat_d(X, xi).is_zero()


def test_hat_d_squares_to_zero_exhaustive_dim2():
    X = end_two_term()
    cx = X.complex("e")
    for arity in (0, 1, 2):
        for args in itertools.product(("x", "y"), repeat=arity):
            for y in ("x", "y"):
                deg = cx.degree(y) - sum(cx.degree(a) for a in args)
                xi = multimap(X, ("e",) * arity, "e", deg,
                              {tuple(args): {y: 1}})
                assert hat_d(X, hat_d(X, xi)).is_zero()


# --------------------------------------------------------------- composition


def test_compose_end_unit_laws():
    X = end_two_term()
    xi = multimap(X, ("e", "e"), "e", -1,
                  {("x", "y"): {"x": 1}, ("y", "y"): {"y": 2}})
    unit = identity_map(X, "e")
    assert compose_end(X, xi, 1, unit) == xi
    assert compose_end(X, xi, 2, unit) == xi
    assert compose_end(X, unit, 1, xi) == xi


def test_compose_end_frozen_sign():
    # degree-1 inner map behind a degree-1 first argument flips the sign
    X = end_two_term()
    xi1 = multimap(X, ("e", "e"), "e", -1, {("y", "y"): {"y": 1}})
    xi2 = multimap(X, ("e",), "e", 1, {("x",): {"y": 1}})
    comp = compose_end(X, xi1, 2, xi2)
    assert comp.apply(("y", "x")) == {"y": -1}
    # in slot 1 nothing is crossed, so no sign
    comp1 = compose_end(X, xi1, 1, xi2)
    assert comp1.apply(("x", "y")) == {"y": 1}


def test_compose_end_slot_errors():
    X = end_two_term()
    xi = multimap(X, ("e",), "e", 0, {("x",): {"x": 1}})
    with pytest.raises(CompositionError):
        compose_end(X, xi, 2, xi)
    g = make_graph(["v0", "v1"], [("e0", "v0", "v0"), ("e01", "v0", "v1")])
    X2 = EndX(g, {"e0": two_term(), "e01": two_term()})
    a = multimap(X2, ("e0",), "e0", 0, {("x",): {"x": 1}})
    b = multimap(X2, ("e01",), "e01", 0, {("x",): {"x": 1}})
    with pytest.raises(CompositionError):
        compose_end(X2, a, 1, b)
    # a zero map on either side is checked the same way
    z = zero_map(X, ("e",), "e", 0)
    for outer, inner in ((z, xi), (xi, z), (z, z)):
        for slot in (0, 2):
            with pytest.raises(CompositionError):
                compose_end(X, outer, slot, inner)
    za = zero_map(X2, ("e0",), "e0", 0)
    zb = zero_map(X2, ("e01",), "e01", 0)
    for outer, inner in ((za, b), (a, zb), (za, zb)):
        with pytest.raises(CompositionError):
            compose_end(X2, outer, 1, inner)
    # a valid composition with a zero factor is the zero map of its shape
    outer = multimap(X2, ("e0", "e01"), "e01", 0, {("x", "y"): {"y": 1}})
    inner = multimap(X2, ("e01", "e0"), "e0", -1, {("y", "y"): {"y": 1}})
    zero_outer = zero_map(X2, ("e0", "e01"), "e01", 2)
    zero_inner = zero_map(X2, ("e01", "e0"), "e0", 3)
    for xi1, xi2 in ((zero_outer, inner), (outer, zero_inner),
                     (zero_outer, zero_inner)):
        for sign_fault in (False, True):
            comp = compose_end(X2, xi1, 1, xi2, sign_fault=sign_fault)
            assert comp.is_zero()
            assert comp.inputs == ("e01", "e0", "e01")
            assert comp.output == "e01"
            assert comp.degree == xi1.degree + xi2.degree


def test_compose_end_degrees_add():
    X = end_two_term()
    xi1 = multimap(X, ("e", "e"), "e", -1, {("y", "y"): {"y": 1}})
    xi2 = multimap(X, ("e",), "e", 1, {("x",): {"y": 1}})
    assert compose_end(X, xi1, 1, xi2).degree == 0
    assert compose_end(X, xi1, 1, xi2).inputs == ("e", "e")


# ------------------------------------------------------------------- reports


def test_check_end_dg_dim2_passes():
    rep = check_end_dg(end_two_term(), 2)
    assert rep.ok and rep.checked > 1000
    assert "pass" in rep.summary()


def test_check_end_dg_multi_edge_graph():
    g = make_graph(["v0", "v1"],
                   [("e0", "v0", "v0"), ("e01", "v0", "v1")])
    X = EndX(g, {"e0": two_term(),
                 "e01": make_complex([("p", 0), ("q", 1)], {})})
    rep = check_end_dg(X, 2)
    assert rep.ok


def two_vertex_end():
    g = make_graph(["v0", "v1"], [("e0", "v0", "v0"), ("e01", "v0", "v1"),
                                  ("e1", "v1", "v1")])
    return EndX(g, {"e0": make_complex([("a", 1)]),
                    "e01": make_complex([("b", 0)]),
                    "e1": make_complex([("c", -1)])})


@pytest.mark.parametrize("make_x", [end_two_term, two_vertex_end])
def test_check_end_dg_computes_no_composite_twice(monkeypatch, make_x):
    import fcmc.chain as chain
    compose = chain.compose_end
    alive, seen, repeats = [], set(), []

    def recording(X, xi1, i, xi2, sign_fault=False):
        alive.append((xi1, xi2))   # keeps every id() unique for the run
        key = (id(xi1), i, id(xi2), sign_fault)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return compose(X, xi1, i, xi2, sign_fault=sign_fault)

    monkeypatch.setattr(chain, "compose_end", recording)
    rep = check_end_dg(make_x(), 2)
    assert rep.ok and len(seen) > 100
    assert repeats == []


def test_check_end_dg_sign_fault_detected():
    rep = check_end_dg(end_two_term(), 2, sign_fault=True)
    assert not rep.ok
    assert "Leibniz" in rep.failure
    assert rep.witness is not None


def test_check_end_dg_sign_fault_first_failures_pinned():
    # the first failure in the audit's loop order, with the count before it
    rep = check_end_dg(end_two_term(), 2, sign_fault=True)
    assert (rep.failure, rep.witness, rep.checked) == (
        "Leibniz identity fails for hat_d against composition",
        "MultiMap((e,e;e) deg -1, 1 entries) o_2 "
        "MultiMap((e;e) deg -1, 1 entries)",
        226)
    # an odd-degree element: the sign fault survives Leibniz and the
    # nested identity and is caught by the parallel one
    X = EndX(loop_graph(), {"e": make_complex([("z", 1), ("w", 0)])})
    rep = check_end_dg(X, 2, sign_fault=True)
    assert (rep.failure, rep.witness, rep.checked) == (
        "parallel composition identity fails",
        "MultiMap((e,e;e) deg -1, 1 entries) MultiMap((;e) deg 1, 1 entries)"
        " MultiMap((;e) deg 1, 1 entries) i=1 k=2",
        1449)


class _Wrong:
    """A faulted result: equal to no map, and not zero."""

    def is_zero(self):
        return False


def _is_identity(X, xi):
    return xi.arity() == 1 and xi == identity_map(X, xi.output)


def _checks_before_first_nested(pop):
    """The population checks ``check_end_dg`` makes before its first
    nested-identity check, in its loop order, and that check's witness."""
    n = len(pop) + sum(xi.arity() + 1 for xi in pop)   # hat_d^2, unit laws
    pairs = [(xi1, i, xi2) for xi1 in pop for xi2 in pop
             for i in range(1, xi1.arity() + 1)
             if xi1.inputs[i - 1] == xi2.output]
    n += len(pairs)                                    # Leibniz
    for xi1, i, xi2 in pairs:
        for xi3 in pop:
            for j in range(1, xi2.arity() + 1):
                if xi2.inputs[j - 1] == xi3.output:
                    return n, f"{xi1!r} {xi2!r} {xi3!r} i={i} j={j}"
            n += sum(xi1.inputs[k - 1] == xi3.output  # parallel
                     for k in range(i + 1, xi1.arity() + 1))
    raise AssertionError("no nested check")


@pytest.mark.parametrize("failure", [
    "hat_d(identity) != 0", "hat_d^2 != 0", "xi o_i id != xi",
    "id o_1 xi != xi", "nested composition identity fails"])
def test_check_end_dg_failure_branches(monkeypatch, failure):
    # one injected fault per branch; the report stops at the first check
    # the fault breaks
    import fcmc.chain as chain
    X = end_two_term()
    pop = chain._population(X, enumerate_profile_loops(X.graph, 2))
    # two basis elements: no single-entry map of the population is an
    # identity, so the faults below only meet the audit's own units
    assert not any(_is_identity(X, xi) for xi in pop)
    edges = len(X.graph.edges)
    hat, compose = chain.hat_d, chain.compose_end
    made = []   # results handed out, kept alive so ``is`` stays meaningful

    def hat_d_of_identity(X, xi):
        return _Wrong() if _is_identity(X, xi) else hat(X, xi)

    def hat_d_of_a_differential(X, xi):
        if any(xi is d for d in made):
            return _Wrong()
        made.append(hat(X, xi))
        return made[-1]

    def onto_identity(X, xi1, i, xi2, sign_fault=False):
        if _is_identity(X, xi2):
            return _Wrong()
        return compose(X, xi1, i, xi2, sign_fault=sign_fault)

    def identity_first(X, xi1, i, xi2, sign_fault=False):
        if _is_identity(X, xi1):
            return _Wrong()
        return compose(X, xi1, i, xi2, sign_fault=sign_fault)

    def into_a_composite(X, xi1, i, xi2, sign_fault=False):
        if any(xi2 is c for c in made):
            return _Wrong()
        made.append(compose(X, xi1, i, xi2, sign_fault=sign_fault))
        return made[-1]

    first = next(k for k, xi in enumerate(pop) if xi.arity())
    nested_checked, nested_witness = _checks_before_first_nested(pop)
    name, fault, checked, witness = {
        "hat_d(identity) != 0": ("hat_d", hat_d_of_identity, 0, "edge e"),
        "hat_d^2 != 0": ("hat_d", hat_d_of_a_differential, edges,
                         repr(pop[0])),
        "xi o_i id != xi": (
            "compose_end", onto_identity,
            edges + len(pop) + sum(xi.arity() + 1 for xi in pop[:first]),
            f"{pop[first]!r} slot 1"),
        "id o_1 xi != xi": ("compose_end", identity_first,
                            edges + len(pop) + pop[0].arity(),
                            repr(pop[0])),
        "nested composition identity fails": (
            "compose_end", into_a_composite, edges + nested_checked,
            nested_witness),
    }[failure]
    monkeypatch.setattr(chain, name, fault)
    rep = check_end_dg(X, 2)
    assert not rep.ok
    assert (rep.failure, rep.witness, rep.checked) == (
        failure, witness, checked)
    assert rep.witness


# ---------------------------------------------------------------- properties


def sparse_maps(cx_ids, max_entries=2):
    """Strategy for random multimaps over the two-term complex."""
    degrees = {"x": 0, "y": 1}

    @st.composite
    def build(draw):
        arity = draw(st.integers(0, 2))
        args = draw(st.tuples(*([st.sampled_from(cx_ids)] * arity)))
        y = draw(st.sampled_from(cx_ids))
        deg = degrees[y] - sum(degrees[a] for a in args)
        coeff = draw(st.integers(-2, 2).filter(lambda c: c != 0))
        X = end_two_term()
        return X, multimap(X, ("e",) * arity, "e", deg,
                           {args: {y: coeff}})

    return build()


@given(sparse_maps(("x", "y")))
@settings(max_examples=50, deadline=None)
def test_hat_d_squares_to_zero_random(Xxi):
    X, xi = Xxi
    assert hat_d(X, hat_d(X, xi)).is_zero()


@given(sparse_maps(("x", "y")), sparse_maps(("x", "y")),
       st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_leibniz_random(a, b, slot):
    X, xi1 = a
    _, xi2 = b
    if xi1.arity() < slot:
        return
    lhs = hat_d(X, compose_end(X, xi1, slot, xi2))
    s = -1 if xi1.degree % 2 else 1
    rhs = compose_end(X, hat_d(X, xi1), slot, xi2).add(
        compose_end(X, xi1, slot, hat_d(X, xi2)).scale(s))
    assert lhs == rhs


@given(sparse_maps(("x", "y")), sparse_maps(("x", "y")),
       sparse_maps(("x", "y")))
@settings(max_examples=40, deadline=None)
def test_nested_identity_random(a, b, c):
    X, xi1 = a
    _, xi2 = b
    _, xi3 = c
    for i in range(1, xi1.arity() + 1):
        for j in range(1, xi2.arity() + 1):
            lhs = compose_end(X, compose_end(X, xi1, i, xi2), i - 1 + j, xi3)
            rhs = compose_end(X, xi1, i, compose_end(X, xi2, j, xi3))
            assert lhs == rhs


# ------------------------------------------------------------ dense oracle

ORACLE_EDGES = ("a", "b", "c")
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def plain_complexes(draw):
    """One random complex of dim <= 3 per edge, as plain (degs, d) dicts.

    A nonzero d^2 needs two chained nonzero arrows x -> y -> z, and in
    dim <= 3 such a chain is the whole of d^2 on x, so every arrow that
    would start or end such a chain is skipped.
    """
    cxs = {}
    for e in ORACLE_EDGES:
        dim = draw(st.integers(1, 3))
        degs = {f"{e}{n}": draw(st.integers(-1, 1)) for n in range(dim)}
        d: dict = {}
        hit = set()
        for x, dx in degs.items():
            for y, dy in degs.items():
                if dy != dx + 1 or x in hit or y in d:
                    continue
                c = draw(st.sampled_from((0,) + COEFFS))
                if c:
                    d.setdefault(x, {})[y] = c
                    hit.add(y)
        cxs[e] = (degs, d)
    return cxs


@st.composite
def plain_map(draw, cxs, inputs, output):
    """A degree-homogeneous table over the given complexes: empty, a
    single entry, or dense (each admissible entry kept with odds 0.6)."""
    out_degs = cxs[output][0]
    by_degree: dict = {}
    for key in itertools.product(*[list(cxs[e][0]) for e in inputs]):
        key_deg = sum(cxs[e][0][x] for e, x in zip(inputs, key))
        for y, dy in out_degs.items():
            by_degree.setdefault(dy - key_deg, []).append((key, y))
    degree = draw(st.sampled_from(sorted(by_degree)))
    pairs = by_degree[degree]
    kind = draw(st.sampled_from(("empty", "single", "dense")))
    if kind == "empty":
        chosen = []
    elif kind == "single":
        chosen = [draw(st.sampled_from(pairs))]
    else:
        chosen = [p for p in pairs if draw(st.integers(0, 9)) < 6]
    table: dict = {}
    for key, y in chosen:
        table.setdefault(key, {})[y] = draw(st.sampled_from(COEFFS))
    return degree, table


def words(max_arity=3):
    return st.integers(0, max_arity).flatmap(
        lambda n: st.tuples(*([st.sampled_from(ORACLE_EDGES)] * n)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_hat_d_and_compose_end_match_dense_oracle(data):
    cxs = data.draw(plain_complexes())
    g = make_graph(["v"], [(e, "v", "v") for e in ORACLE_EDGES])
    X = EndX(g, {e: make_complex(list(degs.items()), d)
                 for e, (degs, d) in cxs.items()})
    w1 = data.draw(words())
    out1 = data.draw(st.sampled_from(ORACLE_EDGES))
    deg1, t1 = data.draw(plain_map(cxs, w1, out1))
    xi1 = multimap(X, w1, out1, deg1, t1)
    assert hat_d(X, xi1).table == \
        ref_hat_d([cxs[e] for e in w1], cxs[out1], deg1, t1)
    for i in range(1, len(w1) + 1):
        w2 = data.draw(words())
        deg2, t2 = data.draw(plain_map(cxs, w2, w1[i - 1]))
        xi2 = multimap(X, w2, w1[i - 1], deg2, t2)
        for sign_fault in (False, True):
            got = compose_end(X, xi1, i, xi2, sign_fault=sign_fault)
            assert got.table == ref_compose(
                [cxs[e] for e in w1], t1, i, [cxs[e] for e in w2], deg2, t2,
                sign_fault)
