from fractions import Fraction
import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import ref_compose, ref_hat_d

from fcmc.graphs import CompositionError, enumerate_profile_loops, make_graph
from fcmc.chain import (
    ChainError,
    CochainComplex,
    EndX,
    GradedBasis,
    MultiMap,
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


def test_an_unknown_basis_id_is_rejected_whatever_its_coefficient():
    for c in (0, 1):
        with pytest.raises(ChainError, match="unknown basis id 'w'"):
            make_complex([("x", 0), ("y", 1)], {"x": {"w": c}})
        with pytest.raises(ChainError, match="unknown basis id 'w'"):
            make_complex([("x", 0), ("y", 1)], {"w": {"y": c}})
        with pytest.raises(ChainError, match="unknown basis id 'w'"):
            multimap(end_two_term(), ["e"], "e", 1, {("x",): {"w": c}})
        with pytest.raises(ChainError, match="unknown basis id 'w'"):
            multimap(end_two_term(), ["e"], "e", 1, {("w",): {"y": c}})


def test_multimap_drops_zero_coefficients():
    # a zero coefficient to a declared id is dropped, whatever its degree
    X = end_two_term()
    xi = multimap(X, ["e"], "e", 1, {("x",): {"y": 1, "x": 0},
                                     ("y",): {"x": 0}})
    assert xi.table == {("x",): {"y": 1}}
    assert multimap(X, ["e"], "e", 1, {("y",): {"x": 0}}).is_zero()
    assert make_complex([("x", 0), ("y", 1)], {"x": {"x": 0}}).d == {}


@pytest.mark.parametrize("bad", [-3.0, 0.5, True, "1"])
def test_make_complex_rejects_inexact_coefficients(bad):
    with pytest.raises(ChainError):
        make_complex([("x", 0), ("y", 1)], {"x": {"y": bad}})


@pytest.mark.parametrize("elements, bad", [
    ([("x", 1.5)], "degree 1.5 of 'x' is not an int"),
    ([("x", True)], "degree True of 'x' is not an int"),
    ([("x", "1")], "degree '1' of 'x' is not an int"),
    ([(2, 1)], "basis id 2 is not a str"),
    ([("x", 1.5), (2, True)], "degree 1.5"),
])
def test_make_complex_takes_basis_ids_and_degrees_as_given(elements, bad):
    # no id or degree is converted: make_complex([("x", 1.5), (2, True)])
    # once gave the basis (("x", 1), ("2", 1))
    with pytest.raises(ChainError, match=re.escape(bad)):
        make_complex(elements)


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
    # keyed by value: the Leibniz check's composites of two population
    # maps and every composite the associativity identities compute are
    # made once each.  The unit laws and the Leibniz right sides compose
    # with a unit or a differential; they are made once each by identity,
    # and a unit over a one-element basis equals a population map.
    import fcmc.chain as chain
    compose, hat, unit = chain.compose_end, chain.hat_d, chain.identity_map
    aside, keep = set(), []     # ids of units and differentials, kept alive
    seen, repeats = set(), []

    def set_aside(f):
        def made(*args):
            keep.append(f(*args))
            aside.add(id(keep[-1]))
            return keep[-1]
        return made

    def recording(X, xi1, i, xi2, sign_fault=False):
        if id(xi1) in aside or id(xi2) in aside:
            key = (id(xi1), i, id(xi2), sign_fault)
        else:
            key = (chain._value_key(xi1), i, chain._value_key(xi2),
                   sign_fault)
        if key in seen:
            repeats.append(key)
        seen.add(key)
        return compose(X, xi1, i, xi2, sign_fault=sign_fault)

    monkeypatch.setattr(chain, "compose_end", recording)
    monkeypatch.setattr(chain, "hat_d", set_aside(hat))
    monkeypatch.setattr(chain, "identity_map", set_aside(unit))
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


END_GRAPHS = {
    "loop": (["v"], [("e", "v", "v")]),
    "two-loop": (["v"], [("e", "v", "v"), ("f", "v", "v")]),
    "two-vertex": (["v0", "v1"], [("e0", "v0", "v0"), ("e01", "v0", "v1"),
                                  ("e1", "v1", "v1")]),
}


def _seeded_end(graph, dims, seed):
    """EndX over a named graph with a seeded complex of the given dim on
    each edge: degrees in -1..1, d pairing elements one degree apart (each
    element used at most once, so d^2 = 0)."""
    rng = random.Random(seed)
    verts, edges = END_GRAPHS[graph]
    cxs = {}
    for (e, _, _), dim in zip(edges, dims):
        degs = {f"{e}{n}": rng.randint(-1, 1) for n in range(dim)}
        d, used = {}, set()
        for x, dx in degs.items():
            for y, dy in degs.items():
                if dy == dx + 1 and not used & {x, y} \
                        and rng.random() < 0.7:
                    d[x] = {y: rng.choice((1, -1, 2, -2))}
                    used.update((x, y))
        cxs[e] = make_complex(list(degs.items()), d)
    return EndX(make_graph(verts, edges), cxs)


# (graph, dims, arity bound, seed, sign_fault) -> (ok, checked, failure,
# witness, compose_end calls): fixed values, so a change to the audit's
# loops that drops, adds or reorders an identity fails here
END_DG_PINS = {
    ("loop", (1,), 2, 1, False): (True, 55, None, None, 63),
    ("loop", (1,), 2, 1, True): (
        False, 28, "parallel composition identity fails",
        "MultiMap((e,e;e) deg 1, 1 entries) "
        "MultiMap((;e) deg -1, 1 entries) "
        "MultiMap((;e) deg -1, 1 entries) i=1 k=2",
        34),
    ("loop", (2,), 2, 1, False): (True, 7497, None, None, 3966),
    ("loop", (2,), 2, 1, True): (
        False, 1449, "parallel composition identity fails",
        "MultiMap((e,e;e) deg 1, 1 entries) "
        "MultiMap((;e) deg -1, 1 entries) "
        "MultiMap((;e) deg -1, 1 entries) i=1 k=2",
        1264),
    ("loop", (2,), 2, 4, False): (True, 7497, None, None, 3594),
    ("loop", (2,), 2, 4, True): (
        False, 114, "Leibniz identity fails for hat_d against composition",
        "MultiMap((e,e;e) deg 1, 1 entries) o_2 "
        "MultiMap((e;e) deg -1, 1 entries)",
        232),
    ("two-loop", (1, 1), 2, 1, False): (True, 1982, None, None, 1514),
    ("two-loop", (1, 1), 2, 1, True): (
        False, 470, "parallel composition identity fails",
        "MultiMap((e,e;e) deg 1, 1 entries) "
        "MultiMap((;e) deg -1, 1 entries) "
        "MultiMap((;e) deg -1, 1 entries) i=1 k=2",
        486),
    ("two-loop", (2, 1), 1, 4, False): (True, 395, None, None, 399),
    ("two-loop", (2, 1), 1, 4, True): (True, 395, None, None, 399),
    ("two-loop", (2, 2), 1, 1, False): (True, 1498, None, None, 1196),
    ("two-loop", (2, 2), 1, 1, True): (True, 1498, None, None, 1196),
    ("two-vertex", (1, 1, 1), 2, 0, False): (True, 218, None, None, 201),
    ("two-vertex", (1, 1, 1), 2, 0, True): (
        False, 177, "parallel composition identity fails",
        "MultiMap((e01,e1;e01) deg 1, 1 entries) "
        "MultiMap((e01,e1;e01) deg 1, 1 entries) "
        "MultiMap((;e1) deg -1, 1 entries) i=1 k=2",
        163),
    ("two-vertex", (1, 2, 1), 2, 0, False): (True, 2699, None, None, 1834),
    ("two-vertex", (1, 2, 1), 2, 0, True): (True, 2699, None, None, 1834),
    ("two-vertex", (2, 1, 1), 2, 4, False): (True, 8496, None, None, 4469),
    ("two-vertex", (2, 1, 1), 2, 4, True): (
        False, 147, "Leibniz identity fails for hat_d against composition",
        "MultiMap((e0,e0;e0) deg 1, 1 entries) o_2 "
        "MultiMap((e0;e0) deg -1, 1 entries)",
        270),
    ("two-vertex", (2, 2, 2), 1, 4, False): (True, 367, None, None, 392),
    ("two-vertex", (2, 2, 2), 1, 4, True): (True, 367, None, None, 392),
}


@pytest.mark.parametrize("case", list(END_DG_PINS), ids=str)
def test_check_end_dg_reports_and_call_counts_pinned(monkeypatch, case):
    # each distinct composite is computed once: the compose_end calls are
    # pinned with the report
    import fcmc.chain as chain
    graph, dims, arity, seed, sign_fault = case
    compose = chain.compose_end
    calls = []

    def counting(X, xi1, i, xi2, sign_fault=False):
        calls.append(i)
        return compose(X, xi1, i, xi2, sign_fault=sign_fault)

    monkeypatch.setattr(chain, "compose_end", counting)
    rep = check_end_dg(_seeded_end(graph, dims, seed), arity,
                       sign_fault=sign_fault)
    assert (rep.ok, rep.checked, rep.failure, rep.witness, len(calls)) == \
        END_DG_PINS[case]


def test_value_key_agrees_with_map_equality():
    # check_end_dg gives two maps one id exactly when their _value_keys
    # are equal
    import fcmc.chain as chain
    table = {("x",): {"x": 1}}
    one = MultiMap(("e",), "e", 0, table)
    frac = MultiMap(("e",), "e", 0, {("x",): {"x": Fraction(1)}})
    ab = MultiMap(("e",), "e", 0, {("x",): {"x": 1, "y": 2},
                                   ("y",): {"y": -1}})
    ba = MultiMap(("e",), "e", 0, {("y",): {"y": -1},
                                   ("x",): {"y": 2, "x": 1}})
    shapes = [((), "e", 0), (("e",), "e", 0), (("e",), "e", 1),
              (("f",), "e", 0), (("e",), "f", 0), (("e", "e"), "e", 0)]
    maps = [one, frac, ab, ba,
            MultiMap(("e",), "e", 1, table), MultiMap(("f",), "e", 0, table),
            MultiMap(("e",), "f", 0, table)] + \
        [MultiMap(ins, out, deg, {}) for ins, out, deg in shapes]
    key = chain._value_key
    assert key(one) == key(frac) and hash(key(one)) == hash(key(frac))
    assert key(ab) == key(ba)
    for xi1 in maps:
        for xi2 in maps:
            assert (key(xi1) == key(xi2)) == (xi1 == xi2)
    # equal tables of another degree, inputs or output, and zero maps of
    # different shapes, get keys of their own
    assert len({key(xi) for xi in maps}) == len(maps) - 2


def _reference_end_dg(X, arity_bound, sign_fault=False):
    """``check_end_dg`` without its composition table: the same loops,
    checks and witnesses, with both sides of every associativity identity
    composed afresh through ``compose_end`` and compared as maps."""
    import fcmc.chain as chain
    compose, hat = chain.compose_end, chain.hat_d
    pop = chain._population(X, enumerate_profile_loops(X.graph, arity_bound))
    checked = 0

    def fail(what, wit):
        return chain.EndDgReport(False, checked, what, wit)

    units = {e: identity_map(X, e) for e in X.graph.edge_ids()}
    for e, unit in units.items():
        if not hat(X, unit).is_zero():
            return fail("hat_d(identity) != 0", f"edge {e}")
        checked += 1
    for xi in pop:
        if not hat(X, hat(X, xi)).is_zero():
            return fail("hat_d^2 != 0", repr(xi))
        checked += 1
    for xi in pop:
        for i in range(1, xi.arity() + 1):
            if compose(X, xi, i, units[xi.inputs[i - 1]]) != xi:
                return fail("xi o_i id != xi", f"{xi!r} slot {i}")
            checked += 1
        if compose(X, units[xi.output], 1, xi) != xi:
            return fail("id o_1 xi != xi", repr(xi))
        checked += 1

    def fits(xi1, xi2):
        return [i for i in range(1, xi1.arity() + 1)
                if xi1.inputs[i - 1] == xi2.output]

    for xi1 in pop:
        s = -1 if xi1.degree % 2 else 1
        for xi2 in pop:
            for i in fits(xi1, xi2):
                lhs = hat(X, compose(X, xi1, i, xi2, sign_fault=sign_fault))
                rhs = compose(X, hat(X, xi1), i, xi2,
                              sign_fault=sign_fault).add(
                    compose(X, xi1, i, hat(X, xi2),
                            sign_fault=sign_fault).scale(s))
                if lhs != rhs:
                    return fail("Leibniz identity fails for hat_d against "
                                "composition", f"{xi1!r} o_{i} {xi2!r}")
                checked += 1
    for xi1 in pop:
        for xi2 in pop:
            for i in fits(xi1, xi2):
                left = compose(X, xi1, i, xi2, sign_fault=sign_fault)
                for xi3 in pop:
                    for j in fits(xi2, xi3):
                        lhs = compose(X, left, i - 1 + j, xi3,
                                      sign_fault=sign_fault)
                        rhs = compose(X, xi1, i,
                                      compose(X, xi2, j, xi3,
                                              sign_fault=sign_fault),
                                      sign_fault=sign_fault)
                        if lhs != rhs:
                            return fail("nested composition identity fails",
                                        f"{xi1!r} {xi2!r} {xi3!r} i={i} j={j}")
                        checked += 1
                    for k in fits(xi1, xi3):
                        if k <= i:
                            continue
                        lhs = compose(X, left, k - 1 + xi2.arity(), xi3,
                                      sign_fault=sign_fault)
                        s = -1 if xi2.degree % 2 and xi3.degree % 2 else 1
                        rhs = compose(X, compose(X, xi1, k, xi3,
                                                 sign_fault=sign_fault),
                                      i, xi2, sign_fault=sign_fault).scale(s)
                        if lhs != rhs:
                            return fail("parallel composition identity fails",
                                        f"{xi1!r} {xi2!r} {xi3!r} i={i} k={k}")
                        checked += 1
    return chain.EndDgReport(True, checked, None, None)


REFERENCE_DIMS = {"loop": [(1,), (2,)],
                  "two-loop": [(1, 1), (2, 1), (1, 2), (2, 2)],
                  "two-vertex": [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1)]}


# two-loop (2, 2) at arity bound 2 is left out: the reference takes
# seconds there
REFERENCE_CASES = [(g, d, a) for g, ds in REFERENCE_DIMS.items() for d in ds
                   for a in (1, 2) if (g, d, a) != ("two-loop", (2, 2), 2)]


@pytest.mark.parametrize("sign_fault", [False, True])
@pytest.mark.parametrize("graph,dims,arity", REFERENCE_CASES, ids=str)
def test_check_end_dg_matches_the_fresh_compose_reference(graph, dims, arity,
                                                          sign_fault):
    for seed in (2, 5):
        X = _seeded_end(graph, dims, seed)
        assert check_end_dg(X, arity, sign_fault=sign_fault) == \
            _reference_end_dg(X, arity, sign_fault=sign_fault)


@pytest.mark.parametrize("graph,dims", [("loop", (2,)), ("two-loop", (2, 1)),
                                        ("two-vertex", (2, 1, 1))], ids=str)
def test_check_end_dg_matches_the_reference_under_a_value_chosen_fault(
        monkeypatch, graph, dims):
    # a seeded composite of two population maps, longer than the arity
    # bound, so only the associativity identities use it as an outer map;
    # every composite made with it as the outer map comes out one degree
    # off, with its table right
    import fcmc.chain as chain
    X, compose = _seeded_end(graph, dims, 7), chain.compose_end
    pop = chain._population(X, enumerate_profile_loops(X.graph, 2))
    long = [comp for xi1 in pop for xi2 in pop
            for i in range(1, xi1.arity() + 1)
            if xi1.inputs[i - 1] == xi2.output
            and (comp := compose(X, xi1, i, xi2)).table
            and comp.arity() > 2]
    target = random.Random(7).choice(long)

    def faulted(X, xi1, i, xi2, sign_fault=False):
        comp = compose(X, xi1, i, xi2, sign_fault=sign_fault)
        if xi1 == target:
            return MultiMap(comp.inputs, comp.output, comp.degree + 1,
                            comp.table)
        return comp

    monkeypatch.setattr(chain, "compose_end", faulted)
    rep = check_end_dg(X, 2)
    assert not rep.ok
    assert rep == _reference_end_dg(X, 2)


class _Wrong:
    """A faulted result: equal to no map, and not zero."""

    def is_zero(self):
        return False


def _is_identity(X, xi):
    return xi.arity() == 1 and xi == identity_map(X, xi.output)


def _checks_before_first(pop, kind):
    """The population checks ``check_end_dg`` makes before its first
    ``kind`` check ("Leibniz", "nested" or "parallel"), in its loop order,
    that check's witness, and its operands: ``(xi1, i, xi2)`` for Leibniz,
    ``(xi1, i, xi2, xi3, j)`` or ``(xi1, i, xi2, xi3, k)`` otherwise."""
    n = len(pop) + sum(xi.arity() + 1 for xi in pop)   # hat_d^2, unit laws
    pairs = [(xi1, i, xi2) for xi1 in pop for xi2 in pop
             for i in range(1, xi1.arity() + 1)
             if xi1.inputs[i - 1] == xi2.output]
    if kind == "Leibniz":
        xi1, i, xi2 = pairs[0]
        return n, f"{xi1!r} o_{i} {xi2!r}", pairs[0]
    n += len(pairs)                                    # Leibniz
    for xi1, i, xi2 in pairs:
        for xi3 in pop:
            for j in range(1, xi2.arity() + 1):
                if xi2.inputs[j - 1] == xi3.output:
                    if kind == "nested":
                        return (n, f"{xi1!r} {xi2!r} {xi3!r} i={i} j={j}",
                                (xi1, i, xi2, xi3, j))
                    n += 1
            for k in range(i + 1, xi1.arity() + 1):
                if xi1.inputs[k - 1] == xi3.output:
                    if kind == "parallel":
                        return (n, f"{xi1!r} {xi2!r} {xi3!r} i={i} k={k}",
                                (xi1, i, xi2, xi3, k))
                    n += 1
    raise AssertionError(f"no {kind} check")


def _negated_at(outer, slot, inner, compose):
    """``compose``, except that outer o_slot inner, matched by value, comes
    out negated."""
    def faulted(X, xi1, i, xi2, sign_fault=False):
        comp = compose(X, xi1, i, xi2, sign_fault=sign_fault)
        return comp.scale(-1) if (xi1, i, xi2) == (outer, slot, inner) \
            else comp
    return faulted


def end_zero_d():
    # z in degree 1, w in degree 0, zero differential: hat_d of every map
    # vanishes, so the Leibniz check cannot see a composite off by a sign
    return EndX(loop_graph(), {"e": make_complex([("z", 1), ("w", 0)])})


@pytest.mark.parametrize("failure", [
    "hat_d(identity) != 0", "hat_d^2 != 0", "xi o_i id != xi",
    "id o_1 xi != xi", "Leibniz identity fails for hat_d against composition",
    "nested composition identity fails",
    "parallel composition identity fails"])
def test_check_end_dg_failure_branches(monkeypatch, failure):
    # one injected fault per branch; the report stops at the first check
    # the fault breaks
    import fcmc.chain as chain
    # the associativity checks read the composites the Leibniz check made;
    # over end_two_term the first nested check reads only composites that
    # Leibniz sees, and the first parallel check compares one composite
    # with itself, so those two faults go to a complex with d = 0
    X = end_zero_d() if failure in (
        "nested composition identity fails",
        "parallel composition identity fails") else end_two_term()
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

    def recording(X, xi1, i, xi2, sign_fault=False):
        made.append(compose(X, xi1, i, xi2, sign_fault=sign_fault))
        return made[-1]

    def hat_d_of_a_composite(X, xi):
        return _Wrong() if any(xi is c for c in made) else hat(X, xi)

    first = next(k for k, xi in enumerate(pop) if xi.arity())
    leibniz_checked, leibniz_witness, _ = _checks_before_first(pop,
                                                               "Leibniz")
    # the nested check's left factor xi1 o_i xi2, and the parallel one's
    # right side (xi1 o_k xi3) o_i xi2, each negated by the value of its
    # factors
    nested_checked, nested_witness, (xi1, i, xi2, _, _) = \
        _checks_before_first(pop, "nested")
    nested = _negated_at(xi1, i, xi2, compose)
    parallel_checked, parallel_witness, (xi1, i, xi2, xi3, k) = \
        _checks_before_first(pop, "parallel")
    parallel = _negated_at(compose(X, xi1, k, xi3), i, xi2, compose)
    faults, checked, witness = {
        "hat_d(identity) != 0": ({"hat_d": hat_d_of_identity}, 0, "edge e"),
        "hat_d^2 != 0": ({"hat_d": hat_d_of_a_differential}, edges,
                         repr(pop[0])),
        "xi o_i id != xi": (
            {"compose_end": onto_identity},
            edges + len(pop) + sum(xi.arity() + 1 for xi in pop[:first]),
            f"{pop[first]!r} slot 1"),
        "id o_1 xi != xi": ({"compose_end": identity_first},
                            edges + len(pop) + pop[0].arity(),
                            repr(pop[0])),
        "Leibniz identity fails for hat_d against composition": (
            {"compose_end": recording, "hat_d": hat_d_of_a_composite},
            edges + leibniz_checked, leibniz_witness),
        "nested composition identity fails": (
            {"compose_end": nested}, edges + nested_checked,
            nested_witness),
        "parallel composition identity fails": (
            {"compose_end": parallel}, edges + parallel_checked,
            parallel_witness),
    }[failure]
    for name, fault in faults.items():
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


# ------------------------------------------------------ clean-table invariant


def _assert_clean(xi):
    """No stored vector is empty and no stored coefficient is zero, so the
    map is zero exactly when its table is empty."""
    for key, vec in xi.table.items():
        assert vec, f"empty vector at {key}"
        assert all(c != 0 for c in vec.values()), f"zero at {key}: {vec}"
    assert xi.is_zero() == (xi.table == {})


def _cancelling(degs, t1, i, c):
    """A table t and an element m1 + c*m2 of the slot-i complex (degrees
    ``degs``) whose composite at slot i cancels at one key, or None.

    For an entry (pre, m1, post) of t1 and an id m2 != m1 of m1's degree,
    t is t1 with (pre, m2, post) set to minus t1's value there over c, so
    the two products reaching pre + post sum to zero; m2 has m1's degree,
    so t stays homogeneous."""
    for key, vec in t1.items():
        m1 = key[i - 1]
        for m2, deg in degs.items():
            if m2 != m1 and deg == degs[m1]:
                pre, post = key[:i - 1], key[i:]
                t = dict(t1)
                t[pre + (m2,) + post] = {y: -v / Fraction(c)
                                         for y, v in vec.items()}
                return t, {(): {m1: 1, m2: c}}, deg, pre + post
    return None


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_results_keep_the_table_clean(data):
    cxs = data.draw(plain_complexes())
    g = make_graph(["v"], [(e, "v", "v") for e in ORACLE_EDGES])
    X = EndX(g, {e: make_complex(list(degs.items()), d)
                 for e, (degs, d) in cxs.items()})
    w1 = data.draw(words())
    out1 = data.draw(st.sampled_from(ORACLE_EDGES))
    deg1, t1 = data.draw(plain_map(cxs, w1, out1))
    xi1 = multimap(X, w1, out1, deg1, t1)
    # xi1 reweighted: each coefficient kept, negated, zeroed or replaced,
    # so that sums with xi1 cancel at some keys
    other = multimap(X, w1, out1, deg1, {
        k: {y: data.draw(st.sampled_from((v, -v, 0) + COEFFS))
            for y, v in vec.items()} for k, vec in t1.items()})
    c = data.draw(st.sampled_from(COEFFS))
    zeros = [hat_d(X, hat_d(X, xi1)), xi1.add(xi1.scale(-1)), xi1.sub(xi1),
             xi1.scale(0), hat_d(X, identity_map(X, out1))]
    assert all(z.table == {} for z in zeros)
    results = zeros + [xi1, hat_d(X, xi1), xi1.scale(c), xi1.add(other),
                       xi1.sub(other), xi1.add(other.scale(c))]
    for i in range(1, len(w1) + 1):
        w2 = data.draw(words())
        deg2, t2 = data.draw(plain_map(cxs, w2, w1[i - 1]))
        xi2 = multimap(X, w2, w1[i - 1], deg2, t2)
        for sign_fault in (False, True):
            results.append(compose_end(X, xi1, i, xi2,
                                       sign_fault=sign_fault))
        forced = _cancelling(cxs[w1[i - 1]][0], t1, i, c)
        if forced is not None:
            t, element, deg, key = forced
            for sign_fault in (False, True):
                comp = compose_end(X, multimap(X, w1, out1, deg1, t), i,
                                   multimap(X, (), w1[i - 1], deg, element),
                                   sign_fault=sign_fault)
                assert key not in comp.table
                results.append(comp)
    for r in results:
        _assert_clean(r)


def test_cancelling_sums_leave_no_entry():
    # two products reach the key (); their sum cancels
    g = make_graph(["v"], [("e", "v", "v")])
    X = EndX(g, {"e": make_complex([("p", 0), ("q", 0)])})
    xi1 = multimap(X, ["e"], "e", 0, {("p",): {"p": 1}, ("q",): {"p": -1}})
    xi2 = multimap(X, [], "e", 0, {(): {"p": 1, "q": 1}})
    assert compose_end(X, xi1, 1, xi2).table == {}
    # hat_d of an identity cancels at every key d reaches
    Y = EndX(g, {"e": make_complex([("a", 0), ("b", 1), ("b2", 1)],
                                   {"a": {"b": 1, "b2": -2}})})
    assert hat_d(Y, identity_map(Y, "e")).table == {}
    xi = multimap(Y, ["e"], "e", 0, {("a",): {"a": 1}})
    assert xi.add(xi.scale(-1)).table == {}
    assert xi.scale(0).table == {}
