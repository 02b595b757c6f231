"""Exact cochain complexes and the dg endomorphism structure over a graph.

Everything is computed over exact rationals: the content of every check
here is a sign cancellation, and a tolerance would only hide bugs.

An ``EndX`` assigns a cochain complex to each edge of a graph; a
``MultiMap`` over a profile-loop (e_1..e_n; e') is a degree-homogeneous
multilinear map X(e_1) x .. x X(e_n) -> X(e') stored sparsely by input
basis tuples.  Arity-0 maps are identified with elements of the output
complex (their single table key is the empty tuple).

A ``MultiMap``'s table is clean: no key maps to an empty vector and no
coefficient is zero, so a map is zero exactly when its table is empty and
two maps of one shape are equal exactly when their tables are.  The
constructor stores the table it is given; whoever builds a table keeps
it clean: ``multimap()`` cleans the caller's entries, and ``hat_d``,
``compose_end``, ``add`` and ``scale`` drop the entries that cancelled
while they summed.

``hat_d`` and ``compose_end`` iterate over the stored table entries, so
their cost scales with the entries a map stores, not with the product of
the dimensions of its input complexes.

``check_end_dg`` decides the associativity identities on interned
values.  Each map they meet gets an id by its value, and each distinct
(outer id, slot, inner id) is composed once; an identity then compares
two ids.  This is sound because ``compose_end`` and ``scale`` read only
their arguments' shapes and tables, so equal arguments give equal
results, and because two maps share an id exactly when ``==`` holds
between them (``_value_key``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence, Union

from .graphs import CompositionError, DirectedGraph, GraphError

Scalar = Union[int, Fraction]
Vector = dict[str, Scalar]


class ChainError(Exception):
    pass


def _clean(vec: Vector) -> Vector:
    return {k: v for k, v in vec.items() if v != 0}


def _settle(table: dict[tuple[str, ...], Vector],
            key: tuple[str, ...]) -> None:
    """Drop the zero coefficients of ``table[key]``, and the key itself
    if nothing is left: the clean-up after a sum at that key."""
    vec = _clean(table[key])
    if vec:
        table[key] = vec
    else:
        del table[key]


def _check_exact(c, where: str) -> None:
    """Coefficients entering through the library API must be exact: a
    nonzero coefficient is an int (not a bool) or a Fraction."""
    if c != 0 and (isinstance(c, bool)
                   or not isinstance(c, (int, Fraction))):
        raise ChainError(
            f"{where}: coefficient {c!r} is not an int or Fraction")


def _add_into(acc: Vector, vec: Vector, c: Scalar = 1) -> None:
    for k, v in vec.items():
        acc[k] = acc.get(k, 0) + c * v


class GradedBasis:
    """An ordered basis of ``str`` ids with ``int`` degrees, as given."""

    def __init__(self, elements: Iterable[tuple[str, int]]):
        self.elements = tuple((x, d) for x, d in elements)
        seen = set()
        for x, d in self.elements:
            if not isinstance(x, str):
                raise ChainError(f"basis id {x!r} is not a str")
            if isinstance(d, bool) or not isinstance(d, int):
                raise ChainError(f"degree {d!r} of {x!r} is not an int")
            if x in seen:
                raise ChainError(f"duplicate basis id {x!r}")
            seen.add(x)
        self._deg = dict(self.elements)

    def ids(self) -> tuple[str, ...]:
        return tuple(x for x, _ in self.elements)

    def degree(self, x: str) -> int:
        if x not in self._deg:
            raise ChainError(f"unknown basis id {x!r}")
        return self._deg[x]

    def dim(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, GradedBasis) and \
            self.elements == other.elements

    def __repr__(self):
        return f"GradedBasis({list(self.elements)!r})"


class CochainComplex:
    """A finite graded space with a degree +1 differential, d^2 = 0.

    Use make_complex to construct with validation.
    """

    def __init__(self, basis: GradedBasis, d: dict[str, Vector]):
        self.basis = basis
        self.d = {x: cv for x, v in d.items() if (cv := _clean(v))}
        # the transpose of d: d_into[y] lists every (x, c) with c*y in d(x)
        self.d_into: dict[str, list[tuple[str, Scalar]]] = {}
        for x, vec in self.d.items():
            for y, c in vec.items():
                self.d_into.setdefault(y, []).append((x, c))

    def d_of(self, x: str) -> Vector:
        return dict(self.d.get(x, {}))

    def apply_d(self, vec: Vector) -> Vector:
        acc: Vector = {}
        for x, c in vec.items():
            _add_into(acc, self.d.get(x, {}), c)
        return _clean(acc)

    def degree(self, x: str) -> int:
        return self.basis.degree(x)

    def __eq__(self, other):
        return isinstance(other, CochainComplex) and \
            self.basis == other.basis and self.d == other.d

    def __repr__(self):
        return f"CochainComplex(dim={self.basis.dim()})"


def make_complex(elements: Iterable[tuple[str, int]],
                 d: dict[str, Vector] | None = None) -> CochainComplex:
    basis = GradedBasis(elements)
    d = d or {}
    for x, vec in d.items():
        dx = basis.degree(x)
        for y, c in vec.items():
            _check_exact(c, f"d({x}) -> {y}")
            dy = basis.degree(y)
            if c != 0 and dy != dx + 1:
                raise ChainError(
                    f"d({x}) hits {y} of degree {dy}, expected {dx + 1}")
    cx = CochainComplex(basis, d)
    for x in basis.ids():
        dd = cx.apply_d(cx.d_of(x))
        if dd:
            raise ChainError(f"d(d({x})) = {dd} != 0")
    return cx


class MultiMap:
    """A degree-homogeneous multilinear map between edge complexes.

    The table is keyed by input basis tuples; values are sparse vectors
    over the output basis.  Construct through multimap() for validation.
    Every table key must be a tuple of basis ids of the input complexes
    (multimap() enforces it): hat_d and compose_end read only the stored
    entries and rely on that.

    The table is clean, with no empty vector and no zero coefficient, and
    the constructor stores it as given: multimap() cleans the caller's
    entries, and every operation below that sums drops what cancelled.
    So ``is_zero()`` holds exactly when the table is empty.
    """

    __slots__ = ("inputs", "output", "degree", "table")

    def __init__(self, inputs: tuple[str, ...], output: str, degree: int,
                 table: dict[tuple[str, ...], Vector]):
        self.inputs = tuple(inputs)
        self.output = output
        self.degree = degree
        self.table = table

    def arity(self) -> int:
        return len(self.inputs)

    def apply(self, args: tuple[str, ...]) -> Vector:
        return dict(self.table.get(tuple(args), {}))

    def is_zero(self) -> bool:
        return not self.table

    def add(self, other: "MultiMap") -> "MultiMap":
        self._check_shape(other)
        acc = {k: dict(v) for k, v in self.table.items()}
        for k, v in other.table.items():
            if k in acc:
                _add_into(acc[k], v)
                _settle(acc, k)
            else:
                acc[k] = dict(v)
        return MultiMap(self.inputs, self.output, self.degree, acc)

    def scale(self, c: Scalar) -> "MultiMap":
        if c == 0:
            return MultiMap(self.inputs, self.output, self.degree, {})
        return MultiMap(self.inputs, self.output, self.degree,
                        {k: {y: c * x for y, x in v.items()}
                         for k, v in self.table.items()})

    def sub(self, other: "MultiMap") -> "MultiMap":
        return self.add(other.scale(-1))

    def _check_shape(self, other: "MultiMap") -> None:
        if (self.inputs, self.output, self.degree) != \
                (other.inputs, other.output, other.degree):
            raise ChainError(
                f"shape mismatch: ({self.inputs};{self.output})@{self.degree}"
                f" vs ({other.inputs};{other.output})@{other.degree}")

    def support(self) -> list[tuple[str, ...]]:
        return sorted(self.table)

    def __eq__(self, other):
        return isinstance(other, MultiMap) and \
            (self.inputs, self.output, self.degree) == \
            (other.inputs, other.output, other.degree) and \
            self.table == other.table

    def __repr__(self):
        return (f"MultiMap(({','.join(self.inputs)};{self.output}) "
                f"deg {self.degree}, {len(self.table)} entries)")


class EndX:
    """A complex for every edge of a graph; the home of all MultiMaps."""

    def __init__(self, graph: DirectedGraph,
                 complexes: dict[str, CochainComplex]):
        self.graph = graph
        self.complexes = dict(complexes)
        for e in graph.edges:
            if e.id not in self.complexes:
                raise GraphError(f"edge {e.id!r} has no complex")
        for eid in self.complexes:
            if eid not in graph.edge_ids():
                raise GraphError(f"complex over unknown edge {eid!r}")

    def complex(self, eid: str) -> CochainComplex:
        if eid not in self.complexes:
            raise GraphError(f"no complex over edge {eid!r}")
        return self.complexes[eid]

    def input_complexes(self, xi: MultiMap) -> list[CochainComplex]:
        return [self.complex(e) for e in xi.inputs]


def multimap(X: EndX, inputs: Sequence[str], output: str, degree: int,
             entries: dict[tuple[str, ...], Vector]) -> MultiMap:
    """Validated constructor: every basis id must be declared, every
    nonzero entry degree-consistent and every coefficient exact.  Zero
    coefficients and entries left empty are dropped."""
    inputs = tuple(inputs)
    cxs = [X.complex(e) for e in inputs]
    out_cx = X.complex(output)
    table: dict[tuple[str, ...], Vector] = {}
    for key, vec in entries.items():
        key = tuple(key)
        if len(key) != len(inputs):
            raise ChainError(f"entry {key} has wrong arity")
        in_deg = sum(cx.degree(x) for cx, x in zip(cxs, key))
        for y, c in vec.items():
            _check_exact(c, f"entry {key} -> {y}")
            dy = out_cx.degree(y)
            if c != 0 and dy != in_deg + degree:
                raise ChainError(
                    f"entry {key} -> {y}: degree "
                    f"{dy} != {in_deg} + {degree}")
        if cv := _clean(vec):
            table[key] = cv
    return MultiMap(inputs, output, degree, table)


def zero_map(X: EndX, inputs: Sequence[str], output: str,
             degree: int) -> MultiMap:
    return MultiMap(tuple(inputs), output, degree, {})


def identity_map(X: EndX, eid: str) -> MultiMap:
    cx = X.complex(eid)
    return MultiMap((eid,), eid, 0,
                    {(x,): {x: 1} for x in cx.basis.ids()})


def _basis_tuples(cxs: Sequence[CochainComplex]):
    return product(*(cx.basis.ids() for cx in cxs))


def hat_d(X: EndX, xi: MultiMap) -> MultiMap:
    """The differential on maps: post-compose with d, subtract the
    pre-compositions, each with the sign of everything to its left
    (the map itself and the earlier arguments).

    Each stored entry key -> vec contributes d(vec) at key and, for every
    slot k and every x with c*key[k] in d(x), -sign*c*vec at key with x in
    slot k."""
    cxs = X.input_complexes(xi)
    out_d = X.complex(xi.output).d
    first = -1 if xi.degree % 2 else 1
    table: dict[tuple[str, ...], Vector] = {}
    for key, vec in xi.table.items():
        acc = table.setdefault(key, {})
        for y, c in vec.items():
            _add_into(acc, out_d.get(y, {}), c)
        sign = first
        for k, (cx, y) in enumerate(zip(cxs, key)):
            for x, c in cx.d_into.get(y, ()):
                _add_into(table.setdefault(key[:k] + (x,) + key[k + 1:], {}),
                          vec, -sign * c)
            if cx.degree(y) % 2:
                sign = -sign
    return MultiMap(xi.inputs, xi.output, xi.degree + 1,
                    {k: cv for k, v in table.items() if (cv := _clean(v))})


def compose_end(X: EndX, xi1: MultiMap, i: int, xi2: MultiMap,
                sign_fault: bool = False) -> MultiMap:
    """Partial composition: feed xi2's value into slot i of xi1, with the
    sign of moving xi2 past the first i-1 arguments.

    xi1's entries are grouped by their slot-i basis id, so each entry of
    xi2 meets only the entries of xi1 it feeds.  A zero factor gives the
    zero map at once, after the slot and output checks.  Only the keys
    that more than one product reaches can cancel, so only those are
    cleaned.

    sign_fault drops that sign; it exists to demonstrate that the dg laws
    detect it.
    """
    n = len(xi1.inputs)
    if not 1 <= i <= n:
        raise CompositionError(f"slot {i} out of range 1..{n}")
    if xi1.inputs[i - 1] != xi2.output:
        raise CompositionError(
            f"slot {i} expects {xi1.inputs[i - 1]!r}, inner map produces "
            f"{xi2.output!r}")
    new_inputs = xi1.inputs[:i - 1] + xi2.inputs + xi1.inputs[i:]
    degree = xi1.degree + xi2.degree
    if not xi1.table or not xi2.table:
        return MultiMap(new_inputs, xi1.output, degree, {})
    # the degrees of the arguments xi2 moves past, read only when the sign
    # can be -1
    pre_degs = None
    if xi2.degree % 2 and i > 1 and not sign_fault:
        pre_degs = [X.complex(e).basis._deg for e in xi1.inputs[:i - 1]]
    by_slot: dict[str, list[tuple[tuple, tuple, int, Vector]]] = {}
    for key, vec in xi1.table.items():
        sign = -1 if pre_degs and sum(
            deg[x] for deg, x in zip(pre_degs, key)) % 2 else 1
        by_slot.setdefault(key[i - 1], []).append(
            (key[:i - 1], key[i:], sign, vec))
    table: dict[tuple[str, ...], Vector] = {}
    summed: set[tuple[str, ...]] = set()
    for mid, inner in xi2.table.items():
        for m, cm in inner.items():
            for pre, post, sign, vec in by_slot.get(m, ()):
                key = pre + mid + post
                c = sign * cm
                acc = table.get(key)
                if acc is None:
                    table[key] = {y: c * v for y, v in vec.items()}
                else:
                    _add_into(acc, vec, c)
                    summed.add(key)
    for key in summed:
        _settle(table, key)
    return MultiMap(new_inputs, xi1.output, degree, table)


@dataclass(frozen=True)
class EndDgReport:
    ok: bool
    checked: int
    failure: Optional[str]
    witness: Optional[str]

    def summary(self) -> str:
        if self.ok:
            return f"pass ({self.checked} identities checked)"
        return f"FAIL: {self.failure}\n  witness: {self.witness}"


def _population(X: EndX, loops) -> list[MultiMap]:
    """All single-entry basis-supported maps over the given profile-loops."""
    maps: list[MultiMap] = []
    for loop in loops:
        cxs = [X.complex(e) for e in loop.inputs.edges]
        out_cx = X.complex(loop.output)
        for args in _basis_tuples(cxs):
            in_deg = sum(cx.degree(x) for cx, x in zip(cxs, args))
            for y in out_cx.basis.ids():
                deg = out_cx.degree(y) - in_deg
                maps.append(MultiMap(loop.inputs.edges, loop.output, deg,
                                     {args: {y: 1}}))
    return maps


def _value_key(xi: MultiMap) -> tuple:
    """A map's value as a hashable key: its shape, and its table as
    sorted (table key, sorted vector items) pairs.  Two maps get one key
    exactly when ``==`` holds between them: both compare the shape and
    the stored entries, and equal coefficients compare and hash alike
    (``1`` and ``Fraction(1)`` do)."""
    return (xi.inputs, xi.output, xi.degree,
            tuple(sorted((k, tuple(sorted(v.items())))
                         for k, v in xi.table.items())))


def check_end_dg(X: EndX, arity_bound: int = 2,
                 sign_fault: bool = False) -> EndDgReport:
    """Verify the dg laws on every single-entry map of bounded arity.

    Checks: hat_d squares to zero; hat_d of each identity map vanishes;
    composition satisfies both partial-composition identities (the
    parallel one with the sign for exchanging the two inner maps); unit
    laws; and the Leibniz identity tying hat_d to composition.

    The partial-composition identities are decided on interned values.
    Every map they meet gets an id by its value (``_value_key``): the
    population first, as ids ``0..len(pop)-1``, then each composite as it
    is first made.  ``rows`` maps (outer id, slot), then the inner id, to
    the id of the composite, so ``compose_end`` runs at most once per
    distinct triple; the Leibniz check fills the entries of pairs of
    population maps.  A parallel identity's sign is ``neg``, the id of the
    map scaled by -1.  Each identity then compares two ids.  This is
    sound: ``compose_end`` and ``scale`` are functions of their arguments'
    values, so a composite of interned representatives equals the
    composite of the maps they stand for, and two maps share an id
    exactly when they are equal.
    ``slots[a]`` maps an edge to the slots of pop[a] that take it, so the
    loops visit only the slots an inner map fits, in ascending order.
    """
    from .graphs import enumerate_profile_loops
    loops = enumerate_profile_loops(X.graph, arity_bound)
    pop = _population(X, loops)
    arity = [len(xi.inputs) for xi in pop]
    odd = [xi.degree % 2 for xi in pop]
    slots: list[dict[str, list[int]]] = []
    for xi in pop:
        by_edge: dict[str, list[int]] = {}
        for i, e in enumerate(xi.inputs, 1):
            by_edge.setdefault(e, []).append(i)
        slots.append(by_edge)
    checked = 0

    def fail(what, wit):
        return EndDgReport(False, checked, what, wit)

    units = {eid: identity_map(X, eid) for eid in X.graph.edge_ids()}
    for eid, unit in units.items():
        if not hat_d(X, unit).is_zero():
            return fail("hat_d(identity) != 0", f"edge {eid}")
        checked += 1
    d_pop: list[MultiMap] = []
    for xi in pop:
        d_xi = hat_d(X, xi)
        if not hat_d(X, d_xi).is_zero():
            return fail("hat_d^2 != 0", repr(xi))
        d_pop.append(d_xi)
        checked += 1
    # unit laws
    for a, xi in enumerate(pop):
        for i in range(1, arity[a] + 1):
            if compose_end(X, xi, i, units[xi.inputs[i - 1]]) != xi:
                return fail("xi o_i id != xi", f"{xi!r} slot {i}")
            checked += 1
        if compose_end(X, units[xi.output], 1, xi) != xi:
            return fail("id o_1 xi != xi", repr(xi))
        checked += 1
    # maps[n] is the map of id n, ids[_value_key(map)] its id; the
    # population maps are distinct, so pop[a] gets id a
    ids: dict[tuple, int] = {}
    maps: list[MultiMap] = []

    def intern(xi: MultiMap) -> int:
        n = ids.setdefault(_value_key(xi), len(maps))
        if n == len(maps):
            maps.append(xi)
        return n

    for xi in pop:
        intern(xi)
    # rows[p * width + i][q] is the id of maps[p] o_i maps[q]: a slot is
    # below 2 * arity_bound, so p * width + i names one (outer id, slot)
    width = 2 * arity_bound
    rows: dict[int, dict[int, int]] = {}

    def comp(p: int, i: int, q: int) -> int:
        row = rows.get(p * width + i)
        if row is None:
            row = rows[p * width + i] = {}
        n = row.get(q)
        if n is None:
            n = row[q] = intern(compose_end(X, maps[p], i, maps[q],
                                            sign_fault=sign_fault))
        return n

    negs: dict[int, int] = {}

    def neg(n: int) -> int:
        m = negs.get(n)
        if m is None:
            m = negs[n] = intern(maps[n].scale(-1))
        return m

    # Leibniz
    for a, (xi1, d_xi1) in enumerate(zip(pop, d_pop)):
        into1 = slots[a]
        s = -1 if odd[a] else 1
        for b, (xi2, d_xi2) in enumerate(zip(pop, d_pop)):
            for i in into1.get(xi2.output, ()):
                composite = compose_end(X, xi1, i, xi2, sign_fault=sign_fault)
                rows.setdefault(a * width + i, {})[b] = intern(composite)
                lhs = hat_d(X, composite)
                rhs = compose_end(X, d_xi1, i, xi2,
                                  sign_fault=sign_fault).add(
                    compose_end(X, xi1, i, d_xi2,
                                sign_fault=sign_fault).scale(s))
                if lhs != rhs:
                    return fail(
                        "Leibniz identity fails for hat_d against "
                        "composition",
                        f"{xi1!r} o_{i} {xi2!r}")
                checked += 1
    del d_pop
    # partial-composition identities, on ids: the inner comp() calls read
    # the rows the Leibniz check made
    for a, xi1 in enumerate(pop):
        into1 = slots[a]
        for b, xi2 in enumerate(pop):
            into2 = slots[b]
            for i in into1.get(xi2.output, ()):
                left = comp(a, i, b)
                for c, xi3 in enumerate(pop):
                    e3 = xi3.output
                    # nested
                    for j in into2.get(e3, ()):
                        if comp(left, i - 1 + j, c) != \
                                comp(a, i, comp(b, j, c)):
                            return fail("nested composition identity fails",
                                        f"{xi1!r} {xi2!r} {xi3!r} i={i} j={j}")
                        checked += 1
                    # parallel, i < k
                    for k in into1.get(e3, ()):
                        if k <= i:
                            continue
                        lhs = comp(left, k - 1 + arity[b], c)
                        rhs = comp(comp(a, k, c), i, b)
                        if odd[b] and odd[c]:
                            rhs = neg(rhs)
                        if lhs != rhs:
                            return fail(
                                "parallel composition identity fails",
                                f"{xi1!r} {xi2!r} {xi3!r} i={i} k={k}")
                        checked += 1
    return EndDgReport(True, checked, None, None)
