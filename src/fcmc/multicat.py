"""Vertically discrete fc-multicategories, finitely enumerated.

A 2-cell sits over a profile-loop: it consumes the input path's edges and
produces the output edge.  Partial composition substitutes one cell's
inputs into a slot of another; simultaneous composition (gamma) fills
every slot at once and must not depend on the insertion order.

Two concrete instance families are provided:

* loop instances — one cell per profile-loop, or, given a labeling, one
  per (profile-loop, monoid label) pair; composition is path substitution
  itself and adds labels, so a labeled instance is the plain one times
  the truncated monoid, and its composition table is built as that
  product (:class:`_Indexed`);
* table instances — hand-built finite cell sets with explicit composition
  tables, used for audits and fault injection.

Free-like instances are infinite, so every loop instance carries an input
length bound (and a labeled one its truncation); a composition that
leaves the bounds returns a typed :class:`OutOfBound` instead of raising.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import permutations
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

from .graphs import (
    CompositionError,
    DirectedGraph,
    EdgePath,
    GraphError,
    ProfileLoop,
    enumerate_profile_loops,
    identity_loop,
    is_loop_of,
    is_subgraph,
)
from .labels import LabelError, LabelingFc, MonoidElem, fiber


@dataclass(frozen=True)
class TwoCell:
    id: str
    profile: ProfileLoop
    label: Optional[MonoidElem] = None

    def arity(self) -> int:
        return self.profile.arity()


OUT_OF_BOUND_KINDS = ("length", "label", "missing-entry")


@dataclass(frozen=True)
class OutOfBound:
    """A composition result that exists but lies beyond the enumeration bounds.

    ``kind`` says which bound: ``"length"`` when the composite's input
    length exceeds the instance's length bound, ``"label"`` when its label
    total exceeds the truncation, ``"missing-entry"`` when a table has no
    row for the pair.  ``reason`` is the printable detail.

    A result is a frozen value, compared by its fields, so an instance may
    hand out one object for equal results (a loop instance returns one per
    overflowing length).

    A custom :class:`FcInstance` must return ``"length"`` only when the
    composite's input length (outer arity - 1 + inner arity) exceeds a
    bound fixed for the instance: the composition table then skips every
    later candidate of the same slot whose arity is at least as large.
    """
    kind: str
    reason: str

    def __post_init__(self):
        if self.kind not in OUT_OF_BOUND_KINDS:
            raise ValueError(f"unknown out-of-bound kind {self.kind!r}")


ComposeResult = Union[TwoCell, OutOfBound]


def label_overflow(beta: MonoidElem, truncation: int) -> OutOfBound:
    """The result of a composite whose label ``beta`` exceeds the
    truncation; every labeled composition returns this one."""
    return OutOfBound("label",
                      f"label {beta} exceeds truncation {truncation}")


def loop_token(loop: ProfileLoop) -> str:
    """Canonical printable id for a profile-loop: "e1,e2;out"."""
    return ",".join(loop.inputs.edges) + ";" + loop.output


def cell_token(loop: ProfileLoop, label: Optional[MonoidElem]) -> str:
    if label is None:
        return loop_token(loop)
    return loop_token(loop) + "@" + str(label)


def substituted_profile(outer: ProfileLoop, i: int,
                        inner: ProfileLoop) -> ProfileLoop:
    """Replace slot i of the outer input path by the inner input path."""
    edges = outer.inputs.edges
    new_edges = edges[:i - 1] + inner.inputs.edges + edges[i:]
    path = EdgePath(new_edges, outer.inputs.source, outer.inputs.target)
    return ProfileLoop(path, outer.output)


def check_slot(outer: ProfileLoop, i: int, inner: ProfileLoop) -> None:
    """Raise unless slot i of ``outer`` exists and takes ``inner``'s output."""
    edges = outer.inputs.edges
    if 0 < i <= len(edges) and edges[i - 1] == inner.output:
        return
    if not 1 <= i <= outer.arity():
        raise CompositionError(
            f"slot {i} out of range for arity {outer.arity()}")
    expected = outer.inputs.edges[i - 1]
    if inner.output != expected:
        raise CompositionError(
            f"inner cell produces {inner.output!r}, slot {i} "
            f"wants {expected!r}")


class FcInstance:
    """Base class: a graph plus cells, units, and partial composition."""

    graph: DirectedGraph
    _tables: Optional[dict[int, "_Indexed"]] = None

    def cells(self) -> list[TwoCell]:
        raise NotImplementedError

    def contains(self, cell: TwoCell) -> bool:
        raise NotImplementedError

    def unit(self, eid: str) -> TwoCell:
        raise NotImplementedError

    def compose(self, u: TwoCell, i: int, v: TwoCell) -> ComposeResult:
        raise NotImplementedError

    def _indexed(self, bound: int) -> "_Indexed":
        """The composition table of the cells of arity <= ``bound``, built
        on first use and kept on the instance."""
        if self._tables is None:
            self._tables = {}
        if bound not in self._tables:
            self._tables[bound] = self._build_table(bound)
        return self._tables[bound]

    def _build_table(self, bound: int) -> "_Indexed":
        return _Indexed(self, bound)


def gamma(fc: FcInstance, u: TwoCell, inners: Sequence[TwoCell],
          order: Optional[Sequence[int]] = None) -> ComposeResult:
    """Simultaneous substitution, as iterated partial composition.

    ``order`` gives the sequence of original slot indices to insert
    (default: descending, which needs no slot shifting).  Any order gives
    the same result; the audit below checks that.
    """
    n = u.arity()
    if len(inners) != n:
        raise CompositionError(
            f"need {n} inner cells, got {len(inners)}")
    if order is None:
        order = range(n, 0, -1)
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise CompositionError(f"order {order!r} is not a permutation")
    acc = u
    done: list[int] = []
    for slot in order:
        shift = sum(inners[j - 1].arity() - 1 for j in done if j < slot)
        acc = fc.compose(acc, slot + shift, inners[slot - 1])
        if isinstance(acc, OutOfBound):
            return acc
        done.append(slot)
    return acc


class LoopInstance(FcInstance):
    """One cell per profile-loop, or per (profile-loop, fiber label) pair
    when a labeling is given; composition is path substitution, and adds
    labels.

    Cells are interned: the population is kept by its key (input edges,
    output edge, label coordinates or None), which names a profile-loop of
    the graph outright, so ``unit`` and an in-bound ``compose`` return the
    population's own cell.  A cell is built only for a key outside the
    population (a unit beyond the length bound, or factors that are not
    cells of this instance), and such a cell is not kept.
    """

    def __init__(self, graph: DirectedGraph, max_len: int,
                 labeling: Optional[LabelingFc] = None):
        if labeling is not None and labeling.graph != graph:
            raise GraphError("labeling is over a different graph")
        self.graph = graph
        self.max_len = max_len
        self.labeling = labeling
        self._cells: Optional[list[TwoCell]] = None
        self._interned: dict[tuple, TwoCell] = {}
        # the length overflow of each composite length met, made once
        self._too_long: dict[int, OutOfBound] = {}

    def _cell(self, loop: ProfileLoop, beta: Optional[MonoidElem]) -> TwoCell:
        return TwoCell(cell_token(loop, beta), loop, beta)

    def _lookup(self, edges: tuple[str, ...], output: str,
                coords: Optional[tuple[int, ...]]) -> Optional[TwoCell]:
        """The population's cell under this key (label coordinates, or None
        unlabeled), or None."""
        if self._cells is None:
            self.cells()
        return self._interned.get((edges, output, coords))

    def cells(self) -> list[TwoCell]:
        if self._cells is None:
            out = []
            for loop in enumerate_profile_loops(self.graph, self.max_len):
                labels = ((None,) if self.labeling is None
                          else fiber(self.labeling, loop))
                out.extend(self._cell(loop, beta) for beta in labels)
            self._cells = out
            self._interned = {
                (c.profile.inputs.edges, c.profile.output,
                 None if c.label is None else c.label.coords): c
                for c in out}
        return self._cells

    def contains(self, cell: TwoCell) -> bool:
        coords = None if cell.label is None else cell.label.coords
        return self._lookup(cell.profile.inputs.edges, cell.profile.output,
                            coords) == cell

    def unit(self, eid: str) -> TwoCell:
        zero = None if self.labeling is None else self.labeling.monoid.zero()
        loop = identity_loop(self.graph, eid)
        coords = None if zero is None else zero.coords
        return self._lookup((eid,), eid, coords) or self._cell(loop, zero)

    def compose(self, u: TwoCell, i: int, v: TwoCell) -> ComposeResult:
        up = u.profile
        check_slot(up, i, v.profile)
        coords = None
        if self.labeling is not None:
            # the label sum stays on coordinates: a MonoidElem is built only
            # for an overflow's reason or a composite outside the population
            a, b = u.label.coords, v.label.coords
            if len(a) != len(b):
                raise LabelError(f"rank mismatch: {len(a)} vs {len(b)}")
            coords = tuple(map(operator.add, a, b))
            truncation = self.labeling.monoid.truncation
            if sum(coords) > truncation:
                return label_overflow(MonoidElem(coords), truncation)
        outer = up.inputs
        edges = outer.edges[:i - 1] + v.profile.inputs.edges + outer.edges[i:]
        n = len(edges)
        if n > self.max_len:
            too_long = self._too_long.get(n)
            if too_long is None:
                too_long = self._too_long[n] = OutOfBound(
                    "length", f"input length {n} exceeds bound {self.max_len}")
            return too_long
        if self._cells is None:
            self.cells()
        output = up.output
        return self._interned.get((edges, output, coords)) or self._cell(
            ProfileLoop(EdgePath(edges, outer.source, outer.target), output),
            None if coords is None else MonoidElem(coords))

    def _build_table(self, bound: int) -> "_Indexed":
        """A labeled instance's table is expanded from its plain
        instance's table where that one is certified closed and thin, and
        where the instance is a ``LoopInstance`` itself, not a subclass
        (see :class:`_Indexed`); any other table is composed entry by
        entry."""
        if self.labeling is not None and type(self) is LoopInstance:
            plain = _Indexed(LoopInstance(self.graph, self.max_len), bound)
            if plain.closed and plain.thin:
                return _Indexed(self, bound, plain)
        return _Indexed(self, bound)


class TableInstance(FcInstance):
    """A hand-built instance with explicit cells, units, and compositions.

    ``table`` maps (outer id, slot, inner id) to the composite's cell id;
    it is a read-only view, fixed at construction.
    Compositions whose endpoints match but which have no table entry
    return OutOfBound so partially specified instances stay usable.
    Units, table results and both ids of a row must name declared cells,
    and a row's slot must exist on its outer cell and take the inner
    cell's output; a row the audit could never read is unusable input.
    """

    def __init__(self, graph: DirectedGraph, cells: Sequence[TwoCell],
                 units: dict[str, str],
                 table: dict[tuple[str, int, str], str]):
        self.graph = graph
        self._cell_list = list(cells)
        self._by_id = {c.id: c for c in self._cell_list}
        if len(self._by_id) != len(self._cell_list):
            raise GraphError("duplicate cell ids")
        for c in self._cell_list:
            if not is_loop_of(graph, c.profile):
                raise GraphError(f"cell {c.id!r} has an invalid profile")
        undeclared = set(units.values()) | set(table.values())
        for o, _, v in table:
            undeclared |= {o, v}
        undeclared -= set(self._by_id)
        if undeclared:
            raise GraphError(f"units or table name undeclared cells "
                             f"{sorted(undeclared)!r}")
        for o, i, v in table:
            check_slot(self._by_id[o].profile, i, self._by_id[v].profile)
        self._units = {}
        for eid, cid in units.items():
            cell = self._by_id[cid]
            graph.edge(eid)
            if cell.profile.inputs.edges != (eid,) or cell.profile.output != eid:
                raise GraphError(
                    f"unit for {eid!r} must sit over the identity loop")
            self._units[eid] = cell
        self._table = dict(table)

    @property
    def table(self) -> Mapping[tuple[str, int, str], str]:
        """The rows, read-only: the audit caches the composition table
        built from them, so an edited row would go unread."""
        return MappingProxyType(self._table)

    def cells(self) -> list[TwoCell]:
        return list(self._cell_list)

    def contains(self, cell: TwoCell) -> bool:
        return self._by_id.get(cell.id) == cell

    def unit(self, eid: str) -> TwoCell:
        self.graph.edge(eid)
        try:
            return self._units[eid]
        except KeyError:
            raise CompositionError(f"no unit declared for edge {eid!r}") from None

    def compose(self, u: TwoCell, i: int, v: TwoCell) -> ComposeResult:
        check_slot(u.profile, i, v.profile)
        key = (u.id, i, v.id)
        if key not in self._table:
            return OutOfBound("missing-entry",
                              f"no table entry for {key!r}")
        return self._by_id[self._table[key]]


class FullSub(FcInstance):
    """The full submulticategory over a subgraph: same fibers, restricted."""

    def __init__(self, parent: FcInstance, sub: DirectedGraph):
        if not is_subgraph(parent.graph, sub):
            raise GraphError("not a subgraph of the instance's graph")
        self.parent = parent
        self.graph = sub
        self._edge_ids = frozenset(sub.edge_ids())
        self._cells: Optional[list[TwoCell]] = None

    def _inside(self, cell: TwoCell) -> bool:
        profile = cell.profile
        return (profile.output in self._edge_ids
                and all(e in self._edge_ids for e in profile.inputs.edges)
                and self.graph.has_vertex(profile.inputs.source))

    def cells(self) -> list[TwoCell]:
        if self._cells is None:
            self._cells = [c for c in self.parent.cells() if self._inside(c)]
        return self._cells

    def contains(self, cell: TwoCell) -> bool:
        return self.parent.contains(cell) and self._inside(cell)

    def unit(self, eid: str) -> TwoCell:
        if eid not in self._edge_ids:
            raise GraphError(f"edge {eid!r} not in the subgraph")
        return self.parent.unit(eid)

    def compose(self, u: TwoCell, i: int, v: TwoCell) -> ComposeResult:
        # a composite of cells inside the subgraph only uses their edges,
        # so the restriction is automatically closed under composition
        return self.parent.compose(u, i, v)


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    failure: Optional[str]
    witness: Optional[tuple]
    checked: int
    skipped: int

    def summary(self) -> str:
        verdict = "pass" if self.ok else f"FAIL: {self.failure}"
        if self.witness is not None:
            verdict += " on " + ", ".join(str(w) for w in self.witness)
        return (f"{verdict} ({self.checked} identities checked, "
                f"{self.skipped} skipped out-of-bound)")


class _Indexed:
    """The slot-composition table of a bounded population, on integers.

    Every cell of the population gets an index.  ``comp[u][i-1]`` maps
    each inner cell index v whose output matches slot i of cell u to the
    index of the composite u o_i v, and holds only composites inside the
    population: a composite out of bound or without a table entry has no
    entry anywhere.  A composite within the instance's bounds but outside
    the population (beyond the arity cap) goes to ``beyond[(u, i)]``,
    which maps v to the composite cell; the identity checks skip it, and
    the factor check counts it.  The identity checks then run on plain
    dict lookups instead of rebuilding cells.

    The table is built once per instance and bound (``fc._indexed``) and
    shared by :func:`check_axioms` and :func:`is_factor_closed`, so an
    instance must not change once audited (``TableInstance.table`` is a
    read-only view for this reason).

    ``bad_profile`` is the first entry (u id, i, v id) whose composite does
    not sit over the substituted profile, or None; the index arithmetic of
    the identity checks is only valid when there is none.  ``labels_add``
    says whether every entry's label total is the sum of its factors'
    (always so on loop instances, not necessarily on tables); the gamma
    audit prunes by label only when it is.  ``totals[k]`` is cell k's
    label total (0 when unlabeled).

    A slot's candidates are the cells whose output is the slot's edge, in
    population order.  Once ``fc.compose`` returns an :class:`OutOfBound`
    of kind ``"length"`` for a candidate of arity a, the slot's later
    candidates of arity >= a are not composed: their composites are at
    least as long, so out of bound too (on loop instances the candidates
    come in ascending arity, and the rest of the slot is skipped).  Kinds
    ``"label"`` and ``"missing-entry"`` skip nothing.

    ``arity_cap`` and ``label_cap`` are the population's largest arity and
    label total.  An entry u o_i v *fits* when arity(u) + arity(v) - 1 <=
    ``arity_cap`` and total(u) + total(v) <= ``label_cap``.  ``closed``
    certifies that the table holds an entry exactly for the pairs that fit,
    that labels add and that no composite has a bad profile.  It is decided
    on every (cell, slot, candidate) triple as the table is built: a
    candidate skipped by the length rule, an :class:`OutOfBound` result and
    a composite beyond the cap must all not fit.  On a closed table the
    gamma identities follow from the parallel ones
    (:func:`_count_gamma_fillings`).

    ``thin`` certifies two more things: the population holds at most one
    cell per (input edges, output edge, label coordinates), and every
    entry's label coordinates are the coordinate sum of its factors' (in a
    table with any labeled cell, an entry with an unlabeled cell or with
    factors of two ranks is not).  ``labels_add`` compares only totals,
    which decides the sum where every label has rank 1.  Loop instances
    are thin by construction, since they intern their cells under that
    key, but the certificate is decided here, entry by entry.  On a
    closed, thin table both sides of a nested or parallel identity, where
    both exist, are the same cell (:func:`_count_associativity`).

    The table of a labeled loop instance is built as a product, given
    ``plain``, the table of its plain instance (same graph and length
    bound) at the same arity bound.  A labeled loop instance is the plain
    one times the truncated label monoid: a labeled composite is the plain
    composite carrying the label sum (Leinster, *Higher Operads, Higher
    Categories*, 2004, for fc-multicategories).
    ``LoopInstance._build_table`` composes the plain table as above and
    expands it where it is certified closed and thin and the instance's
    class is ``LoopInstance`` itself, whose ``cells`` and ``compose`` are
    the ones described here; a subclass, which may override either, and
    every other instance get the composed table.  The population is the
    plain one with each plain cell p replaced by its fiber, in the
    monoid's element order, so a slot's candidates are the fibers of the
    plain candidates, one plain candidate after another.
    ``compose`` makes (p, a) o_i (q, b) exactly when it makes p o_i q and
    the total of a + b is within the truncation, and the composite is the
    plain composite carrying a + b.  That cell is in the labeled
    population whenever the plain composite is in the plain one: the only
    label a fiber drops is the zero label over empty inputs (a reduced
    labeling), and a + b is zero over empty inputs only if q has empty
    inputs and b is zero, which is no cell, so never a candidate.  Each
    plain entry q -> s of row (p, i) thus expands, in the row of (p, a) at
    slot i, into (q, b) -> (s, a + b) for the fiber labels b of q that fit
    beside a, read off an addition table over element indices; the fitting
    b are a prefix of the elements, which ascend by total.  A plain entry
    in ``beyond`` expands the same way, its labeled composites made by
    ``compose``.  Rows come out in the key order of the composed build.

    ``closed`` and ``thin`` carry over from the plain certificate.  Labels
    add by construction, and every composite sits over its plain
    composite's profile, so ``labels_add`` holds and there is no bad
    profile.  A fiber is empty only over empty inputs at truncation 0
    under reduction, so a labeled population with any cell has the plain
    arity cap and the truncation as label cap (every other fiber holds the
    elements of top total).  A labeled pair then fits exactly when its
    plain pair fits and its labels sum within the truncation, which is
    exactly when it has an entry, since on a closed plain table a plain
    pair has an entry exactly when it fits.  The plain population holds
    one cell per (input edges, output edge), a fiber's labels are
    distinct, and every entry's coordinates are its factors' sum, so the
    labeled table is thin.
    """

    def __init__(self, fc: FcInstance, arity_bound: int,
                 plain: Optional["_Indexed"] = None):
        self.cells = [c for c in fc.cells() if c.arity() <= arity_bound]
        self.arity = arity = [c.arity() for c in self.cells]
        self.by_out: dict[str, list[int]] = {}
        for k, c in enumerate(self.cells):
            self.by_out.setdefault(c.profile.output, []).append(k)
        self.comp: list[list[dict[int, int]]] = []
        self.beyond: dict[tuple[int, int], dict[int, TwoCell]] = {}
        self.bad_profile: Optional[tuple[str, int, str]] = None
        self.totals = totals = [0 if c.label is None else c.label.total()
                                for c in self.cells]
        self.labels_add = True
        self.arity_cap = max(arity, default=0)
        self.label_cap = max(totals, default=0)
        if plain is None:
            self._compose_all(fc, arity_bound)
        else:
            self._expand(fc, plain)

    def _compose_all(self, fc: FcInstance, arity_bound: int) -> None:
        """Fill the table by composing every (cell, slot, candidate)
        triple the length rule leaves, and decide the certificates."""
        idx = {c.id: k for k, c in enumerate(self.cells)}
        arity, totals = self.arity, self.totals
        arity_cap, label_cap = self.arity_cap, self.label_cap
        ins = [c.profile.inputs.edges for c in self.cells]
        outs = [c.profile.output for c in self.cells]
        coords = [None if c.label is None else c.label.coords
                  for c in self.cells]
        thin = len(set(zip(ins, outs, coords))) == len(self.cells)
        # unlabeled cells have no coordinates to add, and rank-1
        # coordinates are their totals, which labels_add compares
        kinds = {co if co is None else len(co) for co in coords}
        add_coords = not kinds <= {None} and kinds != {1}
        closed = True
        cells, comp, beyond, by_out = (self.cells, self.comp, self.beyond,
                                       self.by_out)
        compose, at = fc.compose, idx.get
        for x, u in enumerate(cells):
            # u o_i v fits the caps when v is within both rooms
            room_a = arity_cap + 1 - arity[x]
            room_l = label_cap - totals[x]
            word, out, total = ins[x], outs[x], totals[x]
            rows = []
            for i, eid in enumerate(word, start=1):
                pre, post = word[:i - 1], word[i:]
                row = {}
                # candidates of arity >= too_long overflow the length bound
                too_long = arity_bound + 1
                for k in by_out.get(eid, ()):
                    made = False
                    if arity[k] < too_long:
                        uv = compose(u, i, cells[k])
                        if isinstance(uv, OutOfBound):
                            if uv.kind == "length":
                                too_long = arity[k]
                        elif (r := at(uv.id, -1)) < 0:
                            beyond.setdefault((x, i), {})[k] = uv
                        else:
                            made = True
                            row[k] = r
                            if self.bad_profile is None and (
                                    outs[r] != out
                                    or ins[r] != pre + ins[k] + post):
                                self.bad_profile = (u.id, i, cells[k].id)
                            if totals[r] != total + totals[k]:
                                self.labels_add = False
                            if thin and add_coords:
                                thin = _coords_add(coords[x], coords[k],
                                                   coords[r])
                    if made != (arity[k] <= room_a and totals[k] <= room_l):
                        closed = False
                rows.append(row)
            comp.append(rows)
        self.closed = (closed and self.labels_add
                       and self.bad_profile is None)
        self.thin = thin and self.labels_add

    def _expand(self, fc: LoopInstance, plain: "_Indexed") -> None:
        """Fill the table of the labeled loop instance ``fc`` from
        ``plain``, its plain instance's table, certified closed and thin:
        the product described in the class docstring."""
        monoid = fc.labeling.monoid
        elems = monoid.elements()
        at = {e.coords: j for j, e in enumerate(elems)}
        # sums[a][b]: the index of element a + element b, for the b whose
        # sum with a fits the truncation: a prefix, as elements ascend by
        # total
        sums = [[at[tuple(map(operator.add, a.coords, b.coords))]
                 for b in elems if a.total() + b.total() <= monoid.truncation]
                for a in elems]
        # labeled cell (p, a) is cell base[p] + a, for a >= low[p]: a
        # reduced fiber over empty inputs lacks the zero, element 0
        low = [int(fc.labeling.reduced and n == 0) for n in plain.arity]
        base = []
        size = 0
        for lo in low:
            base.append(size - lo)
            size += len(elems) - lo
        beyond_of: dict[int, list[tuple[int, dict[int, TwoCell]]]] = {}
        for (p, i), extra in plain.beyond.items():
            beyond_of.setdefault(p, []).append((i, extra))
        cells = self.cells
        for p, rows in enumerate(plain.comp):
            for a in range(low[p], len(elems)):
                plus = sums[a]
                fit = len(plus)
                self.comp.append([
                    {base[q] + b: base[s] + plus[b]
                     for q, s in row.items() for b in range(low[q], fit)}
                    for row in rows])
                x = base[p] + a
                for i, extra in beyond_of.get(p, ()):
                    made = {base[q] + b: fc.compose(cells[x], i,
                                                    cells[base[q] + b])
                            for q in extra for b in range(low[q], fit)}
                    if made:
                        self.beyond[(x, i)] = made
        self.closed, self.thin = plain.closed, plain.thin


def _coords_add(a, b, ab) -> bool:
    """Whether the label coordinates ``ab`` are the sum of ``a`` and ``b``
    (None where a cell is unlabeled, which no labeled table sums)."""
    return (a is not None and b is not None and len(a) == len(b)
            and ab == tuple(map(operator.add, a, b)))


def check_axioms(fc: FcInstance, arity_bound: int) -> AxiomReport:
    """Audit unit laws, both associativity identities and gamma.

    Checks, exhaustively over cells of arity <= arity_bound:

    * u o_i id = u and id o_1 u = u;
    * nested:   (u o_i v) o_{i-1+j} w = u o_i (v o_j w);
    * parallel: (u o_i v) o_{k-1+m} w = (u o_k w) o_i v for i < k, m the
      arity of v.  On a table certified closed and thin (``_Indexed.closed``
      and ``_Indexed.thin``) both sides of these identities, where both
      exist, are one cell, and the identities are counted in closed form
      (``_count_associativity``).  Any other table is looped over: each
      identity's two routes are composed and compared
      (``_check_associativity``);
    * order-independence of gamma over all full slot assignments and all
      insertion orders.  On a table certified closed these identities
      follow from the parallel ones, which were compared or hold by
      thinness, and their fillings are counted in closed form
      (``_count_gamma_fillings``).  Any other table is swept: every
      insertion order of every filling is replayed in lexicographic order,
      and a failure names the first completing order and the first later
      one that disagrees (``_check_gamma_orders``).

    A composite that does not sit over the substituted profile fails as
    "composite profile" (checked after the unit laws, not counted).
    Comparisons where some route leaves the population (instance bounds or
    the arity cap) are counted as skipped, not failed.  A failure reports
    the counts reached at it, the failing comparison counted as checked.
    """
    ix = fc._indexed(arity_bound)
    checked = 0
    skipped = 0

    def fail(kind: str, witness: tuple) -> AxiomReport:
        return AxiomReport(False, kind, witness, checked, skipped)

    units: dict[str, TwoCell] = {}

    def unit(eid: str) -> TwoCell:
        # looked up once per edge, at its first use, so that a missing
        # unit raises at the same cell as it would on every lookup
        if eid not in units:
            units[eid] = fc.unit(eid)
        return units[eid]

    for u in ix.cells:
        left = fc.compose(unit(u.profile.output), 1, u)
        if isinstance(left, OutOfBound):
            skipped += 1
        else:
            checked += 1
            if left != u:
                return fail("left unit law", (u.id,))
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            right = fc.compose(u, i, unit(eid))
            if isinstance(right, OutOfBound):
                skipped += 1
                continue
            checked += 1
            if right != u:
                return fail("right unit law", (u.id, i))
    if ix.bad_profile is not None:
        return fail("composite profile", ix.bad_profile)

    if ix.closed and ix.thin:
        report = _count_associativity(ix, checked, skipped)
    else:
        report = _check_associativity(ix, checked, skipped)
    if not report.ok:
        return report
    if ix.closed:
        return _count_gamma_fillings(ix, report.checked, report.skipped)
    return _check_gamma_orders(ix, report.checked, report.skipped)


def _check_associativity(ix, checked, skipped) -> AxiomReport:
    """Decide the nested and parallel identities by composing both routes
    of each and comparing them, and report it with the counts carried on
    from ``checked``/``skipped``; valid once ``ix.bad_profile`` is None.

    Only triples where both comparison routes stay inside the population
    are decidable, and both routes share the pair composites u o_i v
    resp. v o_j w / u o_k w; iterating the table's entries therefore
    visits every comparable triple while skipping dead combinations
    wholesale.  A failure is the first triple, in (u, i, v) order and
    nested before parallel, whose routes differ.
    """
    cells = ix.cells
    arity = ix.arity
    comp = ix.comp
    for u in range(len(cells)):
        rows_u = comp[u]
        for i in range(1, arity[u] + 1):
            row_ui = rows_u[i - 1]
            for v, uv in row_ui.items():
                rows_uv = comp[uv]
                # nested: w lands inside v
                for j in range(1, arity[v] + 1):
                    row_uvj = rows_uv[i - 2 + j]
                    for w, vw in comp[v][j - 1].items():
                        a = row_uvj.get(w, -1)
                        b = row_ui.get(vw, -1)
                        if a < 0 or b < 0:
                            skipped += 1
                            continue
                        checked += 1
                        if a != b:
                            return AxiomReport(
                                False, "nested associativity",
                                (cells[u].id, i, cells[v].id, j, cells[w].id),
                                checked, skipped)
                # parallel: w lands in a later slot of u
                m = arity[v]
                for k in range(i + 1, arity[u] + 1):
                    row_uvk = rows_uv[k - 2 + m]
                    for w, uw in rows_u[k - 1].items():
                        a = row_uvk.get(w, -1)
                        b = comp[uw][i - 1].get(v, -1)
                        if a < 0 or b < 0:
                            skipped += 1
                            continue
                        checked += 1
                        if a != b:
                            return AxiomReport(
                                False, "parallel associativity",
                                (cells[u].id, i, cells[v].id, k, cells[w].id),
                                checked, skipped)
    return AxiomReport(True, None, None, checked, skipped)


def _count_associativity(ix, checked, skipped) -> AxiomReport:
    """Decide the nested and parallel identities on a table certified
    closed and thin by coherence, and report them with the counts carried
    on from ``checked``/``skipped``; the counts are those of
    :func:`_check_associativity`.

    Where both routes of an identity exist, they sit over one profile,
    since substitution of words is associative and substitutions into
    distinct slots commute (the table has no bad profile), and they carry
    one label, since coordinates add.  A thin table has one cell there, so
    the identity holds (Markl-Shnider-Stasheff, *Operads in Algebra,
    Topology and Physics*, 2002; Leinster, *Higher Operads, Higher
    Categories*, 2004).  Only the pairs the loops visit are counted, for
    each entry u o_i v with composite uv:

    * nested, entries v o_j w; both routes exist when w also fits uv at
      slot i-1+j;
    * parallel, entries u o_k w with k > i; both routes exist when w also
      fits uv at slot k-1+arity(v) (then v fits u o_k w).

    On a closed table a row holds exactly the candidates that fit, so these
    are row sizes.  A w that fits uv fits v, and, unless v has arity 0,
    fits u too, so the checked pairs of an entry are the entries of uv at
    slots i and after; where v has arity 0 (uv is shorter than u) the
    parallel rows of u and uv are intersected.  Every other visited pair
    is skipped.
    """
    comp, arity = ix.comp, ix.arity
    # after[x][s]: the entries of cell x at slots s+1 and after (1-based)
    after = []
    for rows in comp:
        acc = [0] * (len(rows) + 1)
        for s in range(len(rows) - 1, -1, -1):
            acc[s] = acc[s + 1] + len(rows[s])
        after.append(acc)
    for u, rows_u in enumerate(comp):
        for s, row in enumerate(rows_u):
            for v, uv in row.items():
                pairs = after[v][0] + after[u][s + 1]
                if arity[v]:
                    both = after[uv][s]
                else:
                    rows_uv = comp[uv]
                    both = sum(len(rows_u[k].keys() & rows_uv[k - 1].keys())
                               for k in range(s + 1, len(rows_u)))
                checked += both
                skipped += pairs - both
    return AxiomReport(True, None, None, checked, skipped)


def _buckets(ix) -> dict[str, list[tuple[int, int, list[int]]]]:
    """The candidates of each edge, grouped by (arity, label total) in
    ascending order: the units of the gamma budgets."""
    out = {}
    for e, ks in ix.by_out.items():
        grouped: dict[tuple[int, int], list[int]] = {}
        for k in ks:
            grouped.setdefault((ix.arity[k], ix.totals[k]), []).append(k)
        out[e] = [(a, l, group) for (a, l), group in sorted(grouped.items())]
    return out


def _count_gamma_fillings(ix, checked, skipped) -> AxiomReport:
    """Decide order-independence of gamma on a closed table by coherence,
    and report it with the counts carried on from ``checked``/``skipped``.

    Valid only on a table certified closed (``ix.closed``) whose parallel
    identities all hold: they were compared and passed
    (:func:`_check_associativity`), or they hold by thinness
    (``ix.thin``, :func:`_count_associativity`), as :func:`check_axioms`
    decides just before.  Then every filling that
    :func:`_check_gamma_orders` would visit is checked and passes, so only
    the fillings are counted:

    * Weight each inner by its arity - 1.  Inserting the inners in
      ascending weight order, the intermediate arity never exceeds the
      larger of the outer's and the final one, and label totals only grow.
      On a closed table an insertion is in the population exactly when it
      fits the caps, so a filling completes exactly when the inner arities
      sum to at most ``ix.arity_cap`` and the label totals of the outer
      and the inners to at most ``ix.label_cap``: the very budgets the
      sweep prunes by.
    * Any completing order reaches an ascending order by swapping adjacent
      inners, the lighter one first.  The new intermediate is no heavier,
      so both routes of the swap stay in the population, and the swap is
      one parallel identity, which holds.  So every completing order gives
      the same composite.

    This is the bounded form of the coherence of partial composition under
    parallel associativity (Markl-Shnider-Stasheff, *Operads in Algebra,
    Topology and Physics*, 2002).  The count for a cell is the number of
    bucket tuples within the budgets, summed by a walk over (arity sum,
    label sum) weighted by the bucket sizes.

    The walk depends only on the cell's input word, so it is made once per
    distinct word prefix within the call, pruned at ``ix.label_cap``
    instead of the cell's own label budget, and each cell sums the ways
    whose label sum is within its budget.  That counts the same tuples:
    label totals are nonnegative, so partial label sums only grow, and a
    tuple within the budget at the end was within it, and so within the
    cap, at every slot.
    """
    sizes = {e: [(a, l, len(ks)) for a, l, ks in groups]
             for e, groups in _buckets(ix).items()}
    arity_cap, label_cap = ix.arity_cap, ix.label_cap
    # walks[prefix][(arity sum, label sum)]: inner tuples of the prefix
    walks: dict[tuple[str, ...], dict[tuple[int, int], int]] = {
        (): {(0, 0): 1}}
    for u, cell in enumerate(ix.cells):
        if ix.arity[u] < 2:
            continue
        word = cell.profile.inputs.edges
        known = len(word)
        while word[:known] not in walks:
            known -= 1
        ways = walks[word[:known]]
        for j in range(known, len(word)):
            step: dict[tuple[int, int], int] = {}
            for (sum_a, sum_l), w in ways.items():
                for a, l, size in sizes.get(word[j], ()):
                    if sum_a + a <= arity_cap and sum_l + l <= label_cap:
                        at = (sum_a + a, sum_l + l)
                        step[at] = step.get(at, 0) + w * size
            ways = walks[word[:j + 1]] = step
        budget_l = label_cap - ix.totals[u]
        checked += sum(w for (_, sum_l), w in ways.items()
                       if sum_l <= budget_l)
    return AxiomReport(True, None, None, checked, skipped)


def _check_gamma_orders(ix, checked, skipped) -> AxiomReport:
    """Decide order-independence of gamma over all full slot fillings, by
    replaying every insertion order, and report it with the counts carried
    on from ``checked``/``skipped``.

    Inner tuples are enumerated depth-first with budget pruning: once the
    partial arity sum (the composite's final input length) or the partial
    label total can no longer stay within the instance bounds, the branch
    dies.  The label total bounds the composite only where composition
    adds labels (``ix.labels_add``); elsewhere the label budget is n times
    the largest label total, which no tuple exceeds.  This visits every
    tuple for which any order completes.

    Each tuple replays its n! insertion orders in lexicographic order.
    gamma inserts slot j at its original position shifted by the arities
    already inserted before it, and ``grown[mask]`` holds that shift for
    the filled slots ``mask``.  An order stops at its first composite
    outside the population.  A tuple where no order completes is skipped,
    one where the completing orders agree is checked, and the first later
    order whose composite differs from the first completing one is the
    failure, named by (u id, inner ids, the two orders).  (That the
    results should coincide is parallel associativity; see
    Markl-Shnider-Stasheff, *Operads in Algebra, Topology and Physics*,
    2002.)
    """
    cells = ix.cells
    arity = ix.arity
    comp = ix.comp
    buckets = _buckets(ix)

    for u in range(len(cells)):
        n = arity[u]
        if n < 2:
            continue
        slot_buckets = [buckets.get(e, [])
                        for e in cells[u].profile.inputs.edges]
        budget_l = (ix.label_cap - ix.totals[u] if ix.labels_add
                    else n * ix.label_cap)
        orders = list(permutations(range(n)))
        for inners in _fillings(slot_buckets, ix.arity_cap, budget_l):
            grown = [0] * (1 << n)
            for mask in range(1, 1 << n):
                low = mask & -mask
                grown[mask] = (grown[mask ^ low]
                               + arity[inners[low.bit_length() - 1]] - 1)
            first = -1
            for order in orders:
                r = u
                done = 0
                for j in order:
                    r = comp[r][j + grown[done & (1 << j) - 1]].get(
                        inners[j], -1)
                    if r < 0:
                        break
                    done |= 1 << j
                else:
                    if first < 0:
                        first, first_order = r, order
                    elif r != first:
                        # the failing filling is a decided comparison
                        return AxiomReport(
                            False, "gamma order-dependence",
                            (cells[u].id,
                             tuple(cells[k].id for k in inners),
                             tuple(j + 1 for j in first_order),
                             tuple(j + 1 for j in order)),
                            checked + 1, skipped)
            if first < 0:
                skipped += 1
            else:
                checked += 1
    return AxiomReport(True, None, None, checked, skipped)


def _fillings(slot_buckets, budget_a: int, budget_l: int):
    """The inner tuples, slot by slot and each slot in bucket order, whose
    arity and label sums stay within the budgets."""
    if not slot_buckets:
        yield ()
        return
    for a, l, ks in slot_buckets[0]:
        if a <= budget_a and l <= budget_l:
            for k in ks:
                for rest in _fillings(slot_buckets[1:], budget_a - a,
                                      budget_l - l):
                    yield (k,) + rest


@dataclass(frozen=True)
class FactorReport:
    ok: bool
    witness: Optional[tuple[TwoCell, int, TwoCell]]
    checked: int

    def summary(self) -> str:
        if self.ok:
            return f"factor-closed ({self.checked} composites checked)"
        u, i, v = self.witness
        return (f"NOT factor-closed: {u.id} o_{i} {v.id} lands inside "
                f"with a factor outside")


def is_factor_closed(fc: FcInstance, sub: FcInstance,
                     bound: int) -> FactorReport:
    """Does every composite landing in ``sub`` force both factors into it?

    Quantifies over all composable cell pairs of ``fc`` with arity at most
    ``bound`` whose composite stays within the enumeration bounds, the
    composites beyond the arity cap included.  It reads the composition
    table that :func:`check_axioms` builds (once per instance and bound)
    and calls no ``compose``; ``checked`` counts the pairs read, and the
    witness is the first failing pair in the order (u, slot, v).

    That order follows the declaration order of vertices and edges, so a
    failing report's ``checked`` (the pairs read up to its witness) can
    change when an isomorphic instance is declared in another order; ``ok``
    and a passing report's ``checked`` do not.
    """
    if not is_subgraph(fc.graph, sub.graph):
        raise GraphError("candidate is not over a subgraph")
    for c in sub.cells():
        if not fc.contains(c):
            raise GraphError(f"cell {c.id!r} is not a cell of the ambient "
                             "instance")
    ix = fc._indexed(bound)
    cells = ix.cells
    inside = [sub.contains(c) for c in cells]
    checked = 0
    for u, rows in enumerate(ix.comp):
        for i, row in enumerate(rows, start=1):
            extra = ix.beyond.get((u, i))
            for v in sorted(row.keys() | extra.keys()) if extra else row:
                checked += 1
                r = row.get(v, -1)
                lands = inside[r] if r >= 0 else sub.contains(extra[v])
                if lands and not (inside[u] and inside[v]):
                    return FactorReport(False, (cells[u], i, cells[v]),
                                        checked)
    return FactorReport(True, None, checked)
