"""Certify that candidate structure maps satisfy the free-differential
relations, two independent ways.

The generic route interprets a candidate assignment as a map out of a free
dg structure: for every generator m it compares hat_d(alpha(m)) with
alpha(delta(m)).  The meaning of alpha on a cell is ``evaluate_alpha``,
which evaluates decorated trees through the endomorphism composition, and
``FreeDgFc.delta_generator`` gives delta(m) as a cell, one two-node tree
per compiled rule record (outer, inner, q, c) of m.  The generic route
reads those records and builds no cell: it sums
c * alpha(outer) o_(q+1) alpha(inner) over them, with alpha a dict from
node id to nonzero assigned map built once per check.  The direct route
re-derives the displayed relation sums (with the internal differential
substituted for the identity-shaped index) from scratch, sharing no
composition or differential code with the generic route.  Agreement of
the two is itself a checked property.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .chain import (
    EndX,
    MultiMap,
    Scalar,
    Vector,
    _add_into,
    _basis_tuples,
    _check_exact,
    _clean,
    compose_end,
    hat_d,
    identity_map,
    make_complex,
    multimap,
    zero_map,
)
from .freedg import (
    CompTree,
    FreeCell,
    FreeDgFc,
    GeneratorSpec,
    build_Ainf_operad,
    leaf_count,
)
from .graphs import (CompositionError, DirectedGraph, EdgePath, ProfileLoop,
                     enumerate_profile_loops, path_vertices)
from .labels import LabelMonoid, MonoidElem, TRIVIAL_MONOID, decompose
from .multicat import loop_token


class AlgebraError(Exception):
    pass


class AlgebraData:
    """Complexes over the edges plus one MultiMap per assigned generator.

    Unassigned generators act as zero.
    """

    def __init__(self, X: EndX, assignment: dict[GeneratorSpec, MultiMap]):
        self.X = X
        self.assignment = dict(assignment)
        for gen, xi in self.assignment.items():
            if xi.inputs != gen.profile.inputs.edges or \
                    xi.output != gen.profile.output:
                raise AlgebraError(
                    f"map for {gen.name} has boundary "
                    f"({','.join(xi.inputs)};{xi.output}), generator wants "
                    f"{loop_token(gen.profile)}")
            if xi.degree != 1:
                raise AlgebraError(
                    f"map for {gen.name} has degree {xi.degree}, "
                    f"generators are degree 1")

    def alpha_of(self, gen: GeneratorSpec) -> MultiMap:
        xi = self.assignment.get(gen)
        return xi if xi is not None else zero_map(
            self.X, gen.profile.inputs.edges, gen.profile.output, 1)


def evaluate_alpha(A: AlgebraData, cell: FreeCell) -> MultiMap:
    """Interpret a cell through the assignment, node by node.

    A tree is evaluated in its written order: the root's map first, then
    each subtree composed in left to right.  That order is the tree's
    canonical orientation, so no signs appear here; all signs live in the
    cell's coefficients and in compose_end itself.
    """
    out = zero_map(A.X, cell.profile.inputs.edges, cell.profile.output,
                   cell.degree)
    for tree, coeff in cell.terms:
        out = out.add(_evaluate_tree(A, tree).scale(coeff))
    return out


def _evaluate_tree(A: AlgebraData, t: CompTree) -> MultiMap:
    if t.gen.is_unit():
        return identity_map(A.X, t.gen.profile.output)
    acc = A.alpha_of(t.gen)
    slot = 1
    for child in t.children:
        if isinstance(child, CompTree):
            acc = compose_end(A.X, acc, slot, _evaluate_tree(A, child))
            slot += leaf_count(child)
        else:
            slot += 1
    return acc


# -------------------------------------------------------------------- report


@dataclass(frozen=True)
class RelationFailure:
    name: str
    arity: int
    label: str
    witness: str


@dataclass(frozen=True)
class RelationReport:
    ok: bool
    route: str
    checked: int
    arity_bound: int
    label_bound: int
    failures: tuple[RelationFailure, ...]
    notes: tuple[str, ...] = ()

    def lowest_failing_arity(self) -> Optional[int]:
        return min((f.arity for f in self.failures), default=None)

    def summary(self) -> str:
        head = (f"[{self.route}] arity <= {self.arity_bound}, "
                f"label <= {self.label_bound}: ")
        lines = []
        if self.ok:
            lines.append(head + f"pass ({self.checked} relations hold)")
        else:
            lines.append(head + f"FAIL ({len(self.failures)} of "
                         f"{self.checked} relations violated; lowest arity "
                         f"{self.lowest_failing_arity()})")
            for f in self.failures:
                lines.append(f"  {f.name} (arity {f.arity}, label "
                             f"{f.label}): {f.witness}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _residue_witness(args: Sequence[str], vec: Vector) -> str:
    """A failure's witness: the residue on one tuple of basis inputs."""
    terms = " + ".join(f"{c}*{y}" for y, c in sorted(vec.items()))
    return f"on inputs ({','.join(args)}) residue {terms}"


def _preset_notes(fc: FreeDgFc) -> tuple[str, ...]:
    if not fc.labeling.reduced:
        return ("curved variant (proposed definition): empty-input "
                "operations are present and the relations include "
                "curvature terms",)
    return ()


# ------------------------------------------------------------- generic route


def check_algebra(fc: FreeDgFc, A: AlgebraData, arity_bound: int,
                  label_bound: Optional[int] = None) -> RelationReport:
    """The defining condition, generator by generator: applying the
    differential to the assigned map must equal the assignment applied to
    the generator's differential.  One node-id index of alpha serves
    every generator of the check."""
    cap = fc.monoid.cap(label_bound)
    failures = []
    gens = fc.generators(arity_bound, cap)
    alpha = _alpha_by_node(fc, A)
    for gen in gens:
        residue = _residue(fc, A, alpha, gen)
        if not residue.is_zero():
            key = residue.support()[0]
            failures.append(RelationFailure(
                gen.name, gen.arity(), str(gen.label),
                _residue_witness(key, residue.apply(key))))
    return RelationReport(not failures, "generic", len(gens), arity_bound,
                          cap, tuple(failures), _preset_notes(fc))


def algebra_residue(fc: FreeDgFc, A: AlgebraData,
                    gen: GeneratorSpec) -> MultiMap:
    """hat_d(alpha(m)) - alpha(delta(m)) for one generator m, which is
    ``hat_d(A.alpha_of(m)).sub(evaluate_alpha(A, fc.delta_generator(m)))``
    computed over m's rule records (see :func:`_residue`)."""
    return _residue(fc, A, _alpha_by_node(fc, A), gen)


def _alpha_by_node(fc: FreeDgFc, A: AlgebraData) -> dict[int, MultiMap]:
    """alpha by node id for one check, nonzero maps only: a record whose
    node it lacks has a zero factor (no record holds a unit).  A key that
    is not the structure's generator over its profile and label raises
    :class:`AlgebraError`."""
    alpha = {}
    for gen, xi in A.assignment.items():
        ins = gen.profile.inputs
        node = fc._find(ins.source, ins.target, ins.edges, gen.profile.output,
                        gen.label)
        if not node or fc._nodes[node] != gen:
            raise AlgebraError(f"assignment key {gen.name} is not a "
                               f"generator of the structure")
        if xi.table:
            alpha[node] = xi
    return alpha


def _residue(fc: FreeDgFc, A: AlgebraData, alpha: dict[int, MultiMap],
             gen: GeneratorSpec) -> MultiMap:
    """hat_d(alpha(m)) minus c * alpha(outer) o_(q+1) alpha(inner) summed
    over m's rule records (outer, inner, q, c): alpha(delta(m)) term by
    term, with no cell or tree built.  A record with a zero factor is
    skipped; the sum goes into one table, cleaned once at the end."""
    X = A.X
    xi = A.assignment.get(gen)
    table = hat_d(X, xi).table if xi is not None else {}
    for outer, inner, q, c in fc._records(gen):
        xo = alpha.get(outer)
        if xo is None:
            continue
        xn = alpha.get(inner)
        if xn is None:
            continue
        for key, vec in compose_end(X, xo, q + 1, xn).table.items():
            _add_into(table.setdefault(key, {}), vec, -c)
    return MultiMap(gen.profile.inputs.edges, gen.profile.output, 2,
                    {k: cv for k, v in table.items() if (cv := _clean(v))})


# -------------------------------------------------------------- direct route
#
# Everything below evaluates the relation sums from their displayed form:
# raw coefficient tables, the internal differential substituted at
# identity-shaped indices, and the sign of the arguments left of the inner
# block.  It deliberately shares no code with hat_d / compose_end /
# delta_generator so the two routes can serve as each other's oracle.
#
# What depends only on the check is indexed once per check_direct call
# (:func:`_direct_index`), from the graph's edges, ``decompose`` and the
# complexes alone: the tables by (input word, output edge, label coords),
# with each edge's internal differential stored under its identity-shaped
# key; the label splits by coords; and each edge's basis parities and
# order.  A loop's vertex walk and the bridging edges between two of its
# vertices are read from the graph itself (``path_vertices`` and
# ``DirectedGraph.between``, in declaration order).


def _direct_tables(fc: FreeDgFc, A: AlgebraData):
    """Index the assignment by (input word, output edge, label coords).
    A key that is not ``fc.generator`` of its profile and label raises
    :class:`AlgebraError`."""
    tables = {}
    for gen, xi in A.assignment.items():
        try:
            known = fc.generator(gen.profile, gen.label) == gen
        except CompositionError:
            known = False
        if not known:
            raise AlgebraError(f"assignment key {gen.name} is not a "
                               f"generator of the structure")
        key = (gen.profile.inputs.edges, gen.profile.output,
               gen.label.coords)
        tables[key] = xi.table
    return tables


@dataclass(frozen=True)
class _DirectIndex:
    """The lookups of one direct check (see :func:`_direct_index`), and
    the graph whose walks and bridges it reads."""
    graph: DirectedGraph
    tables: dict      # (word, out edge, coords) -> {input tuple: vector}
    splits: dict      # coords -> [(b1 coords, b2 coords)], decompose order
    parity: dict      # edge id -> {basis id: degree mod 2}
    order: dict       # edge id -> {basis id: position in the basis}


def _direct_index(fc: FreeDgFc, A: AlgebraData,
                  betas: Sequence[MonoidElem]) -> _DirectIndex:
    """Index one check: the assignment's tables (:func:`_direct_tables`)
    plus, under each edge's identity-shaped key ``((e,), e, zero coords)``,
    that edge's internal differential (no generator has that key: the unit
    profile at label 0 has none); the splits of every label in ``betas``;
    and each edge's basis parities and basis order."""
    tables = _direct_tables(fc, A)
    zero = (0,) * fc.monoid.rank
    parity, order = {}, {}
    for edge in fc.graph.edges:
        cx = A.X.complex(edge.id)
        tables[(edge.id,), edge.id, zero] = {
            (x,): vec for x, vec in cx.d.items()}
        parity[edge.id] = {x: d % 2 for x, d in cx.basis.elements}
        order[edge.id] = {x: i for i, x in enumerate(cx.basis.ids())}
    splits = {beta.coords: [(b1.coords, b2.coords)
                            for b1, b2 in decompose(beta)]
              for beta in betas}
    return _DirectIndex(fc.graph, tables, splits, parity, order)


def _direct_residues(index: _DirectIndex, loop: ProfileLoop,
                     beta: MonoidElem):
    """All nonzero values of the relation sum over one boundary index,
    as (input basis tuple, vector) pairs in ``_basis_tuples`` order.

    Each block of s inputs from position r, bridged by an edge, pairs an
    inner operation on the block with the outer operation whose slot r it
    feeds, for every split b1 + b2 = beta of the label.  The inner entries
    are grouped by output basis id, so each stored outer entry meets only
    the inner entries that land in its slot r; the term is signed by the
    degrees of the arguments left of the block.
    """
    tables = index.tables
    word = loop.inputs.edges
    n = len(word)
    walk = path_vertices(index.graph, loop.inputs)
    parity = [index.parity[e] for e in word]
    splits = index.splits[beta.coords]
    blocks = [(r, s, bridge)
              for r in range(n + 1) for s in range(n - r + 1)
              for bridge in index.graph.between(walk[r], walk[r + s])]
    totals: dict[tuple[str, ...], Vector] = {}
    for r, s, bridge in blocks:
        inner_word = word[r:r + s]
        outer_word = word[:r] + (bridge,) + word[r + s:]
        for b1, b2 in splits:
            inner = tables.get((inner_word, bridge, b2))
            if not inner:
                continue
            outer = tables.get((outer_word, loop.output, b1))
            if not outer:
                continue
            feeds: dict[str, list[tuple[tuple[str, ...], Scalar]]] = {}
            for key, vec in inner.items():
                for mid, cm in vec.items():
                    feeds.setdefault(mid, []).append((key, cm))
            for key, vec in outer.items():
                fed = feeds.get(key[r])
                if fed is None:
                    continue
                pre, post = key[:r], key[r + 1:]
                sign = -1 if sum(p[x] for p, x in zip(parity, pre)) % 2 \
                    else 1
                for mid_key, cm in fed:
                    _add_into(totals.setdefault(pre + mid_key + post, {}),
                              vec, sign * cm)
    order = [index.order[e] for e in word]
    out: list[tuple[tuple[str, ...], Vector]] = []
    for args in sorted(totals, key=lambda a: [k[x] for k, x in zip(order, a)]):
        total = _clean(totals[args])
        if total:
            out.append((args, total))
    return out


def _require_standard_splitting(fc: FreeDgFc) -> None:
    """A ``custom`` rule table is no relation sum the direct route reads."""
    if fc.custom_rules is not None:
        raise AlgebraError(f"no direct checker for preset {fc.preset!r}")


def check_direct(fc: FreeDgFc, A: AlgebraData, arity_bound: int,
                 label_bound: Optional[int] = None) -> RelationReport:
    """The direct route on any graph with the standard splitting.

    For every profile-loop and label in bounds it sums each inner
    operation applied to a consecutive block, signed by the arguments
    before the block (:func:`_direct_residues`).  The report's route is
    ``<preset>-direct``.
    """
    _require_standard_splitting(fc)
    cap = fc.monoid.cap(label_bound)
    betas = LabelMonoid(fc.monoid.rank, cap).elements()
    index = _direct_index(fc, A, betas)
    failures = []
    checked = 0
    for loop in enumerate_profile_loops(fc.graph, arity_bound):
        for beta in betas:
            checked += 1
            bad = _direct_residues(index, loop, beta)
            if bad:
                failures.append(RelationFailure(
                    f"relation[{loop_token(loop)}]@{beta}", loop.arity(),
                    str(beta), _residue_witness(*bad[0])))
    return RelationReport(not failures, f"{fc.preset}-direct", checked,
                          arity_bound, cap, tuple(failures),
                          _preset_notes(fc))


# The benchmark's tracer wraps these three names, replacing every binding
# of each by object identity, and counts one ``algebra.direct`` call per
# wrapped call.  The alias makes ``check_direct`` itself the traced object;
# the two wrappers are distinct objects that nothing in the package calls,
# so each direct run is counted once.  Not exported; call check_direct.
check_ainfty_direct = check_direct


def check_category_direct(fc, A, arity_bound, label_bound=None):
    return check_direct(fc, A, arity_bound, label_bound)


def check_bimodule_direct(fc, A, arity_bound, label_bound=None):
    return check_direct(fc, A, arity_bound, label_bound)


def _failing_pairs(rep: RelationReport) -> set[tuple[str, str]]:
    """The (profile-loop token, label) pairs a report fails on; both routes
    name a failure with its loop token in brackets, the first "[" and the
    last "]" of the name."""
    return {(f.name[f.name.index("[") + 1:f.name.rindex("]")], f.label)
            for f in rep.failures}


def route_disagreement(generic: RelationReport,
                       direct: RelationReport) -> Optional[str]:
    """None if both routes fail on the same (profile-loop, label) pairs,
    else the pairs that only one of them fails on."""
    g, d = _failing_pairs(generic), _failing_pairs(direct)
    if g == d:
        return None
    return "; ".join(
        f"only {rep.route} fails on "
        + ", ".join(f"{token}@{beta}" for token, beta in sorted(pairs))
        for rep, pairs in ((generic, g - d), (direct, d - g)) if pairs)


def check_both_routes(fc: FreeDgFc, A: AlgebraData, arity_bound: int,
                      label_bound: Optional[int] = None
                      ) -> tuple[RelationReport, RelationReport, bool]:
    """Run generic and direct checkers; they agree when they fail on the
    same (profile-loop, label) pairs."""
    _require_standard_splitting(fc)
    generic = check_algebra(fc, A, arity_bound, label_bound)
    direct = check_direct(fc, A, arity_bound, label_bound)
    return generic, direct, route_disagreement(generic, direct) is None


# ----------------------------------------------------------------- dga lift


def lift_dga(elements: Sequence[tuple[str, int]],
             diff: dict[str, Vector],
             table: dict[tuple[str, str], Vector]
             ) -> tuple[FreeDgFc, AlgebraData]:
    """Shift an honest differential graded algebra into the one-object
    preset: degrees drop by one, the product acquires the sign of its
    first argument, and everything above the product is zero.
    """
    orig_deg = dict(elements)
    for (x, y), vec in table.items():
        for w in (x, y, *vec):
            if w not in orig_deg:
                raise AlgebraError(
                    f"product {x}*{y} names unknown element {w!r}")
        for z, c in vec.items():
            _check_exact(c, f"product {x}*{y} -> {z}")
            if c != 0 and orig_deg[z] != orig_deg[x] + orig_deg[y]:
                raise AlgebraError(
                    f"product {x}*{y} -> {z} breaks degrees "
                    f"({orig_deg[x]}+{orig_deg[y]} != {orig_deg[z]})")
    shifted = [(x, d - 1) for x, d in elements]
    cx = make_complex(shifted, diff)
    fc = build_Ainf_operad(TRIVIAL_MONOID)
    X = EndX(fc.graph, {"e": cx})
    m2_entries: dict[tuple[str, ...], Vector] = {}
    for (x, y), vec in table.items():
        sign = -1 if cx.degree(x) % 2 else 1
        vec = _clean({z: sign * c for z, c in vec.items()})
        if vec:
            m2_entries[(x, y)] = vec
    loop2 = ProfileLoop(EdgePath(("e", "e"), "v", "v"), "e")
    m2 = fc.generator(loop2, fc.monoid.zero())
    assignment = {m2: multimap(X, ("e", "e"), "e", 1, m2_entries)}
    return fc, AlgebraData(X, assignment)


# ------------------------------------------------------------------ sampling


def random_endx(graph, seed: int, max_dim: int = 3,
                degree_range: tuple[int, int] = (0, 2)) -> EndX:
    """Seeded complexes over every edge, with structurally exact d^2 = 0:
    the differential pairs each source basis element with a single target
    used by no other pair."""
    rng = random.Random(seed)
    complexes = {}
    for e in sorted(graph.edge_ids()):
        dim = rng.randint(1, max_dim)
        elems = [(f"{e}_{k}", rng.randint(*degree_range))
                 for k in range(dim)]
        by_deg: dict[int, list[str]] = {}
        for x, d in elems:
            by_deg.setdefault(d, []).append(x)
        used: set[str] = set()
        d_map: dict[str, Vector] = {}
        for x, d in elems:
            if x in used:
                continue
            targets = [y for y in by_deg.get(d + 1, ())
                       if y not in used and y != x]
            if targets and rng.random() < 0.7:
                y = rng.choice(targets)
                d_map[x] = {y: rng.choice([-2, -1, 1, 2])}
                used.add(x)
                used.add(y)
        complexes[e] = make_complex(elems, d_map)
    return EndX(graph, complexes)


def random_assignment(fc: FreeDgFc, X: EndX, seed: int, arity_bound: int,
                      label_bound: Optional[int] = None,
                      density: float = 0.5) -> AlgebraData:
    """Seeded degree-consistent sparse maps for every generator in bounds,
    with small integer coefficients."""
    rng = random.Random(seed)
    assignment: dict[GeneratorSpec, MultiMap] = {}
    for gen in fc.generators(arity_bound, label_bound):
        cxs = [X.complex(e) for e in gen.profile.inputs.edges]
        out_cx = X.complex(gen.profile.output)
        entries: dict[tuple[str, ...], Vector] = {}
        for args in _basis_tuples(cxs):
            want = sum(cx.degree(x) for cx, x in zip(cxs, args)) + 1
            ys = [y for y in out_cx.basis.ids() if out_cx.degree(y) == want]
            if not ys or rng.random() > density:
                continue
            y = rng.choice(ys)
            entries[args] = {y: rng.choice([-2, -1, 1, 2])}
        if entries:
            assignment[gen] = multimap(
                X, gen.profile.inputs.edges, gen.profile.output, 1, entries)
    return AlgebraData(X, assignment)
