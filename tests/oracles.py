"""Independent reference implementations used to freeze expected values.

Everything in this file is written the slow, obvious way — recursive
enumeration straight from the definitions — so that the optimized library
code is compared against something that cannot share its bugs.  Nothing
here imports from the package.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product


def ref_paths(vertices, edges, max_len):
    """All composable paths of length <= max_len, as (source, edge-id tuple).

    ``edges`` is an iterable of (id, src, tgt) triples.  Empty paths are
    included, one per vertex, keyed by their basepoint.
    """
    by_src = {}
    for eid, src, tgt in edges:
        by_src.setdefault(src, []).append((eid, tgt))
    found = set()

    def walk(source, at, acc):
        found.add((source, tuple(acc)))
        if len(acc) >= max_len:
            return
        for eid, tgt in by_src.get(at, []):
            walk(source, tgt, acc + [eid])

    for v in vertices:
        walk(v, v, [])
    return found


def ref_profile_loops(vertices, edges, max_len):
    """All (source, input edge tuple, output edge id) with matching endpoints."""
    ends = {}
    for eid, src, tgt in edges:
        ends[eid] = (src, tgt)

    def target(source, path):
        at = source
        for eid in path:
            at = ends[eid][1]
        return at

    loops = set()
    for source, path in ref_paths(vertices, edges, max_len):
        tgt = target(source, path)
        for eid, (esrc, etgt) in ends.items():
            if esrc == source and etgt == tgt:
                loops.add((source, path, eid))
    return loops


def ref_endpoint_closed(vertices, edges, sub_vertices, sub_edges, max_len):
    """Brute-force endpoint-closedness check, bounded by path length.

    True iff every profile-loop of the ambient graph whose input path lies
    entirely in the subgraph (paths of length <= max_len, empty ones
    included) has its output edge in the subgraph.  For ambient graphs with
    |V| <= max_len + 1 the bound is immaterial: a path in the subgraph
    witnessing reachability can always be shortened below |V|.
    """
    sub_vertex_set = set(sub_vertices)
    sub_edge_set = set(sub_edges)
    ends = {eid: (src, tgt) for eid, src, tgt in edges}
    inner = [(eid, src, tgt) for eid, src, tgt in edges if eid in sub_edge_set]
    for source, path in ref_paths(sorted(sub_vertex_set), inner, max_len):
        at = source
        for eid in path:
            at = ends[eid][1]
        for eid, (esrc, etgt) in ends.items():
            if esrc == source and etgt == at and eid not in sub_edge_set:
                return False
    return True


def ref_subgraphs(vertices, edges):
    """Every (vertex subset, edge subset) pair forming a subgraph.

    Subsets are enumerated in a deterministic order; an edge subset is
    admissible for a vertex subset when all its endpoints are inside.
    """
    vertices = list(vertices)
    edges = list(edges)
    out = []
    for vmask in range(1 << len(vertices)):
        vs = tuple(v for i, v in enumerate(vertices) if vmask >> i & 1)
        vset = set(vs)
        admissible = [e for e in edges if e[1] in vset and e[2] in vset]
        for emask in range(1 << len(admissible)):
            es = tuple(e[0] for i, e in enumerate(admissible) if emask >> i & 1)
            out.append((vs, es))
    return out


def ref_twin_classes(vertices, edges):
    """Twin classes straight from the definition, in declaration order of
    their first members: u and v are twins when every other vertex w has
    as many edges u->w as v->w and w->u as w->v, and the counts u->u,
    u->v, v->u and v->v are equal.  Checked pairwise against each class's
    first member, then the classes are checked to be pairwise twins."""
    def count(a, b):
        return sum(1 for _, s, t in edges if (s, t) == (a, b))

    def twins(u, v):
        others = all(count(u, w) == count(v, w) and count(w, u) == count(w, v)
                     for w in vertices if w not in (u, v))
        return others and len({count(u, u), count(u, v), count(v, u),
                               count(v, v)}) == 1

    classes = []
    for v in vertices:
        for cls in classes:
            if twins(cls[0], v):
                cls.append(v)
                break
        else:
            classes.append([v])
    for cls in classes:
        assert all(twins(u, v) for u in cls for v in cls if u != v)
    return classes


def ref_decompose(coords):
    """All ordered pairs (a, b) of componentwise-nonnegative splittings."""
    pairs = set()
    for left in product(*[range(c + 1) for c in coords]):
        right = tuple(c - l for c, l in zip(coords, left))
        pairs.add((left, right))
    return pairs


def ref_labels_upto(rank, cap):
    """All rank-tuples of nonnegative integers with coordinate sum <= cap."""
    return {t for t in product(range(cap + 1), repeat=rank) if sum(t) <= cap}


def ref_table_associative(basis, table):
    """Directly test associativity of a multiplication table.

    ``table`` maps (a, b) to a dict {c: coefficient}; missing keys mean 0.
    Returns the first violating triple, or None.
    """

    def mul_vec(vec, b):
        out = {}
        for a, ca in vec.items():
            for c, cc in table.get((a, b), {}).items():
                out[c] = out.get(c, 0) + ca * cc
        return {k: v for k, v in out.items() if v != 0}

    def mul_left(a, vec):
        out = {}
        for b, cb in vec.items():
            for c, cc in table.get((a, b), {}).items():
                out[c] = out.get(c, 0) + cb * cc
        return {k: v for k, v in out.items() if v != 0}

    for a, b, c in product(basis, repeat=3):
        left = mul_vec(table.get((a, b), {}), c)
        right = mul_left(a, table.get((b, c), {}))
        if left != right:
            return (a, b, c)
    return None


def ref_ainf_residue(dims, degs, d_of, maps, n):
    """Evaluate the arity-n A-infinity relation directly over one complex.

    One-vertex, one-loop, trivial-label version used to cross-check the
    package's checkers on concrete fixtures.  ``d_of[x]`` is a dict vector,
    ``maps[k]`` the arity-k operation as {input tuple: dict vector} (missing
    arities are zero).  Returns {input tuple: residue vector} with zero
    vectors removed.
    """

    def apply_m(k, args):
        if k == 1:
            return {}  # the caller substitutes d separately
        return dict(maps.get(k, {}).get(tuple(args), {}))

    residues = {}
    for args in product(range(dims), repeat=n):
        total = {}
        for r in range(n + 1):
            for s in range(n - r + 1):
                t = n - r - s
                inner_vec = {}
                if s == 1:
                    inner_vec = dict(d_of.get(args[r], {}))
                else:
                    inner_vec = apply_m(s, args[r:r + s])
                sign = -1 if sum(degs[a] for a in args[:r]) % 2 else 1
                outer_arity = r + 1 + t
                for mid, cmid in inner_vec.items():
                    if outer_arity == 1:
                        out_vec = dict(d_of.get(mid, {}))
                    else:
                        out_vec = apply_m(outer_arity,
                                          args[:r] + (mid,) + args[r + s:])
                    for y, cy in out_vec.items():
                        total[y] = total.get(y, 0) + sign * cmid * cy
        total = {k: v for k, v in total.items() if v != 0}
        if total:
            residues[args] = total
    return residues


def ref_direct_residues(fc, A, loop, beta):
    """The relation sum over one boundary index, by scanning every input
    basis tuple against every (r, s, bridge) block and label split.

    Reads only the plain data of a free dg structure ``fc`` (its graph's
    edges), of an assignment ``A`` (complexes and raw map tables) and of
    a profile-loop and label; the identity-shaped index is the edge's
    internal differential.  Returns the nonzero residues as (input tuple,
    vector) pairs, input tuples in basis order, slot by slot.
    """
    tables = {(gen.profile.inputs.edges, gen.profile.output,
               gen.label.coords): xi.table
              for gen, xi in A.assignment.items()}

    def apply(word, out_edge, coords, args):
        if word == (out_edge,) and not any(coords):
            return A.X.complex(out_edge).d.get(args[0], {})
        return tables.get((word, out_edge, coords), {}).get(args, {})

    ends = {e.id: e.tgt for e in fc.graph.edges}
    word = loop.inputs.edges
    n = len(word)
    walk = [loop.inputs.source] + [ends[e] for e in word]
    cxs = [A.X.complex(e) for e in word]
    out = []
    for args in product(*[[x for x, _ in cx.basis.elements] for cx in cxs]):
        total = {}
        for r in range(n + 1):
            sign = -1 if sum(cx.degree(x)
                             for cx, x in zip(cxs, args[:r])) % 2 else 1
            for s in range(n - r + 1):
                for bridge in fc.graph.edges:
                    if bridge.src != walk[r] or bridge.tgt != walk[r + s]:
                        continue
                    outer_word = word[:r] + (bridge.id,) + word[r + s:]
                    for b1, b2 in ref_decompose(beta.coords):
                        inner = apply(word[r:r + s], bridge.id, b2,
                                      args[r:r + s])
                        for mid, cm in inner.items():
                            outer = apply(outer_word, loop.output, b1,
                                          args[:r] + (mid,) + args[r + s:])
                            for y, cy in outer.items():
                                total[y] = total.get(y, 0) + sign * cm * cy
        total = {y: c for y, c in total.items() if c != 0}
        if total:
            out.append((args, total))
    return out


def ref_ainf_delta_terms(n):
    """Two-factor splittings of an n-input word with both factor arities
    at least two: the inner takes s consecutive inputs, the outer keeps
    n - s + 1."""
    return sum(n - s + 1 for s in range(2, n))


def ref_bimodule_delta_terms(n0, n1):
    """Splittings of the two-sided word e0^n0, e01, e1^n1.

    Pure-left and pure-right inner factors need arity >= 2; an inner
    containing the middle edge is any (s0, s1) block except the two that
    would leave an identity-shaped factor on either side.
    """
    left = sum(n0 - s + 1 for s in range(2, n0 + 1))
    right = sum(n1 - s + 1 for s in range(2, n1 + 1))
    mixed = (n0 + 1) * (n1 + 1) - 2
    return left + right + max(mixed, 0)


def ref_left_module_delta_terms(a):
    """Splittings of the word f, e^a (one object): inner pure-e blocks of
    size >= 2, or an inner f-headed prefix leaving both factors f-headed."""
    pure = sum(a - s + 1 for s in range(2, a + 1))
    headed = max(a - 1, 0)
    return pure + headed


def ref_hat_d(in_cxs, out_cx, degree, table):
    """The differential on a multilinear map, by scanning every input
    basis tuple.

    A complex is a pair (degs, d): ``degs`` an ordered {id: degree} dict,
    ``d`` a dict {id: dict vector}.  ``table`` maps input tuples to dict
    vectors (missing tuples are zero).  Returns the table of d∘xi minus
    the signed pre-compositions xi∘(1 ⊗ .. ⊗ d ⊗ .. ⊗ 1), zeros removed.
    """
    out_degs, out_d = out_cx
    result = {}
    for args in product(*[list(degs) for degs, _ in in_cxs]):
        acc = {}
        for y, c in table.get(args, {}).items():
            for z, cz in out_d.get(y, {}).items():
                acc[z] = acc.get(z, 0) + c * cz
        sign = -1 if degree % 2 else 1
        for k, x in enumerate(args):
            degs, d = in_cxs[k]
            for y, c in d.get(x, {}).items():
                moved = args[:k] + (y,) + args[k + 1:]
                for z, cz in table.get(moved, {}).items():
                    acc[z] = acc.get(z, 0) - sign * c * cz
            if degs[x] % 2:
                sign = -sign
        acc = {k: v for k, v in acc.items() if v != 0}
        if acc:
            result[args] = acc
    return result


def ref_compose(in1, table1, i, in2, degree2, table2, sign_fault=False):
    """Partial composition xi1 ∘_i xi2, by scanning every input basis tuple.

    ``in1``/``in2`` are the input complexes of the two maps, as in
    ``ref_hat_d``.  xi2 moves past the first i-1 inputs of xi1, which
    costs (-1)^(deg xi2 · their degree); ``sign_fault`` drops that sign.
    """
    pre_cxs, post_cxs = in1[:i - 1], in1[i:]
    result = {}
    for pre in product(*[list(degs) for degs, _ in pre_cxs]):
        pre_deg = sum(degs[x] for (degs, _), x in zip(pre_cxs, pre))
        sign = -1 if degree2 % 2 and pre_deg % 2 and not sign_fault else 1
        for mid in product(*[list(degs) for degs, _ in in2]):
            for post in product(*[list(degs) for degs, _ in post_cxs]):
                acc = {}
                for m, cm in table2.get(mid, {}).items():
                    for z, cz in table1.get(pre + (m,) + post, {}).items():
                        acc[z] = acc.get(z, 0) + sign * cm * cz
                acc = {k: v for k, v in acc.items() if v != 0}
                if acc:
                    result[pre + mid + post] = acc
    return result


def ref_gamma_orders(cells, table):
    """Order-independence of simultaneous composition, by replaying orders.

    ``cells`` lists the population as (arity, label total, output edge,
    input edge tuple); ``table`` maps (outer index, slot, inner index),
    slots counted from 1, to the index of the composite, for composites
    inside the population only.

    For every cell u of arity n >= 2, the inner tuples are taken slot by
    slot, each slot's candidates (cells whose output is that input edge)
    in order of (arity, label total, index).  A tuple is audited when every
    prefix keeps its arity sum within the largest arity and, if every table
    entry's label total is the sum of its factors', its label sum within
    the largest label total minus u's.  Each of the n! insertion
    orders is replayed in lexicographic order: slot j goes to position
    j + (arity - 1) summed over the slots already inserted below j, and an
    order stops at its first missing composite.  A tuple where no order
    completes is skipped; one where the completing orders agree is
    checked.  Returns ("pass", checked, skipped) or, at the first tuple
    where two completing orders disagree, ("fail", u, inners, first
    completing order, first later order with another result).
    """
    arity_cap = max((c[0] for c in cells), default=0)
    label_cap = max((c[1] for c in cells), default=0)
    labels_add = all(cells[r][1] == cells[x][1] + cells[k][1]
                     for (x, _, k), r in table.items())
    checked = skipped = 0
    for u, (n, u_label, _, ins) in enumerate(cells):
        if n < 2:
            continue
        slots = [sorted((c[0], c[1], k) for k, c in enumerate(cells)
                        if c[2] == e) for e in ins]
        for picks in product(*slots):
            if any(sum(p[0] for p in picks[:m]) > arity_cap
                   or (labels_add and sum(p[1] for p in picks[:m])
                       > label_cap - u_label)
                   for m in range(1, n + 1)):
                continue
            inners = tuple(p[2] for p in picks)
            first = first_order = None
            for order in permutations(range(1, n + 1)):
                r = u
                for m, slot in enumerate(order):
                    shift = sum(cells[inners[j - 1]][0] - 1
                                for j in order[:m] if j < slot)
                    r = table.get((r, slot + shift, inners[slot - 1]))
                    if r is None:
                        break
                if r is None:
                    continue
                if first is None:
                    first, first_order = r, order
                elif r != first:
                    return ("fail", u, inners, first_order, order)
            if first is None:
                skipped += 1
            else:
                checked += 1
    return ("pass", checked, skipped)


def ref_factor_closed(fc, sub, bound):
    """Factor-closedness of ``sub`` in ``fc``, by composing every pair.

    For every cell u of ``fc`` with arity <= bound, every slot i and every
    such cell v whose output is that slot's edge, composes u o_i v with
    ``fc.compose`` and passes over a result without a profile (out of
    bound).  Every other composite is checked, whatever its arity.
    Returns (ok, witness, checked): the witness is the first (u, i, v)
    whose composite ``sub`` contains while it misses u or v, else None.
    """
    cells = [c for c in fc.cells() if c.arity() <= bound]
    by_out = {}
    for c in cells:
        by_out.setdefault(c.profile.output, []).append(c)
    checked = 0
    for u in cells:
        for i, eid in enumerate(u.profile.inputs.edges, start=1):
            for v in by_out.get(eid, ()):
                uv = fc.compose(u, i, v)
                if not hasattr(uv, "profile"):
                    continue
                checked += 1
                if sub.contains(uv) and not (sub.contains(u)
                                             and sub.contains(v)):
                    return False, (u, i, v), checked
    return True, None, checked


def _ref_tree_degree(t):
    return t.gen.degree + sum(_ref_tree_degree(c) for c in t.children
                              if not isinstance(c, str))


def _ref_inner_position(rule_tree):
    for q, c in enumerate(rule_tree.children):
        if not isinstance(c, str):
            return q
    raise ValueError("rule term has no inner node")


def ref_delta_tree(fc, t):
    """The signed terms of delta on one tree of a free dg structure ``fc``.

    The plain recursion with no base case: at every node it asks ``fc``
    for the node's rule and rescans each rule term for its inner slot.
    ``left[p]`` is the parity of the degrees of the subtrees among the
    first p children.  The root's rule terms come first: the outer node
    keeps the children, the inner node at child position q takes the next
    s of them and moves past the first q, with sign (-1)^left[q].  Then
    the terms of each subtree, rebuilt under the root with the sign
    (-1)^(degree of the root + left[pos]), or 1 under ``fc.sign_fault``.
    Returns the (tree, coefficient) pairs uncollected.
    """
    tree = type(t)
    kids = t.children
    left = [0]
    for c in kids:
        left.append((left[-1] + _ref_tree_degree(c)) % 2
                    if not isinstance(c, str) else left[-1])
    out = []
    for rt, rc in fc.delta_generator(t.gen).terms:
        q = _ref_inner_position(rt)
        inner = rt.children[q]
        s = len(inner.children)
        outer_kids = (kids[:q] + (tree(inner.gen, kids[q:q + s]),)
                      + kids[q + s:])
        out.append((tree(rt.gen, outer_kids), -rc if left[q] else rc))
    for pos, c in enumerate(kids):
        if isinstance(c, str):
            continue
        odd = (t.gen.degree + left[pos]) % 2 and not fc.sign_fault
        sign = -1 if odd else 1
        for sub, x in ref_delta_tree(fc, c):
            out.append((tree(t.gen, kids[:pos] + (sub,) + kids[pos + 1:]),
                        sign * x))
    return out


@lru_cache(maxsize=None)
def _ref_generators(vertices, edges, reduced, max_len, rank, cap):
    """(source, input edges, output edge, label coords) of every
    generator: the profile-loops times the labels, minus the unit
    profiles at label 0 and, when reduced, the empty-input loops at
    label 0."""
    return tuple((src, path, out, b)
                 for src, path, out in sorted(ref_profile_loops(
                     vertices, edges, max_len))
                 for b in sorted(ref_labels_upto(rank, cap))
                 if any(b) or not (path == (out,) or (reduced and not path)))


def ref_rule_terms(fc, gen):
    """The standard splitting of ``gen`` by brute force: every (outer,
    slot q, inner) pair of generators whose substituted profile and label
    sum are gen's, sorted, each generator written (source, input edges,
    output edge, label coords) and q 0-based.

    The generators are taken from the definitions (``_ref_generators``)
    up to arity n + 1 and gen's label total.  For each outer generator
    and slot, the inner generators tried are those whose output edge is
    the slot's edge and whose input word is the part of gen's word the
    slot must take; each pair is then checked against the definition.
    """
    ins = gen.profile.inputs
    n, beta = len(ins.edges), gen.label.coords
    gens = _ref_generators(tuple(v.id for v in fc.graph.vertices),
                           tuple((e.id, e.src, e.tgt)
                                 for e in fc.graph.edges),
                           fc.labeling.reduced, n + 1, len(beta), sum(beta))
    by_profile = {}
    for g in gens:
        by_profile.setdefault((g[1], g[2]), []).append(g)
    terms = []
    for outer in gens:
        src, path, out, b1 = outer
        if (src, out) != (ins.source, gen.profile.output):
            continue
        s = n + 1 - len(path)           # the inputs the inner node takes
        for q in range(len(path)):
            for inner in by_profile.get((ins.edges[q:q + s], path[q]), ()):
                if (path[:q] + inner[1] + path[q + 1:] == ins.edges
                        and tuple(x + y for x, y in zip(b1, inner[3]))
                        == beta):
                    terms.append((outer, q, inner))
    return sorted(terms)


def ref_planar_trees(n):
    """Planar trees with n >= 2 leaves whose internal nodes have at least
    two children, written as nested tuples: a leaf is None, a node is the
    tuple of its children.  Their numbers are the super-Catalan numbers
    1, 3, 11, 45, 197, 903, ... (the faces of the associahedron K_n)."""
    trees = {1: [None]}
    for m in range(2, n + 1):
        trees[m] = []
        # a node's children split the m leaves into >= 2 consecutive blocks,
        # one block per choice of cut positions among the m - 1 gaps
        for cuts in range(1, 1 << (m - 1)):
            sizes, size = [], 1
            for gap in range(m - 1):
                if cuts >> gap & 1:
                    sizes.append(size)
                    size = 1
                else:
                    size += 1
            sizes.append(size)
            trees[m].extend(product(*(trees[k] for k in sizes)))
    return trees[n]


def ref_rank(rows):
    """Rank over the rationals of a matrix given as a list of sparse rows
    {column index: coefficient}, by exact Gaussian elimination."""
    pivots = {}  # column -> row with 1 there and no smaller column
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                lead = row[col]
                pivots[col] = {c: v / lead for c, v in row.items()}
                break
            factor = row[col]
            for c, v in pivots[col].items():
                left = row.get(c, 0) - factor * v
                if left:
                    row[c] = left
                else:
                    row.pop(c, None)
    return len(pivots)
