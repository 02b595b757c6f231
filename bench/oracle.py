"""Brute-force known answers for the fc_audit workload.

Everything here is restated from the definitions on plain tuples and
shares no code with ``fcmc``: a graph is a list of vertex ids plus
``(edge id, src, tgt)`` triples, a cell is ``(source, word, output,
label)`` with ``label`` an int (or ``None`` for profile-loop instances).
The benchmark checks every verdict and witness the verifier reports
against these functions.
"""
from __future__ import annotations

from itertools import combinations_with_replacement, permutations, product


def walks(vertices, edges, max_len):
    """Every composable edge word of length <= max_len, as (source, word,
    target); empty words are included, one per vertex."""
    by_src = {}
    for eid, src, tgt in edges:
        by_src.setdefault(src, []).append((eid, tgt))
    out = []
    frontier = [(v, (), v) for v in vertices]
    out.extend(frontier)
    for _ in range(max_len):
        frontier = [(s, word + (eid,), tgt)
                    for s, word, at in frontier
                    for eid, tgt in by_src.get(at, ())]
        out.extend(frontier)
    return out


def profile_loops(vertices, edges, max_len):
    """(source, word, output) for every word closed by an edge."""
    return [(s, word, eid)
            for s, word, t in walks(vertices, edges, max_len)
            for eid, src, tgt in edges if src == s and tgt == t]


def endpoint_violations(vertices, edges, sub_vertices, sub_edges):
    """Edges outside the subgraph whose endpoints are joined by a word
    inside it (the empty word at a subgraph vertex included).

    Words up to length |V| suffice: a shortest joining word visits no
    vertex twice.
    """
    sub_v = set(sub_vertices)
    sub_e = set(sub_edges)
    inner = [e for e in edges if e[0] in sub_e]
    joined = {(s, t) for s, _, t in walks(sorted(sub_v), inner,
                                          len(vertices))}
    return sorted(eid for eid, src, tgt in edges
                  if eid not in sub_e and (src, tgt) in joined)


def _inside(cell, sub_v, sub_e):
    source, word, out, _ = cell
    return out in sub_e and source in sub_v and all(e in sub_e
                                                    for e in word)


def instance_cells(vertices, edges, max_len, truncation=None):
    """Cells of the profile-loop instance, or of the labeled one (labels
    0..truncation over every loop) when a truncation is given."""
    loops = profile_loops(vertices, edges, max_len)
    if truncation is None:
        return [(s, w, o, None) for s, w, o in loops]
    return [(s, w, o, k) for s, w, o in loops
            for k in range(truncation + 1)]


def compose(u, i, v, max_len, truncation=None):
    """Slot composite of two cells, or None when it leaves the bounds."""
    source, word, out, lu = u
    if not 1 <= i <= len(word) or word[i - 1] != v[2]:
        return None
    new_word = word[:i - 1] + v[1] + word[i:]
    if len(new_word) > max_len:
        return None
    lab = None
    if truncation is not None:
        lab = lu + v[3]
        if lab > truncation:
            return None
    return (source, new_word, out, lab)


def factor_violation(vertices, edges, sub_vertices, sub_edges, max_len,
                     bound, truncation=None):
    """First (u, i, v) whose composite lies in the full sub-instance while
    a factor does not; None when the sub is factor-closed."""
    sub_v, sub_e = set(sub_vertices), set(sub_edges)
    cells = [c for c in instance_cells(vertices, edges, max_len, truncation)
             if len(c[1]) <= bound]
    by_out = {}
    for c in cells:
        by_out.setdefault(c[2], []).append(c)
    for u in cells:
        for i, eid in enumerate(u[1], start=1):
            for v in by_out.get(eid, ()):
                comp = compose(u, i, v, max_len, truncation)
                if comp is not None and _inside(comp, sub_v, sub_e) and \
                        not (_inside(u, sub_v, sub_e)
                             and _inside(v, sub_v, sub_e)):
                    return (u, i, v)
    return None


def parse_cell(token, edges):
    """The cell of a printable token "e1,e2;out" (with "@(k)" for a
    label) over a graph; None for a malformed token."""
    ends = {eid: (src, tgt) for eid, src, tgt in edges}
    body, _, lab = token.partition("@")
    word_text, sep, out = body.partition(";")
    if not sep or out not in ends:
        return None
    word = tuple(word_text.split(",")) if word_text else ()
    if any(e not in ends for e in word):
        return None
    if word:
        source = ends[word[0]][0]
    else:
        source = ends[out][0]
    label = int(lab.strip("()")) if lab else None
    return (source, word, out, label)


def is_factor_witness(witness, vertices, edges, sub_vertices, sub_edges,
                      max_len, bound, truncation=None):
    """Does a reported [u id, slot, v id] triple really break
    factor-closedness?"""
    if not isinstance(witness, list) or len(witness) != 3:
        return False
    u = parse_cell(str(witness[0]), edges)
    v = parse_cell(str(witness[2]), edges)
    if u is None or v is None or not isinstance(witness[1], int):
        return False
    sub_v, sub_e = set(sub_vertices), set(sub_edges)
    if max(len(u[1]), len(v[1])) > bound:
        return False
    comp = compose(u, witness[1], v, max_len, truncation)
    return (comp is not None and _inside(comp, sub_v, sub_e)
            and not (_inside(u, sub_v, sub_e) and _inside(v, sub_v, sub_e)))


def graph_family(max_v=3, max_e=4):
    """All directed multigraphs with |V| <= max_v, |E| <= max_e, one per
    vertex-permutation class, as (vertex ids, edge triples)."""
    out = []
    for nv in range(1, max_v + 1):
        pairs = list(product(range(nv), repeat=2))
        seen = set()
        for ne in range(max_e + 1):
            for combo in combinations_with_replacement(pairs, ne):
                best = min(tuple(sorted((p[a], p[b]) for a, b in combo))
                           for p in permutations(range(nv)))
                if best in seen:
                    continue
                seen.add(best)
                out.append(([f"w{k}" for k in range(nv)],
                            [(f"g{k}", f"w{a}", f"w{b}")
                             for k, (a, b) in enumerate(combo)]))
    return out
