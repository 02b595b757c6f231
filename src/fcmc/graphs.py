"""Directed graphs, composable edge paths, and profile-loops.

A directed graph is the combinatorial substrate for everything downstream:
its edges are what 2-cells consume and produce.  A path is a finite
composable string of edges; the empty path carries an explicit basepoint
vertex, so its endpoints stay defined.  A profile-loop pairs an input path
with one output edge sharing the path's endpoints — the boundary frame of
a 2-cell.  :func:`is_loop_of` is the one decision of that: every layer
(labels, instances, the free dg structure, documents through
:func:`profile_loop`) asks it.  Likewise the edges from one vertex to
another, in declaration order, are indexed once per graph
(:meth:`DirectedGraph.between`): they close a path into profile-loops,
witness a failure of endpoint-closedness, give the twin quotient its
counts and edge images, and bridge the blocks a splitting cuts out, in
the free dg structure and in the direct algebra route alike.

Also here: the graph constructions every preset is built on (pair graphs,
one-sided module graphs, the two-vertex bimodule graph, partition
subgraphs), the reachability decision for endpoint-closedness, and the
quotient that merges twin vertices, on which the d^2 sweep runs.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    """Malformed or inconsistent graph data."""


class CompositionError(ValueError):
    """Endpoint mismatch when composing paths or cells."""


@dataclass(frozen=True)
class Vertex:
    id: str


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    tgt: str


class DirectedGraph:
    """A finite directed graph with opaque string ids.

    Construction never raises; structural problems are surfaced by
    :func:`validate_graph` so malformed inputs can be *reported* rather
    than crashed on.  All query methods assume a valid graph.

    Construction indexes the edges by source (``out_edges``) and by
    (source, target) pair (``between``), in declaration order; a hot
    loop may read the pair dict ``_between`` directly.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Edge]):
        self.vertices: tuple[Vertex, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._vmap = {v.id: v for v in self.vertices}
        self._emap = {e.id: e for e in self.edges}
        self._out: dict[str, list[Edge]] = {}
        self._between: dict[tuple[str, str], tuple[str, ...]] = {}
        for e in self.edges:
            self._out.setdefault(e.src, []).append(e)
            self._between[e.src, e.tgt] = (
                self._between.get((e.src, e.tgt), ()) + (e.id,))

    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def has_vertex(self, vid: str) -> bool:
        return vid in self._vmap

    def has_edge(self, eid: str) -> bool:
        return eid in self._emap

    def edge(self, eid: str) -> Edge:
        try:
            return self._emap[eid]
        except KeyError:
            raise GraphError(f"unknown edge id {eid!r}") from None

    def out_edges(self, vid: str) -> tuple[Edge, ...]:
        return tuple(self._out.get(vid, ()))

    def between(self, src: str, tgt: str) -> tuple[str, ...]:
        """The ids of the edges src -> tgt in declaration order; () when
        there is none."""
        return self._between.get((src, tgt), ())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (frozenset(v.id for v in self.vertices)
                == frozenset(v.id for v in other.vertices)
                and frozenset(self.edges) == frozenset(other.edges))

    def __hash__(self) -> int:
        return hash((frozenset(v.id for v in self.vertices),
                     frozenset(self.edges)))

    def __repr__(self) -> str:
        return (f"DirectedGraph({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges)")


def make_graph(vertex_ids: Iterable[str],
               edge_triples: Iterable[tuple[str, str, str]]) -> DirectedGraph:
    """Build a graph from id strings and (id, src, tgt) triples, validated."""
    g = DirectedGraph((Vertex(v) for v in vertex_ids),
                      (Edge(i, s, t) for i, s, t in edge_triples))
    report = validate_graph(g)
    if not report.ok:
        raise GraphError("; ".join(report.problems))
    return g


@dataclass(frozen=True)
class GraphReport:
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_graph(g: DirectedGraph) -> GraphReport:
    """Report duplicate ids, dangling endpoints and edge ids that a
    printed profile-loop ("e1,e2;out") would not keep apart: empty ones
    and ones holding "," or ";".  Valid graphs pass."""
    problems = []
    seen_v: set[str] = set()
    for v in g.vertices:
        if v.id in seen_v:
            problems.append(f"duplicate vertex id {v.id!r}")
        seen_v.add(v.id)
    seen_e: set[str] = set()
    for e in g.edges:
        if e.id in seen_e:
            problems.append(f"duplicate edge id {e.id!r}")
        seen_e.add(e.id)
        if not e.id or "," in e.id or ";" in e.id:
            problems.append(f"ambiguous edge id {e.id!r} (empty, or holds "
                            f"',' or ';')")
        if e.src not in seen_v:
            problems.append(f"dangling endpoint: edge {e.id!r} src {e.src!r}")
        if e.tgt not in seen_v:
            problems.append(f"dangling endpoint: edge {e.id!r} tgt {e.tgt!r}")
    return GraphReport(tuple(problems))


@dataclass(frozen=True)
class EdgePath:
    """A composable string of edge ids with explicit endpoints.

    For the empty path, ``source == target`` is the basepoint.
    """
    edges: tuple[str, ...]
    source: str
    target: str

    def __len__(self) -> int:
        return len(self.edges)

    def is_empty(self) -> bool:
        return not self.edges


def empty_path(g: DirectedGraph, vid: str) -> EdgePath:
    if not g.has_vertex(vid):
        raise GraphError(f"unknown vertex id {vid!r}")
    return EdgePath((), vid, vid)


def make_path(g: DirectedGraph, edge_ids: Sequence[str],
              basepoint: Optional[str] = None) -> EdgePath:
    """Validated path constructor; a basepoint is required iff empty."""
    edge_ids = tuple(edge_ids)
    if not edge_ids:
        if basepoint is None:
            raise GraphError("empty path needs a basepoint vertex")
        return empty_path(g, basepoint)
    first = g.edge(edge_ids[0])
    at = first.tgt
    for eid in edge_ids[1:]:
        e = g.edge(eid)
        if e.src != at:
            raise CompositionError(
                f"edges {eid!r} cannot follow: starts at {e.src!r}, "
                f"previous ends at {at!r}")
        at = e.tgt
    return EdgePath(edge_ids, first.src, at)


def path_vertices(g: DirectedGraph, p: EdgePath) -> tuple[str, ...]:
    """The n+1 vertices visited by a length-n path, source first."""
    out = [p.source]
    for eid in p.edges:
        out.append(g.edge(eid).tgt)
    return tuple(out)


def concatenate(paths: Sequence[EdgePath]) -> EdgePath:
    """Concatenate composable paths; empty paths act as identities."""
    if not paths:
        raise CompositionError("nothing to concatenate")
    for a, b in zip(paths, paths[1:]):
        if a.target != b.source:
            raise CompositionError(
                f"path ending at {a.target!r} cannot meet one starting "
                f"at {b.source!r}")
    edges: tuple[str, ...] = ()
    for p in paths:
        edges = edges + p.edges
    return EdgePath(edges, paths[0].source, paths[-1].target)


def enumerate_paths(g: DirectedGraph, max_len: int) -> list[EdgePath]:
    """All composable paths of length <= max_len, in a stable order.

    Empty paths (one per vertex) are included.  Order: by length, then by
    generation; generation follows vertex and edge declaration order, so
    repeated runs agree.
    """
    if max_len < 0:
        raise GraphError("max_len must be >= 0")
    out: list[EdgePath] = []
    frontier = [empty_path(g, v.id) for v in g.vertices]
    out.extend(frontier)
    for _ in range(max_len):
        nxt = []
        for p in frontier:
            for e in g.out_edges(p.target):
                nxt.append(EdgePath(p.edges + (e.id,), p.source, e.tgt))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


@dataclass(frozen=True)
class ProfileLoop:
    """An input path together with an output edge sharing its endpoints."""
    inputs: EdgePath
    output: str

    def arity(self) -> int:
        return len(self.inputs.edges)


def is_loop_of(g: DirectedGraph, loop: ProfileLoop) -> bool:
    """True iff ``loop`` is a profile-loop of ``g``: its input edges exist
    and compose head to tail from ``inputs.source`` to ``inputs.target``,
    and its output edge runs between those two vertices (so an empty path
    needs ``source == target``).  Never raises."""
    ins = loop.inputs
    at = ins.source
    for eid in ins.edges:
        e = g._emap.get(eid)
        if e is None or e.src != at:
            return False
        at = e.tgt
    out = g._emap.get(loop.output)
    return (at == ins.target and out is not None
            and out.src == ins.source and out.tgt == at)


def profile_loop(g: DirectedGraph, edge_ids: Sequence[str], output: str,
                 basepoint: Optional[str] = None) -> ProfileLoop:
    """Validated profile-loop constructor: an unknown id raises
    :class:`GraphError`, a word that does not compose or an output that
    does not close it :class:`CompositionError`."""
    out = g.edge(output)
    p = make_path(g, edge_ids, out.src if basepoint is None else basepoint)
    if not is_loop_of(g, ProfileLoop(p, output)):
        raise CompositionError(
            f"edge {output!r} does not close the path {p.edges!r} "
            f"from {p.source!r} to {p.target!r}")
    return ProfileLoop(p, output)


def identity_loop(g: DirectedGraph, eid: str) -> ProfileLoop:
    """The profile-loop of a unit: the edge's one-edge path, closed by
    itself."""
    e = g.edge(eid)
    return ProfileLoop(EdgePath((eid,), e.src, e.tgt), eid)


def enumerate_profile_loops(g: DirectedGraph, max_len: int) -> list[ProfileLoop]:
    """All profile-loops with input length <= max_len, in a stable order."""
    between = g._between
    out = []
    for p in enumerate_paths(g, max_len):
        for eid in between.get((p.source, p.target), ()):
            out.append(ProfileLoop(p, eid))
    return out


def is_subgraph(g: DirectedGraph, sub: DirectedGraph) -> bool:
    """True iff sub's vertices and edges all occur in g (same endpoints)."""
    for v in sub.vertices:
        if not g.has_vertex(v.id):
            return False
    for e in sub.edges:
        if not g.has_edge(e.id) or g.edge(e.id) != e:
            return False
    return True


def subgraph(g: DirectedGraph, vertex_ids: Iterable[str],
             edge_ids: Iterable[str]) -> DirectedGraph:
    """The subgraph of g on the given ids; endpoints must be included."""
    vset = set(vertex_ids)
    for vid in vset:
        if not g.has_vertex(vid):
            raise GraphError(f"unknown vertex id {vid!r}")
    edges = []
    for eid in edge_ids:
        e = g.edge(eid)
        if e.src not in vset or e.tgt not in vset:
            raise GraphError(
                f"edge {eid!r} has an endpoint outside the vertex subset")
        edges.append(e)
    vs = [v for v in g.vertices if v.id in vset]
    return DirectedGraph(vs, edges)


def is_endpoint_closed(g: DirectedGraph, sub: DirectedGraph) -> bool:
    """Decide endpoint-closedness of a subgraph, with no length bound.

    The subgraph is endpoint-closed when every profile-loop of g whose
    input path lies in the subgraph (empty paths at subgraph vertices
    included) has its output edge in the subgraph.  Input paths only
    matter through the reachability they witness, so the decision reduces
    to: for every ordered vertex pair (u, w) of the subgraph with w
    reachable from u inside the subgraph (u itself included), every g-edge
    u -> w already belongs to the subgraph.
    """
    return endpoint_violation(g, sub) is None


def endpoint_violation(g: DirectedGraph,
                       sub: DirectedGraph) -> Optional[ProfileLoop]:
    """A profile-loop witnessing failure of endpoint-closedness, or None.

    The witness has its input path in the subgraph (a shortest reachability
    path) and its output edge outside it.
    """
    if not is_subgraph(g, sub):
        raise GraphError("not a subgraph of the ambient graph")
    sub_edge_ids = {e.id for e in sub.edges}
    for v in sub.vertices:
        # breadth-first search inside the subgraph, keeping parent edges
        parent: dict[str, tuple[str, str]] = {}
        seen = {v.id}
        queue = deque([v.id])
        while queue:
            at = queue.popleft()
            missing = next((eid for eid in g.between(v.id, at)
                            if eid not in sub_edge_ids), None)
            if missing is not None:
                edges = []
                walk = at
                while walk != v.id:
                    peid, pprev = parent[walk]
                    edges.append(peid)
                    walk = pprev
                edges.reverse()
                path = EdgePath(tuple(edges), v.id, at)
                return ProfileLoop(path, missing)
            for e in sub.out_edges(at):
                if e.tgt not in seen:
                    seen.add(e.tgt)
                    parent[e.tgt] = (e.id, at)
                    queue.append(e.tgt)
    return None


def twin_quotient(g: DirectedGraph
                  ) -> tuple[DirectedGraph, dict[str, str], dict[str, str]]:
    """Merge twin vertices: (Q, phi on vertex ids, phi on edge ids).

    Vertices u and v are twins when every other vertex w has as many
    edges u->w as v->w and as many w->u as w->v, and the counts u->u,
    u->v, v->u and v->v are all equal.  That holds exactly when u and v
    have the same row and the same column of the edge-count matrix, so
    twins are found by hashing each vertex's out- and in-counts, and the
    relation is an equivalence.  Every twin class has one count c on and
    between its members, so the edges between two vertices are as many as
    between their classes' first-declared members.

    Q is the full subgraph on those representatives, so it keeps every
    edge between two of them.  phi sends a vertex to its representative
    and the i-th edge of ``g.between(u, w)`` to the i-th edge of
    ``g.between(phi(u), phi(w))``: a graph map that is a bijection on the
    edges of every ordered pair.  A graph without twins is its own
    quotient: Q is ``g`` itself and phi the identity.
    """
    rows: dict[str, dict[str, int]] = {v.id: {} for v in g.vertices}
    cols: dict[str, dict[str, int]] = {v.id: {} for v in g.vertices}
    for (u, w), ids in g._between.items():
        rows[u][w] = cols[w][u] = len(ids)
    reps: dict[tuple, str] = {}
    vmap = {v.id: reps.setdefault((frozenset(rows[v.id].items()),
                                   frozenset(cols[v.id].items())), v.id)
            for v in g.vertices}
    if len(reps) == len(g.vertices):
        return g, {v: v for v in vmap}, {e.id: e.id for e in g.edges}
    kept = [e for e in g.edges if vmap[e.src] == e.src and vmap[e.tgt] == e.tgt]
    emap = {}
    for (u, w), ids in g._between.items():
        emap.update(zip(ids, g.between(vmap[u], vmap[w])))
    q = DirectedGraph([v for v in g.vertices if vmap[v.id] == v.id], kept)
    return q, vmap, emap


def pair_edge_id(u: str, w: str) -> str:
    return f"{u}->{w}"


def build_pair_graph(object_ids: Sequence[str]) -> DirectedGraph:
    """The graph with one edge u->w for every ordered pair of objects."""
    object_ids = tuple(object_ids)
    if not object_ids:
        raise GraphError("need at least one object")
    edges = [(pair_edge_id(u, w), u, w)
             for u in object_ids for w in object_ids]
    return make_graph(object_ids, edges)


def build_module_graph(object_ids: Sequence[str],
                       side: str) -> DirectedGraph:
    """Pair graph plus a fresh vertex ``*`` with one edge per object:
    ``*->v`` for a left module, ``v->*`` for a right module.

    The fresh vertex has no loop, and its added edges all point the same
    way, so a path meets them only at its start (left) or its end (right).
    """
    if side not in ("left", "right"):
        raise GraphError(f"side must be 'left' or 'right', not {side!r}")
    object_ids = tuple(object_ids)
    if "*" in object_ids:
        raise GraphError("fresh vertex id '*' collides with an object")
    edges = [(e.id, e.src, e.tgt) for e in build_pair_graph(object_ids).edges]
    for v in object_ids:
        src, tgt = ("*", v) if side == "left" else (v, "*")
        edges.append((pair_edge_id(src, tgt), src, tgt))
    return make_graph(object_ids + ("*",), edges)


def build_bimodule_graph() -> DirectedGraph:
    """Two vertices, a loop at each, and one connecting edge v0->v1."""
    return make_graph(
        ["v0", "v1"],
        [("e0", "v0", "v0"), ("e1", "v1", "v1"), ("e01", "v0", "v1")])


def partition_subgraph(g: DirectedGraph,
                       parts: Sequence[Sequence[str]]) -> DirectedGraph:
    """The subgraph of g keeping the edges that respect an ordered partition.

    ``parts`` (P_1, ..., P_r) must list every vertex of g exactly once.
    Every vertex is kept, and an edge u->w is kept iff u in P_j and w in
    P_k with j <= k.
    """
    part_of: dict[str, int] = {}
    for k, part in enumerate(parts):
        for v in part:
            if v in part_of:
                raise GraphError(f"vertex {v!r} occurs in two parts")
            if not g.has_vertex(v):
                raise GraphError(f"vertex {v!r} is not in the graph")
            part_of[v] = k
    if len(part_of) != len(g.vertices):
        missing = sorted(set(g.vertex_ids()) - set(part_of))
        raise GraphError(f"partition misses vertices {missing!r}")
    kept = [e.id for e in g.edges if part_of[e.src] <= part_of[e.tgt]]
    return subgraph(g, g.vertex_ids(), kept)


def build_partition_subgraph(object_ids: Sequence[str],
                             parts: Sequence[Sequence[str]]) -> DirectedGraph:
    """The partition subgraph of the pair graph on the objects.

    The result is always endpoint-closed in the pair graph: a subgraph
    path can only move weakly forward through the parts, and every
    weakly-forward edge is kept.
    """
    return partition_subgraph(build_pair_graph(object_ids), parts)
