"""Free differential-graded structures presented by degree-1 generators.

A generator is a named symbol over a (profile-loop, label) pair; the free
structure's 2-cells are exact-rational linear combinations of decorated
planar trees, one tree per iterated composite of generators.  The
differential splits one node at a time into a two-node composite and
extends by a Leibniz rule; its square vanishing is the defining
cancellation and is what the sweeps here verify.

Sign discipline.  Every generator has degree 1 (a unit has degree 0), so
trees only represent cells faithfully together with an orientation of
their node set; we fix planar *pre-order* (root first, then subtrees left
to right), matching the left-normal written form of iterated composites.
A planar tree is exactly its pre-order (Polish) word, one letter per node
and per leaf, since a leaf's edge is fixed by its parent's input word.
One rule gives every sign: a node that moves to another place in the word
pays the degree parity of the nodes it passes.

* Grafting a tree t' onto leaf i of t appends t' to t's node list, while
  pre-order wants it at leaf i's place: the sign is
  (-1)^(deg t' * degree sum of the nodes of t after leaf i).
* The differential replaces the node at position j by a two-node rule term
  whose inner node takes the outer node's children from child q on: the
  word becomes ``w[:j] + (outer,) + w[j+1:cs[q]] + (inner,) + w[cs[q]:]``,
  ``cs[q]`` being where child q started.  The degree-1 differential
  travels from the front of the word to the inner node's place, past every
  node of ``w[:cs[q]]`` but the replaced one: the sign is (-1)^(degree
  sum of those nodes).

Dropping the nodes of ``w[:j]`` from that parity (the debug sign fault)
breaks the square-zero property already at arity 4.

On the two-node word of a rule record (O, I, q), where I sits at
j = q + 1 and its subtree ends at k = j + 1 + arity(I), the rule has
three cases for a record (o2, i2, q2) of the node being split; the d^2
sweep reads its signs from them:

* I split: o2 stays at j, i2 lands at j + 1 + q2, and the differential
  passes O: sign (-1)^|O|.  The sign fault drops O, so the sign is +1.
* O split at a child q2 <= q: i2 lands at q2 + 1 and I moves to j + 1;
  the differential passes nothing: sign +1.
* O split at a child q2 > q: I stays at j and i2 lands at k + q2 - j,
  past I: sign (-1)^|I|.  Nothing precedes O, so the fault changes
  neither O case.

Twin quotient.  The d^2 sweep runs on the graph that merges twin vertices
(``graphs.twin_quotient``): a graph map phi onto the full subgraph Q on
one vertex per twin class, a bijection from the edges u -> w onto those
phi(u) -> phi(w) for every ordered pair (u, w).  Why that is sound:

* phi carries generators bijectively.  It sends a profile-loop of the
  graph to one of Q, and, once the loop's vertex walk is fixed, each edge
  of a loop over Q lifts to exactly one edge between the walk's vertices
  there.  The fiber reads only the loop, the label and whether the inputs
  are empty, and the unit case (input word (out,), label 0) is kept,
  since out and that one input join the same pair.  So with the label
  kept, the generators over a walk go one to one onto those over its
  image.
* phi carries splittings bijectively.  A splitting of m is a block r..r+s
  of its inputs, a bridge from walk[r] to walk[r+s] and a split of the
  label; phi sends it to the splitting of phi(m) with the same block,
  the image bridge and the same split, and each factor is a generator
  exactly when its image is.  So m's rule records go one to one onto
  phi(m)'s, and so do the records of each of their factors.
* The renaming is injective on three-node words.  A term of delta^2(m) is
  a word over m's leaves with three nodes at fixed positions, each node
  fixed by its label and the edges of its loop.  The positions fix each
  node's leaves and walk endpoints, and the bridges are lifted there by
  phi inverse, so two words over m never rename to one word over phi(m).
  A coefficient is a signed sum over pairs of records, and the signs
  read only positions and degrees, which phi keeps.

So delta^2(m) is delta^2(phi(m)) with its nodes renamed, and zero exactly
when that is.  The sweep sums the square once per image and pulls a
nonzero one back to each generator over it.  A custom rule table is not
read off the graph, so it is swept on its own structure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .graphs import (
    CompositionError,
    DirectedGraph,
    EdgePath,
    ProfileLoop,
    build_bimodule_graph,
    build_module_graph,
    build_pair_graph,
    build_partition_subgraph,
    enumerate_profile_loops,
    identity_loop,
    make_graph,
    path_vertices,
    twin_quotient,
)
from .labels import (
    LabelMonoid,
    LabelingFc,
    MonoidElem,
    add,
    decompose,
    in_fiber,
)
from .multicat import (OutOfBound, check_slot, label_overflow, loop_token,
                       substituted_profile)
from .chain import _check_exact

Scalar = Union[int, Fraction]
Record = tuple[int, int, int, Scalar]  # a rule term: see FreeDgFc._word_rule

# The named presets, each mapped to the builder of its graph from the object
# ids and the ordered partition.  All have the standard splitting, and so
# has "generalized", on whatever graph its labeling has.
PRESETS = {
    "ainf": lambda objects, parts: make_graph(["v"], [("e", "v", "v")]),
    "category": lambda objects, parts: build_pair_graph(objects),
    "bimodule": lambda objects, parts: build_bimodule_graph(),
    "left-module": lambda objects, parts: build_module_graph(objects, "left"),
    "right-module": lambda objects, parts: build_module_graph(objects,
                                                               "right"),
    "rmodule": build_partition_subgraph,
}


@dataclass(frozen=True)
class GeneratorSpec:
    """A free generator: a name, a boundary profile, a label, degree 1.

    Unit cells are represented uniformly as degree-0 specs over the
    identity profile; they are not generators and carry no differential.

    A plain frozen value: equal specs compare and hash equal, in any
    process.
    """
    name: str
    profile: ProfileLoop
    label: MonoidElem
    degree: int = 1

    def arity(self) -> int:
        return self.profile.arity()

    def is_unit(self) -> bool:
        return self.degree == 0


Child = Union[str, "CompTree"]


@dataclass(frozen=True)
class CompTree:
    """A planar tree of generators; leaves carry the composite's inputs.

    A plain frozen value: equal trees compare and hash equal, whichever
    objects hold them.
    """
    gen: GeneratorSpec
    children: tuple[Child, ...]


def unit_tree(g: DirectedGraph, eid: str, zero: MonoidElem) -> CompTree:
    """The unit over an edge: a degree-0 spec over its identity loop,
    labeled by the structure's zero."""
    unit = GeneratorSpec(f"1[{eid}]", identity_loop(g, eid), zero, degree=0)
    return CompTree(unit, (eid,))


def leaf_of(gen: GeneratorSpec) -> CompTree:
    """The one-node tree of a generator, all inputs still open."""
    return CompTree(gen, gen.profile.inputs.edges)


def tree_nodes(t: CompTree) -> list[GeneratorSpec]:
    """Internal nodes in pre-order: root first, subtrees left to right."""
    out = [t.gen]
    for c in t.children:
        if isinstance(c, CompTree):
            out.extend(tree_nodes(c))
    return out


def tree_leaves(t: CompTree) -> tuple[str, ...]:
    out: list[str] = []
    for c in t.children:
        if isinstance(c, str):
            out.append(c)
        else:
            out.extend(tree_leaves(c))
    return tuple(out)


def tree_degree(t: CompTree) -> int:
    return sum(n.degree for n in tree_nodes(t))


def leaf_count(t: CompTree) -> int:
    return len(tree_leaves(t))


def tree_label(t: CompTree) -> MonoidElem:
    nodes = tree_nodes(t)
    beta = nodes[0].label
    for n in nodes[1:]:
        beta = add(beta, n.label)
    return beta


def tree_profile(t: CompTree) -> ProfileLoop:
    # substitution preserves endpoints, so the composite inherits the
    # root's source/target
    root = t.gen.profile
    path = EdgePath(tree_leaves(t), root.inputs.source, root.inputs.target)
    return ProfileLoop(path, root.output)


def inner_position(rule_tree: CompTree) -> int:
    """The child position q (0-based) of the inner node of a two-node rule
    term; the children before it are leaves, so its input slot is q + 1.
    Only rule cells need it: ``FreeDgFc`` compiles a custom rule's records
    from its table's cell with it, and serde writes rule documents with
    it.  A standard rule's records get q from the splitting loop."""
    for q, c in enumerate(rule_tree.children):
        if isinstance(c, CompTree):
            return q
    raise CompositionError(f"{format_tree(rule_tree)} has no inner node")


def _record_word(outer: int, inner: int, q: int, n: int) -> tuple[int, ...]:
    """The pre-order word of a rule record's two-node tree over n leaves."""
    return (outer,) + (0,) * q + (inner,) + (0,) * (n - q)


def tree_key(t: CompTree):
    kids = tuple(tree_key(c) if isinstance(c, CompTree) else ("L", c, ())
                 for c in t.children)
    return ("N", t.gen.name, kids)


def format_tree(t: CompTree) -> str:
    if t.gen.is_unit():
        return t.gen.name
    parts = [format_tree(c) if isinstance(c, CompTree) else c
             for c in t.children]
    return f"{t.gen.name}({','.join(parts)})"


def validate_tree(t: CompTree) -> None:
    """Check output edges of children against the node's input word.

    A unit node takes no subtree: grafting onto a unit gives the subtree
    itself (see ``signed_graft``), so a cell never holds one."""
    ins = t.gen.profile.inputs.edges
    if len(t.children) != len(ins):
        raise CompositionError(
            f"node {t.gen.name} has {len(t.children)} children for "
            f"{len(ins)} inputs")
    if t.gen.is_unit() and not all(isinstance(c, str) for c in t.children):
        raise CompositionError(
            f"unit {t.gen.name} has a subtree child; a unit takes only "
            f"its leaf")
    for c, eid in zip(t.children, ins):
        if isinstance(c, str):
            if c != eid:
                raise CompositionError(
                    f"leaf {c!r} under {t.gen.name} should be {eid!r}")
        else:
            if c.gen.profile.output != eid:
                raise CompositionError(
                    f"subtree under {t.gen.name} produces "
                    f"{c.gen.profile.output!r}, wanted {eid!r}")
            validate_tree(c)


def graft(t: CompTree, i: int, t2: CompTree) -> CompTree:
    """Planar substitution of t2 at the i-th leaf of t (1-based).

    This is the set-level operation; linear combinations must use
    signed_graft, which also returns the orientation sign.
    """
    return signed_graft(t, i, t2)[0]


def signed_graft(t: CompTree, i: int, t2: CompTree) -> tuple[CompTree, int]:
    if not 1 <= i <= leaf_count(t):
        raise CompositionError(
            f"leaf index {i} out of range 1..{leaf_count(t)}")
    if t.gen.is_unit():
        # the unit has a single leaf; inserting there gives t2 itself
        if t2.gen.profile.output != t.children[0]:
            raise CompositionError(
                f"cannot graft {t2.gen.profile.output!r} onto unit leaf "
                f"{t.children[0]!r}")
        return t2, 1
    if t2.gen.is_unit():
        leaves = tree_leaves(t)
        if t2.gen.profile.output != leaves[i - 1]:
            raise CompositionError(
                f"unit over {t2.gen.profile.output!r} does not match leaf "
                f"{leaves[i - 1]!r}")
        return t, 1
    new, nodes_after = _graft_rec(t, i, t2)
    sign = -1 if (tree_degree(t2) % 2 and nodes_after % 2) else 1
    return new, sign


def _graft_rec(t: CompTree, i: int, t2: CompTree) -> tuple[CompTree, int]:
    """Replace the i-th leaf; also count t's node degrees after that leaf."""
    kids = list(t.children)
    seen = 0
    for pos, c in enumerate(kids):
        width = 1 if isinstance(c, str) else leaf_count(c)
        if i <= seen + width:
            if isinstance(c, str):
                if t2.gen.profile.output != c:
                    raise CompositionError(
                        f"grafted tree produces {t2.gen.profile.output!r}, "
                        f"leaf wants {c!r}")
                kids[pos] = t2
                after = 0
            else:
                kids[pos], after = _graft_rec(c, i - seen, t2)
            after += sum(tree_degree(k) for k in kids[pos + 1:]
                         if isinstance(k, CompTree))
            return CompTree(t.gen, tuple(kids)), after
        seen += width
    raise CompositionError(f"leaf index {i} out of range")


@dataclass(frozen=True)
class FreeCell:
    """A homogeneous linear combination of trees over one profile and label."""
    profile: ProfileLoop
    label: MonoidElem
    degree: int
    terms: tuple[tuple[CompTree, Scalar], ...]

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, t: CompTree) -> Scalar:
        for tt, c in self.terms:
            if tt == t:
                return c
        return 0

    def __add__(self, other: "FreeCell") -> "FreeCell":
        if (self.profile, self.label, self.degree) != (
                other.profile, other.label, other.degree):
            raise CompositionError("cannot add inhomogeneous cells")
        acc = dict(self.terms)
        for t, c in other.terms:
            acc[t] = acc.get(t, 0) + c
        return free_cell(self.profile, self.label, self.degree, acc,
                         validate=False)

    def __neg__(self) -> "FreeCell":
        return self.scale(-1)

    def __sub__(self, other: "FreeCell") -> "FreeCell":
        return self + other.scale(-1)

    def scale(self, c: Scalar) -> "FreeCell":
        return free_cell(self.profile, self.label, self.degree,
                         {t: c * x for t, x in self.terms}, validate=False)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for t, c in self.terms:
            prefix = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            bits.append(prefix + format_tree(t))
        return " + ".join(bits).replace("+ -", "- ")


def free_cell(profile: ProfileLoop, label_: MonoidElem, degree: int,
              terms: dict[CompTree, Scalar] | Iterable[tuple[CompTree, Scalar]],
              validate: bool = True) -> FreeCell:
    """Normalized constructor: drops zeros, sorts terms, checks homogeneity
    and, when validating, that every coefficient is exact."""
    if validate:
        terms = list(terms.items() if isinstance(terms, dict) else terms)
        for t, c in terms:
            _check_exact(c, f"term {format_tree(t)}")
    if not isinstance(terms, dict):
        acc: dict[CompTree, Scalar] = {}
        for t, c in terms:
            acc[t] = acc.get(t, 0) + c
        terms = acc
    cleaned = [(t, c) for t, c in terms.items() if c != 0]
    cleaned.sort(key=lambda tc: tree_key(tc[0]))
    if validate:
        for t, _ in cleaned:
            validate_tree(t)
            if tree_profile(t) != profile:
                raise CompositionError(
                    f"term {format_tree(t)} has profile "
                    f"{loop_token(tree_profile(t))}, cell declares "
                    f"{loop_token(profile)}")
            if tree_label(t) != label_:
                raise CompositionError(
                    f"term {format_tree(t)} has label {tree_label(t)}, "
                    f"cell declares {label_}")
            if tree_degree(t) != degree:
                raise CompositionError(
                    f"term {format_tree(t)} has degree {tree_degree(t)}, "
                    f"cell declares {degree}")
    return FreeCell(profile, label_, degree, tuple(cleaned))


def generator_cell(gen: GeneratorSpec) -> FreeCell:
    return free_cell(gen.profile, gen.label, gen.degree,
                     {leaf_of(gen): 1}, validate=False)


class FreeDgFc:
    """A free dg structure over a graph with a labeling and a splitting rule.

    Generators exist for every (profile-loop, label) pair with the label in
    the labeling's fiber, except the unit case (identity profile with zero
    label).  The differential of a generator replaces it by the sum of all
    two-node composites with the same boundary and total label, with
    coefficient -1; summands whose factors are not generators are dropped,
    since the free object has no such symbols.

    ``preset`` names the structure: one of :data:`PRESETS`, or
    ``"generalized"`` for the standard splitting on any graph.  A
    ``custom_rules`` table replaces that differential altogether: it is
    the whole presentation, generators without a rule are delta-closed,
    and the preset is ``"custom"`` exactly when such a table is given.
    Its keys and the nodes of its terms must be generators of the
    structure.  The structure keeps each rule as its normalized cell, for
    documents, and compiles it to records when it is constructed.  The
    bridges of a splitting are read off the graph's edge index
    (``DirectedGraph.between``).

    A generator is numbered when it is interned: ``_find`` makes its spec
    once, under the plain key (source, target, input edges, output, label
    coords), and gives it its node id, the letter written for it in words
    and rule records; ``generator`` returns the spec kept under that id.
    A generator is interned only when ``generators`` enumerates it, a
    lookup by its boundary data (``generator``) names it, the d^2 sweep
    squares it, or a compiled rule record reads it.  The sweep squares
    on the twin quotient's structure, so over a graph with twins it
    interns that structure's generators and none of this one's (see
    ``delta_squared_report``).  A unit spec is numbered when a walked
    tree first holds it.  Each node's rule is kept as records over node
    ids only, a standard one compiled from ``_splittings`` the first time
    it is asked for: ``delta`` splices them into words, the d^2 sweep
    sums a generator's square from them in closed form,
    ``delta_generator`` is the cell of their two-node words and the
    generic algebra route sums alpha over the records.  No tree or word
    is kept: the terms ``delta`` outputs are far more numerous, and each
    lives for one call.
    """

    def __init__(self, labeling: LabelingFc, preset: str = "generalized",
                 custom_rules: Optional[dict[GeneratorSpec, FreeCell]] = None,
                 sign_fault: bool = False):
        if custom_rules is not None and preset in ("generalized", "custom"):
            preset = "custom"
        elif custom_rules is not None or preset not in (*PRESETS,
                                                        "generalized"):
            raise CompositionError(
                f"preset must be one of {(*PRESETS, 'generalized')} without "
                f"a rule table, or 'custom' with one; got {preset!r}")
        self.graph = labeling.graph
        self.labeling = labeling
        self.monoid = labeling.monoid
        self.preset = preset
        self.sign_fault = sign_fault
        # the generator and unit specs met, by node id, and their rule
        # records (None until ``_word_rule`` is first asked for a standard
        # rule); id 0 is the leaf
        self._node_ids: dict[GeneratorSpec, int] = {}
        self._nodes: list[Optional[GeneratorSpec]] = [None]
        self._word_rules: list[Optional[tuple]] = [None]
        # (source, target, input edges, output, label coords) -> the
        # generator's node id, or 0 where there is no generator
        self._generators: dict[tuple, int] = {}
        # label coords -> its splittings (b1, b1 coords, b2, b2 coords)
        self._label_splits: dict[tuple[int, ...], list[tuple]] = {}
        self.custom_rules = None if custom_rules is None else {}
        for gen, cell in (custom_rules or {}).items():
            # a term composes two generators, so neither node is a unit
            if cell.degree != 2 or any(
                    [n.degree for n in tree_nodes(t)] != [1, 1]
                    for t, _ in cell.terms):
                raise CompositionError(
                    f"rule for {gen.name} must be a two-node degree-2 cell "
                    f"of generators")
            if (cell.profile, cell.label) != (gen.profile, gen.label):
                raise CompositionError(
                    f"rule for {gen.name} must keep its profile and label")
            # each term must be a valid tree over the generator's boundary
            # whose nodes are generators, since its record keeps only the
            # two nodes and the inner one's child position
            cell = self.custom_rules[gen] = free_cell(gen.profile, gen.label,
                                                      2, cell.terms)
            named = [gen, *(n for t, _ in cell.terms for n in tree_nodes(t))]
            for spec in named:
                if self.generator(spec.profile, spec.label) != spec:
                    raise CompositionError(f"rule for {gen.name} names "
                                           f"{spec.name}, not a generator")
            ids = self._node_ids
            self._word_rules[ids[gen]] = tuple(
                (ids[t.gen], ids[t.children[q].gen], q, c)
                for t, c in cell.terms for q in (inner_position(t),))

    # ------------------------------------------------------------ generators

    def generator_name(self, loop: ProfileLoop, beta: MonoidElem) -> str:
        if self.monoid.rank == 1 and self.monoid.truncation == 0:
            return f"m[{loop_token(loop)}]"
        return f"m[{loop_token(loop)}]@{beta}"

    def _find(self, src: str, tgt: str, edges: tuple[str, ...], out: str,
              beta: MonoidElem) -> int:
        """The node id of the generator over the loop (src, tgt, edges;
        out) with label beta, or 0 if there is none, computed once per
        key: a miss builds the loop and the spec, numbered by ``_node_id``.
        Its callers ask only for a generator they name: one ``generators``
        enumerates, one whose boundary data is given (``generator``), or
        a factor of a splitting that ``_splittings`` is about to yield."""
        key = (src, tgt, edges, out, beta.coords)
        try:
            return self._generators[key]
        except KeyError:
            pass
        loop = ProfileLoop(EdgePath(edges, src, tgt), out)
        node = 0
        if in_fiber(self.labeling, loop, beta) and not (
                edges == (out,) and beta.is_zero()):
            node = self._node_id(GeneratorSpec(self.generator_name(loop, beta),
                                               loop, beta))
        self._generators[key] = node
        return node

    def generator(self, loop: ProfileLoop, beta: MonoidElem) -> GeneratorSpec:
        ins = loop.inputs
        node = self._find(ins.source, ins.target, ins.edges, loop.output, beta)
        if not node:
            raise CompositionError(
                f"no generator over {loop_token(loop)} with label {beta}")
        return self._nodes[node]

    def generators(self, max_arity: int,
                   max_label: Optional[int] = None) -> list[GeneratorSpec]:
        """All generators with input length <= max_arity, stable order:
        by profile-loop, then by label as ``fiber`` lists them.  Only the
        labels within the clipped bound are built (a prefix of the
        monoid's elements)."""
        betas = LabelMonoid(self.monoid.rank,
                            self.monoid.cap(max_label)).elements()
        out = []
        for loop in enumerate_profile_loops(self.graph, max_arity):
            ins = loop.inputs
            for beta in betas:
                node = self._find(ins.source, ins.target, ins.edges,
                                  loop.output, beta)
                if node:
                    out.append(self._nodes[node])
        return out

    def unit_cell(self, eid: str) -> FreeCell:
        t = unit_tree(self.graph, eid, self.monoid.zero())
        return free_cell(t.gen.profile, t.gen.label, 0, {t: 1},
                         validate=False)

    # ---------------------------------------------------------- differential

    def _splittings(self, gen: GeneratorSpec
                    ) -> Iterator[tuple[int, int, int]]:
        """The standard splitting of a generator: each (outer id, inner
        id, r) whose two-node composite, inner at child r of outer, has
        gen's boundary and label.

        The block of s inputs from position r is bridged by each edge
        from ``walk[r]`` to ``walk[r + s]``, in declaration order
        (``graph.between``).  The inner factor, that block closed by the
        bridge, is looked up first, and the outer one only when the inner
        is a generator, so no outer generator is interned that no record
        names (on a reduced structure an empty block at label 0 is none).
        Each key is probed in the generator table first; only a miss goes
        through ``_find``."""
        loop, beta = gen.profile, gen.label
        n = loop.arity()
        src, tgt, out = loop.inputs.source, loop.inputs.target, loop.output
        walk = path_vertices(self.graph, loop.inputs)
        ins = loop.inputs.edges
        splits = self._label_splits.get(beta.coords)
        if splits is None:
            splits = self._label_splits[beta.coords] = [
                (b1, b1.coords, b2, b2.coords) for b1, b2 in decompose(beta)]
        gens, find = self._generators, self._find
        between = self.graph._between
        for r in range(n + 1):
            v = walk[r]
            for s in range(n - r + 1):
                w = walk[r + s]
                inner_edges = ins[r:r + s]
                for bridge in between.get((v, w), ()):
                    outer_edges = ins[:r] + (bridge,) + ins[r + s:]
                    for b1, k1, b2, k2 in splits:
                        inner = gens.get((v, w, inner_edges, bridge, k2))
                        if inner is None:
                            inner = find(v, w, inner_edges, bridge, b2)
                        if not inner:
                            continue
                        outer = gens.get((src, tgt, outer_edges, out, k1))
                        if outer is None:
                            outer = find(src, tgt, outer_edges, out, b1)
                        if outer:
                            yield outer, inner, r

    def delta_generator(self, gen: GeneratorSpec) -> FreeCell:
        """The generator's rule as a cell: minus the sum of matching 2-node
        composites, or the custom rule table's entry (zero when it has
        none, and for a unit).  It is the cell of the two-node words of
        its records."""
        n = gen.arity()
        return self._cell(gen.profile, gen.label, gen.degree + 1,
                          {_record_word(outer, inner, q, n): c
                           for outer, inner, q, c in self._records(gen)})

    def _node_id(self, gen: GeneratorSpec) -> int:
        """The id written for a generator or unit spec in a word and in
        rule records, given the first time the spec is met; ids start at
        1."""
        node = self._node_ids.setdefault(gen, len(self._nodes))
        if node == len(self._nodes):
            self._nodes.append(gen)
            self._word_rules.append(None)
        return node

    def _word_rule(self, node: int) -> tuple[Record, ...]:
        """The rule of a node id as (outer id, inner id, child position q
        of the inner node, coefficient) records, one per term, built the
        first time the node is asked for: the standard splitting, from
        ``_splittings``.  A custom table's rules are compiled when the
        structure is constructed, so a node asked for here under a custom
        table has no rule; nor has a unit."""
        gen = self._nodes[node]
        if gen.is_unit() or self.custom_rules is not None:
            records = ()
        else:
            records = tuple((outer, inner, r, -1)
                            for outer, inner, r in self._splittings(gen))
        self._word_rules[node] = records
        return records

    def _records(self, gen: GeneratorSpec) -> tuple[Record, ...]:
        """The rule records of a generator or unit spec (see
        ``_word_rule``), compiled once: the terms of its differential
        without a cell, for the d^2 sweep, ``delta_generator`` and the
        generic algebra route."""
        node = self._node_id(gen)
        records = self._word_rules[node]
        if records is None:
            records = self._word_rule(node)
        return records

    def _walk(self, t: CompTree, w: list[int], par: list[int],
              places: list[tuple[int, list[int]]]) -> None:
        """Append the pre-order word of a tree to ``w`` (node ids, 0 for a
        leaf) and the degree parity of the word so far to ``par``; append
        each node's position and child starts (then its end) to
        ``places``."""
        j = len(w)
        w.append(self._node_id(t.gen))
        par.append(par[-1] ^ t.gen.degree % 2)
        cs = []
        for c in t.children:
            cs.append(len(w))
            if c.__class__ is str:
                w.append(0)
                par.append(par[-1])
            else:
                self._walk(c, w, par, places)
        cs.append(len(w))
        places.append((j, cs))

    def _tree(self, w: tuple[int, ...]) -> CompTree:
        """The tree of a pre-order word; a leaf takes its edge from its
        parent's input word."""
        built: list[Optional[CompTree]] = []   # leftmost subtree last
        for node in reversed(w):
            if not node:
                built.append(None)
                continue
            gen = self._nodes[node]
            ins = gen.profile.inputs.edges
            cut = len(built) - len(ins)
            kids = reversed(built[cut:])
            del built[cut:]
            built.append(CompTree(gen, tuple(
                e if c is None else c for e, c in zip(ins, kids))))
        return built[0]

    def _splice(self, w: tuple[int, ...], par: Sequence[int],
                places: Sequence[tuple[int, Sequence[int]]], coeff: Scalar,
                acc: dict[tuple[int, ...], Scalar]) -> None:
        """Add coeff times the differential of the word ``w`` to ``acc``.

        The node at position j with child starts ``cs`` (then the end of
        its subtree) is replaced by each record (outer, inner, q, c) of its
        rule as ``w[:j] + (outer,) + w[j+1:cs[q]] + (inner,) + w[cs[q]:]``,
        with coefficient c and the sign of the degree parity of the nodes
        in ``w[:cs[q]]`` other than node j (see the module docstring);
        ``sign_fault`` drops the ``w[:j]`` part.
        """
        rules, fault = self._word_rules, self.sign_fault
        for j, cs in places:
            node = w[j]
            records = rules[node]
            if records is None:
                records = self._word_rule(node)
            drop = par[j + 1] if fault else par[j + 1] ^ par[j]
            head, after = w[:j], j + 1
            for outer, inner, q, rc in records:
                c = cs[q]
                word = head + (outer,) + w[after:c] + (inner,) + w[c:]
                x = coeff * rc
                acc[word] = acc.get(word, 0) + (-x if par[c] ^ drop else x)

    def _cell(self, profile: ProfileLoop, label_: MonoidElem, degree: int,
              acc: dict[tuple[int, ...], Scalar]) -> FreeCell:
        """The cell of the words left with a nonzero coefficient."""
        return free_cell(profile, label_, degree,
                         {self._tree(w): c for w, c in acc.items() if c},
                         validate=False)

    def delta(self, cell: FreeCell) -> FreeCell | OutOfBound:
        """Leibniz extension of the generator rule to arbitrary cells,
        computed on pre-order words (see ``_splice``).  Terms are summed
        by word, and only the words left with a nonzero coefficient become
        trees.
        """
        if cell.label.total() > self.monoid.truncation:
            return label_overflow(cell.label, self.monoid.truncation)
        acc: dict[tuple[int, ...], Scalar] = {}
        for t, coeff in cell.terms:
            w: list[int] = []
            par = [0]
            places: list[tuple[int, list[int]]] = []
            self._walk(t, w, par, places)
            self._splice(tuple(w), par, places, coeff, acc)
        return self._cell(cell.profile, cell.label, cell.degree + 1, acc)

    def _square(self, gen: GeneratorSpec) -> FreeCell:
        """delta(delta(gen)), summed from gen's rule records without
        building a word per term.

        Every term of delta^2(gen) is a three-node word over gen's n
        leaves, fixed by its root and the (position, id) of its two other
        nodes, so terms are summed under the key (root, p, a, p', b),
        p < p'.  The term of delta(gen) of record (O, I, q, c) is the word
        of ``_record_word``: I sits at j = q + 1 and its subtree ends at
        k = j + 1 + arity(I).  Splicing a record (o2, i2, q2, c2) into it
        gives, by the module docstring's three cases,

        * I split: (O, j, o2, j+1+q2, i2), sign (-1)^|O| (+1 under
          ``sign_fault``);
        * O split at a child q2 <= q: (o2, q2+1, i2, j+1, I), sign +1;
        * O split at a child q2 > q: (o2, j, I, k+q2-j, i2), sign (-1)^|I|.

        Only the keys left with a nonzero coefficient become words, and
        then trees, for the residue strings."""
        nodes, rules = self._nodes, self._word_rules
        acc: dict[tuple[int, int, int, int, int], Scalar] = {}
        get = acc.get
        for outer, inner, q, rc in self._records(gen):
            j = q + 1
            i_spec = nodes[inner]
            k = j + 1 + len(i_spec.profile.inputs.edges)
            records = rules[inner]
            if records is None:
                records = self._word_rule(inner)
            x = rc if self.sign_fault or not nodes[outer].degree % 2 else -rc
            for o2, i2, q2, c2 in records:
                key = (outer, j, o2, j + 1 + q2, i2)
                acc[key] = get(key, 0) + x * c2
            records = rules[outer]
            if records is None:
                records = self._word_rule(outer)
            y = -rc if i_spec.degree % 2 else rc
            for o2, i2, q2, c2 in records:
                if q2 <= q:
                    key = (o2, q2 + 1, i2, j + 1, inner)
                    acc[key] = get(key, 0) + rc * c2
                else:
                    key = (o2, j, inner, k + q2 - j, i2)
                    acc[key] = get(key, 0) + y * c2
        words = {}
        for (root, p, a, p2, b), c in acc.items():
            if c:
                w = [0] * (gen.arity() + 3)
                w[0], w[p], w[p2] = root, a, b
                words[tuple(w)] = c
        return self._cell(gen.profile, gen.label, gen.degree + 2, words)


def compose_cells(fc: FreeDgFc, c1: FreeCell, i: int,
                  c2: FreeCell) -> FreeCell | OutOfBound:
    """Bilinear signed grafting of cells; adds degrees and labels."""
    check_slot(c1.profile, i, c2.profile)
    beta = add(c1.label, c2.label)
    if beta.total() > fc.monoid.truncation:
        return label_overflow(beta, fc.monoid.truncation)
    profile = substituted_profile(c1.profile, i, c2.profile)
    acc: dict[CompTree, Scalar] = {}
    for t1, x1 in c1.terms:
        for t2, x2 in c2.terms:
            t, sign = signed_graft(t1, i, t2)
            acc[t] = acc.get(t, 0) + sign * x1 * x2
    return free_cell(profile, beta, c1.degree + c2.degree, acc,
                     validate=False)


# ------------------------------------------------------------------ reports

@dataclass(frozen=True)
class Delta2Report:
    ok: bool
    generators: int
    arity_bound: int
    label_bound: int
    residues: tuple[tuple[str, str], ...]  # (generator name, residue)

    def summary(self) -> str:
        if self.ok:
            return (f"delta^2 = 0 on all {self.generators} generators "
                    f"(arity <= {self.arity_bound}, "
                    f"label <= {self.label_bound})")
        lines = [f"delta^2 NONZERO on {len(self.residues)} of "
                 f"{self.generators} generators:"]
        for name, residue in self.residues:
            lines.append(f"  {name}: {residue}")
        return "\n".join(lines)


def delta_squared_report(fc: FreeDgFc, arity_bound: int,
                         label_bound: Optional[int] = None,
                         gens: Optional[Sequence[GeneratorSpec]] = None
                         ) -> Delta2Report:
    """Expand delta twice on every generator within bounds.

    The square is summed from rule records (see ``FreeDgFc._square``):
    each term of delta^2(gen) is a three-node word, kept under its root
    and the (position, id) of its other two nodes, with the sign of the
    module docstring's three cases; ``delta`` keeps the general splice
    for arbitrary cells.  No tree or word of delta(gen) is built, and
    only the terms of delta^2 left with a nonzero coefficient become
    trees, for the residue strings.

    The squares are taken on the structure over the twin quotient
    (``_twin_structure``), by the module docstring's argument.  The
    sweep reads (profile-loop, label) pairs in ``generators``' order,
    maps each loop through phi once and looks its image up there: since
    phi carries generators bijectively, a pair is a generator of fc
    exactly when its image is one of the quotient, so the image's node
    counts it and the square is summed once per image.  Only a nonzero
    square builds the generator's own spec, not interned, for its name
    and to pull the square back (``_pull_back``).  So a sweep over a
    quotient interns nothing in fc, and the generators counted, their
    order and their names are fc's own.  Over a twin-free graph or a
    custom rule table the quotient is fc, and the lookup interns the
    spec that ``_square`` needs.

    An explicit list of fc's generators (for custom presentations)
    replaces the enumerated pairs; bounds still filter it.
    """
    cap = fc.monoid.cap(label_bound)
    if gens is None:
        betas = LabelMonoid(fc.monoid.rank, cap).elements()
        walks = ((loop, betas)
                 for loop in enumerate_profile_loops(fc.graph, arity_bound))
    else:
        walks = ((g.profile, (g.label,)) for g in gens
                 if g.arity() <= arity_bound and g.label.total() <= cap)
    fq, vmap, emap = _twin_structure(fc)
    up = {(e.src, e.tgt, emap[e.id]): e.id for e in fc.graph.edges}
    squares: dict[int, FreeCell] = {}
    count, bad = 0, []
    for loop, labels in walks:
        ins = loop.inputs
        src, tgt = vmap[ins.source], vmap[ins.target]
        edges = tuple(map(emap.__getitem__, ins.edges))
        out = emap[loop.output]
        for beta in labels:
            node = fq._find(src, tgt, edges, out, beta)
            if not node:
                continue
            count += 1
            d2 = squares.get(node)
            if d2 is None:
                d2 = squares[node] = fq._square(fq._nodes[node])
            if not d2.is_zero():
                gen = GeneratorSpec(fc.generator_name(loop, beta), loop, beta)
                if fq is not fc:   # over fc the pull-back is the identity
                    d2 = _pull_back(fc, gen, d2, up)
                bad.append((gen.name, str(d2)))
    return Delta2Report(not bad, count, arity_bound, cap, tuple(bad))


def _twin_structure(fc: FreeDgFc
                    ) -> tuple[FreeDgFc, dict[str, str], dict[str, str]]:
    """The structure the d^2 sweep runs on, with phi on vertex and edge
    ids: the standard splitting over ``twin_quotient(fc.graph)``, with
    fc's monoid, reduction and sign fault, built for this one call.  A
    graph without twins and a custom rule table give fc itself and the
    identity."""
    q, vmap, emap = twin_quotient(fc.graph)
    if q is fc.graph or fc.custom_rules is not None:
        return fc, {v: v for v in vmap}, {e: e for e in emap}
    labeling = LabelingFc(q, fc.monoid, fc.labeling.reduced)
    return FreeDgFc(labeling, sign_fault=fc.sign_fault), vmap, emap


def _pull_back(fc: FreeDgFc, gen: GeneratorSpec, cell: FreeCell,
               up: dict[tuple[str, str, str], str]) -> FreeCell:
    """The cell over gen whose image under phi is ``cell``, a cell over
    phi(gen) in the quotient.  A node covering gen's leaves from a to b
    runs from walk[a] to walk[b] of gen's walk; its leaves are gen's
    input edges there, and each other edge, a bridge, is lifted through
    ``up``, phi inverse at its endpoints.  The specs are built, not
    interned, and ``free_cell`` sorts the terms under their own
    ``tree_key``."""
    walk = path_vertices(fc.graph, gen.profile.inputs)
    leaves = gen.profile.inputs.edges

    def lift(t: CompTree, a: int, out: str) -> CompTree:
        kids, edges = [], []
        at = a
        for c in t.children:
            if c.__class__ is str:
                kid = e = leaves[at]
                at += 1
            else:
                end = at + leaf_count(c)
                e = up[walk[at], walk[end], c.gen.profile.output]
                kid = lift(c, at, e)
                at = end
            kids.append(kid)
            edges.append(e)
        loop = ProfileLoop(EdgePath(tuple(edges), walk[a], walk[at]), out)
        spec = GeneratorSpec(fc.generator_name(loop, t.gen.label), loop,
                             t.gen.label)
        return CompTree(spec, tuple(kids))

    out = gen.profile.output
    return free_cell(gen.profile, gen.label, cell.degree,
                     {lift(t, 0, out): c for t, c in cell.terms},
                     validate=False)


# ------------------------------------------------------------------ presets

def build_preset(name: str, monoid: LabelMonoid, reduced: bool = True,
                 objects: Sequence[str] = (),
                 parts: Sequence[Sequence[str]] = ()) -> FreeDgFc:
    """The named preset over the graph :data:`PRESETS` builds it on; the
    object ids and the ordered partition go to the graph builder, which
    ignores what its graph does not need."""
    if name not in PRESETS:
        raise CompositionError(
            f"preset must be one of {tuple(PRESETS)}, got {name!r}")
    graph = PRESETS[name](objects, parts)
    return FreeDgFc(LabelingFc(graph, monoid, reduced), preset=name)


def build_Ainf_operad(monoid: LabelMonoid, reduced: bool = True) -> FreeDgFc:
    """Generators m_(n, beta) over a single loop, (n, beta) never the unit
    or empty-zero case; the differential sums the two-factor splittings."""
    return build_preset("ainf", monoid, reduced)


def build_Ainf_category(object_ids: Sequence[str], monoid: LabelMonoid,
                        reduced: bool = True) -> FreeDgFc:
    return build_preset("category", monoid, reduced, object_ids)


def build_Ainf_bimodule(monoid: LabelMonoid, reduced: bool = True) -> FreeDgFc:
    return build_preset("bimodule", monoid, reduced)
