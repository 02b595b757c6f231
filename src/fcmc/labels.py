"""Commutative monoid labels and the labeled gradings on 2-cells.

Labels live in N^k with componentwise addition; the identity is the zero
vector.  A truncation bound caps coordinate sums, but only for
*enumeration* — addition never truncates, so composition stays strictly
label-additive and out-of-bound sums are the caller's to detect.

A labeling attaches the monoid uniformly to a graph.  In the reduced
variant the zero label is removed from the fibers over empty-input
profile-loops (and only there); this is what later rules out arity-zero
"curvature" generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .graphs import DirectedGraph, ProfileLoop, is_loop_of


class LabelError(ValueError):
    """Rank mismatch or malformed label data."""


@dataclass(frozen=True)
class MonoidElem:
    coords: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.coords):
            raise LabelError(f"negative label coordinates: {self.coords!r}")

    @property
    def rank(self) -> int:
        return len(self.coords)

    def total(self) -> int:
        """Coordinate sum, compared against truncation bounds."""
        return sum(self.coords)

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def label(*coords: int) -> MonoidElem:
    return MonoidElem(tuple(coords))


def add(a: MonoidElem, b: MonoidElem) -> MonoidElem:
    if a.rank != b.rank:
        raise LabelError(f"rank mismatch: {a.rank} vs {b.rank}")
    return MonoidElem(tuple(x + y for x, y in zip(a.coords, b.coords)))


def decompose(beta: MonoidElem) -> list[tuple[MonoidElem, MonoidElem]]:
    """All ordered pairs (b', b'') with b' + b'' = beta.

    The list is complete and duplicate-free, with prod(beta_i + 1)
    entries, ordered lexicographically in the first component.
    """
    pairs = []
    for left in product(*[range(c + 1) for c in beta.coords]):
        right = tuple(c - l for c, l in zip(beta.coords, left))
        pairs.append((MonoidElem(left), MonoidElem(right)))
    return pairs


@dataclass(frozen=True)
class LabelMonoid:
    """N^rank with a truncation cap on coordinate sums for enumerators."""
    rank: int
    truncation: int

    def __post_init__(self):
        if self.rank < 1:
            raise LabelError("rank must be positive")
        if self.truncation < 0:
            raise LabelError("truncation must be nonnegative")

    def zero(self) -> MonoidElem:
        return MonoidElem((0,) * self.rank)

    def cap(self, bound: Optional[int]) -> int:
        """The label-sum bound a check sweeps: ``bound`` (no bound when
        None) clipped to the truncation, past which nothing is enumerated.
        """
        return self.truncation if bound is None else min(bound,
                                                         self.truncation)

    def contains(self, beta: MonoidElem) -> bool:
        """Within rank and truncation — the enumerable part of the monoid."""
        return beta.rank == self.rank and beta.total() <= self.truncation

    def elements(self) -> list[MonoidElem]:
        """All elements with coordinate sum <= truncation, by total then lex."""
        # level[s]: the vectors of the current length with sum s, in lex order
        level = [[(s,)] for s in range(self.truncation + 1)]
        for _ in range(self.rank - 1):
            level = [[(h,) + v for h in range(s + 1) for v in level[s - h]]
                     for s in range(len(level))]
        return [MonoidElem(v) for vs in level for v in vs]


TRIVIAL_MONOID = LabelMonoid(rank=1, truncation=0)


@dataclass(frozen=True)
class LabelingFc:
    graph: DirectedGraph
    monoid: LabelMonoid
    reduced: bool


def fiber(lfc: LabelingFc, loop: ProfileLoop) -> list[MonoidElem]:
    """Labels available over one profile-loop, within the truncation:
    those ``in_fiber`` admits, in the monoid's element order."""
    return [b for b in lfc.monoid.elements() if in_fiber(lfc, loop, b)]


def in_fiber(lfc: LabelingFc, loop: ProfileLoop, beta: MonoidElem) -> bool:
    """Whether beta labels the profile-loop, the one place the rule is
    written.  Reduction removes the zero label from empty-input fibers
    only; boundary data that is not a profile-loop of the graph has an
    empty fiber."""
    if not is_loop_of(lfc.graph, loop):
        return False
    if not lfc.monoid.contains(beta):
        return False
    return not (lfc.reduced and loop.inputs.is_empty() and beta.is_zero())
