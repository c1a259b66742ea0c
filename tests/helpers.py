"""Shared strategies and brute-force oracles.

Oracles are deliberately naive restatements of the definitions; library
results must agree with them.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import Iterator

from hypothesis import strategies as st

from indematch import (
    Edge,
    Matching,
    PatternKind,
    Segment,
    build_pin_tree,
    canonical,
    is_indecomposable,
    make_matching,
)
from indematch.core import _induced_partner
from indematch.errors import SharedVertex, UnknownEdge


class Relation(Enum):
    """How two disjoint edges sit relative to each other."""

    CROSSING = "crossing"
    NESTED = "nested"
    DISJOINT = "disjoint"


def edge_relation(e: Edge, f: Edge) -> Relation:
    """Classify the relative position of two disjoint edges."""
    if e.left in f or e.right in f:
        raise SharedVertex(e.left if e.left in f else e.right)
    if e.left < f.left < e.right < f.right or f.left < e.left < f.right < e.right:
        return Relation.CROSSING
    if e.left < f.left < f.right < e.right or f.left < e.left < e.right < f.right:
        return Relation.NESTED
    return Relation.DISJOINT


def contains(matching: Matching, pattern: Matching) -> frozenset[Edge] | None:
    """Search for pattern as a submatching; return a witnessing edge set.

    Brute force over edge subsets of the right size, in lexicographic order
    of the host's (left endpoint sorted) edge tuple, so the returned witness
    is deterministic.  None means the pattern does not occur.
    """
    if pattern.n == 0:
        return frozenset()
    if pattern.n > matching.n:
        return None
    target = pattern.partner
    for subset in combinations(matching.edges(), pattern.n):
        if _induced_partner(subset) == target:
            return frozenset(subset)
    return None


def reverse(matching: Matching) -> Matching:
    """Mirror image: vertex v goes to 2n + 1 - v."""
    m = len(matching.partner)
    return Matching(tuple(m + 1 - matching.partner[m - v] for v in range(1, m + 1)))


def shadow(matching: Matching, edges: tuple[Edge, ...]) -> Segment | None:
    """Segment spanned by the endpoints of the given edges; None when empty."""
    for e in edges:
        if not matching.has_edge(e):
            raise UnknownEdge(e)
    if not edges:
        return None
    verts = [v for e in edges for v in e]
    return Segment(min(verts), max(verts))


def count_proper_rr_sequences(matching: Matching) -> int:
    """Number of proper right-reaching pin sequences, with no length cap.

    Pins are distinct edges, so sequences never exceed n pins and the count
    is finite.  Always at least n for an indecomposable matching with n >= 1.
    """
    return len(build_pin_tree(matching, max(matching.n, 1)).nodes)


def matching_from_permutation(perm: tuple[int, ...]) -> Matching:
    """Pair up consecutive entries of a permutation of [2n]."""
    return make_matching(
        (perm[2 * i], perm[2 * i + 1]) for i in range(len(perm) // 2)
    )


@st.composite
def matchings(draw, min_n: int = 0, max_n: int = 6) -> Matching:
    n = draw(st.integers(min_n, max_n))
    perm = tuple(draw(st.permutations(range(1, 2 * n + 1))))
    return matching_from_permutation(perm)


def indecomposable_matchings(min_n: int = 1, max_n: int = 6):
    return matchings(min_n, max_n).filter(is_indecomposable)


def oracle_intervals(matching: Matching) -> tuple[Segment, ...]:
    """All nontrivial intervals by direct closure check of every segment."""
    m = matching.top
    out = []
    for lo in range(1, m + 1):
        for hi in range(lo + 1, m + 1):
            if lo == 1 and hi == m:
                continue
            if all(lo <= matching.partner_of(v) <= hi for v in range(lo, hi + 1)):
                out.append(Segment(lo, hi))
    return tuple(out)


def oracle_max_size(matching: Matching, kind: PatternKind) -> int:
    """Largest k with canonical(kind, k) contained, by descending search."""
    floor = (
        2
        if kind in (PatternKind.RIGHT_BROKEN_NESTING, PatternKind.LEFT_BROKEN_NESTING)
        else 1
    )
    for k in range(matching.n, floor - 1, -1):
        if contains(matching, canonical(kind, k)) is not None:
            return k
    return 0


def oracle_increasing_length(values) -> int:
    best = [0] * len(values)
    for i in range(len(values)):
        best[i] = 1 + max(
            (best[j] for j in range(i) if values[j] < values[i]), default=0
        )
    return max(best, default=0)


def all_pin_sequences(matching: Matching) -> Iterator[tuple[Edge, ...]]:
    """Every pin sequence of the host (all lengths, all orders)."""
    edges = matching.edges()

    def extend(seq: tuple[Edge, ...], lo: int, hi: int) -> Iterator[tuple[Edge, ...]]:
        for e in edges:
            if e in seq:
                continue
            if (lo <= e.left <= hi) + (lo <= e.right <= hi) != 1:
                continue
            grown = seq + (e,)
            yield grown
            yield from extend(grown, min(lo, e.left), max(hi, e.right))

    for e in edges:
        yield (e,)
        yield from extend((e,), e.left, e.right)


def random_matching(rng, n: int) -> Matching:
    verts = list(range(1, 2 * n + 1))
    rng.shuffle(verts)
    return make_matching((verts[2 * i], verts[2 * i + 1]) for i in range(n))


def random_indecomposable(rng, n: int) -> Matching:
    while True:
        m = random_matching(rng, n)
        if is_indecomposable(m):
            return m
