"""Perfect matchings on a linearly ordered vertex set.

A matching on [2n] = {1, ..., 2n} pairs every vertex with exactly one other
vertex.  We store it as a partner table: ``partner[v - 1]`` is the vertex
matched to ``v``.  The table form makes containment tests and relabelling
cheap, and it is hashable, so matchings can live in sets and dict keys.

Vertices are 1-based everywhere in the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DuplicateVertex,
    GapInVertexSet,
    MatchingError,
    SelfLoop,
    UnknownEdge,
    VertexOutOfRange,
)


class Edge(NamedTuple):
    """A single chord, stored with its smaller endpoint first."""

    left: int
    right: int

    def __str__(self) -> str:
        return f"{self.left}-{self.right}"


def as_edge(pair: Iterable[int]) -> Edge:
    """Normalize a pair of int endpoints into an Edge, smaller endpoint first."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        a = b = None
    if not (isinstance(a, int) and isinstance(b, int)) or bool in (type(a), type(b)):
        raise MatchingError(f"endpoint pair {pair!r} is not two integers")
    if a == b:
        raise SelfLoop(a)
    return Edge(a, b) if a < b else Edge(b, a)


@dataclass(frozen=True)
class Segment:
    """The contiguous vertex range [lo, hi]; both bounds inclusive."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"segment bounds out of order: [{self.lo}, {self.hi}]")

    def __contains__(self, vertex: int) -> bool:
        return self.lo <= vertex <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo},{self.hi}]"


@dataclass(frozen=True)
class Matching:
    """A perfect matching on [2n], as an involution without fixed points.

    The constructor trusts its table.  Outside input goes through
    make_matching (or the cli parsers, which call it), the one place a
    table is validated; the library builds tables directly only where it
    generates them.
    """

    partner: tuple[int, ...]

    @property
    def n(self) -> int:
        """Number of edges."""
        return len(self.partner) // 2

    @property
    def top(self) -> int:
        """The greatest vertex, 2n."""
        return len(self.partner)

    def partner_of(self, vertex: int) -> int:
        if not 1 <= vertex <= len(self.partner):
            raise VertexOutOfRange(vertex, len(self.partner))
        return self.partner[vertex - 1]

    def edges(self) -> tuple[Edge, ...]:
        """All edges, ordered by left endpoint."""
        return tuple(
            Edge(v, self.partner[v - 1])
            for v in range(1, len(self.partner) + 1)
            if v < self.partner[v - 1]
        )

    def has_edge(self, edge: Edge) -> bool:
        return (
            1 <= edge.left <= len(self.partner)
            and self.partner[edge.left - 1] == edge.right
            and edge.left < edge.right
        )

    def __str__(self) -> str:
        return " ".join(
            f"{v}-{w}" for v, w in enumerate(self.partner, start=1) if v < w
        )


def make_matching(pairs: Iterable[Iterable[int]]) -> Matching:
    """Build a Matching from endpoint pairs, validating as we go.

    The pairs must cover {1, ..., 2n} exactly once each.  Checks run in a
    fixed order (pair by pair, not two ints or a self loop; then range,
    duplicates, gaps) so error messages are stable for a given bad input;
    within an edge the smaller endpoint is reported first.  The table is
    filled in one pass that catches duplicates; the first vertex out of
    range is looked for only once the minimum or maximum shows there is one.
    """
    if iter(pairs) is pairs:  # keep a one-shot iterator for the reread below
        pairs = list(pairs)
    try:
        ends = [(a, b) for a, b in pairs]
        for a, b in ends:
            if a == b:
                raise SelfLoop(a)
        size = 2 * len(ends)
        flat = [v for e in ends for v in e]
        if flat and (min(flat) < 1 or max(flat) > size):
            raise VertexOutOfRange(
                next(v for e in ends for v in sorted(e) if not 1 <= v <= size), size
            )
        partner = [0] * size
        for a, b in ends:
            if partner[a - 1] or partner[b - 1]:
                first, second = sorted((a, b))
                raise DuplicateVertex(first if partner[first - 1] else second)
            partner[a - 1] = b
            partner[b - 1] = a
        # False is out of range, so a bool can only be True, held as vertex 1.
        if size and type(partner[partner[0] - 1]) is bool:
            raise TypeError("a vertex is a bool")
    except (TypeError, ValueError, MatchingError):  # maybe from a non-int pair
        for pair in pairs:
            as_edge(pair)  # raises on the first such pair, naming it
        raise
    # Unreachable when the earlier checks pass (2n slots, 2n distinct
    # vertices in range), but kept as the backstop against future edits:
    # Matching itself checks nothing.
    if 0 in partner:
        raise GapInVertexSet(partner.index(0) + 1)
    return Matching(tuple(partner))


def _intervals(partner: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Yield (lo, hi) for every nontrivial interval, by lo and then hi.

    For each candidate left end we sweep right, tracking the furthest
    partner seen; the run [lo, hi] is closed exactly when that reach has
    fallen back to hi.  A partner below lo kills every run starting at lo.
    """
    m = len(partner)
    for lo in range(1, m + 1):
        reach = lo
        for hi in range(lo, m + 1):
            p = partner[hi - 1]
            if p < lo:
                break
            if p > reach:
                reach = p
            if hi > lo and reach <= hi and not (lo == 1 and hi == m):
                yield lo, hi


def find_intervals(matching: Matching) -> tuple[Segment, ...]:
    """All nontrivial intervals: contiguous runs of >= 2 vertices, closed
    under the matching, other than the whole vertex set."""
    return tuple(Segment(lo, hi) for lo, hi in _intervals(matching.partner))


def is_indecomposable(matching: Matching) -> bool:
    """True when the matching has no nontrivial interval.

    The empty matching and the single edge are indecomposable by convention.
    """
    return next(_intervals(matching.partner), None) is None


def _induced_partner(subset: tuple[Edge, ...]) -> tuple[int, ...]:
    """Partner table of the submatching induced by the given edges, after
    relabelling the surviving endpoints order-preservingly onto [2k]."""
    verts = sorted(v for e in subset for v in e)
    rank = {v: i + 1 for i, v in enumerate(verts)}
    partner = [0] * len(verts)
    for e in subset:
        partner[rank[e.left] - 1] = rank[e.right]
        partner[rank[e.right] - 1] = rank[e.left]
    return tuple(partner)


def subpattern(matching: Matching, keep: Iterable[Iterable[int]]) -> Matching:
    """The matching induced by a subset of edges, relabelled onto [2k].
    Each edge is an endpoint pair in either order, normalized by as_edge;
    an edge given twice is a DuplicateVertex on its left endpoint."""
    kept = set()
    for pair in keep:
        e = as_edge(pair)
        if not matching.has_edge(e):
            raise UnknownEdge(e)
        if e in kept:
            raise DuplicateVertex(e.left)
        kept.add(e)
    return Matching(_induced_partner(tuple(kept)))

