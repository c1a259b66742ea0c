"""Perfect matchings on a linearly ordered vertex set.

A matching on [2n] = {1, ..., 2n} pairs every vertex with exactly one other
vertex.  We store it as a partner table: ``partner[v - 1]`` is the vertex
matched to ``v``.  The table form makes containment tests and relabelling
cheap, and it is hashable, so matchings can live in sets and dict keys.

Vertices are 1-based everywhere in the public interface.

Crossing components.  A run of vertices is closed when it holds the
partners of all its vertices; an interval is a closed run of >= 2 vertices
other than the whole vertex set.  A matching is indecomposable iff it has
no interval, iff its crossing graph is connected: these are the connected
chord diagrams of Stein & Everett (1978).  The vertices of one crossing
component span a run [lo, hi], and an edge with exactly one endpoint
strictly inside that run crosses an edge of the component.  So the span of
a component is closed, and a closed run [lo, hi] other than the whole set
contains the whole component of the edge at lo, or of the edge at 1 when
hi = 2n.  _components folds the vertices left to right into the open
components and stops when one closes before the last vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DuplicateVertex,
    GapInVertexSet,
    MatchingError,
    SelfLoop,
    UnknownEdge,
    VertexOutOfRange,
    _at_least,
    _is_int,
    _show,
)


class Edge(NamedTuple):
    """A single chord, stored with its smaller endpoint first."""

    left: int
    right: int

    def __str__(self) -> str:
        return f"{self.left}-{self.right}"


def _int_pair(pair: Iterable[int]) -> tuple[int, int]:
    """pair, read once, as two ints (a bool is not one), or a MatchingError."""
    try:
        a, b = pair
    except (TypeError, ValueError):
        a = b = None
    if not (_is_int(a) and _is_int(b)):
        raise MatchingError(f"endpoint pair {_show(pair, repr)} is not two integers")
    return a, b


def as_edge(pair: Iterable[int]) -> Edge:
    """Normalize a pair of int endpoints into an Edge, smaller endpoint first."""
    a, b = _int_pair(pair)
    if a == b:
        raise SelfLoop(a)
    return Edge(a, b) if a < b else Edge(b, a)


@dataclass(frozen=True)
class Segment:
    """The contiguous vertex range [lo, hi], 1 <= lo <= hi; both bounds inclusive."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        _at_least(self.lo, 1, "segment lower bound")
        _at_least(self.hi, self.lo, "segment upper bound")

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
        """The partner of vertex, an int in [1, 2n]; a bool is out of range."""
        if not (_is_int(vertex) and 1 <= vertex <= self.top):
            raise VertexOutOfRange(vertex, self.top)
        return self.partner[vertex - 1]

    def edges(self) -> tuple[Edge, ...]:
        """All edges, ordered by left endpoint."""
        make = Edge._make
        return tuple([make(vw) for vw in enumerate(self.partner, 1) if vw[0] < vw[1]])

    def has_edge(self, edge: Iterable[int]) -> bool:
        """Whether the int pair (left, right), smaller endpoint first, is an edge."""
        left, right = _int_pair(edge)
        return 1 <= left < right <= len(self.partner) and self.partner[left - 1] == right

    def __str__(self) -> str:
        return " ".join(
            f"{v}-{w}" for v, w in enumerate(self.partner, start=1) if v < w
        )


def _partner_table(matching: Matching) -> tuple[int, ...]:
    """matching.partner, or a MatchingError when matching is not a Matching."""
    if not isinstance(matching, Matching):
        raise MatchingError(f"{_show(matching, repr)} is not a Matching")
    return matching.partner


def _pair_sequence(pairs: Iterable[Iterable[int]]) -> tuple:
    """pairs, read once, as a tuple, or a MatchingError if they are not iterable."""
    try:
        return tuple(pairs)
    except TypeError:
        raise MatchingError(f"{_show(pairs, repr)} is not a sequence of edges") from None


def _host_edges(matching: Matching, pairs: Iterable[Iterable[int]]) -> tuple[Edge, ...]:
    """The one reading of an edge argument: pairs, read once, as a tuple of
    Edges of the matching.  Edges with int fields that the partner table
    holds come back untouched.  Otherwise each pair, in either order, is
    normalized by as_edge, and then the first that is not an edge of the
    matching is an UnknownEdge."""
    partner = _partner_table(matching)
    pairs = _pair_sequence(pairs)
    top = len(partner)
    for e in pairs:
        if type(e) is not Edge:
            break
        a, b = e
        if not (type(a) is int and type(b) is int and 0 < a < b <= top and partner[a - 1] == b):
            break
    else:
        return pairs
    edges = tuple(map(as_edge, pairs))
    for e in edges:
        if not matching.has_edge(e):
            raise UnknownEdge(e)
    return edges


def _crossers(partner: tuple[int, ...], left: int, right: int) -> tuple[list, list]:
    """Crossers of the trusted edge left-right as int pairs, left ones then
    right ones, each sorted by left endpoint, read between left and right."""
    lefts, rights = [], []
    for v, p in enumerate(partner[left : right - 1], start=left + 1):
        if p > right:
            rights.append((v, p))
        elif p < left:
            lefts.append((p, v))
    lefts.sort()
    return lefts, rights


def make_matching(pairs: Iterable[Iterable[int]]) -> Matching:
    """Build a Matching from endpoint pairs, validating as we go.

    The pairs must cover {1, ..., 2n} exactly once each.  Checks run in a
    fixed order (pair by pair, not two ints or a self loop; then range,
    duplicates, gaps) so error messages are stable for a given bad input;
    within an edge the smaller endpoint is reported first.  Valid input is
    recognized by one fill of the table; only input that fails it is
    checked in that order, to name its first defect.
    """
    if type(pairs) not in (list, tuple):  # the fill and the checks both read them
        pairs = _pair_sequence(pairs)
    size = 2 * len(pairs)
    slots = [0] * (size + 1)  # slots[v] for vertex v; slot 0 takes no vertex
    try:
        for a, b in pairs:
            slots[a] = b
            slots[b] = a
        del slots[0]
        # The fill is exact.  It made 2n writes, and an index past 2n raised
        # IndexError.  If every slot of [1, 2n] holds at least 1, each was
        # written, so each was written once and slot 0 never.  A self loop
        # or a vertex used twice writes one slot twice, so none occurred.
        # Every vertex is written as a value into its partner's slot, so a
        # vertex below 1 (0, or a negative index aliasing another slot)
        # would be held there, and none occurred.  So each vertex of
        # [1, 2n] was written once, with its partner.  False is below 1, so
        # a bool can only be True, held as vertex 1 in its partner's slot.
        if not size or (min(slots) > 0 and type(slots[slots[0] - 1]) is not bool):
            return Matching(tuple(slots))
    except (TypeError, ValueError, IndexError):  # not pairs of indices, or out of range
        pass
    edges = [as_edge(pair) for pair in pairs]  # names the first bad pair or self loop
    for e in edges:
        for v in e:
            if not 1 <= v <= size:
                raise VertexOutOfRange(v, size)
    partner = [0] * size
    for left, right in edges:
        for v, w in ((left, right), (right, left)):
            if partner[v - 1]:
                raise DuplicateVertex(v)
            partner[v - 1] = w
    # Unreachable past the checks above (2n slots, 2n distinct vertices in
    # range), but kept as the backstop against future edits: Matching
    # itself checks nothing.
    if 0 in partner:
        raise GapInVertexSet(partner.index(0) + 1)
    return Matching(tuple(partner))


def _components(partner: Sequence[int], start: int, end: int, stack: tuple) -> tuple | None:
    """Fold vertices start..end - 1, all below the last vertex, into stack,
    the open crossing components (lo, hi, below) of the vertices before
    start, with () at the bottom; None once a component closes.

    A left endpoint opens the component of its edge.  A right endpoint v,
    partner p, joins its edge's component: every open component with lo > p
    began inside the edge and is still open past v, so it crosses the edge
    and merges into the one below it.  When the merged component's hi is v,
    no edge of it reaches past v, and its span [lo, v] is an interval.
    """
    for v, p in enumerate(partner[start - 1 : end - 1], start):
        if p > v:
            stack = (v, p, stack)
            continue
        lo, hi, below = stack
        while lo > p:
            lo, top, below = below
            if top > hi:
                hi = top
        if hi == v:
            return None
        stack = (lo, hi, below)
    return stack


def find_intervals(matching: Matching) -> tuple[Segment, ...]:
    """All nontrivial intervals: contiguous runs of >= 2 vertices, closed
    under the matching, other than the whole vertex set, by lo and then hi.

    A closed run is a union of crossing components, and component spans are
    closed, so they nest or are disjoint.  The component of the vertex lo of
    a closed run [lo, hi] therefore starts at lo, and so does the component
    of each vertex just past the span before it: the closed runs starting at
    lo are the span [lo, end[lo]] of the component whose least vertex is lo,
    extended by each next span that starts right after it.  One fold of the
    components, as in _components but dropping each closed one, records
    end; the chaining then costs one step per interval.
    """
    partner = _partner_table(matching)
    m = len(partner)
    end = [0] * (m + 2)  # end[lo]: the last vertex of the component from lo
    stack = ()
    for v, p in enumerate(partner, 1):
        if p > v:
            stack = (v, p, stack)
            continue
        lo, hi, below = stack
        while lo > p:
            lo, top, below = below
            if top > hi:
                hi = top
        if hi == v:
            end[lo] = v
            stack = below
        else:
            stack = (lo, hi, below)
    out = []
    for lo in range(1, m + 1):
        hi = end[lo]
        while hi:
            if hi - lo < m - 1:  # not the whole vertex set
                out.append(Segment(lo, hi))
            hi = end[hi + 1]
    return tuple(out)


def is_indecomposable(matching: Matching) -> bool:
    """True when the matching has no nontrivial interval, decided in O(n)
    by one left-to-right pass over its crossing components.  The last
    vertex always closes the one component left, so the pass stops before
    it.  The empty matching and the single edge are indecomposable by
    convention.
    """
    partner = _partner_table(matching)
    return _components(partner, 1, len(partner), ()) is not None


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
    """The matching induced by a subset of edges, taken as _host_edges takes
    them, relabelled onto [2k]; an edge given twice is a DuplicateVertex on
    its left endpoint."""
    kept = set()
    for e in _host_edges(matching, keep):
        if e in kept:
            raise DuplicateVertex(e.left)
        kept.add(e)
    return Matching(_induced_partner(tuple(kept)))

