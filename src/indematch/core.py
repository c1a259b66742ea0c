"""Perfect matchings on a linearly ordered vertex set.

A matching on [2n] = {1, ..., 2n} pairs every vertex with exactly one other
vertex.  We store it as a partner table: ``partner[v - 1]`` is the vertex
matched to ``v``.  The table form makes containment tests and relabelling
cheap, and it is hashable, so matchings can live in sets and dict keys.

Vertices are 1-based everywhere in the public interface.

Cuts and intervals.  For a cut c (0 <= c <= 2n), X(c) is the set of edges
with exactly one endpoint <= c.  A run [lo, hi] is closed under the
matching exactly when X(lo - 1) = X(hi): an edge inside the run is in
neither set, an edge that straddles it is in both, and an edge with one
endpoint inside is in exactly one.  So every repeat among X(0), ..., X(2n)
is a closed run and every closed run is a repeat, and a matching is
indecomposable iff X(0), ..., X(2n - 1) are pairwise distinct (the repeat
X(2n) = X(0), both empty, is the whole vertex set).  |X| changes parity at
every step, so equal sets are at least two cuts apart: a repeat is never a
single vertex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from operator import xor
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    DuplicateVertex,
    GapInVertexSet,
    MatchingError,
    SelfLoop,
    SizeTooSmall,
    UnknownEdge,
    VertexOutOfRange,
    _show,
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
        raise MatchingError(f"endpoint pair {_show(pair, repr)} is not two integers")
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
            raise SizeTooSmall(self.hi, self.lo, "segment upper bound")

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
        pairs = list(pairs)
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


# Fixed 62-bit vertex keys for the cut hashes of is_indecomposable:
# _KEYS[v] is the key of vertex v (index 0 unused).  The table is redrawn
# from the same seed when it grows, so a vertex keeps its key and every run
# hashes alike.
_KEY_SEED = 0x1DE_C0DE
_KEYS: list[int] = []


def _vertex_keys(top: int) -> list[int]:
    """The key table, with a key for every vertex up to top."""
    global _KEYS
    if len(_KEYS) <= top:
        rng = random.Random(_KEY_SEED)
        _KEYS = [rng.getrandbits(62) for _ in range(max(2 * top, 256) + 1)]
    return _KEYS


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

    Decided in O(n) by hashing X(c) at every cut (see the module docstring):
    H(c) is the XOR of key(v) ^ key(partner of v) over v <= c, so each edge
    of X(c) contributes the XOR of its two vertex keys.  Equal sets hash
    equal, so pairwise distinct H(0), ..., H(2n - 1) prove the matching
    indecomposable.  At the first repeat H(i) = H(j) the run [i + 1, j] is
    checked directly; a closed run proves it decomposable.  Only a run that
    is not closed, a collision of the 62-bit keys, falls back to the sweep.
    """
    partner = matching.partner
    m = len(partner)
    keys = _vertex_keys(m)
    # cuts[c - 1] is H(c); the last, H(m) = 0 = H(0), stands for cut 0.
    cuts = list(accumulate(map(xor, keys[1 : m + 1], map(keys.__getitem__, partner)), xor))
    if len(set(cuts)) == m:
        return True
    first = {0: 0}
    for j, h in enumerate(cuts, start=1):  # a repeat comes before cut m
        i = first.setdefault(h, j)
        if i != j:
            break
    run = partner[i:j]
    if min(run) > i and max(run) <= j:
        return False
    return next(_intervals(partner), None) is None


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

