"""Canonical pattern families and exact structure search.

Three indecomposable families drive everything here: the interleaving
(k pairwise-crossing edges), and the right- and left-broken nestings (a
nested chain plus one breaker edge).  The plain nesting is kept as an
auxiliary family; on its own it is decomposable.

Alongside the families live the monotone-subsequence machinery used to
extract a large pattern from the crossers of a single heavily-crossed edge,
and exact maximizers whose only correctness contract is agreement with the
brute-force containment search.  The crossers of an edge are read off the
partner table in time linear in its span.  Longest monotone runs come from
patience sorting (Fredman, Discrete Math. 11, 1975) in O(m log m) for m
values, with ties going to the earliest predecessor and the earliest
endpoint, so every extracted pattern is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .core import Edge, Matching, _crossers, _host_edges, _partner_table, make_matching
from .errors import (
    DuplicateValue,
    InsufficientCrossers,
    InvariantViolation,
    MatchingError,
    _at_least,
    _is_int,
    _show,
)
from .pins import _walk_pins

# canonical_edges refuses a larger k before allocating (10**6 Edges: over 100 MB).
PATTERN_CAP = 10**6


class PatternKind(Enum):
    INTERLEAVING = "interleaving"
    RIGHT_BROKEN_NESTING = "right_broken_nesting"
    LEFT_BROKEN_NESTING = "left_broken_nesting"
    NESTING = "nesting"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


class WitnessKind(Enum):
    INTERLEAVING = "interleaving"
    BROKEN_NESTING = "broken_nesting"
    PROPER_PIN_SEQUENCE = "proper_pin_sequence"


def _pattern_kind(kind: object) -> None:
    """A MatchingError unless kind is a PatternKind; a string is not one."""
    if not isinstance(kind, PatternKind):
        raise MatchingError(f"kind {_show(kind, repr)} is not a PatternKind")


def canonical_edges(kind: PatternKind, k: int) -> tuple[Edge, ...]:
    """Edges of the canonical pattern with k edges, in semantic order:
    interleavings left to right, nestings outermost first, broken nestings
    breaker first and then outermost to innermost.
    """
    _pattern_kind(kind)
    _at_least(k, 1, "pattern size", PATTERN_CAP)
    if kind is PatternKind.INTERLEAVING:
        return tuple(Edge(i, i + k) for i in range(1, k + 1))
    if kind is PatternKind.NESTING:
        return tuple(Edge(i, 2 * k + 1 - i) for i in range(1, k + 1))
    # A broken nesting needs a nested part and a breaker.
    _at_least(k, 2, "broken nesting size")
    if kind is PatternKind.RIGHT_BROKEN_NESTING:
        return (Edge(k, 2 * k),) + tuple(Edge(i, 2 * k - i) for i in range(1, k))
    if kind is PatternKind.LEFT_BROKEN_NESTING:
        return (Edge(1, k + 1),) + tuple(Edge(i + 1, 2 * k - i + 1) for i in range(1, k))
    raise InvariantViolation(f"{kind} has no canonical edges")


def canonical(kind: PatternKind, k: int) -> Matching:
    """The canonical matching with k edges of the requested kind, on [2k]."""
    return make_matching(canonical_edges(kind, k))


def _longest_run(values: Sequence[int]) -> tuple[int, ...]:
    """Indices of a longest strictly increasing subsequence of distinct
    values, by patience sorting in O(m log m).

    Pile L holds, in index order, every index whose longest run ending
    there has length L + 1; its values fall as its indices rise, and the
    piles' last values rise with L.  Ties resolve to the earliest
    predecessor and earliest endpoint: each index takes the earliest
    qualifying index on the pile below, and the run ends at the earliest
    index of the last pile, so the answer is deterministic.
    """
    tails: list[int] = []  # tails[L]: the value last put on pile L
    piles: list[list[int]] = []  # piles[L]: negated values on pile L, ascending
    members: list[list[int]] = []  # members[L]: indices on pile L, ascending
    prev = [-1] * len(values)
    for i, x in enumerate(values):
        level = bisect_left(tails, x)
        if level:
            # The values below x on pile level - 1 are a suffix of it.
            prev[i] = members[level - 1][bisect_right(piles[level - 1], -x)]
        if level == len(tails):
            tails.append(x)
            piles.append([-x])
            members.append([i])
        else:
            tails[level] = x
            piles[level].append(-x)
            members[level].append(i)
    if not members:
        return ()
    out = []
    best = members[-1][0]
    while best != -1:
        out.append(best)
        best = prev[best]
    return tuple(reversed(out))


def longest_monotone(values: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A longest increasing and a longest decreasing subsequence, as index
    tuples, in O(m log m) for m values.  Values must be distinct.  One of
    the two has length at least ceil(sqrt(len(values))).  Ties go to the
    earliest predecessor and the earliest endpoint; the decreasing run is
    the increasing run of the negated values.  The values are read once, and
    each must be an int (a bool is not one)."""
    try:
        values = tuple(values)
    except TypeError:
        raise MatchingError(f"{_show(values, repr)} is not a sequence of integers") from None
    seen = set()
    for v in values:
        if not _is_int(v):
            raise MatchingError(f"value {_show(v, repr)} is not an integer")
        if v in seen:
            raise DuplicateValue(v)
        seen.add(v)
    return _longest_run(values), _longest_run([-v for v in values])


def crossers(matching: Matching, e: Edge) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """Edges crossing e, split by side and sorted by left endpoint.

    A left crosser f straddles e.left (f.left < e.left < f.right < e.right);
    a right crosser straddles e.right.  Every crosser has exactly one
    endpoint strictly inside e, so only those vertices of the partner table
    are read: O(right - left), plus a sort of the left crossers.  The edge
    is taken as core._host_edges takes each.
    """
    (e,) = _host_edges(matching, (e,))
    left, right = _crossers(matching.partner, *e)
    return tuple(map(Edge._make, left)), tuple(map(Edge._make, right))


def _check_pins(partner: tuple[int, ...], pins: Sequence[tuple[int, int]]) -> None:
    """InvariantViolation unless the int pairs pins are distinct host edges
    forming a proper pin sequence: the pin check of Witness.verify and of
    verify_theorem's shards."""
    for a, b in pins:
        if not (0 < a < b <= len(partner) and partner[a - 1] == b):
            raise InvariantViolation(f"pin {a}-{b} is not an edge of the host")
    if len(set(pins)) != len(pins):
        raise InvariantViolation("witness repeats an edge")
    if _walk_pins(pins) != (True, True):
        raise InvariantViolation("edges are not a proper pin sequence")


@dataclass(frozen=True)
class Witness:
    """A verified certificate that the host contains one of the target
    structures.  Verification runs at construction; a Witness that exists
    is valid.

    edges are in semantic order: interleavings left to right; broken
    nestings breaker first, then the nest outermost to innermost; pin
    sequences in pin order.  side and breaker are set exactly for broken
    nestings.  Interleavings and broken nestings are checked by ranking
    the endpoints onto [2k]: the ranked edges, in the order given, must
    equal canonical_edges.  Pin sequences are checked by _check_pins.
    edges and breaker are taken as core._host_edges takes them, so a
    Witness holds a tuple of Edges and an Edge breaker.
    """

    kind: WitnessKind
    host: Matching
    edges: tuple[Edge, ...]
    side: Side | None = None
    breaker: Edge | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", _host_edges(self.host, self.edges))
        if self.breaker is not None:
            object.__setattr__(self, "breaker", _host_edges(self.host, (self.breaker,))[0])
        self.verify()

    @property
    def size(self) -> int:
        return len(self.edges)

    def verify(self) -> None:
        if not isinstance(self.kind, WitnessKind):
            raise InvariantViolation(f"witness kind {_show(self.kind, repr)} is not a WitnessKind")
        if not self.edges:
            raise InvariantViolation("witness has no edges")
        if len(set(self.edges)) != len(self.edges):
            raise InvariantViolation("witness repeats an edge")
        if self.kind is WitnessKind.BROKEN_NESTING:
            if not isinstance(self.side, Side) or self.breaker is None:
                raise InvariantViolation("broken-nesting witness lacks side or breaker")
            if self.breaker != self.edges[0]:
                raise InvariantViolation("breaker is not the leading witness edge")
            pattern = PatternKind(f"{self.side.value}_broken_nesting")
            order = "order: the breaker position, then the nest outermost first"
        elif self.side is not None or self.breaker is not None:
            raise InvariantViolation(f"{self.kind.value} witness carries breaker data")
        elif self.kind is WitnessKind.INTERLEAVING:
            pattern, order = PatternKind.INTERLEAVING, "left-to-right order"
        else:
            _check_pins(self.host.partner, self.edges)
            return
        rank = {v: i for i, v in enumerate(sorted(v for e in self.edges for v in e), 1)}
        if tuple((rank[a], rank[b]) for a, b in self.edges) != canonical_edges(pattern, self.size):
            name = pattern.value.replace("_", " ")
            raise InvariantViolation(f"edges are not a canonical {name} in {order}")


def extract_from_crossed_edge(matching: Matching, e: Edge, k: int) -> Witness:
    """Pull a size-k structure out of the crossers of a single edge.

    Take the side of e with more crossers (ties go left), order them by
    left endpoint and look at their right endpoints: an increasing run of k
    is an interleaving on its own; a decreasing run of k-1 is a nested
    chain which e breaks, giving a size-k broken nesting.  With at least
    (k-1)^2 + 1 same-side crossers one of the two runs is guaranteed; with
    fewer this is best effort and may raise.  The edge is taken as
    core._host_edges takes each.
    """
    _at_least(k, 2, "target size")
    (e,) = _host_edges(matching, (e,))
    left, right = _crossers(matching.partner, *e)
    side = Side.LEFT if len(left) >= len(right) else Side.RIGHT
    chosen = left if side is Side.LEFT else right
    # Right endpoints of distinct edges are distinct: no DuplicateValue check.
    ends = [b for _, b in chosen]
    incr = _longest_run(ends)
    if len(incr) >= k:
        return Witness(
            WitnessKind.INTERLEAVING,
            matching,
            tuple(Edge(*chosen[i]) for i in incr[:k]),
        )
    decr = _longest_run([-b for b in ends])
    if len(decr) >= k - 1:
        # The breaker's endpoint inside the nest sits inside the innermost
        # chain edge, so any k-1 of the chain work; keep the innermost.
        nest = tuple(Edge(*chosen[i]) for i in decr[len(decr) - (k - 1) :])
        witness_side = Side.RIGHT if side is Side.LEFT else Side.LEFT
        return Witness(
            WitnessKind.BROKEN_NESTING,
            matching,
            (e,) + nest,
            side=witness_side,
            breaker=e,
        )
    raise InsufficientCrossers(
        f"{len(chosen)} crossers on the heavier side of {e}: "
        f"longest runs {len(incr)} increasing / {len(decr)} decreasing "
        f"cannot reach size {_show(k)}"
    )


def max_pattern(matching: Matching, kind: PatternKind) -> tuple[int, tuple[Edge, ...]]:
    """Largest k with canonical(kind, k) contained in the matching, plus a
    witnessing edge set in semantic order.

    Interleavings: every pairwise-crossing family consists of one edge f
    plus right crossers of f with increasing right endpoints, since f.right
    separates all their left endpoints from all their right endpoints.
    Nestings are decreasing runs of right endpoints across left-sorted
    edges, and a broken nesting is a nested chain inside the left (right)
    crossers of its breaker.  (0, ()) when no pattern of the kind occurs.
    """
    _partner_table(matching)
    _pattern_kind(kind)
    edges = matching.edges()
    # Right endpoints of distinct edges are distinct: no DuplicateValue check.
    if kind is PatternKind.NESTING:
        decr = _longest_run([-f.right for f in edges])
        return len(decr), tuple(edges[i] for i in decr)
    # Per kind: the crossers holding the rest (0 left, 1 right), the run's sign.
    side, sign = {
        PatternKind.INTERLEAVING: (1, 1),
        PatternKind.RIGHT_BROKEN_NESTING: (0, -1),
        PatternKind.LEFT_BROKEN_NESTING: (1, -1),
    }[kind]
    partner = matching.partner
    size, head, rest = 0, (), []
    for f in edges:
        chosen = _crossers(partner, *f)[side]
        run = _longest_run([sign * b for _, b in chosen])
        # A lone edge is an interleaving; a broken nesting needs a nest.
        if (run or sign > 0) and 1 + len(run) > size:
            size, head, rest = 1 + len(run), (f,), [chosen[i] for i in run]
    return size, head + tuple(map(Edge._make, rest))
