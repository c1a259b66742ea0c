"""Pin sequences: chains of edges that successively split a growing shadow.

The shadow of an edge set is the segment spanned by its endpoints.  An edge
splits a segment when exactly one of its endpoints lies inside.  A pin
sequence starts from any edge and extends by edges splitting the shadow of
the pins so far; it is proper when every pin past the second avoids the
shadow of the pins two steps back, and right-reaching when the final pin
touches the greatest vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Edge, Matching, Segment, is_indecomposable
from .errors import (
    DuplicatePin,
    EmptySegment,
    InvariantViolation,
    NotIndecomposable,
    NotRightReaching,
    UnknownEdge,
)


def splits(matching: Matching, edge: Edge, segment: Segment | None) -> bool:
    """True when exactly one endpoint of edge lies inside segment."""
    if segment is None:
        raise EmptySegment()
    if not matching.has_edge(edge):
        raise UnknownEdge(edge)
    return (edge.left in segment) + (edge.right in segment) == 1


@dataclass(frozen=True)
class PinSequence:
    """An edge sequence together with the pin properties it satisfies."""

    host: Matching
    pins: tuple[Edge, ...]
    is_pin_sequence: bool
    is_proper: bool
    is_right_reaching: bool


def classify_sequence(matching: Matching, pins: tuple[Edge, ...]) -> PinSequence:
    """Decide the pin-sequence, properness and right-reaching properties.

    The edges must be distinct edges of the matching.  Length-1 sequences
    are proper pin sequences by convention; for length 2 the properness
    condition is vacuous, so properness and the split condition coincide.
    """
    if not pins:
        raise ValueError("a pin sequence has at least one pin")
    seen = set()
    for e in pins:
        if not matching.has_edge(e):
            raise UnknownEdge(e)
        if e in seen:
            raise DuplicatePin(e)
        seen.add(e)

    # shadows[i] covers pins[: i + 1]; prefix shadows only ever grow.
    shadows: list[Segment] = []
    lo, hi = pins[0]
    for e in pins:
        lo, hi = min(lo, e.left), max(hi, e.right)
        shadows.append(Segment(lo, hi))

    is_ps = all(
        splits(matching, pins[i], shadows[i - 1]) for i in range(1, len(pins))
    )
    is_proper = is_ps and all(
        not splits(matching, pins[i], shadows[i - 2]) for i in range(2, len(pins))
    )
    reaches = matching.top in pins[-1]
    return PinSequence(matching, pins, is_ps, is_proper, reaches)


def grow_right_reaching(matching: Matching, start: Edge) -> tuple[Edge, ...]:
    """Extend start into a right-reaching pin sequence, greedily.

    Requires an indecomposable host; a decomposable one has a shadow that no
    edge splits.  If some splitting edge touches the greatest vertex we take
    it (there is only one such edge) and stop; otherwise we take the edge
    reaching furthest outside the shadow, tie-broken by the inner endpoint.
    The result is a pin sequence but not in general a proper one; feed it to
    properize.
    """
    if not matching.has_edge(start):
        raise UnknownEdge(start)
    if not is_indecomposable(matching):
        raise NotIndecomposable()
    # Taken pins lie inside the shadow [lo, hi] and fail the split test, so
    # the scan needs no record of them.
    top = matching.top
    edges = matching.edges()
    pins = [start]
    lo, hi = start
    while hi != top:
        best: Edge | None = None
        best_key: tuple[int, int] | None = None
        for e in edges:
            a, b = e
            a_in = lo <= a <= hi
            if a_in == (lo <= b <= hi):
                continue
            if b == top:
                best = e
                break
            key = (b, a) if a_in else (a, b)
            if best_key is None or key > best_key:
                best, best_key = e, key
        if best is None:
            # Unreachable past the indecomposability check; the stuck shadow
            # would be a nontrivial interval.
            raise NotIndecomposable("no edge splits the shadow")
        pins.append(best)
        lo, hi = min(lo, best.left), max(hi, best.right)
    return tuple(pins)


def properize(matching: Matching, pins: tuple[Edge, ...]) -> PinSequence:
    """Thin a right-reaching pin sequence down to a proper one.

    Every output pin is drawn from the input and the first pin is kept.
    Candidates for each step are tried latest-input-first, so when the
    greedy walk (always the pin of greatest input position crossing the
    current one) already yields a proper sequence, that exact sequence is
    returned.  The greedy walk alone is not enough: it can revisit a pin or
    emit an improper sequence even on grown input, so failed choices are
    backtracked.
    """
    cls = classify_sequence(matching, pins)
    if not cls.is_pin_sequence:
        raise NotRightReaching("input is not a pin sequence")
    if not cls.is_right_reaching:
        raise NotRightReaching()

    # A valid next pin splits the current shadow and not the previous one,
    # which forces it to cross the newest pin; the pair of shadows is the
    # whole search state.  Used pins lie inside the current shadow and fail
    # the split test, so distinctness needs no bookkeeping.  The pins were
    # validated above, so the search runs on int pairs, depth first on an
    # explicit stack: frames[i] holds the state reached by chain[: i + 1]
    # and the candidates there not yet tried.  The empty segment (0, -1)
    # stands in for the missing shadow before the first pin.
    top = matching.top
    latest_first = [(e.left, e.right) for e in reversed(pins)]
    chain = [(pins[0].left, pins[0].right)]
    frames = []
    dead: set[tuple] = set()
    state = ((0, -1), chain[0])
    while top not in chain[-1]:
        (plo, phi), (lo, hi) = state
        ranked = [
            (a, b)
            for a, b in latest_first
            if (lo <= a <= hi) + (lo <= b <= hi) == 1
            and (plo <= a <= phi) + (plo <= b <= phi) != 1
        ]
        # The one pin touching the greatest vertex ends the search: try it first.
        ranked.sort(key=lambda e: top not in e)
        frames.append((state, iter(ranked)))
        state = None
        while state is None:
            (_, cur), todo = frames[-1]
            for e in todo:
                grown = (min(cur[0], e[0]), max(cur[1], e[1]))
                if (cur, grown) not in dead:
                    chain.append(e)
                    state = (cur, grown)
                    break
            else:
                dead.add(frames.pop()[0])
                if not frames:
                    raise InvariantViolation(
                        "no proper right-reaching subsequence of the pins exists"
                    )
                chain.pop()
    out = classify_sequence(matching, tuple(Edge(a, b) for a, b in chain))
    if not (out.is_pin_sequence and out.is_proper and out.is_right_reaching):
        raise InvariantViolation("search produced an invalid sequence")
    return out


@dataclass(frozen=True)
class PinTree:
    """All proper right-reaching pin sequences up to a length cap.

    nodes[0] is the root (the single edge touching the greatest vertex);
    parents[i] indexes the node obtained by dropping the first pin, -1 for
    the root.  Nodes appear in breadth-first order.
    """

    host: Matching
    nodes: tuple[tuple[Edge, ...], ...]
    parents: tuple[int, ...]

    @property
    def max_length(self) -> int:
        return max((len(node) for node in self.nodes), default=0)


def build_pin_tree(matching: Matching, depth_cap: int) -> PinTree:
    """Grow the tree of proper right-reaching pin sequences of length at
    most depth_cap.

    Children of a node are the sequences extending it by one prepended edge;
    a suffix of a proper right-reaching sequence is again one, so every such
    sequence of length <= depth_cap appears.  Candidate edges are tried in
    (left, right) order, making the breadth-first node order deterministic.

    Each candidate is decided by one walk over the node's pins on int
    bounds, carrying the shadows (prev, cur) of the sequence so far: every
    pin must split cur and not split prev, as in classify_sequence.  A
    candidate already in the node lies inside the shadow by the time the
    walk meets it and fails the split test, so pins stay distinct.
    """
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be at least 1, got {depth_cap}")
    if not is_indecomposable(matching):
        raise NotIndecomposable()
    if matching.n == 0:
        return PinTree(matching, (), ())
    root = Edge(matching.partner_of(matching.top), matching.top)
    nodes: list[tuple[Edge, ...]] = [(root,)]
    parents = [-1]
    edges = matching.edges()
    head = 0
    while head < len(nodes):
        node = nodes[head]
        if len(node) < depth_cap:
            for e in edges:
                # (plo, phi) starts as the empty segment (0, -1): no shadow
                # precedes the candidate.
                plo, phi = 0, -1
                lo, hi = e
                for a, b in node:
                    if (lo <= a <= hi) == (lo <= b <= hi) or (
                        (plo <= a <= phi) != (plo <= b <= phi)
                    ):
                        break
                    plo, phi = lo, hi
                    if a < lo:
                        lo = a
                    if b > hi:
                        hi = b
                else:
                    nodes.append((e,) + node)
                    parents.append(head)
        head += 1
    return PinTree(matching, tuple(nodes), tuple(parents))
