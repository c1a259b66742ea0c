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
from typing import Iterable, Sequence

from .core import Edge, Matching, _host_edges, is_indecomposable
from .errors import (
    DuplicatePin,
    InvariantViolation,
    NotIndecomposable,
    NotRightReaching,
    _at_least,
)


@dataclass(frozen=True)
class PinSequence:
    """An edge sequence together with the pin properties it satisfies."""

    host: Matching
    pins: tuple[Edge, ...]
    is_pin_sequence: bool
    is_proper: bool
    is_right_reaching: bool


def _walk_pins(pins: Sequence[tuple[int, int]]) -> tuple[bool, bool]:
    """(is_pin_sequence, is_proper) of distinct host edges given as int
    pairs, with no validation.  Each pin past the first must split cur, the
    shadow of the pins before it; a proper one must also miss prev, the
    shadow one pin shorter, which is the empty (0, -1) at the second pin."""
    proper = True
    (plo, phi), (lo, hi) = (0, -1), pins[0]
    for a, b in pins[1:]:
        if (lo <= a <= hi) == (lo <= b <= hi):
            return False, False
        if (plo <= a <= phi) != (plo <= b <= phi):
            proper = False
        plo, phi = lo, hi
        if a < lo:
            lo = a
        if b > hi:
            hi = b
    return True, proper


def classify_sequence(matching: Matching, pins: Iterable[Iterable[int]]) -> PinSequence:
    """Decide the pin-sequence, properness and right-reaching properties.

    The pins are taken as core._host_edges takes them, and the result holds
    them as a tuple of Edges.  Checks run in this order: the pins must be
    pairs (MatchingError), then edges of the matching (UnknownEdge), then
    at least one (SizeTooSmall), then distinct (DuplicatePin, naming the
    first repeat).  Length-1 sequences are proper pin sequences by
    convention; for length 2 the properness condition is vacuous, so
    properness and the split condition coincide.
    """
    pins = _host_edges(matching, pins)
    _at_least(len(pins), 1, "pin sequence length")
    if len(set(pins)) != len(pins):
        seen = set()
        for e in pins:
            if e in seen:
                raise DuplicatePin(e)
            seen.add(e)
    is_ps, is_proper = _walk_pins(pins)
    return PinSequence(matching, pins, is_ps, is_proper, matching.top in pins[-1])


def grow_right_reaching(matching: Matching, start: Iterable[int]) -> tuple[Edge, ...]:
    """Extend start into a right-reaching pin sequence, greedily.

    Requires an indecomposable host; a decomposable one has a shadow that no
    edge splits.  If some splitting edge touches the greatest vertex we take
    it (there is only one such edge) and stop; otherwise we take the edge
    reaching furthest outside the shadow, tie-broken by the inner endpoint.
    The result is a pin sequence but not in general a proper one; feed it to
    properize.

    A splitting edge with its left end inside the shadow [lo, hi] outranks
    any with its right end inside, so the choice needs no scan of the edges.
    With reach the greatest partner of a vertex in [lo, hi], the pin is
    (partner of reach, reach) when reach > hi; that is also the edge to the
    greatest vertex whenever it splits.  Otherwise it is the edge at the
    first vertex below lo whose partner lies inside.  Each vertex is read
    once, when it enters the shadow, so the whole growth is O(n).  The start
    is one edge, taken as core._host_edges takes each.
    """
    (start,) = _host_edges(matching, (start,))
    if not is_indecomposable(matching):
        raise NotIndecomposable()
    top = matching.top
    partner = (0,) + matching.partner
    pins = [start]
    lo, hi = start
    reach = hi
    for p in partner[lo : hi + 1]:
        if p > reach:
            reach = p
    while hi != top:
        if reach > hi:
            a, b = partner[reach], reach
            for p in partner[hi + 1 : b + 1]:
                if p > reach:
                    reach = p
            hi = b
        else:
            a = lo - 1
            while a and not lo <= partner[a] <= hi:
                a -= 1
            if not a:
                # Unreachable past the indecomposability check; the stuck
                # shadow would be a nontrivial interval.
                raise NotIndecomposable("no edge splits the shadow")
            b = partner[a]
            for p in partner[a:lo]:
                if p > reach:
                    reach = p
            lo = a
        pins.append((a, b))
    return tuple(map(Edge._make, pins))


def properize(matching: Matching, pins: Iterable[Iterable[int]]) -> PinSequence:
    """Thin a right-reaching pin sequence down to a proper one.

    Every output pin is drawn from the input and the first pin is kept; the
    pins are given as classify_sequence takes them.  Input that is already
    proper comes back unchanged, as classify_sequence's result, with no
    search.  The search would return it too: at step i, with cur the shadow
    of pins[: i + 1], its only candidate is pin i + 1.  The pins before it
    lie inside cur.  A pin j >= i + 2 splits shadow(pins[: j]) but, by
    properness, not shadow(pins[: j - 1]), so it has no endpoint in the
    latter, which contains cur.

    Candidates for each step are tried latest-input-first, so when the
    greedy walk (always the pin of greatest input position crossing the
    current one) already yields a proper sequence, that exact sequence is
    returned.  The greedy walk alone is not enough: it can revisit a pin or
    emit an improper sequence even on grown input, so failed choices are
    backtracked.

    A valid next pin splits the current shadow cur and misses the previous
    one prev, so it has one endpoint in cur minus prev and the other outside
    cur.  With the input pins indexed by vertex, a search state reads only
    the vertices of cur minus prev and sorts what it finds; along the final
    chain these vertex sets are disjoint, so the search costs O(n log n)
    when it does not backtrack.
    """
    cls = classify_sequence(matching, pins)
    if not cls.is_pin_sequence:
        raise NotRightReaching("input is not a pin sequence")
    if not cls.is_right_reaching:
        raise NotRightReaching()
    if cls.is_proper:
        return cls

    # The pair of shadows is the whole search state.  Used pins lie inside
    # the current shadow and fail the split test, so distinctness needs no
    # bookkeeping.  The pins were validated above, so the search runs on int
    # pairs, depth first on an explicit stack: frames[i] holds the state
    # reached by chain[: i + 1] and the candidates there not yet tried.  The
    # empty segment (a, a - 1) at the first pin's left end a stands in for
    # the missing shadow before the first pin, so cur minus prev is the
    # whole first pin's span.
    top = matching.top
    pairs = cls.pins
    pin_at = [-1] * (top + 1)
    for i, (a, b) in enumerate(pairs):
        pin_at[a] = pin_at[b] = i
    chain = [pairs[0]]
    frames = []
    dead: set[tuple] = set()
    state = ((pairs[0][0], pairs[0][0] - 1), pairs[0])
    while top not in chain[-1]:
        (plo, phi), (lo, hi) = state
        found = []
        for v in (*range(lo, plo), *range(phi + 1, hi + 1)):
            i = pin_at[v]
            if i >= 0 and not lo <= sum(pairs[i]) - v <= hi:
                found.append(i)
        # The one pin touching the greatest vertex ends the search: try it
        # first, then the rest latest-input-first.
        found.sort(key=lambda i: (top not in pairs[i], -i))
        frames.append((state, iter([pairs[i] for i in found])))
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
    # Right-reaching by the loop's exit; the pins came from validated input.
    if _walk_pins(chain) != (True, True):
        raise InvariantViolation("search produced an invalid sequence")
    return PinSequence(matching, tuple(chain), True, True, True)


@dataclass(frozen=True)
class PinTree:
    """All proper right-reaching pin sequences up to a length cap.

    nodes[0] is the root (the single edge touching the greatest vertex);
    parents[i] indexes the node obtained by dropping the first pin, -1 for
    the root.  Nodes appear in breadth-first order: by length, and within a
    length in the order of their candidate sequences from the root, with
    candidate edges in (left, right) order.
    """

    host: Matching
    nodes: tuple[tuple[Edge, ...], ...]
    parents: tuple[int, ...]

    @property
    def max_length(self) -> int:
        return max((len(node) for node in self.nodes), default=0)


def _deepest(partner: tuple[int, ...], cap: int, nodes: list | None = None) -> tuple:
    """The pin tree's one capped decision, on a trusted partner table: the
    breadth-first tree's first node of length cap, else its first deepest
    node, as int pairs.  Given a list, the walk appends every node of the
    capped tree to it instead, and runs to the end.

    A node's children prepend one edge to it; a suffix of a proper
    right-reaching sequence is again one, so every such sequence of length
    <= cap is a node.  Distinct edges p1..pm form a proper pin sequence
    exactly when each p(j+1) crosses p(j) and has no endpoint in the spans
    of p1..p(j-1) (in _walk_pins, an endpoint in prev would put both in
    cur).  So the node p1..pm, p1 = a-b, carries the state (q, lf, rf): q
    the one endpoint of p2..pm inside (a, b), lf their greatest below a
    (or 0), rf their least above b (or 2n + 1); the root, touching 2n, has
    (2n, 0, 2n + 1).  Its children are the left x-y with lf < x < a < y < q,
    of state (a, lf, q), and the right x-y with q < x < b < y < rf, of
    state (b, q, rf); no pin of the node is one.

    Each node tries its children lazily, left then right, each side by x,
    and the stack keeps each ancestor's place: the left ones by x over
    (lf, a), or, when (a, q) is the shorter window, read off it at once and
    sorted; the right ones by x over (q, b).  Depth-first pre-order lists
    each length's nodes in breadth-first order (by induction, both sort
    them by their candidate sequences from the root), so the walk returns
    at the first node of length cap.
    """
    if not partner:
        return ()
    a, top = partner[-1], len(partner)
    node, b, q, lf, rf = ((a, top),), top, top, 0, top + 1
    deepest, best, stack = (), 0, []
    while True:
        if nodes is not None:
            nodes.append(node)
        depth = len(node)
        if depth > best:
            deepest, best = node, depth
            if depth == cap and nodes is None:
                return deepest
        # i is the last vertex read, and lefts the children read off (a, q),
        # greatest first, or None; a node of length cap starts at b, past both.
        lefts, i = None, lf
        if depth == cap:
            i = b
        elif q - a < a - lf:
            lefts = [(p, v) for v, p in enumerate(partner[a : q - 1], a + 1) if lf < p < a]
            lefts.sort(reverse=True)
            i = q
        while True:
            if lefts:
                x, y = lefts.pop()
                break
            while i < a - 1:
                y = partner[i]
                i += 1
                if a < y < q:
                    break
            else:
                if i < q:
                    i = q
                while i < b - 1:
                    y = partner[i]
                    i += 1
                    if b < y < rf:
                        break
                else:
                    if not stack:
                        return deepest
                    node, a, b, q, lf, rf, i, lefts = stack.pop()
                    continue
            x = i
            break
        stack.append((node, a, b, q, lf, rf, i, lefts))
        if y < q:
            node, a, b, q, rf = ((x, y),) + node, x, y, a, q
        else:
            node, a, b, q, lf = ((x, y),) + node, x, y, b, q


def build_pin_tree(matching: Matching, depth_cap: int) -> PinTree:
    """The tree of proper right-reaching pin sequences of length at most
    depth_cap: every node _deepest lists, once the cap and host are checked,
    stably sorted by length, which is breadth-first order."""
    _at_least(depth_cap, 1, "depth_cap")
    if not is_indecomposable(matching):
        raise NotIndecomposable()
    listed: list = []
    _deepest(matching.partner, depth_cap, listed)
    nodes = tuple(tuple(map(Edge._make, node)) for node in sorted(listed, key=len))
    index = {node: i for i, node in enumerate(nodes)}
    return PinTree(matching, nodes, tuple(index.get(node[1:], -1) for node in nodes))
