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
from typing import Iterable, Iterator, Sequence

from .core import Edge, Matching, _crossers, _host_edges, is_indecomposable
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


def _pin_nodes(partner: tuple[int, ...], depth_cap: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Each node of the pin tree capped at depth_cap, as int pairs, lazily
    and depth first, on a trusted partner table.

    Children of a node are the sequences extending it by one prepended edge;
    a suffix of a proper right-reaching sequence is again one, so every such
    sequence of length <= depth_cap appears.  Distinct edges p1..pm form a
    proper pin sequence exactly when each p(j+1) crosses p(j) and has no
    endpoint in the spans of p1..p(j-1): in _walk_pins, an endpoint in prev
    would put both in cur.  So the node p1..pm, p1 = a-b, has the child x-y
    exactly when x-y crosses a-b and its closed span holds no endpoint of
    p2..pm.  Candidates are the crossers of a-b, read when the node is
    expanded, in (left, right) order.  Each is decided in O(1) on the
    node's state: q, the one endpoint of p2..pm inside (a, b); lf, their
    greatest endpoint below a (or 0); rf, their least above b (or 2n + 1).
    x-y is a child exactly when lf < x, y < rf and q lies outside [x, y];
    a left child (y < q) has the state (a, lf, q), a right one (b, q, rf).
    The root, touching 2n, has only left crossers, which q = 2n passes.  An
    edge already in the node fails the test, having an endpoint at q, at
    most lf or at least rf, so pins stay distinct.

    Within each length the nodes come in breadth-first order.  Breadth
    first, each level lists the children of the level above in order, so by
    induction it is sorted by the nodes' candidate sequences from the root,
    compared lexicographically; depth-first pre-order visits the nodes in
    that same order.  The stack holds at most depth_cap - 1 frames: a node,
    its first pin, its state and the crossers left.
    """
    if not partner:
        return
    a, top = partner[-1], len(partner)
    root = ((a, top),)
    yield root
    lefts, _ = _crossers(partner, a, top)
    stack = [(root, a, top, top, 0, top + 1, iter(lefts))] if depth_cap > 1 else []
    while stack:
        node, a, b, q, lf, rf, todo = stack[-1]
        for e in todo:
            x, y = e
            if lf < x and y < rf and (y < q or q < x):
                child = (e,) + node
                yield child
                if len(child) < depth_cap:
                    lefts, rights = _crossers(partner, x, y)
                    if y < q:
                        stack.append((child, x, y, a, lf, q, iter(lefts + rights)))
                    else:
                        stack.append((child, x, y, b, q, rf, iter(lefts + rights)))
                    break
        else:
            stack.pop()


def _deepest(partner: tuple[int, ...], cap: int) -> tuple[tuple[int, int], ...]:
    """The pin tree's one capped decision, on a trusted partner table: the
    breadth-first tree's first node of length cap, else its first deepest
    node, as int pairs.  _pin_nodes lists each length breadth first, so
    the first node to reach a length is the first of that length."""
    deepest: tuple[tuple[int, int], ...] = ()
    for node in _pin_nodes(partner, cap):
        if len(node) > len(deepest):
            deepest = node
            if len(node) == cap:
                break
    return deepest


def build_pin_tree(matching: Matching, depth_cap: int) -> PinTree:
    """The tree of proper right-reaching pin sequences of length at most
    depth_cap: every node of _pin_nodes, once the cap and host are checked,
    bucketed by length into breadth-first order."""
    _at_least(depth_cap, 1, "depth_cap")
    if not is_indecomposable(matching):
        raise NotIndecomposable()
    levels: list[list[tuple]] = [[] for _ in range(min(depth_cap, matching.n))]
    for node in _pin_nodes(matching.partner, depth_cap):
        levels[len(node) - 1].append(node)
    nodes = tuple(tuple(map(Edge._make, node)) for level in levels for node in level)
    index = {node: i for i, node in enumerate(nodes)}
    return PinTree(matching, nodes, tuple(index.get(node[1:], -1) for node in nodes))
