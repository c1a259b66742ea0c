"""Shared strategies and brute-force oracles.

Oracles are deliberately naive restatements of the definitions; library
results must agree with them.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from hypothesis import strategies as st

from indematch import (
    Edge,
    Matching,
    PatternKind,
    PinSequence,
    PinTree,
    Segment,
    Side,
    Witness,
    WitnessKind,
    WitnessReport,
    all_matchings,
    bounds,
    build_pin_tree,
    canonical,
    crossers,
    extract_from_crossed_edge,
    as_edge,
    is_indecomposable,
    longest_monotone,
    make_matching,
    subpattern,
)
from indematch.core import _induced_partner
from indematch.errors import (
    DuplicatePin,
    DuplicateVertex,
    GapInVertexSet,
    InsufficientCrossers,
    InvariantViolation,
    MatchingError,
    NotIndecomposable,
    NotRightReaching,
    ParseError,
    SelfLoop,
    SizeTooSmall,
    UnknownEdge,
    VertexOutOfRange,
)
from indematch.pins import _walk_pins


class SharedVertex(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"edges share vertex {vertex}")
        self.vertex = vertex


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


class EmptySegment(MatchingError):
    def __init__(self) -> None:
        super().__init__("operation is undefined on the empty segment")


def splits(matching: Matching, edge: Edge, segment: Segment | None) -> bool:
    """True when exactly one endpoint of edge lies inside segment."""
    if segment is None:
        raise EmptySegment()
    if not matching.has_edge(edge):
        raise UnknownEdge(edge)
    return (edge.left in segment) + (edge.right in segment) == 1


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


def small_indecomposables(n_max: int) -> Iterator[Matching]:
    """Every indecomposable matching with 1 <= n <= n_max."""
    for n in range(1, n_max + 1):
        yield from filter(is_indecomposable, all_matchings(n))


def crossing_chain(n: int) -> Matching:
    """1-3, then (2i, 2i+3) for i < n - 1, then (2n-2, 2n): each edge
    crosses only its neighbours."""
    return make_matching(
        [(1, 3)] + [(2 * i, 2 * i + 3) for i in range(1, n - 1)] + [(2 * n - 2, 2 * n)]
    )


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


# Reference versions of the witness path, built from splits and crossers
# and from a classify_sequence spelled out with Segment and splits; the
# int kernels in pins and ramsey must return exactly what these return.


def reference_classify_sequence(matching: Matching, pins: tuple[Edge, ...]) -> PinSequence:
    """Decide the pin-sequence, properness and right-reaching properties.

    The edges must be distinct edges of the matching.  Length-1 sequences
    are proper pin sequences by convention; for length 2 the properness
    condition is vacuous, so properness and the split condition coincide.
    """
    if not pins:
        raise SizeTooSmall(0, 1, "pin sequence length")
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


def reference_pin_tree(matching: Matching, depth_cap: int) -> PinTree:
    """build_pin_tree by classifying every prepended candidate."""
    if matching.n == 0:
        return PinTree(matching, (), ())
    root = Edge(matching.partner_of(matching.top), matching.top)
    nodes = [(root,)]
    parents = [-1]
    head = 0
    while head < len(nodes):
        node = nodes[head]
        if len(node) < depth_cap:
            for e in matching.edges():
                if e in node:
                    continue
                cls = reference_classify_sequence(matching, (e,) + node)
                if cls.is_pin_sequence and cls.is_proper:
                    nodes.append((e,) + node)
                    parents.append(head)
        head += 1
    return PinTree(matching, tuple(nodes), tuple(parents))


# The breadth-first pin-tree search the depth-first one replaced, copied
# verbatim: within each length the two must yield the same nodes in the
# same order.


def reference_pin_nodes(matching: Matching, depth_cap: int) -> Iterator[tuple[Edge, ...]]:
    """Each node of the pin tree capped at depth_cap, lazily, in
    breadth-first order, on a trusted host.

    Children of a node are the sequences extending it by one prepended edge;
    a suffix of a proper right-reaching sequence is again one, so every such
    sequence of length <= depth_cap appears.  Candidate edges are tried in
    (left, right) order, making the breadth-first node order deterministic.

    Each candidate is decided by one walk over the node's pins on int
    bounds, carrying the shadows (prev, cur) of the sequence so far: every
    pin must split cur and not split prev, as in _walk_pins, inlined.  A
    candidate already in the node lies inside the shadow by the time the
    walk meets it and fails the split test, so pins stay distinct.
    """
    edges = matching.edges()
    nodes = [(Edge(matching.partner[-1], matching.top),)] if edges else []
    yield from nodes  # the root, unless the host is empty
    # The loop reads the nodes appended while it runs.
    for node in nodes:
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
                    yield nodes[-1]


def reference_grow_right_reaching(matching: Matching, start: Edge) -> tuple[Edge, ...]:
    """grow_right_reaching with the split test and taken set spelled out."""
    pins = [start]
    lo, hi = start
    while matching.top not in pins[-1]:
        current = Segment(lo, hi)
        taken = set(pins)
        best = None
        best_key = None
        for e in matching.edges():
            if e in taken or not splits(matching, e, current):
                continue
            if matching.top in e:
                best = e
                break
            inner, outer = (e.left, e.right) if e.left in current else (e.right, e.left)
            if best_key is None or (outer, inner) > best_key:
                best, best_key = e, (outer, inner)
        if best is None:
            raise NotIndecomposable("no edge splits the shadow")
        pins.append(best)
        lo, hi = min(lo, best.left), max(hi, best.right)
    return tuple(pins)


def reference_properize(matching: Matching, pins: tuple[Edge, ...]) -> PinSequence:
    """Thin a right-reaching pin sequence down to a proper one.

    Every output pin is drawn from the input and the first pin is kept.
    Candidates for each step are tried latest-input-first, so when the
    greedy walk (always the pin of greatest input position crossing the
    current one) already yields a proper sequence, that exact sequence is
    returned.  The greedy walk alone is not enough: it can revisit a pin or
    emit an improper sequence even on grown input, so failed choices are
    backtracked.
    """
    cls = reference_classify_sequence(matching, pins)
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
    out = reference_classify_sequence(matching, tuple(Edge(a, b) for a, b in chain))
    if not (out.is_pin_sequence and out.is_proper and out.is_right_reaching):
        raise InvariantViolation("search produced an invalid sequence")
    return out


def reference_witness(matching: Matching, k: int) -> WitnessReport:
    """witness with crossers called on every edge until a heavy one."""
    b = bounds(k)
    for e in matching.edges():
        left, right = crossers(matching, e)
        if len(left) + len(right) >= b.crossing_threshold:
            return WitnessReport(b, matching.n, extract_from_crossed_edge(matching, e, k), None)
    tree = reference_pin_tree(matching, k)
    for node in tree.nodes:
        if len(node) == k:
            found = Witness(WitnessKind.PROPER_PIN_SEQUENCE, matching, node)
            return WitnessReport(b, matching.n, found, None)
    partial = None
    if tree.nodes:
        deepest = next(n for n in tree.nodes if len(n) == tree.max_length)
        partial = Witness(WitnessKind.PROPER_PIN_SEQUENCE, matching, deepest)
    return WitnessReport(b, matching.n, None, partial)


# Reference versions of the certificate path: the edge-list reader and
# make_matching that built every Edge, crossers over every edge of the
# host, and the quadratic monotone-run DP.  The partner-table and
# patience-sorting versions in the package must return exactly what these
# return, errors included.


def reference_make_matching(pairs: Iterable[Iterable[int]]) -> Matching:
    """Build a Matching from endpoint pairs, validating as we go.

    The pairs must cover {1, ..., 2n} exactly once each.  Checks run in a
    fixed order (self loops, range, duplicates, gaps) so error messages are
    stable for a given bad input.
    """
    edges = [as_edge(p) for p in pairs]
    size = 2 * len(edges)
    for e in edges:
        for v in e:
            if not 1 <= v <= size:
                raise VertexOutOfRange(v, size)
    partner = [0] * size
    for e in edges:
        for v, w in ((e.left, e.right), (e.right, e.left)):
            if partner[v - 1] != 0:
                raise DuplicateVertex(v)
            partner[v - 1] = w
    # Unreachable when the earlier checks pass (2n slots, 2n distinct
    # vertices in range), but kept as a guard against future edits.
    for v in range(1, size + 1):
        if partner[v - 1] == 0:
            raise GapInVertexSet(v)
    return Matching(tuple(partner))


def _reference_parse_pair(token: str, pos: int) -> tuple[int, int]:
    """The endpoints of an a-b token found at 1-based offset pos."""
    if not re.fullmatch(r"\d+-\d+", token):
        raise ParseError(f"expected a-b, got {token!r}", pos)
    a, b = token.split("-")
    try:
        return int(a), int(b)
    except ValueError:  # past the digit limit of int(); no vertex is that large
        raise ParseError(f"vertex number too long in {token[:24]!r}...", pos) from None


def reference_parse_edge_list(text: str) -> Matching:
    # Every token parses before make_matching checks the vertex set.
    pairs = [
        _reference_parse_pair(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text)
    ]
    return reference_make_matching(pairs)


# make_matching and the edge-list reader as they were before valid input
# was read in one fill: the pairs checked in order inside one pass, and
# the tokens read by findall.  The package must return exactly what these
# return, errors and their precedence included.


def reference_ordered_make_matching(pairs: Iterable[Iterable[int]]) -> Matching:
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


# An a-b token, with both endpoints as groups, or any other run of
# non-space text, whose groups are then empty.
_REFERENCE_EDGE_TOKEN = re.compile(r"(\d+)-(\d+)(?!\S)|\S+")


def _reference_findall_parse_pair(token: str, pos: int) -> tuple[int, int]:
    """The endpoints of an a-b token found at 1-based offset pos."""
    match = _REFERENCE_EDGE_TOKEN.fullmatch(token)
    if match is None or match.group(1) is None:
        raise ParseError(f"expected a-b, got {token!r}", pos)
    try:
        return int(match.group(1)), int(match.group(2))
    except ValueError:  # past the digit limit of int(); no vertex is that large
        raise ParseError(f"vertex number too long in {token[:24]!r}...", pos) from None


def reference_findall_parse_edge_list(text: str) -> Matching:
    # Every token parses before make_matching checks the vertex set.  A
    # token that is not a-b yields ('', ''), so int() fails on it as on an
    # overlong number; only then is the text walked again, token by token,
    # to report the first bad one at its offset.
    try:
        pairs = [(int(a), int(b)) for a, b in _REFERENCE_EDGE_TOKEN.findall(text)]
    except ValueError:
        for match in re.finditer(r"\S+", text):
            _reference_findall_parse_pair(match.group(), match.start() + 1)
        raise
    return reference_ordered_make_matching(pairs)


def reference_crossers(matching: Matching, e: Edge) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """Edges crossing e, split by side and sorted by left endpoint.

    A left crosser f straddles e.left (f.left < e.left < f.right < e.right);
    a right crosser straddles e.right.
    """
    if not matching.has_edge(e):
        raise UnknownEdge(e)
    left = []
    right = []
    for f in matching.edges():
        if f.left < e.left < f.right < e.right:
            left.append(f)
        elif e.left < f.left < e.right < f.right:
            right.append(f)
    return tuple(left), tuple(right)


def reference_extract_from_crossed_edge(matching: Matching, e: Edge, k: int) -> Witness:
    """Pull a size-k structure out of the crossers of a single edge.

    Take the side of e with more crossers (ties go left), order them by
    left endpoint and look at their right endpoints: an increasing run of k
    is an interleaving on its own; a decreasing run of k-1 is a nested
    chain which e breaks, giving a size-k broken nesting.  With at least
    (k-1)^2 + 1 same-side crossers one of the two runs is guaranteed; with
    fewer this is best effort and may raise.
    """
    if k < 2:
        raise SizeTooSmall(k, 2, "target size")
    left, right = crossers(matching, e)
    side = Side.LEFT if len(left) >= len(right) else Side.RIGHT
    chosen = left if side is Side.LEFT else right
    incr, decr = longest_monotone(tuple(f.right for f in chosen))
    if len(incr) >= k:
        return Witness(
            WitnessKind.INTERLEAVING,
            matching,
            tuple(chosen[i] for i in incr[:k]),
        )
    if len(decr) >= k - 1:
        # The breaker's endpoint inside the nest sits inside the innermost
        # chain edge, so any k-1 of the chain work; keep the innermost.
        nest = tuple(chosen[i] for i in decr[len(decr) - (k - 1) :])
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
        f"cannot reach size {k}"
    )


def reference_longest_run(
    values: Sequence[int], precedes: Callable[[int, int], bool]
) -> tuple[int, ...]:
    """Indices of a longest subsequence ordered by precedes, by quadratic
    DP.  Ties resolve to the earliest predecessor and earliest endpoint, so
    the answer is deterministic."""
    m = len(values)
    length = [1] * m
    prev = [-1] * m
    for i in range(m):
        for j in range(i):
            if precedes(values[j], values[i]) and length[j] + 1 > length[i]:
                length[i] = length[j] + 1
                prev[i] = j
    if m == 0:
        return ()
    best = max(range(m), key=lambda i: (length[i], -i))
    out = []
    while best != -1:
        out.append(best)
        best = prev[best]
    return tuple(reversed(out))


# max_pattern as it was with one loop per kind and longest_monotone per
# edge; max_pattern must return exactly what this returns, tie-breaks
# included.


def reference_max_pattern(matching: Matching, kind: PatternKind) -> tuple[int, tuple[Edge, ...]]:
    """Largest k with canonical(kind, k) contained in the matching, plus a
    witnessing edge set in semantic order.

    Interleavings: every pairwise-crossing family consists of one edge f
    plus right crossers of f with increasing right endpoints, since f.right
    separates all their left endpoints from all their right endpoints.
    Nestings are decreasing runs of right endpoints across left-sorted
    edges, and a broken nesting is a nested chain inside the left (right)
    crossers of its breaker.  (0, ()) when no pattern of the kind occurs.
    """
    edges = matching.edges()
    if not edges:
        return 0, ()
    if kind is PatternKind.NESTING:
        _, decr = longest_monotone(tuple(f.right for f in edges))
        return len(decr), tuple(edges[i] for i in decr)
    best: tuple[int, tuple[Edge, ...]] = (0, ())
    if kind is PatternKind.INTERLEAVING:
        for f in edges:
            _, right = crossers(matching, f)
            incr, _ = longest_monotone(tuple(g.right for g in right))
            if 1 + len(incr) > best[0]:
                best = (1 + len(incr), (f,) + tuple(right[i] for i in incr))
        return best
    take_left = kind is PatternKind.RIGHT_BROKEN_NESTING
    for b in edges:
        left, right = crossers(matching, b)
        chosen = left if take_left else right
        _, decr = longest_monotone(tuple(g.right for g in chosen))
        if decr and 1 + len(decr) > best[0]:
            best = (1 + len(decr), (b,) + tuple(chosen[i] for i in decr))
    return best


def reference_witness_verify(
    kind: WitnessKind,
    host: Matching,
    edges: tuple[Edge, ...],
    side: Side | None = None,
    breaker: Edge | None = None,
) -> None:
    """Witness.verify as it was before the one canonical_edges check: an
    order loop and a subpattern-vs-canonical comparison for interleavings,
    the same comparison plus a rank map for the breaker for broken
    nestings.  It does not check the order of a broken nesting's nest."""
    size = len(edges)
    if not edges:
        raise InvariantViolation("witness has no edges")
    if len(set(edges)) != len(edges):
        raise InvariantViolation("witness repeats an edge")
    for e in edges:
        if not host.has_edge(e):
            raise UnknownEdge(e)
    if kind is WitnessKind.BROKEN_NESTING:
        if side is None or breaker is None:
            raise InvariantViolation("broken-nesting witness lacks side or breaker")
        if breaker != edges[0]:
            raise InvariantViolation("breaker is not the leading witness edge")
        pattern = (
            PatternKind.RIGHT_BROKEN_NESTING
            if side is Side.RIGHT
            else PatternKind.LEFT_BROKEN_NESTING
        )
        if subpattern(host, edges) != canonical(pattern, size):
            raise InvariantViolation("edges do not induce a canonical broken nesting")
        # The breaker itself must land on the canonical breaker position.
        verts = sorted(v for e in edges for v in e)
        rank = {v: i + 1 for i, v in enumerate(verts)}
        want = (size, 2 * size) if side is Side.RIGHT else (1, size + 1)
        if (rank[breaker.left], rank[breaker.right]) != want:
            raise InvariantViolation("breaker does not occupy the breaker position")
    elif side is not None or breaker is not None:
        raise InvariantViolation(f"{kind.value} witness carries breaker data")
    elif kind is WitnessKind.INTERLEAVING:
        if any(a.left >= b.left for a, b in zip(edges, edges[1:])):
            raise InvariantViolation("interleaving edges not in left-to-right order")
        if subpattern(host, edges) != canonical(PatternKind.INTERLEAVING, size):
            raise InvariantViolation("edges do not induce a canonical interleaving")
    elif _walk_pins(edges) != (True, True):
        raise InvariantViolation("edges are not a proper pin sequence")


# The partner stream and the interval sweep as they were before the stream
# decided indecomposability itself: a recursive generator over the free
# tuple, then a from-scratch sweep of every finished table.


def reference_fill(partner: list[int], free: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not free:
        yield tuple(partner)
        return
    a = free[0]
    for i in range(1, len(free)):
        b = free[i]
        partner[a - 1] = b
        partner[b - 1] = a
        yield from reference_fill(partner, free[1:i] + free[i + 1 :])


def reference_partner_tuples(n: int) -> Iterator[tuple[int, ...]]:
    yield from reference_fill([0] * (2 * n), tuple(range(1, 2 * n + 1)))


def reference_partner_tuples_shard(n: int, first_partner: int) -> Iterator[tuple[int, ...]]:
    """The sub-stream with vertex 1 paired to first_partner."""
    partner = [0] * (2 * n)
    partner[0] = first_partner
    partner[first_partner - 1] = 1
    rest = tuple(v for v in range(2, 2 * n + 1) if v != first_partner)
    yield from reference_fill(partner, rest)


def reference_is_indecomposable_partner(partner: tuple[int, ...]) -> bool:
    """find_intervals on a raw partner table, stopping at the first hit."""
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
                return False
    return True
