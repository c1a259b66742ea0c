from itertools import combinations, product
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indematch import (
    Edge,
    Matching,
    PatternKind,
    Segment,
    all_matchings,
    as_edge,
    canonical_edges,
    find_intervals,
    is_indecomposable,
    make_matching,
    subpattern,
)
from indematch.errors import (
    DuplicateVertex,
    MatchingError,
    SelfLoop,
    UnknownEdge,
    VertexOutOfRange,
)

from helpers import (
    Relation,
    SharedVertex,
    contains,
    crossing_chain,
    edge_relation,
    matchings,
    oracle_intervals,
    random_matching,
    reference_is_indecomposable_partner,
    reference_ordered_make_matching,
    reverse,
)

FIG_DECOMPOSABLE = make_matching([(1, 3), (2, 8), (4, 6), (5, 7)])
CHAIN = make_matching([(3, 5), (4, 7), (1, 6), (2, 8)])


def test_as_edge_normalizes():
    assert as_edge((5, 3)) == Edge(3, 5)
    assert as_edge([3, 5]) == Edge(3, 5)
    with pytest.raises(SelfLoop):
        as_edge((4, 4))
    with pytest.raises(MatchingError, match=r"^endpoint pair \(1,\) is not two integers$"):
        as_edge((1,))
    with pytest.raises(MatchingError, match=r"^endpoint pair \(True, 2\) is not two integers$"):
        as_edge((True, 2))


def test_edge_str():
    assert str(Edge(3, 5)) == "3-5"


def test_segment():
    s = Segment(4, 7)
    assert 4 in s and 7 in s and 5 in s
    assert 3 not in s and 8 not in s
    assert str(s) == "[4,7]"
    with pytest.raises(ValueError):
        Segment(5, 4)
    with pytest.raises(MatchingError, match="segment upper bound 4 is below the minimum 5"):
        Segment(5, 4)
    # Vertices are 1-based: the lower bound is an int of at least 1, read first.
    for lo in (None, 1.5, True, "1"):
        with pytest.raises(MatchingError, match="^segment lower bound .* is not an integer$"):
            Segment(lo, 3)
    with pytest.raises(MatchingError, match="^segment lower bound 0 is below the minimum 1$"):
        Segment(0, 3)


def test_make_matching_basic():
    m = make_matching([(2, 8), (3, 5), (1, 6), (4, 7)])
    assert m.n == 4
    assert m.top == 8
    assert m.edges() == (Edge(1, 6), Edge(2, 8), Edge(3, 5), Edge(4, 7))
    assert str(m) == "1-6 2-8 3-5 4-7"
    assert m.partner_of(6) == 1
    assert m.has_edge(Edge(3, 5))
    assert not m.has_edge(Edge(3, 6))
    with pytest.raises(VertexOutOfRange):
        m.partner_of(9)


def test_make_matching_empty():
    m = make_matching([])
    assert m.n == 0 and m.top == 0 and m.edges() == ()


def test_make_matching_rejects_bad_input():
    with pytest.raises(SelfLoop):
        make_matching([(1, 1)])
    with pytest.raises(VertexOutOfRange) as exc:
        make_matching([(1, 5), (2, 3)])
    assert exc.value.vertex == 5 and exc.value.size == 4
    with pytest.raises(VertexOutOfRange):
        make_matching([(0, 1)])
    with pytest.raises(DuplicateVertex):
        make_matching([(1, 2), (2, 3)])
    # A pair that is not two ints is named in a MatchingError, also when
    # the pairs come from a one-shot iterator.
    for pairs, named in [
        ([(1, 2, 3)], "(1, 2, 3)"),
        ([(1,)], "(1,)"),
        ([("1", "2")], "('1', '2')"),
        ([(1.0, 2.0)], "(1.0, 2.0)"),
        ([(True, 2)], "(True, 2)"),
        ([(3, 4), (2, True)], "(2, True)"),
        ([(1, 3), (2, False)], "(2, False)"),
        ([(2, 1), (3, True)], "(3, True)"),
        ([("x", "x")], "('x', 'x')"),
        ([(1.0, 1.0)], "(1.0, 1.0)"),
        (iter([(1, 2), (3,), (4, 5)]), "(3,)"),
    ]:
        with pytest.raises(MatchingError) as exc:
            make_matching(pairs)
        assert str(exc.value) == f"endpoint pair {named} is not two integers"


def _assert_boundary_holds(pairs):
    """make_matching either raises a MatchingError, exactly when the pairs
    do not cover [2n] once each, or returns a fixed-point-free involution
    on [2n] whose edges are the normalized input."""
    size = 2 * len(pairs)
    covers = sorted(v for pair in pairs for v in pair) == list(range(1, size + 1))
    try:
        m = make_matching(pairs)
    except MatchingError:
        assert not covers, pairs
        return
    assert covers, pairs
    p = m.partner
    assert len(p) == size
    assert all(1 <= p[v] <= size and p[v] != v + 1 and p[p[v] - 1] == v + 1 for v in range(size))
    assert m.edges() == tuple(sorted(as_edge(pair) for pair in pairs))


def test_make_matching_is_the_boundary_exhaustively():
    for n in range(3):
        for flat in product(range(2 * n + 2), repeat=2 * n):
            _assert_boundary_holds([flat[2 * i : 2 * i + 2] for i in range(n)])


@st.composite
def _pair_lists(draw, max_n: int = 6):
    """n pairs over 0..2n+1: a shuffled cover of [2n] half the time, so
    the accepting side is drawn as often as the rejecting one."""
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        flat = draw(st.permutations(range(1, 2 * n + 1)))
    else:
        flat = draw(st.lists(st.integers(0, 2 * n + 1), min_size=2 * n, max_size=2 * n))
    return [tuple(flat[2 * i : 2 * i + 2]) for i in range(n)]


@settings(max_examples=300)
@given(_pair_lists())
def test_make_matching_is_the_boundary_random(pairs):
    _assert_boundary_holds(pairs)


def _outcome(build, *args):
    """What build returned, or the type and text of what it raised."""
    try:
        return build(*args)
    except Exception as exc:
        return type(exc), str(exc)


_ODD_VERTICES = st.sampled_from([0, -1, -3, True, False, 1.0, "1", "\u0663", 10**4400])


@st.composite
def _mutated_pair_lists(draw, max_n: int = 6):
    """A shuffled cover of [2n] with up to three defects: an odd or out of
    range vertex, a repeated vertex, a self loop, a 1- or 3-tuple."""
    n = draw(st.integers(0, max_n))
    flat = draw(st.permutations(range(1, 2 * n + 1)))
    pairs = [list(flat[2 * i : 2 * i + 2]) for i in range(n)]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        pair = pairs[draw(st.integers(0, n - 1))]
        defect = draw(st.sampled_from(["vertex", "range", "repeat", "loop", "short", "long"]))
        if defect == "short":
            del pair[1:]
        elif defect == "long":
            pair.append(draw(st.integers(1, 2 * n)))
        elif defect == "loop":
            pair[1:] = pair[:1]
        else:
            pair[-1] = draw({
                "vertex": _ODD_VERTICES,
                "range": st.sampled_from([0, -1, -2 * n - 1, -2 * n - 2, 2 * n + 1]),
                "repeat": st.integers(1, 2 * n),
            }[defect])
    return [tuple(pair) for pair in pairs]


@settings(max_examples=1000, deadline=None)
@given(_mutated_pair_lists(), st.booleans())
def test_make_matching_matches_the_ordered_reference(pairs, one_shot):
    given_as = iter if one_shot else list
    assert _outcome(make_matching, given_as(pairs)) == _outcome(
        reference_ordered_make_matching, given_as(pairs)
    )


def test_edge_relation():
    assert edge_relation(Edge(1, 3), Edge(2, 4)) is Relation.CROSSING
    assert edge_relation(Edge(2, 4), Edge(1, 3)) is Relation.CROSSING
    assert edge_relation(Edge(1, 4), Edge(2, 3)) is Relation.NESTED
    assert edge_relation(Edge(2, 3), Edge(1, 4)) is Relation.NESTED
    assert edge_relation(Edge(1, 2), Edge(3, 4)) is Relation.DISJOINT
    with pytest.raises(SharedVertex):
        edge_relation(Edge(1, 2), Edge(2, 3))


def test_find_intervals_fixture():
    assert find_intervals(FIG_DECOMPOSABLE) == (Segment(4, 7),)
    assert not is_indecomposable(FIG_DECOMPOSABLE)
    assert find_intervals(CHAIN) == ()
    assert is_indecomposable(CHAIN)


def test_indecomposability_conventions():
    assert is_indecomposable(make_matching([]))
    assert is_indecomposable(make_matching([(1, 2)]))
    assert is_indecomposable(make_matching([(1, 3), (2, 4)]))
    assert not is_indecomposable(make_matching([(1, 2), (3, 4)]))
    assert not is_indecomposable(make_matching([(1, 4), (2, 3)]))


def test_find_intervals_matches_oracle_exhaustively():
    from indematch import all_matchings

    for n in range(6):
        for m in all_matchings(n):
            assert find_intervals(m) == oracle_intervals(m), str(m)


@settings(max_examples=200)
@given(matchings(max_n=8))
def test_find_intervals_matches_oracle_random(m):
    assert find_intervals(m) == oracle_intervals(m)


def test_is_indecomposable_matches_the_sweep_exhaustively():
    for n in range(8):
        for m in all_matchings(n):
            assert is_indecomposable(m) == reference_is_indecomposable_partner(m.partner), str(m)


@settings(max_examples=200)
@given(matchings(max_n=60))
def test_is_indecomposable_matches_the_sweep_random(m):
    assert is_indecomposable(m) == reference_is_indecomposable_partner(m.partner)


def test_is_indecomposable_iff_the_crossing_graph_is_connected():
    # The lemma the pass decides by: no nontrivial interval exactly when
    # every edge is joined to every other by a path of crossings.
    for n in range(7):
        for m in all_matchings(n):
            edges = m.edges()
            reached, todo = set(edges[:1]), list(edges[:1])
            while todo:
                e = todo.pop()
                for f in edges:
                    if f not in reached and edge_relation(e, f) is Relation.CROSSING:
                        reached.add(f)
                        todo.append(f)
            assert is_indecomposable(m) == (len(reached) == n), str(m)


def _long_host(kind, closed_pair=False, n=20000):
    if kind is None:
        return crossing_chain(n)
    edges = canonical_edges(kind, n)
    if closed_pair:  # the run [n + 1, n + 2] becomes closed
        edges = [tuple(v + 2 * (v > n) for v in e) for e in edges] + [(n + 1, n + 2)]
    return make_matching(edges)


@pytest.mark.parametrize(
    "kind, closed_pair, expect",
    [  # the broken nestings keep their ids, the value of closed_pair
        pytest.param(PatternKind.RIGHT_BROKEN_NESTING, False, True, id="False"),
        pytest.param(PatternKind.RIGHT_BROKEN_NESTING, True, False, id="True"),
        # n components open at once, merged by the first right endpoint
        pytest.param(PatternKind.INTERLEAVING, False, True, id="interleaving"),
        pytest.param(PatternKind.NESTING, False, False, id="nesting"),  # closes at n + 1
        pytest.param(None, False, True, id="chain"),
    ],
)
def test_is_indecomposable_is_linear_on_a_long_broken_nesting(kind, closed_pair, expect):
    # A quadratic interval sweep takes tens of seconds at this size.
    m = _long_host(kind, closed_pair)
    start = time.perf_counter()
    assert is_indecomposable(m) is expect
    assert time.perf_counter() - start < 2


def test_find_intervals_answers_at_once_on_a_long_indecomposable_host():
    m = _long_host(PatternKind.RIGHT_BROKEN_NESTING)
    start = time.perf_counter()
    assert find_intervals(m) == ()
    assert time.perf_counter() - start < 2


def test_find_intervals_is_linear_on_a_long_decomposable_host():
    # The per-left-end sweep took 2.3-2.75 s here (2 cores, Python 3.11.7).
    m = _long_host(PatternKind.RIGHT_BROKEN_NESTING, closed_pair=True, n=5000)
    start = time.perf_counter()
    assert find_intervals(m) == (Segment(5001, 5002),)
    assert time.perf_counter() - start < 1


def test_is_indecomposable_keeps_no_memory():
    m = crossing_chain(200_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert is_indecomposable(m)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20, held


def test_subpattern_relabels():
    sub = subpattern(CHAIN, (Edge(3, 5), Edge(4, 7)))
    assert sub == make_matching([(1, 3), (2, 4)])
    with pytest.raises(UnknownEdge):
        subpattern(CHAIN, (Edge(3, 6),))


@pytest.mark.parametrize(
    "keep",
    [
        (Edge(3, 5), Edge(3, 5)),
        (Edge(1, 6), Edge(3, 5), Edge(4, 7), Edge(3, 5)),
        (Edge(3, 5), Edge(1, 6), Edge(3, 5), Edge(2, 8)),
        ((3, 5), (5, 3)),
    ],
)
def test_subpattern_rejects_a_repeated_edge(keep):
    with pytest.raises(DuplicateVertex) as exc:
        subpattern(CHAIN, keep)
    assert exc.value.vertex == 3


def test_subpattern_takes_plain_pairs_in_either_order():
    crossing = make_matching([(1, 3), (2, 4)])
    single = make_matching([(1, 2)])
    for keep in ([(1, 3)], [(3, 1)], [Edge(1, 3)]):
        assert subpattern(crossing, keep) == single
    assert subpattern(CHAIN, [(7, 4), (3, 5)]) == crossing
    with pytest.raises(MatchingError, match=r"^endpoint pair \(1,\) is not two integers$"):
        subpattern(crossing, [(1,)])
    with pytest.raises(UnknownEdge):
        subpattern(crossing, [(1, 2)])
    assert subpattern(crossing, iter([iter((3, 1))])) == single
    # Not a sequence of pairs, or an Edge whose fields are not ints.
    for keep in (None, 5, [None], [5], [Edge(3.0, 5)], [Edge(True, 3)]):
        with pytest.raises(MatchingError):
            subpattern(crossing, keep)


def test_has_edge_reads_an_int_pair_and_partner_of_an_int_vertex():
    assert CHAIN.has_edge((1, 6)) and CHAIN.has_edge([3, 5]) and CHAIN.has_edge(Edge(2, 8))
    # Smaller endpoint first, as in an Edge; outside [1, 2n] is no edge.
    assert not CHAIN.has_edge((6, 1))
    assert not CHAIN.has_edge((0, 6)) and not CHAIN.has_edge((7, 9))
    for vertex in (1.5, 1.0, True, False, None, "1"):
        with pytest.raises(VertexOutOfRange):
            CHAIN.partner_of(vertex)


def test_has_edge_refuses_what_is_not_an_int_pair():
    # Read as core._host_edges reads a pair: two ints, and a bool is not one.
    for bad in (None, 5, (1,), (1.5, 3), (True, 6), Edge(1, 6.0), "16"):
        with pytest.raises(MatchingError, match="is not two integers$"):
            CHAIN.has_edge(bad)


def test_contains_small_cases():
    crossing = make_matching([(1, 3), (2, 4)])
    nesting = make_matching([(1, 4), (2, 3)])
    assert contains(CHAIN, crossing) == frozenset({Edge(1, 6), Edge(2, 8)})
    assert contains(nesting, crossing) is None
    assert contains(CHAIN, make_matching([])) == frozenset()
    assert contains(crossing, CHAIN) is None
    assert contains(CHAIN, CHAIN) == frozenset(CHAIN.edges())


@settings(max_examples=100)
@given(matchings(min_n=1, max_n=6), st.randoms(use_true_random=False))
def test_contains_finds_own_subpatterns(m, rng):
    k = rng.randint(0, m.n)
    keep = tuple(sorted(rng.sample(m.edges(), k)))
    assert contains(m, subpattern(m, keep)) is not None


def test_contains_returned_edges_induce_the_pattern():
    rng = random.Random(7)
    for _ in range(50):
        host = random_matching(rng, rng.randint(1, 6))
        pattern = subpattern(
            host, tuple(rng.sample(host.edges(), rng.randint(1, host.n)))
        )
        hit = contains(host, pattern)
        assert hit is not None
        assert subpattern(host, tuple(sorted(hit))) == pattern


def test_reverse():
    assert reverse(CHAIN) == make_matching([(1, 7), (3, 8), (2, 5), (4, 6)])
    assert reverse(make_matching([])) == make_matching([])


@settings(max_examples=150)
@given(matchings(max_n=7))
def test_reverse_is_an_involution_preserving_structure(m):
    assert reverse(reverse(m)) == m
    assert is_indecomposable(reverse(m)) == is_indecomposable(m)


def test_matching_is_hashable():
    a = make_matching([(1, 3), (2, 4)])
    b = make_matching([(2, 4), (1, 3)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_public_surface_resolves_and_omits_test_oracles():
    import indematch

    for name in indematch.__all__:
        assert hasattr(indematch, name), name
    demoted = {
        "contains", "reverse", "Relation", "edge_relation", "crossing",
        "shadow", "count_proper_rr_sequences", "splits", "EmptySegment",
    }
    assert not demoted & set(indematch.__all__)
    assert not any(hasattr(indematch, name) for name in demoted)
