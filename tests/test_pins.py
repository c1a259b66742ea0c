import pytest
from hypothesis import given, settings

from indematch import (
    Edge,
    PinSequence,
    PinTree,
    Segment,
    build_pin_tree,
    classify_sequence,
    grow_right_reaching,
    make_matching,
    properize,
    splits,
)
from indematch.errors import (
    DuplicatePin,
    EmptySegment,
    NotIndecomposable,
    NotRightReaching,
    UnknownEdge,
)

from helpers import (
    count_proper_rr_sequences,
    indecomposable_matchings,
    reference_grow_right_reaching,
    reference_pin_tree,
    shadow,
    small_indecomposables,
)

CHAIN = make_matching([(3, 5), (4, 7), (1, 6), (2, 8)])
FORCED = (Edge(3, 5), Edge(4, 7), Edge(1, 6), Edge(2, 8))


def test_shadow():
    assert shadow(CHAIN, ()) is None
    assert shadow(CHAIN, (Edge(3, 5),)) == Segment(3, 5)
    assert shadow(CHAIN, (Edge(3, 5), Edge(4, 7))) == Segment(3, 7)
    with pytest.raises(UnknownEdge):
        shadow(CHAIN, (Edge(3, 6),))


def test_splits():
    assert splits(CHAIN, Edge(4, 7), Segment(3, 5))
    assert not splits(CHAIN, Edge(2, 8), Segment(3, 5))
    assert not splits(CHAIN, Edge(3, 5), Segment(3, 5))
    with pytest.raises(EmptySegment):
        splits(CHAIN, Edge(3, 5), None)


def test_classify_sequence_fixtures():
    one = classify_sequence(CHAIN, (Edge(3, 5),))
    assert one.is_pin_sequence and one.is_proper and not one.is_right_reaching

    two = classify_sequence(CHAIN, (Edge(3, 5), Edge(4, 7)))
    assert two.is_pin_sequence and two.is_proper and not two.is_right_reaching

    full = classify_sequence(CHAIN, FORCED)
    assert full.is_pin_sequence and full.is_proper and full.is_right_reaching

    # (1,6) splits the shadow [4,7] of the pins two steps back.
    improper = classify_sequence(CHAIN, (Edge(4, 7), Edge(3, 5), Edge(1, 6)))
    assert improper.is_pin_sequence and not improper.is_proper

    broken = classify_sequence(CHAIN, (Edge(3, 5), Edge(2, 8)))
    assert not broken.is_pin_sequence and not broken.is_proper


def test_classify_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        classify_sequence(CHAIN, ())
    with pytest.raises(UnknownEdge):
        classify_sequence(CHAIN, (Edge(3, 6),))
    with pytest.raises(DuplicatePin):
        classify_sequence(CHAIN, (Edge(3, 5), Edge(3, 5)))


def test_proper_but_not_right_reaching():
    m = make_matching([(1, 5), (2, 4), (3, 6)])
    cls = classify_sequence(m, (Edge(2, 4), Edge(3, 6), Edge(1, 5)))
    assert cls.is_pin_sequence and cls.is_proper
    assert not cls.is_right_reaching


def test_grow_right_reaching_forced_chain():
    assert grow_right_reaching(CHAIN, Edge(3, 5)) == FORCED
    assert grow_right_reaching(CHAIN, Edge(2, 8)) == (Edge(2, 8),)


def test_grow_right_reaching_rejects():
    with pytest.raises(UnknownEdge):
        grow_right_reaching(CHAIN, Edge(3, 6))
    with pytest.raises(NotIndecomposable):
        grow_right_reaching(make_matching([(1, 2), (3, 4)]), Edge(1, 2))


def test_properize_keeps_already_proper_input():
    out = properize(CHAIN, FORCED)
    assert isinstance(out, PinSequence)
    assert out.pins == FORCED
    assert out.is_pin_sequence and out.is_proper and out.is_right_reaching


def test_properize_rejects_non_sequences():
    with pytest.raises(NotRightReaching, match="not a pin sequence"):
        properize(CHAIN, (Edge(3, 5), Edge(2, 8)))
    with pytest.raises(NotRightReaching):
        properize(CHAIN, (Edge(3, 5), Edge(4, 7)))


def test_properize_backtracks_where_the_greedy_walk_cycles():
    # The greedy greatest-index-crosser walk alone loops here: from (3,7) it
    # picks (1,4), whose only crossing pin is (3,7) again.  Backtracking
    # instead drops (1,4) and completes through (5,9).
    m = make_matching([(1, 4), (2, 6), (3, 7), (5, 9), (8, 11), (10, 12)])
    pins = (Edge(3, 7), Edge(5, 9), Edge(1, 4), Edge(8, 11), Edge(10, 12))
    cls = classify_sequence(m, pins)
    assert cls.is_pin_sequence and cls.is_right_reaching and not cls.is_proper
    out = properize(m, pins)
    assert out.pins == (Edge(3, 7), Edge(5, 9), Edge(8, 11), Edge(10, 12))
    assert out.is_proper and out.is_right_reaching


def test_properize_backtracks_where_the_greedy_walk_goes_improper():
    # Grown from (4,7) the greedy walk would emit 4-7, 3-6, 5-9, 1-8, 2-10,
    # which is a pin sequence but not proper: 5-9 splits the shadow [4,7]
    # sitting two steps back.
    m = make_matching([(1, 8), (2, 10), (3, 6), (4, 7), (5, 9)])
    pins = grow_right_reaching(m, Edge(4, 7))
    assert pins == (Edge(4, 7), Edge(5, 9), Edge(3, 6), Edge(1, 8), Edge(2, 10))
    out = properize(m, pins)
    assert out.pins == (Edge(4, 7), Edge(5, 9), Edge(1, 8), Edge(2, 10))
    assert out.is_proper and out.is_right_reaching


def test_properize_long_chain_does_not_recurse():
    # One search step per pin: far past the default recursion limit.
    n = 3000
    chain = make_matching(
        [(1, 3)] + [(2 * i, 2 * i + 3) for i in range(1, n - 1)] + [(2 * n - 2, 2 * n)]
    )
    pins = chain.edges()
    out = properize(chain, pins)
    assert out.pins[0] == pins[0]
    assert out.is_pin_sequence and out.is_proper and out.is_right_reaching


@settings(max_examples=150)
@given(indecomposable_matchings(min_n=1, max_n=6))
def test_grow_then_properize_from_every_start(m):
    for start in m.edges():
        pins = grow_right_reaching(m, start)
        cls = classify_sequence(m, pins)
        assert cls.is_pin_sequence and cls.is_right_reaching
        out = properize(m, pins)
        assert out.pins[0] == start
        assert out.is_proper and out.is_right_reaching


def test_pin_tree_crossing_pair():
    t = build_pin_tree(make_matching([(1, 3), (2, 4)]), 4)
    assert t.nodes == ((Edge(2, 4),), (Edge(1, 3), Edge(2, 4)))
    assert t.parents == (-1, 0)
    assert t.max_length == 2


def test_pin_tree_forced_chain_is_a_path():
    t = build_pin_tree(CHAIN, 4)
    assert t.nodes == (FORCED[3:], FORCED[2:], FORCED[1:], FORCED)
    assert t.parents == (-1, 0, 1, 2)
    assert t.max_length == 4
    assert count_proper_rr_sequences(CHAIN) == 4


def test_pin_tree_depth_cap():
    t = build_pin_tree(CHAIN, 1)
    assert t.nodes == ((Edge(2, 8),),)
    assert build_pin_tree(CHAIN, 2).max_length == 2
    with pytest.raises(ValueError):
        build_pin_tree(CHAIN, 0)


def test_pin_tree_edge_cases():
    assert build_pin_tree(make_matching([]), 3) == PinTree(make_matching([]), (), ())
    t = build_pin_tree(make_matching([(1, 2)]), 3)
    assert t.nodes == ((Edge(1, 2),),)
    with pytest.raises(NotIndecomposable):
        build_pin_tree(make_matching([(1, 4), (2, 3)]), 3)


def test_pin_tree_misses_proper_sequences_that_stall():
    # [(2,4),(3,6),(1,5)] is proper of length 3 but not right-reaching, and
    # no right-reaching extension exists; the tree only ever holds length 2.
    m = make_matching([(1, 5), (2, 4), (3, 6)])
    cls = classify_sequence(m, (Edge(2, 4), Edge(3, 6), Edge(1, 5)))
    assert cls.is_proper and not cls.is_right_reaching
    assert build_pin_tree(m, m.n).max_length == 2


@settings(max_examples=80)
@given(indecomposable_matchings(min_n=1, max_n=6))
def test_pin_tree_nodes_are_proper_suffix_closed(m):
    t = build_pin_tree(m, m.n)
    root = Edge(m.partner_of(m.top), m.top)
    for i, node in enumerate(t.nodes):
        cls = classify_sequence(m, node)
        assert cls.is_pin_sequence and cls.is_proper and cls.is_right_reaching
        assert node[-1] == root
        if i == 0:
            assert t.parents[i] == -1
        else:
            assert t.nodes[t.parents[i]] == node[1:]
    assert len(set(t.nodes)) == len(t.nodes)
    assert count_proper_rr_sequences(m) >= m.n


def test_pin_tree_and_grow_match_the_reference_on_every_small_host():
    hosts = 0
    for m in small_indecomposables(6):
        hosts += 1
        for cap in (3, 4):
            assert build_pin_tree(m, cap) == reference_pin_tree(m, cap), (m, cap)
        for start in m.edges():
            assert grow_right_reaching(m, start) == reference_grow_right_reaching(m, start)
    assert hosts == 1 + 1 + 4 + 27 + 248 + 2830


@settings(max_examples=60, deadline=None)
@given(indecomposable_matchings(min_n=7, max_n=16))
def test_pin_tree_and_grow_match_the_reference_on_larger_hosts(m):
    for cap in (3, 4):
        assert build_pin_tree(m, cap) == reference_pin_tree(m, cap)
    for start in m.edges():
        assert grow_right_reaching(m, start) == reference_grow_right_reaching(m, start)
