import importlib.util
import random
import time
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings

from indematch import (
    Edge,
    PinSequence,
    PinTree,
    Segment,
    all_matchings,
    as_edge,
    build_pin_tree,
    classify_sequence,
    grow_right_reaching,
    make_matching,
    properize,
    witness,
)
from indematch.errors import (
    DuplicatePin,
    MatchingError,
    NotIndecomposable,
    NotRightReaching,
    UnknownEdge,
)
from indematch.pins import _deepest, _walk_pins

from helpers import (
    EmptySegment,
    all_pin_sequences,
    count_proper_rr_sequences,
    crossing_chain,
    indecomposable_matchings,
    reference_classify_sequence,
    reference_grow_right_reaching,
    reference_pin_nodes,
    reference_pin_tree,
    reference_properize,
    shadow,
    small_indecomposables,
    splits,
)

CHAIN = make_matching([(3, 5), (4, 7), (1, 6), (2, 8)])
FORCED = (Edge(3, 5), Edge(4, 7), Edge(1, 6), Edge(2, 8))


def outcome(f, *args):
    """f's result, or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # any type: the two versions must raise the same one
        return type(exc)


def assert_grow_and_properize_match_the_reference(m):
    for start in m.edges():
        grown = grow_right_reaching(m, start)
        assert grown == reference_grow_right_reaching(m, start), (m, start)
        assert outcome(properize, m, grown) == outcome(reference_properize, m, grown), (
            m,
            start,
        )


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
    with pytest.raises(MatchingError):
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


def test_grow_and_properize_scale_linearly_on_a_long_chain():
    # The quadratic scans took about 120 s here, the linear ones 0.5 s (2
    # cores, Python 3.11.7).
    chain = crossing_chain(20_000)
    began = time.perf_counter()
    grown = grow_right_reaching(chain, Edge(1, 3))
    out = properize(chain, grown)
    elapsed = time.perf_counter() - began
    assert grown == chain.edges()
    assert out.pins == grown
    assert elapsed < 10, f"grow + properize took {elapsed:.1f} s"


def test_classify_sequence_matches_the_reference_on_every_small_tuple():
    tuples = 0
    for n in range(1, 6):
        for m in all_matchings(n):
            for length in range(1, 5):
                for pins in permutations(m.edges(), length):
                    tuples += 1
                    assert classify_sequence(m, pins) == reference_classify_sequence(
                        m, pins
                    ), (m, pins)
    assert tuples == 1 + 3 * 4 + 15 * 15 + 105 * 64 + 945 * 205
    for pins in ((), (Edge(1, 2),), (Edge(3, 5), Edge(3, 5))):
        assert outcome(classify_sequence, CHAIN, pins) == outcome(
            reference_classify_sequence, CHAIN, pins
        )


def test_grow_and_properize_match_the_reference_on_every_small_host():
    hosts = 0
    for m in small_indecomposables(6):
        hosts += 1
        assert_grow_and_properize_match_the_reference(m)
    assert hosts == 3111


def test_properize_matches_the_reference_on_every_small_pin_sequence():
    right_reaching = 0
    for m in small_indecomposables(5):
        for pins in all_pin_sequences(m):
            right_reaching += m.top in pins[-1]
            assert outcome(properize, m, pins) == outcome(reference_properize, m, pins), (
                m,
                pins,
            )
    assert right_reaching == 4919


@settings(max_examples=60, deadline=None)
@given(indecomposable_matchings(min_n=7, max_n=40))
def test_grow_and_properize_match_the_reference_on_larger_hosts(m):
    assert_grow_and_properize_match_the_reference(m)


def test_properize_returns_every_small_proper_sequence_unchanged():
    # At step i the search's only candidate is pin i + 1, so the early exit
    # returns what the search would.
    proper = 0
    for m in small_indecomposables(5):
        for pins in all_pin_sequences(m):
            cls = classify_sequence(m, pins)
            if cls.is_proper and cls.is_right_reaching:
                proper += 1
                assert properize(m, pins) == cls, (m, pins)
    assert proper == 1499


def assert_properize_is_idempotent(m):
    for start in m.edges():
        out = properize(m, grow_right_reaching(m, start))
        assert properize(m, out.pins) == out, (m, start)


def test_properize_is_idempotent_on_every_small_host():
    for m in small_indecomposables(6):
        assert_properize_is_idempotent(m)


@settings(max_examples=60, deadline=None)
@given(indecomposable_matchings(min_n=7, max_n=40))
def test_properize_is_idempotent_on_larger_hosts(m):
    assert_properize_is_idempotent(m)


BAD_PINS = ((3, 5.0), None, (3, 5, 7), (3,), "35", 5, Edge(3.0, 5), Edge(True, 6))


def test_pin_functions_take_plain_pairs():
    # Pairs in either order, as tuples, lists or one-shot iterators, held in
    # a tuple, a list or a one-shot iterator: each gives what Edges give.
    for start in ((3, 5), (5, 3), [3, 5], iter((5, 3))):
        assert grow_right_reaching(CHAIN, start) == FORCED
    pairs = [(5, 3), (4, 7), [1, 6], (8, 2)]
    for f in (classify_sequence, properize):
        want = f(CHAIN, FORCED)
        for given in (pairs, tuple(pairs), iter(pairs), (iter(e) for e in pairs)):
            out = f(CHAIN, given)
            assert out == want, (f, given)
            assert type(out.pins) is tuple and all(type(e) is Edge for e in out.pins)
            hash(out)
    # Through the search, not the early exit: this input is not proper.
    m = make_matching([(1, 4), (2, 6), (3, 7), (5, 9), (8, 11), (10, 12)])
    improper = [(7, 3), (5, 9), (4, 1), (8, 11), (12, 10)]
    assert properize(m, improper) == properize(m, tuple(map(as_edge, improper)))


@pytest.mark.parametrize("bad", BAD_PINS, ids=repr)
def test_pin_functions_reject_a_pin_that_is_not_two_ints(bad):
    with pytest.raises(MatchingError):
        grow_right_reaching(CHAIN, bad)
    for pins in ((bad,), [(3, 5), bad], ((3, 5), (4, 7), (1, 6), bad)):
        with pytest.raises(MatchingError):
            classify_sequence(CHAIN, pins)
        with pytest.raises(MatchingError):
            properize(CHAIN, pins)


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
    with pytest.raises(MatchingError):
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


def test_early_stopped_pin_nodes_decide_depth_k_like_the_full_tree():
    for m in small_indecomposables(6):
        for k in (2, 3, 4, 5):
            early = len(_deepest(m.partner, k)) == k
            assert early == (build_pin_tree(m, k).max_length >= k), (m, k)


def pairwise_proper(pins):
    """The pairwise form of a proper pin sequence: each pin crosses the one
    before it and has no endpoint in the span of any pin before that."""
    for j in range(1, len(pins)):
        (a, b), (x, y) = pins[j - 1], pins[j]
        if not (a < x < b < y or x < a < y < b):
            return False
        if any(lo <= v <= hi for lo, hi in pins[: j - 1] for v in (x, y)):
            return False
    return True


def test_proper_pin_sequences_are_the_pairwise_condition():
    # The lemma behind _deepest's child windows, on every sequence of at
    # most four distinct edges of every matching with n <= 5.
    checked = proper = 0
    for n in range(1, 6):
        for m in all_matchings(n):
            edges = [tuple(e) for e in m.edges()]
            for length in range(1, 5):
                for seq in permutations(edges, length):
                    walked = _walk_pins(seq) == (True, True)
                    assert walked == pairwise_proper(seq), (m, seq)
                    checked += 1
                    proper += walked
    assert checked == 1 + 3 * 4 + 15 * 15 + 105 * 64 + 945 * 205
    assert 0 < proper < checked


def levels(nodes):
    """The nodes as int pairs, listed per length in the order they came."""
    out = {}
    for node in nodes:
        out.setdefault(len(node), []).append(tuple(map(tuple, node)))
    return out


def first_and_deepest(nodes, k):
    """What the witness search reads off the nodes: the first of length k,
    or failing that the first of the greatest length (the partial witness)."""
    deepest = ()
    for node in nodes:
        node = tuple(map(tuple, node))
        if len(node) == k:
            return node, None
        if len(node) > len(deepest):
            deepest = node
    return None, deepest


def assert_search_matches_the_reference(m, k):
    listed = []
    _deepest(m.partner, k, listed)
    assert levels(listed) == levels(reference_pin_nodes(m, k)), (m, k)
    want = first_and_deepest(reference_pin_nodes(m, k), k)
    assert first_and_deepest(listed, k) == want, (m, k)
    first, deepest = want
    assert _deepest(m.partner, k) == (deepest if first is None else first), (m, k)
    return want


def test_depth_first_search_matches_the_breadth_first_reference_on_every_small_host():
    below = {k: 0 for k in (2, 3, 4, 5)}
    for m in small_indecomposables(6):
        for k in below:
            first, _ = assert_search_matches_the_reference(m, k)
            below[k] += first is None
    # At k = 3 and 4 these are verify_theorem(6, k)'s below-threshold tallies.
    assert below == {2: 1, 3: 154, 4: 1619, 5: 2823}


@settings(max_examples=60, deadline=None)
@given(indecomposable_matchings(min_n=7, max_n=16))
def test_depth_first_search_matches_the_breadth_first_reference_on_larger_hosts(m):
    for k in (2, 3, 4, 5):
        assert_search_matches_the_reference(m, k)


@pytest.mark.parametrize("n", [50, 500])
def test_depth_first_search_matches_the_breadth_first_reference_on_chains(n):
    chain = crossing_chain(n)
    for k in (2, 3, 4, 5):
        assert_search_matches_the_reference(chain, k)


def test_witness_scales_linearly_on_a_long_chain():
    # Each expanded node reads only the crossers of its first pin.
    chain = crossing_chain(20_000)
    began = time.perf_counter()
    report = witness(chain, 3)
    elapsed = time.perf_counter() - began
    assert report.found and len(report.witness.edges) == 3
    assert elapsed < 2, f"witness took {elapsed:.2f} s"


class CountedReads(tuple):
    """A partner table that counts the entries read from it: one per index,
    and a slice's length per slice."""

    reads = 0

    def __getitem__(self, key):
        got = tuple.__getitem__(self, key)
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


def perfbench_host(seed, n):
    """perfbench's random_indecomposable(Random(seed), n), as a Matching."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return make_matching(inputs.random_indecomposable(random.Random(seed), n))


@pytest.mark.parametrize(
    ("host", "cap", "most"),
    [(crossing_chain(20_000), 10, 20), (perfbench_host(1, 80), 6, 100)],
    ids=["chain-20000", "seed-1-n-80"],
)
def test_the_walk_reads_only_inside_first_pin_spans(host, cap, most):
    # Each node reads its left children off the shorter of (lf, a) and
    # (a, q), and its right ones off (q, b), lazily, and the walk stops at
    # the first node of length cap.  A read of (lf, a) at the chain's root
    # alone would take about 40,000 entries, and a read of each expanded
    # node's whole span 377 on the n = 80 host.
    partner = CountedReads(host.partner)
    assert len(_deepest(partner, cap)) == cap
    assert partner.reads <= most


@settings(max_examples=60, deadline=None)
@given(indecomposable_matchings(min_n=7, max_n=16))
def test_pin_tree_and_grow_match_the_reference_on_larger_hosts(m):
    for cap in (3, 4):
        assert build_pin_tree(m, cap) == reference_pin_tree(m, cap)
    for start in m.edges():
        assert grow_right_reaching(m, start) == reference_grow_right_reaching(m, start)
