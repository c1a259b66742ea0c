import math

import pytest
from hypothesis import given, settings

from indematch import (
    Edge,
    PatternKind,
    Side,
    WitnessKind,
    all_matchings,
    bounds,
    build_pin_tree,
    canonical,
    crossers,
    make_matching,
    verify_theorem,
    witness,
)
from indematch.errors import NotIndecomposable, SizeCapExceeded, SizeTooSmall

from indematch.ramsey import K_CAP, _crossing_count

from helpers import indecomposable_matchings, reference_witness

INT4 = canonical(PatternKind.INTERLEAVING, 4)


def test_bounds_small_values():
    b2 = bounds(2)
    assert (b2.stated, b2.crossing_threshold, b2.tree_bound) == (256, 4, 4)
    b3 = bounds(3)
    assert (b3.stated, b3.crossing_threshold, b3.tree_bound) == (46656, 10, 91)
    with pytest.raises(SizeTooSmall):
        bounds(1)


def test_bounds_closed_forms():
    for k in range(2, 11):
        b = bounds(k)
        ratio = 2 * (k - 1) ** 2 + 1
        assert b.stated == (2 * k) ** (2 * k)
        assert b.crossing_threshold == ratio + 1
        assert b.tree_bound * (ratio - 1) == ratio**k - 1


def test_bounds_refuse_k_past_the_cap():
    # Stated bound as a decimal string at the cap fits the int-to-str limit;
    # one past it would not.
    assert len(str(bounds(K_CAP).stated)) <= 4300
    assert 2 * (K_CAP + 1) * math.log10(2 * (K_CAP + 1)) >= 4300
    with pytest.raises(SizeCapExceeded, match=f"k={K_CAP + 1} exceeds the cap"):
        bounds(K_CAP + 1)


def test_crossing_count_matches_crossers_on_every_small_matching():
    for n in range(7):
        for m in all_matchings(n):
            for e in m.edges():
                left, right = crossers(m, e)
                assert _crossing_count(m.partner, e.left, e.right) == len(left) + len(right)


def test_witness_pin_sequence_path():
    report = witness(INT4, 2)
    assert report.found and report.outcome == "found"
    assert report.witness.kind is WitnessKind.PROPER_PIN_SEQUENCE
    assert report.witness.edges == (Edge(1, 5), Edge(4, 8))
    assert report.partial is None


def test_witness_heavy_edge_interleaving_path():
    m = make_matching([(5, 11), (1, 6), (2, 7), (3, 8), (4, 9), (10, 12)])
    # (1,6) is the first edge with >= 4 crossers; its right crossers have
    # increasing right endpoints.
    assert sum(map(len, crossers(m, Edge(1, 6)))) >= 4
    report = witness(m, 2)
    assert report.found
    assert report.witness.kind is WitnessKind.INTERLEAVING
    assert report.witness.edges == (Edge(2, 7), Edge(3, 8))


def test_witness_heavy_edge_broken_nesting_path():
    m = make_matching([(5, 11), (1, 10), (2, 9), (3, 8), (4, 7), (6, 12)])
    report = witness(m, 2)
    assert report.found
    assert report.witness.kind is WitnessKind.BROKEN_NESTING
    assert report.witness.edges == (Edge(5, 11), Edge(4, 7))
    assert report.witness.breaker == Edge(5, 11)
    assert report.witness.side is Side.RIGHT


def test_witness_below_threshold():
    crossing = make_matching([(1, 3), (2, 4)])
    report = witness(crossing, 3)
    assert not report.found and report.outcome == "below_threshold"
    assert report.witness is None
    assert report.edge_count == 2 < report.bounds.tree_bound == 91
    assert report.partial is not None
    assert report.partial.edges == (Edge(1, 3), Edge(2, 4))


def test_witness_below_threshold_on_wide_nest():
    # The breaker has 5 crossers (< 10) and the nest edges 1 each; nest
    # edges never split one another's shadows, so the pin tree stops at
    # length 2 and the size-6 host sits far under the bound 91.
    rbn6 = canonical(PatternKind.RIGHT_BROKEN_NESTING, 6)
    report = witness(rbn6, 3)
    assert not report.found
    assert report.edge_count == 6
    assert report.partial.edges == (Edge(1, 11), Edge(6, 12))


def test_witness_rejects_bad_input():
    with pytest.raises(NotIndecomposable):
        witness(make_matching([(1, 2), (3, 4)]), 2)
    with pytest.raises(SizeTooSmall):
        witness(INT4, 1)


@settings(max_examples=120)
@given(indecomposable_matchings(min_n=1, max_n=6))
def test_witness_report_consistency(m):
    for k in (2, 3):
        report = witness(m, k)
        b = report.bounds
        assert report.edge_count == m.n
        if report.found:
            assert report.witness.size == k
            assert report.partial is None
        else:
            assert m.n < b.tree_bound
            for e in m.edges():
                left, right = crossers(m, e)
                assert len(left) + len(right) < b.crossing_threshold
            tree = build_pin_tree(m, k)
            assert tree.max_length <= k - 1
            assert report.partial is not None
            assert report.partial.size == tree.max_length


@settings(max_examples=120, deadline=None)
@given(indecomposable_matchings(min_n=1, max_n=14))
def test_witness_matches_the_reference(m):
    for k in (2, 3, 4):
        assert witness(m, k) == reference_witness(m, k)


@settings(max_examples=120)
@given(indecomposable_matchings(min_n=1, max_n=6))
def test_witness_found_is_monotone_downward(m):
    for k in (4, 3):
        if witness(m, k).found:
            assert witness(m, k - 1).found


def test_verify_theorem_small_run():
    report = verify_theorem(4, 2)
    assert report.ok
    assert report.checked == 1 + 1 + 4 + 27
    assert report.found == 32
    assert report.found_pin_sequence == 32
    assert report.found_interleaving == 0
    assert report.found_broken_nesting == 0
    assert report.below_threshold == 1


def test_verify_theorem_parallel_agrees():
    assert verify_theorem(4, 2, jobs=2) == verify_theorem(4, 2)


def test_verify_theorem_input_validation():
    with pytest.raises(SizeTooSmall):
        verify_theorem(0, 2)
    with pytest.raises(SizeCapExceeded):
        verify_theorem(9, 2)
    with pytest.raises(SizeTooSmall):
        verify_theorem(4, 1)
