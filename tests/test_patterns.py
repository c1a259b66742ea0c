import random
import re
import time
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indematch import (
    Edge,
    PatternKind,
    Side,
    Witness,
    WitnessKind,
    all_matchings,
    canonical,
    canonical_edges,
    crossers,
    extract_from_crossed_edge,
    is_indecomposable,
    longest_monotone,
    make_matching,
    max_pattern,
    subpattern,
)
from indematch.errors import (
    DuplicateValue,
    InsufficientCrossers,
    InvariantViolation,
    MatchingError,
    SizeCapExceeded,
    SizeTooSmall,
    UnknownEdge,
)
from indematch.patterns import PATTERN_CAP

from helpers import (
    matchings,
    oracle_increasing_length,
    oracle_max_size,
    reference_crossers,
    reference_extract_from_crossed_edge,
    reference_longest_run,
    reference_max_pattern,
    reference_witness_verify,
    reverse,
)

INT4 = canonical(PatternKind.INTERLEAVING, 4)
RBN4 = canonical(PatternKind.RIGHT_BROKEN_NESTING, 4)


def test_canonical_edge_layouts():
    assert canonical_edges(PatternKind.INTERLEAVING, 4) == (
        Edge(1, 5), Edge(2, 6), Edge(3, 7), Edge(4, 8),
    )
    assert canonical_edges(PatternKind.NESTING, 4) == (
        Edge(1, 8), Edge(2, 7), Edge(3, 6), Edge(4, 5),
    )
    assert canonical_edges(PatternKind.RIGHT_BROKEN_NESTING, 4) == (
        Edge(4, 8), Edge(1, 7), Edge(2, 6), Edge(3, 5),
    )
    assert canonical_edges(PatternKind.LEFT_BROKEN_NESTING, 4) == (
        Edge(1, 5), Edge(2, 8), Edge(3, 7), Edge(4, 6),
    )


def test_canonical_families_coincide_at_two():
    crossing = make_matching([(1, 3), (2, 4)])
    for kind in (
        PatternKind.INTERLEAVING,
        PatternKind.RIGHT_BROKEN_NESTING,
        PatternKind.LEFT_BROKEN_NESTING,
    ):
        assert canonical(kind, 2) == crossing


@pytest.mark.parametrize("k", range(2, 9))
def test_canonical_indecomposability(k):
    assert is_indecomposable(canonical(PatternKind.INTERLEAVING, k))
    assert is_indecomposable(canonical(PatternKind.RIGHT_BROKEN_NESTING, k))
    assert is_indecomposable(canonical(PatternKind.LEFT_BROKEN_NESTING, k))
    assert not is_indecomposable(canonical(PatternKind.NESTING, k))


def test_canonical_size_bounds():
    with pytest.raises(SizeTooSmall):
        canonical(PatternKind.INTERLEAVING, 0)
    with pytest.raises(SizeTooSmall):
        canonical(PatternKind.RIGHT_BROKEN_NESTING, 1)
    assert canonical(PatternKind.NESTING, 1).edges() == (Edge(1, 2),)
    # Refused before any allocation, with the digit-limit stand-in in the text.
    for kind in PatternKind:
        with pytest.raises(SizeCapExceeded, match="pattern size <an integer of more than"):
            canonical(kind, 10**5000)
    with pytest.raises(SizeCapExceeded) as exc:
        canonical_edges(PatternKind.INTERLEAVING, PATTERN_CAP + 1)
    assert exc.value.cap == PATTERN_CAP
    # A size that is not an int, a bool included, is refused before any check.
    for kind in PatternKind:
        for k in (3.0, True, None, "3"):
            with pytest.raises(MatchingError, match="^pattern size .* is not an integer$"):
                canonical(kind, k)


def test_longest_monotone_fixtures():
    incr, decr = longest_monotone((7, 6, 5))
    assert len(incr) == 1 and decr == (0, 1, 2)
    incr, decr = longest_monotone((6, 7, 8))
    assert incr == (0, 1, 2) and len(decr) == 1
    # Earliest run wins ties: both (1,4) and (1,3) have length 2.
    incr, _ = longest_monotone((3, 1, 4, 2))
    assert incr == (0, 2)
    assert longest_monotone(()) == ((), ())
    with pytest.raises(DuplicateValue):
        longest_monotone((1, 2, 1))


def test_longest_monotone_reads_its_values_once_as_ints():
    # An iterator is read once, so the duplicate check does not use it up.
    assert longest_monotone(iter([3, 1, 2])) == longest_monotone([3, 1, 2]) == ((1, 2), (0, 1))
    for values in (None, 5):
        with pytest.raises(MatchingError, match=r"^\S+ is not a sequence of integers$"):
            longest_monotone(values)
    # Every value is an int, and a bool is not one; floats are refused too.
    for values, bad in [
        ([[1], [2]], "[1]"),
        ("abc", "'a'"),
        ([1, "a"], "'a'"),
        ([1.5, 0.5], "1.5"),
        ([True, 2], "True"),
        ([3, 2.0], "2.0"),
    ]:
        with pytest.raises(MatchingError, match=rf"^value {re.escape(bad)} is not an integer$"):
            longest_monotone(values)


@settings(max_examples=200)
@given(st.lists(st.integers(-50, 50), max_size=30, unique=True))
def test_longest_monotone_against_oracle(values):
    incr, decr = longest_monotone(values)
    picked = [values[i] for i in incr]
    assert picked == sorted(picked) and len(set(picked)) == len(picked)
    assert list(incr) == sorted(incr)
    assert len(incr) == oracle_increasing_length(values)
    assert len(decr) == oracle_increasing_length([-v for v in values])


def test_monotone_guarantee_at_erdos_szekeres_scale():
    rng = random.Random(20260821)
    for k in range(2, 7):
        need = (k - 1) ** 2 + 1
        for _ in range(2000):
            values = rng.sample(range(10 * need), need)
            incr, decr = longest_monotone(values)
            assert max(len(incr), len(decr)) >= k


def _reference_monotone(values):
    return (
        reference_longest_run(values, lambda a, b: a < b),
        reference_longest_run(values, lambda a, b: a > b),
    )


def test_longest_monotone_matches_the_reference_on_every_small_permutation():
    for m in range(8):
        for values in permutations(range(m)):
            assert longest_monotone(values) == _reference_monotone(values), values


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300).flatmap(lambda m: st.permutations(range(m))))
def test_longest_monotone_matches_the_reference_on_long_lists(values):
    assert longest_monotone(values) == _reference_monotone(values)


def test_longest_monotone_scales_to_long_inputs():
    values = list(range(20_000))
    random.Random(20261018).shuffle(values)
    start = time.perf_counter()
    incr, decr = longest_monotone(values)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"longest_monotone on 20,000 values took {elapsed:.2f} s"
    assert all(values[i] < values[j] for i, j in zip(incr, incr[1:]))
    assert all(values[i] > values[j] for i, j in zip(decr, decr[1:]))


def test_crossers_match_the_reference_on_every_small_host():
    for n in range(1, 7):
        for m in all_matchings(n):
            for e in m.edges():
                assert crossers(m, e) == reference_crossers(m, e), (m, e)


@settings(max_examples=100, deadline=None)
@given(matchings(min_n=1, max_n=40))
def test_crossers_match_the_reference_on_larger_hosts(m):
    for e in m.edges():
        assert crossers(m, e) == reference_crossers(m, e)


def test_crossers():
    assert crossers(INT4, Edge(1, 5)) == ((), (Edge(2, 6), Edge(3, 7), Edge(4, 8)))
    assert crossers(RBN4, Edge(4, 8)) == ((Edge(1, 7), Edge(2, 6), Edge(3, 5)), ())
    assert crossers(RBN4, Edge(2, 6)) == ((), (Edge(4, 8),))
    with pytest.raises(UnknownEdge):
        crossers(INT4, Edge(1, 6))


def test_witness_construction():
    w = Witness(WitnessKind.INTERLEAVING, INT4, (Edge(1, 5), Edge(2, 6)))
    assert w.size == 2 and w.side is None and w.breaker is None

    bn = Witness(
        WitnessKind.BROKEN_NESTING,
        RBN4,
        (Edge(4, 8), Edge(1, 7), Edge(2, 6), Edge(3, 5)),
        side=Side.RIGHT,
        breaker=Edge(4, 8),
    )
    assert bn.size == 4

    chain = make_matching([(3, 5), (4, 7), (1, 6), (2, 8)])
    pps = Witness(
        WitnessKind.PROPER_PIN_SEQUENCE,
        chain,
        (Edge(3, 5), Edge(4, 7), Edge(1, 6), Edge(2, 8)),
    )
    assert pps.size == 4


def test_witness_holds_edges_however_they_were_given():
    want = Witness(
        WitnessKind.BROKEN_NESTING,
        RBN4,
        (Edge(4, 8), Edge(1, 7), Edge(2, 6), Edge(3, 5)),
        side=Side.RIGHT,
        breaker=Edge(4, 8),
    )
    w = Witness(
        WitnessKind.BROKEN_NESTING,
        RBN4,
        [[8, 4], (1, 7), iter((6, 2)), Edge(3, 5)],
        side=Side.RIGHT,
        breaker=[4, 8],
    )
    assert w == want and hash(w) == hash(want)
    assert type(w.edges) is tuple and all(type(e) is Edge for e in w.edges)
    assert type(w.breaker) is Edge
    with pytest.raises(UnknownEdge):
        Witness(WitnessKind.BROKEN_NESTING, RBN4, want.edges, side=Side.RIGHT, breaker=(4, 7))


def test_witness_rejects_invalid_certificates():
    with pytest.raises(InvariantViolation):
        Witness(WitnessKind.INTERLEAVING, INT4, ())
    with pytest.raises(InvariantViolation):
        Witness(WitnessKind.INTERLEAVING, INT4, (Edge(1, 5), Edge(1, 5)))
    with pytest.raises(UnknownEdge):
        Witness(WitnessKind.INTERLEAVING, INT4, (Edge(1, 6),))
    # Right order but wrong structure: (1,5) and (2,6) nest with nothing.
    with pytest.raises(InvariantViolation):
        Witness(WitnessKind.INTERLEAVING, RBN4, (Edge(1, 7), Edge(3, 5)))
    with pytest.raises(InvariantViolation):
        Witness(WitnessKind.INTERLEAVING, INT4, (Edge(2, 6), Edge(1, 5)))
    with pytest.raises(InvariantViolation):
        Witness(
            WitnessKind.BROKEN_NESTING,
            RBN4,
            (Edge(4, 8), Edge(1, 7), Edge(2, 6), Edge(3, 5)),
            side=Side.RIGHT,
        )
    with pytest.raises(InvariantViolation):
        Witness(
            WitnessKind.BROKEN_NESTING,
            RBN4,
            (Edge(1, 7), Edge(4, 8), Edge(2, 6), Edge(3, 5)),
            side=Side.RIGHT,
            breaker=Edge(4, 8),
        )
    with pytest.raises(InvariantViolation):
        Witness(
            WitnessKind.INTERLEAVING,
            INT4,
            (Edge(1, 5), Edge(2, 6)),
            side=Side.LEFT,
        )
    with pytest.raises(InvariantViolation):
        Witness(
            WitnessKind.PROPER_PIN_SEQUENCE,
            INT4,
            (Edge(1, 5), Edge(4, 8), Edge(2, 6)),
        )
    # The nest runs innermost first: the right edges, in the wrong order.
    with pytest.raises(InvariantViolation, match="nest outermost first"):
        Witness(
            WitnessKind.BROKEN_NESTING,
            RBN4,
            (Edge(4, 8), Edge(3, 5), Edge(2, 6), Edge(1, 7)),
            side=Side.RIGHT,
            breaker=Edge(4, 8),
        )


@pytest.mark.parametrize("kind", [WitnessKind.INTERLEAVING, "nesting", None])
def test_pattern_functions_refuse_what_is_not_a_pattern_kind(kind):
    with pytest.raises(MatchingError, match="is not a PatternKind$"):
        canonical_edges(kind, 3)
    with pytest.raises(MatchingError, match="is not a PatternKind$"):
        max_pattern(INT4, kind)


def test_witness_refuses_a_kind_or_side_of_the_wrong_type():
    for kind in ("interleaving", None):
        with pytest.raises(InvariantViolation, match="is not a WitnessKind$"):
            Witness(kind, INT4, (Edge(1, 5), Edge(2, 6)))
    nest = (Edge(4, 8), Edge(1, 7), Edge(2, 6), Edge(3, 5))
    for side in ("right", 0):
        with pytest.raises(InvariantViolation):
            Witness(WitnessKind.BROKEN_NESTING, RBN4, nest, side=side, breaker=Edge(4, 8))
    Witness(WitnessKind.BROKEN_NESTING, RBN4, nest, side=Side.RIGHT, breaker=Edge(4, 8))


# Each claim a tuple can be checked as, with the pattern max_pattern finds.
CLAIMS = (
    (WitnessKind.INTERLEAVING, None, PatternKind.INTERLEAVING),
    (WitnessKind.BROKEN_NESTING, Side.LEFT, PatternKind.LEFT_BROKEN_NESTING),
    (WitnessKind.BROKEN_NESTING, Side.RIGHT, PatternKind.RIGHT_BROKEN_NESTING),
)


def _accepts(check, kind, host, edges, side) -> bool:
    breaker = edges[0] if side is not None else None
    try:
        check(kind, host, edges, side=side, breaker=breaker)
    except MatchingError:
        return False
    return True


def _nest_outermost_first(kind, edges) -> bool:
    nest = edges[1:] if kind is WitnessKind.BROKEN_NESTING else ()
    return all(a.left < b.left and b.right < a.right for a, b in zip(nest, nest[1:]))


def _agrees_with_reference(host, edges) -> None:
    for kind, side, _ in CLAIMS:
        new = _accepts(Witness, kind, host, edges, side)
        old = _accepts(reference_witness_verify, kind, host, edges, side)
        assert new == (old and _nest_outermost_first(kind, edges)), (
            str(host), edges, kind, side,
        )


def test_witness_matches_the_reference_on_every_small_tuple():
    # Every ordered tuple of 2-4 edges of every matching with n <= 4, as
    # each claim: the rank check accepts exactly what the old subpattern
    # check accepted with the nest outermost first.
    for n in range(2, 5):
        for m in all_matchings(n):
            for size in range(2, n + 1):
                for edges in permutations(m.edges(), size):
                    _agrees_with_reference(m, edges)


@st.composite
def _hosts_with_tuples(draw):
    m = draw(matchings(min_n=2, max_n=10))
    edges = draw(
        st.lists(st.sampled_from(m.edges()), min_size=2, max_size=min(4, m.n), unique=True)
    )
    # Sorting puts an interleaving or a nest in semantic order, so that
    # valid claims come up often.
    order = draw(st.sampled_from(("drawn", "sorted", "breaker first")))
    if order == "sorted":
        edges = sorted(edges)
    elif order == "breaker first":
        edges = edges[:1] + sorted(edges[1:])
    return m, tuple(edges)


@settings(max_examples=300, deadline=None)
@given(_hosts_with_tuples())
def test_witness_matches_the_reference_on_larger_hosts(case):
    _agrees_with_reference(*case)


def test_every_max_pattern_result_builds_a_witness():
    built = 0
    for n in range(1, 7):
        for m in all_matchings(n):
            for kind, side, pattern in CLAIMS:
                size, edges = max_pattern(m, pattern)
                if size:
                    breaker = edges[0] if side is not None else None
                    Witness(kind, m, edges, side=side, breaker=breaker)
                    built += 1
    assert built == 34_000


def test_extract_interleaving():
    w = extract_from_crossed_edge(INT4, Edge(1, 5), 2)
    assert w.kind is WitnessKind.INTERLEAVING
    assert w.edges == (Edge(2, 6), Edge(3, 7))


def test_extract_broken_nesting_keeps_innermost_chain():
    w = extract_from_crossed_edge(RBN4, Edge(4, 8), 3)
    assert w.kind is WitnessKind.BROKEN_NESTING
    assert w.edges == (Edge(4, 8), Edge(2, 6), Edge(3, 5))
    assert w.side is Side.RIGHT and w.breaker == Edge(4, 8)
    assert subpattern(RBN4, tuple(sorted(w.edges))) == canonical(
        PatternKind.RIGHT_BROKEN_NESTING, 3
    )


def test_extract_failures():
    with pytest.raises(SizeTooSmall):
        extract_from_crossed_edge(INT4, Edge(1, 5), 1)
    nest = canonical(PatternKind.NESTING, 3)
    with pytest.raises(InsufficientCrossers, match="0 crossers"):
        extract_from_crossed_edge(nest, Edge(2, 5), 2)


def _extract_outcome(extract, m, e, k):
    """The Witness extracted, or the type and text of the error raised."""
    try:
        return extract(m, e, k)
    except MatchingError as exc:
        return type(exc), str(exc)


def test_extract_matches_the_reference_on_every_small_edge():
    for n in range(1, 7):
        for m in all_matchings(n):
            for e in m.edges():
                for k in range(2, 6):
                    assert _extract_outcome(extract_from_crossed_edge, m, e, k) == (
                        _extract_outcome(reference_extract_from_crossed_edge, m, e, k)
                    ), (str(m), e, k)


def test_extract_guarantee_with_enough_crossers():
    # 5 one-in-one-out crossers of e = (6, 12) on one side force a size-3
    # structure ((k-1)^2 + 1 with k = 3).
    edges = [(6, 12)]
    lefts = [1, 2, 3, 4, 5]
    rights = [7, 8, 9, 10, 11]
    random.Random(5).shuffle(rights)
    edges += list(zip(lefts, rights))
    m = make_matching(edges)
    w = extract_from_crossed_edge(m, Edge(6, 12), 3)
    assert w.size >= 3


def test_max_pattern_on_canonical_hosts():
    assert max_pattern(INT4, PatternKind.INTERLEAVING) == (4, INT4.edges())
    assert max_pattern(INT4, PatternKind.NESTING) == (1, (Edge(1, 5),))
    assert max_pattern(RBN4, PatternKind.RIGHT_BROKEN_NESTING) == (
        4,
        (Edge(4, 8), Edge(1, 7), Edge(2, 6), Edge(3, 5)),
    )
    assert max_pattern(RBN4, PatternKind.NESTING) == (
        3,
        (Edge(1, 7), Edge(2, 6), Edge(3, 5)),
    )
    assert max_pattern(RBN4, PatternKind.INTERLEAVING)[0] == 2
    assert max_pattern(RBN4, PatternKind.LEFT_BROKEN_NESTING)[0] == 2


def test_max_pattern_degenerate_hosts():
    empty = make_matching([])
    single = make_matching([(1, 2)])
    for kind in PatternKind:
        assert max_pattern(empty, kind) == (0, ())
    assert max_pattern(single, PatternKind.INTERLEAVING) == (1, (Edge(1, 2),))
    assert max_pattern(single, PatternKind.NESTING) == (1, (Edge(1, 2),))
    assert max_pattern(single, PatternKind.RIGHT_BROKEN_NESTING) == (0, ())
    assert max_pattern(single, PatternKind.LEFT_BROKEN_NESTING) == (0, ())


def test_max_pattern_matches_oracle_exhaustively():
    from indematch import all_matchings

    for n in range(5):
        for m in all_matchings(n):
            for kind in PatternKind:
                size, edges = max_pattern(m, kind)
                assert size == oracle_max_size(m, kind), (str(m), kind)
                if size:
                    assert subpattern(m, tuple(sorted(edges))) == canonical(kind, size)


def test_max_pattern_is_the_reference_exhaustively():
    # The oracle tests check sizes and that the edges induce the pattern;
    # this pins which edges win a tie: every host with n <= 5 and every
    # indecomposable host with n = 6.
    hosts = [m for n in range(6) for m in all_matchings(n)]
    hosts += [m for m in all_matchings(6) if is_indecomposable(m)]
    for m in hosts:
        for kind in PatternKind:
            assert max_pattern(m, kind) == reference_max_pattern(m, kind), (str(m), kind)


@settings(max_examples=100)
@given(matchings(min_n=7, max_n=40))
def test_max_pattern_is_the_reference_on_large_hosts(m):
    for kind in PatternKind:
        assert max_pattern(m, kind) == reference_max_pattern(m, kind), kind


@settings(max_examples=100)
@given(matchings(min_n=1, max_n=6))
def test_max_pattern_witness_induces_canonical(m):
    for kind in PatternKind:
        size, edges = max_pattern(m, kind)
        if size:
            assert subpattern(m, tuple(sorted(edges))) == canonical(kind, size)
        else:
            assert edges == ()


@settings(max_examples=100)
@given(matchings(max_n=6))
def test_max_pattern_reversal_duality(m):
    r = reverse(m)
    assert (
        max_pattern(m, PatternKind.RIGHT_BROKEN_NESTING)[0]
        == max_pattern(r, PatternKind.LEFT_BROKEN_NESTING)[0]
    )
    assert (
        max_pattern(m, PatternKind.INTERLEAVING)[0]
        == max_pattern(r, PatternKind.INTERLEAVING)[0]
    )
    assert (
        max_pattern(m, PatternKind.NESTING)[0]
        == max_pattern(r, PatternKind.NESTING)[0]
    )
