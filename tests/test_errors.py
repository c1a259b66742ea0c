"""Every domain error derives from MatchingError and renders a one-line
diagnostic; the CLI leans on both."""

import sys
import time

import pytest

from indematch import (
    PatternKind,
    Witness,
    WitnessKind,
    all_matchings,
    bounds,
    build_pin_tree,
    canonical,
    canonical_edges,
    census,
    check_census,
    classify_sequence,
    crossers,
    errors,
    extract_from_crossed_edge,
    find_intervals,
    grow_right_reaching,
    is_indecomposable,
    max_pattern,
    properize,
    recurrence_counts,
    scan_avoiders,
    subpattern,
    verify_theorem,
    witness,
)
from indematch.cli import format_matching, parse_matching, render_svg
from indematch.core import Edge, as_edge, make_matching
from indematch.enumeration import RECURRENCE_CAP, SOFT_CAP
from indematch.patterns import PATTERN_CAP
from indematch.ramsey import EXHAUSTIVE_CAP, K_CAP

from helpers import EmptySegment


ALL_ERRORS = [
    obj
    for obj in vars(errors).values()
    if isinstance(obj, type)
    and issubclass(obj, errors.MatchingError)
    and obj is not errors.MatchingError
]


def test_every_error_is_a_matching_error():
    assert len(ALL_ERRORS) == 15
    for cls in ALL_ERRORS:
        assert issubclass(cls, errors.MatchingError)


def test_messages_and_attributes():
    e = errors.VertexOutOfRange(9, 8)
    assert str(e) == "vertex 9 lies outside [1, 8]"
    assert (e.vertex, e.size) == (9, 8)

    e = errors.UnknownEdge(Edge(3, 6))
    assert str(e) == "edge 3-6 is not an edge of the matching"

    e = errors.SizeTooSmall(1, 2, "k")
    assert str(e) == "k 1 is below the minimum 2"

    e = errors.SizeCapExceeded(12, 9, "n")
    assert str(e) == "n 12 exceeds the cap 9"
    assert (e.n, e.cap) == (12, 9)

    e = errors.ParseError("expected a-b, got '3'", 5)
    assert str(e) == "parse error at position 5: expected a-b, got '3'"
    assert e.position == 5


def test_defaults_read_well():
    assert str(errors.NotIndecomposable()) == "the matching is decomposable"
    assert "greatest vertex" in str(errors.NotRightReaching())
    assert "empty segment" in str(EmptySegment())


def test_one_except_clause_suffices():
    for cls in (errors.SelfLoop, errors.DuplicateVertex, errors.GapInVertexSet):
        with pytest.raises(errors.MatchingError):
            raise cls(3)


def test_messages_name_integers_past_the_digit_limit():
    # str() refuses such an int, so a message built with it would raise a
    # bare ValueError in place of the MatchingError.
    huge = 10**5000
    stand_in = f"<an integer of more than {sys.get_int_max_str_digits()} digits>"
    with pytest.raises(errors.VertexOutOfRange) as raised:
        make_matching([(1, huge)])
    assert str(raised.value) == f"vertex {stand_in} lies outside [1, 2]"
    with pytest.raises(errors.SelfLoop) as raised:
        as_edge((huge, huge))
    assert str(raised.value) == f"vertex {stand_in} is paired with itself"
    with pytest.raises(errors.InsufficientCrossers) as raised:
        extract_from_crossed_edge(CHAIN, (1, 6), huge)
    assert str(raised.value).endswith(f"cannot reach size {stand_in}")


# One argument boundary: every edge argument is read by core._host_edges and
# every size argument by errors._at_least, so each public function refuses a
# bad one with a MatchingError and takes a pair in either order.
CHAIN = make_matching([(3, 5), (4, 7), (1, 6), (2, 8)])
PPS = WitnessKind.PROPER_PIN_SEQUENCE
# Each edge-taking function, with the one edge e in the edge argument.
EDGE_TAKERS = {
    "subpattern": lambda e: subpattern(CHAIN, (e,)),
    "classify_sequence": lambda e: classify_sequence(CHAIN, (e,)),
    "grow_right_reaching": lambda e: grow_right_reaching(CHAIN, e),
    "properize": lambda e: properize(CHAIN, (e, Edge(2, 8))),
    "crossers": lambda e: crossers(CHAIN, e),
    "extract_from_crossed_edge": lambda e: extract_from_crossed_edge(CHAIN, e, 2),
    "Witness": lambda e: Witness(PPS, CHAIN, (e,)),
    "render_svg": lambda e: render_svg(CHAIN, (e,)),
}
# The ones taking a sequence of edges, with the sequence s in its place.
SEQUENCE_TAKERS = {
    "make_matching": make_matching,
    "subpattern": lambda s: subpattern(CHAIN, s),
    "classify_sequence": lambda s: classify_sequence(CHAIN, s),
    "properize": lambda s: properize(CHAIN, s),
    "Witness": lambda s: Witness(PPS, CHAIN, s),
    "render_svg": lambda s: render_svg(CHAIN, s),
}
# Each size-taking function, with v in the size argument.
SIZE_TAKERS = {
    "bounds": bounds,
    "witness": lambda v: witness(CHAIN, v),
    "canonical": lambda v: canonical(PatternKind.INTERLEAVING, v),
    "extract_from_crossed_edge k": lambda v: extract_from_crossed_edge(CHAIN, (1, 6), v),
    "build_pin_tree": lambda v: build_pin_tree(CHAIN, v),
    "census": census,
    "check_census": check_census,
    "all_matchings": all_matchings,
    "scan_avoiders n_max": lambda v: scan_avoiders(v, 3),
    "scan_avoiders k": lambda v: scan_avoiders(3, v),
    "verify_theorem n_max": lambda v: verify_theorem(v, 3),
    "verify_theorem k": lambda v: verify_theorem(3, v),
    "recurrence_counts": recurrence_counts,
    "census jobs": lambda v: census(3, jobs=v),
    "check_census jobs": lambda v: check_census(3, jobs=v),
    "scan_avoiders jobs": lambda v: scan_avoiders(3, 3, jobs=v),
    "verify_theorem jobs": lambda v: verify_theorem(3, 3, jobs=v),
}


@pytest.mark.parametrize("name", EDGE_TAKERS)
def test_every_edge_argument_refuses_what_is_not_an_int_pair(name):
    for bad in (None, 5, (1,), Edge(3.0, 5), Edge(True, 6)):
        with pytest.raises(errors.MatchingError):
            EDGE_TAKERS[name](bad)


@pytest.mark.parametrize("name", EDGE_TAKERS)
def test_every_edge_argument_takes_a_pair_in_either_order(name):
    want = EDGE_TAKERS[name](Edge(1, 6))
    for pair in ((6, 1), [1, 6], iter((6, 1))):
        assert EDGE_TAKERS[name](pair) == want, pair


@pytest.mark.parametrize("name", SEQUENCE_TAKERS)
def test_every_edge_sequence_must_be_iterable(name):
    # render_svg reads None as no highlight.
    for bad in (5, 2.5) if name == "render_svg" else (None, 5, 2.5):
        with pytest.raises(errors.MatchingError, match="is not a sequence of edges$"):
            SEQUENCE_TAKERS[name](bad)


def test_parse_matching_refuses_what_is_not_text():
    for bad in (None, 5, b"1-2"):
        with pytest.raises(errors.MatchingError, match="is not a string$"):
            parse_matching(bad)


@pytest.mark.parametrize("name", SIZE_TAKERS)
def test_every_size_argument_must_be_an_int(name):
    for bad in (3.0, True, None, "3"):
        with pytest.raises(errors.MatchingError, match="is not an integer$"):
            SIZE_TAKERS[name](bad)


# Every cap on a size argument is read by errors._at_least too: one past it
# is refused before any work, in one message form.
LIFT = "; pass allow_large=True (--allow-large) to override"
DIGITS = ": (2k)^(2k) would pass 4300 digits"
NO_LIFT = "; the recurrence has no override"
# Each capped size argument: the call with v in it, the cap, the size's
# name and the end of the message.
CAP_TAKERS = {
    "all_matchings": (all_matchings, SOFT_CAP, "n", LIFT),
    "census": (census, SOFT_CAP, "n", LIFT),
    "check_census": (check_census, SOFT_CAP, "n", LIFT),
    "scan_avoiders": (lambda v: scan_avoiders(v, 3), SOFT_CAP, "n_max", LIFT),
    # census reads the recurrence at n, so even allow_large stops at its cap.
    "recurrence_counts": (recurrence_counts, RECURRENCE_CAP, "n_max", NO_LIFT),
    "census allow_large": (lambda v: census(v, allow_large=True), RECURRENCE_CAP, "n", NO_LIFT),
    "check_census allow_large": (
        lambda v: check_census(v, allow_large=True),
        RECURRENCE_CAP,
        "n",
        NO_LIFT,
    ),
    "verify_theorem": (
        lambda v: verify_theorem(v, 3),
        EXHAUSTIVE_CAP,
        "n_max",
        "; exhaustive verification has no override",
    ),
    "bounds": (bounds, K_CAP, "k", DIGITS),
    "witness": (lambda v: witness(CHAIN, v), K_CAP, "k", DIGITS),
    "canonical_edges": (
        lambda v: canonical_edges(PatternKind.INTERLEAVING, v),
        PATTERN_CAP,
        "pattern size",
        "",
    ),
}


@pytest.mark.parametrize("name", CAP_TAKERS)
def test_every_cap_refuses_one_past_it_at_once(name):
    call, cap, what, why = CAP_TAKERS[name]
    start = time.perf_counter()
    with pytest.raises(errors.SizeCapExceeded) as raised:
        call(cap + 1)
    assert time.perf_counter() - start < 1.0
    assert str(raised.value) == f"{what} {cap + 1} exceeds the cap {cap}{why}"
    assert (raised.value.n, raised.value.cap) == (cap + 1, cap)


# Each function taking a matching, with m in its place.
MATCHING_TAKERS = {
    "is_indecomposable": is_indecomposable,
    "find_intervals": find_intervals,
    "witness": lambda m: witness(m, 2),
    "build_pin_tree": lambda m: build_pin_tree(m, 2),
    "subpattern": lambda m: subpattern(m, [(1, 3)]),
    "classify_sequence": lambda m: classify_sequence(m, [(1, 3)]),
    "grow_right_reaching": lambda m: grow_right_reaching(m, (1, 3)),
    "properize": lambda m: properize(m, [(1, 3), (2, 4)]),
    "crossers": lambda m: crossers(m, (1, 3)),
    "extract_from_crossed_edge": lambda m: extract_from_crossed_edge(m, (1, 3), 2),
    "Witness": lambda m: Witness(PPS, m, [(1, 3)]),
    "max_pattern": lambda m: max_pattern(m, PatternKind.INTERLEAVING),
    "format_matching": format_matching,
    "render_svg": render_svg,
}


@pytest.mark.parametrize("name", MATCHING_TAKERS)
def test_every_matching_argument_must_be_a_matching(name):
    for bad in ([(1, 3), (2, 4)], (2, 1, 4, 3), None):
        with pytest.raises(errors.MatchingError, match="is not a Matching$"):
            MATCHING_TAKERS[name](bad)
