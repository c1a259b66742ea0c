"""Every domain error derives from MatchingError and renders a one-line
diagnostic; the CLI leans on both."""

import sys

import pytest

from indematch import errors
from indematch.core import Edge, as_edge, make_matching

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

    e = errors.SizeCapExceeded(12, 9)
    assert "n=12 exceeds the soft cap of 9" in str(e)
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
