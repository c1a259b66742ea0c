"""Domain exception types.

Everything raised on purpose by this package derives from MatchingError, so
callers (and the CLI) can catch one class and report a one-line diagnostic.
"""

from __future__ import annotations

import sys
from typing import Callable


def _show(value: object, show: Callable[[object], str] = str) -> str:
    """show(value) for a message, or a stand-in when value holds an int past
    the int-to-str digit limit, so that building the message cannot raise."""
    try:
        return show(value)
    except ValueError:
        held = "" if isinstance(value, int) else "holding "
        return f"<{held}an integer of more than {sys.get_int_max_str_digits()} digits>"


class MatchingError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoop(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {_show(vertex)} is paired with itself")
        self.vertex = vertex


class DuplicateVertex(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {_show(vertex)} is used by more than one edge")
        self.vertex = vertex


class VertexOutOfRange(MatchingError):
    def __init__(self, vertex: int, size: int) -> None:
        super().__init__(f"vertex {_show(vertex)} lies outside [1, {size}]")
        self.vertex = vertex
        self.size = size


class GapInVertexSet(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex} is missing from the vertex set")
        self.vertex = vertex


class UnknownEdge(MatchingError):
    def __init__(self, edge) -> None:
        super().__init__(f"edge {_show(edge)} is not an edge of the matching")
        self.edge = edge


class DuplicatePin(MatchingError):
    def __init__(self, edge) -> None:
        super().__init__(f"pin {_show(edge)} occurs more than once in the sequence")
        self.edge = edge


class NotIndecomposable(MatchingError):
    def __init__(self, message: str = "the matching is decomposable") -> None:
        super().__init__(message)


class NotRightReaching(MatchingError):
    def __init__(self, message: str = "the pin sequence does not reach the greatest vertex") -> None:
        super().__init__(message)


class SizeTooSmall(MatchingError, ValueError):
    def __init__(self, value: int, minimum: int, what: str = "size") -> None:
        super().__init__(f"{what} {_show(value)} is below the minimum {_show(minimum)}")
        self.value = value
        self.minimum = minimum


class SizeCapExceeded(MatchingError):
    def __init__(self, n: int, cap: int, what: str = "size", why: str = "") -> None:
        super().__init__(f"{what} {_show(n)} exceeds the cap {_show(cap)}{why}")
        self.n = n
        self.cap = cap


def _is_int(value: object) -> bool:
    """The one int test: an int, and not a bool (JSON true decodes to one)."""
    return isinstance(value, int) and type(value) is not bool


def _at_least(value: object, minimum: int, what: str, cap: int | None = None, why: str = "") -> None:
    """The one check of a size argument: a MatchingError unless value is an
    int (a bool is not one), SizeTooSmall when it is below minimum, and
    SizeCapExceeded, its message ending in why, when it is past cap."""
    if not _is_int(value):
        raise MatchingError(f"{what} {_show(value, repr)} is not an integer")
    if value < minimum:
        raise SizeTooSmall(value, minimum, what)
    if cap is not None and value > cap:
        raise SizeCapExceeded(value, cap, what, why)


class DuplicateValue(MatchingError):
    def __init__(self, value) -> None:
        super().__init__(f"value {_show(value)} occurs more than once")
        self.value = value


class InsufficientCrossers(MatchingError):
    """The crossers of an edge hold no run long enough for the target size."""


class EmptyMatching(MatchingError):
    def __init__(self, message: str = "operation requires a nonempty matching") -> None:
        super().__init__(message)


class ParseError(MatchingError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class InvariantViolation(MatchingError):
    """An internal postcondition failed; indicates a bug or a bad certificate."""
