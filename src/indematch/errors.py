"""Domain exception types.

Everything raised on purpose by this package derives from MatchingError, so
callers (and the CLI) can catch one class and report a one-line diagnostic.
"""

from __future__ import annotations


class MatchingError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoop(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex} is paired with itself")
        self.vertex = vertex


class DuplicateVertex(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex} is used by more than one edge")
        self.vertex = vertex


class VertexOutOfRange(MatchingError):
    def __init__(self, vertex: int, size: int) -> None:
        super().__init__(f"vertex {vertex} lies outside [1, {size}]")
        self.vertex = vertex
        self.size = size


class GapInVertexSet(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex} is missing from the vertex set")
        self.vertex = vertex


class SharedVertex(MatchingError):
    def __init__(self, vertex: int) -> None:
        super().__init__(f"edges share vertex {vertex}")
        self.vertex = vertex


class UnknownEdge(MatchingError):
    def __init__(self, edge) -> None:
        super().__init__(f"edge {edge} is not an edge of the matching")
        self.edge = edge


class EmptySegment(MatchingError):
    def __init__(self) -> None:
        super().__init__("operation is undefined on the empty segment")


class DuplicatePin(MatchingError):
    def __init__(self, edge) -> None:
        super().__init__(f"pin {edge} occurs more than once in the sequence")
        self.edge = edge


class NotIndecomposable(MatchingError):
    def __init__(self, message: str = "the matching is decomposable") -> None:
        super().__init__(message)


class NotRightReaching(MatchingError):
    def __init__(self, message: str = "the pin sequence does not reach the greatest vertex") -> None:
        super().__init__(message)


class SizeTooSmall(MatchingError):
    def __init__(self, value: int, minimum: int, what: str = "size") -> None:
        super().__init__(f"{what} {value} is below the minimum {minimum}")
        self.value = value
        self.minimum = minimum


class DuplicateValue(MatchingError):
    def __init__(self, value) -> None:
        super().__init__(f"value {value} occurs more than once")
        self.value = value


class InsufficientCrossers(MatchingError):
    def __init__(self, message: str) -> None:
        super().__init__(message)


class SizeCapExceeded(MatchingError):
    def __init__(self, n: int, cap: int, message: str | None = None) -> None:
        super().__init__(
            message
            or f"n={n} exceeds the soft cap of {cap}; pass allow_large=True to override"
        )
        self.n = n
        self.cap = cap


class EmptyMatching(MatchingError):
    def __init__(self, message: str = "operation requires a nonempty matching") -> None:
        super().__init__(message)


class ParseError(MatchingError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


class InvariantViolation(MatchingError):
    """An internal postcondition failed; indicates a bug or a bad certificate."""
