"""Witness search: every big indecomposable matching contains a big
structure, and this module finds one or proves the matching is small.

The search mirrors the two-case argument behind that fact.  Either some
edge is crossed by at least 2(k-1)^2 + 2 edges, and a monotone run among
the crossers on its heavier side yields an interleaving or broken nesting
of size k; or no edge is, and then the tree of proper right-reaching pin
sequences either contains a length-k sequence or is so shallow and thin
that the matching has fewer than sum((2(k-1)^2 + 1)**i, i < k) edges.
Every outcome is certified: found witnesses self-verify (verify_theorem
checks found pins with their pin check and builds none), and the
below-threshold outcome machine-checks the edge count against the bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Edge, Matching, _crossers, is_indecomposable
from .enumeration import _host_shards, _hosts, _run_shards
from .errors import (
    InvariantViolation,
    MatchingError,
    NotIndecomposable,
    _at_least,
)
from .patterns import Witness, WitnessKind, _check_pins, extract_from_crossed_edge
from .pins import _deepest

# verify_theorem streams every matching, which stops being desk scale
# shortly after this.
EXHAUSTIVE_CAP = 8
# The largest k whose stated bound (2k)^(2k) has at most 4300 decimal
# digits, Python's default limit for int-to-str conversion.  A larger k
# is refused before any big-int arithmetic.
K_CAP = 685


@dataclass(frozen=True)
class Bounds:
    """The exact integer bounds governing witness search at size k."""

    k: int
    stated: int
    crossing_threshold: int
    tree_bound: int


def bounds(k: int) -> Bounds:
    """stated = (2k)^(2k); crossing_threshold = 2(k-1)^2 + 2; tree_bound =
    the geometric sum of per-level pin-tree sizes.  Exact arithmetic; the
    stated bound overflows 64 bits already at k = 5."""
    _at_least(k, 2, "k", K_CAP, ": (2k)^(2k) would pass 4300 digits")
    ratio = 2 * (k - 1) ** 2 + 1
    return Bounds(
        k=k,
        stated=(2 * k) ** (2 * k),
        crossing_threshold=ratio + 1,
        tree_bound=sum(ratio**i for i in range(k)),
    )


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a witness search: a verified witness, or proof the host
    was too small for the search to be conclusive (edge_count below
    bounds.tree_bound), with the longest proper right-reaching pin sequence
    found as a partial witness."""

    bounds: Bounds
    edge_count: int
    witness: Witness | None
    partial: Witness | None

    @property
    def outcome(self) -> str:
        return "found" if self.witness is not None else "below_threshold"

    @property
    def found(self) -> bool:
        return self.witness is not None


def witness(matching: Matching, k: int) -> WitnessReport:
    """Search an indecomposable matching for a size-k interleaving, broken
    nesting or proper pin sequence, after one indecomposability pass over it."""
    b = bounds(k)
    if not is_indecomposable(matching):
        raise NotIndecomposable()
    heavy, deepest = _search(matching.partner, b)
    if heavy is not None:
        found, partial = extract_from_crossed_edge(matching, Edge._make(heavy), k), None
    else:
        pins = tuple(map(Edge._make, deepest))
        pinned = Witness(WitnessKind.PROPER_PIN_SEQUENCE, matching, pins) if pins else None
        found, partial = (pinned, None) if len(pins) == k else (None, pinned)
    return WitnessReport(b, matching.n, found, partial)


def _search(partner: tuple[int, ...], b: Bounds) -> tuple[tuple[int, int] | None, tuple]:
    """The witness search on a trusted indecomposable host's partner table,
    on int pairs: (heavy edge, ()) or (None, pins._deepest's node at cap k,
    unchecked).

    Heavy-edge case first: the first edge (by endpoints) with at least
    crossing_threshold crossers, read by core._crossers.  Otherwise the pin
    tree capped at depth k decides.  Failing both, the counting bound must
    hold.
    """
    n = len(partner) // 2
    # An edge has at most n - 1 crossers, so a small host has no heavy edge.
    if n > b.crossing_threshold:
        for left, right in enumerate(partner, start=1):
            # An edge spanning fewer inner vertices than the threshold cannot
            # have enough crossers; this also skips each edge's right endpoint.
            if right - left > b.crossing_threshold and (
                sum(map(len, _crossers(partner, left, right))) >= b.crossing_threshold
            ):
                return (left, right), ()
    deepest = _deepest(partner, b.k)
    if len(deepest) < b.k and n >= b.tree_bound:
        raise InvariantViolation(
            f"{n} edges with no witness at k={b.k} contradicts "
            f"the tree bound {b.tree_bound}"
        )
    return None, deepest


@dataclass(frozen=True)
class TheoremReport:
    """Tallies from an exhaustive witness-consistency run."""

    n_max: int
    k: int
    checked: int
    found_interleaving: int
    found_broken_nesting: int
    found_pin_sequence: int
    below_threshold: int
    failures: tuple[str, ...]

    @property
    def found(self) -> int:
        return (
            self.found_interleaving
            + self.found_broken_nesting
            + self.found_pin_sequence
        )

    @property
    def ok(self) -> bool:
        return not self.failures


def _verify_shard(args: tuple[int, int, int]) -> tuple[Counter[str], list[str]]:
    """Tally _search over one shard's partner tables.  A heavy edge is
    certified by extract_from_crossed_edge's Witness on the host's Matching,
    pins by patterns._check_pins with no Witness or Matching built; a
    MatchingError becomes a failures entry naming the host."""
    n, first_partner, k = args
    b = bounds(k)
    found_pins = WitnessKind.PROPER_PIN_SEQUENCE.value
    tally: Counter[str] = Counter()
    failures: list[str] = []
    for partner in _hosts(n, first_partner):
        tally["checked"] += 1
        try:
            # The stream decided indecomposability.
            heavy, pins = _search(partner, b)
            if heavy is not None:
                kind = extract_from_crossed_edge(Matching(partner), Edge._make(heavy), k).kind.value
            else:
                if pins:
                    _check_pins(partner, pins)
                kind = found_pins if len(pins) == k else "below_threshold"
        except MatchingError as exc:
            failures.append(f"{Matching(partner)}: witness raised {exc!r}")
            continue
        tally[kind] += 1
    return tally, failures


def verify_theorem(n_max: int, k: int, *, jobs: int = 1) -> TheoremReport:
    """Run witness over every indecomposable matching with n <= n_max and
    check each outcome's internal consistency.  Inconsistencies become
    report entries, never exceptions."""
    _at_least(n_max, 1, "n_max", EXHAUSTIVE_CAP, "; exhaustive verification has no override")
    bounds(k)
    total: Counter[str] = Counter()
    failures: list[str] = []
    for tally, shard_failures in _run_shards(_verify_shard, _host_shards(n_max, k), jobs):
        total += tally
        failures.extend(shard_failures)
    return TheoremReport(
        n_max=n_max,
        k=k,
        checked=total["checked"],
        found_interleaving=total[WitnessKind.INTERLEAVING.value],
        found_broken_nesting=total[WitnessKind.BROKEN_NESTING.value],
        found_pin_sequence=total[WitnessKind.PROPER_PIN_SEQUENCE.value],
        below_threshold=total["below_threshold"],
        failures=tuple(failures),
    )
