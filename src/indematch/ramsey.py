"""Witness search: every big indecomposable matching contains a big
structure, and this module finds one or proves the matching is small.

The search mirrors the two-case argument behind that fact.  Either some
edge is crossed by at least 2(k-1)^2 + 2 edges, and a monotone run among
the crossers on its heavier side yields an interleaving or broken nesting
of size k; or no edge is, and then the tree of proper right-reaching pin
sequences either contains a length-k sequence or is so shallow and thin
that the matching has fewer than sum((2(k-1)^2 + 1)**i, i < k) edges.
Every outcome is certified: found witnesses self-verify, and the
below-threshold outcome machine-checks the edge count against the bound.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import Edge, Matching, _is_indecomposable_partner, is_indecomposable
from .enumeration import _host_shards, _iter_partner_tuples_shard, _run_shards
from .errors import (
    InvariantViolation,
    MatchingError,
    NotIndecomposable,
    SizeCapExceeded,
    SizeTooSmall,
)
from .patterns import Witness, WitnessKind, extract_from_crossed_edge
from .pins import build_pin_tree

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
    if k < 2:
        raise SizeTooSmall(k, 2, "k")
    if k > K_CAP:
        raise SizeCapExceeded(
            k, K_CAP, f"k={k} exceeds the cap of {K_CAP}: (2k)^(2k) would pass 4300 digits"
        )
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


def _crossing_count(partner: tuple[int, ...], left: int, right: int) -> int:
    """Number of edges crossing left-right: each has exactly one endpoint
    strictly between left and right, so count the inner vertices whose
    partner lies outside."""
    return sum(not left < p < right for p in partner[left : right - 1])


def witness(matching: Matching, k: int) -> WitnessReport:
    """Search an indecomposable matching for a size-k interleaving, broken
    nesting or proper pin sequence.

    Heavy-edge case first: the first edge (by endpoints) with at least
    crossing_threshold crossers feeds extract_from_crossed_edge.  Crossers
    are counted straight off the partner table, and the scan stops at that
    edge.  Otherwise the pin tree capped at depth k is built; its first
    length-k node is a witness.  Failing both, the counting bound must
    hold, and a report with the deepest tree node as partial witness is
    returned.
    """
    b = bounds(k)
    if not is_indecomposable(matching):
        raise NotIndecomposable()
    partner = matching.partner
    for left, right in enumerate(partner, start=1):
        # An edge spanning fewer inner vertices than the threshold cannot
        # have enough crossers; this also skips each edge's right endpoint.
        if right - left > b.crossing_threshold and (
            _crossing_count(partner, left, right) >= b.crossing_threshold
        ):
            found = extract_from_crossed_edge(matching, Edge(left, right), k)
            return WitnessReport(b, matching.n, found, None)
    tree = build_pin_tree(matching, k)
    for node in tree.nodes:
        if len(node) == k:
            found = Witness(WitnessKind.PROPER_PIN_SEQUENCE, matching, node)
            return WitnessReport(b, matching.n, found, None)
    if matching.n >= b.tree_bound:
        raise InvariantViolation(
            f"{matching.n} edges with no witness at k={b.k} contradicts "
            f"the tree bound {b.tree_bound}"
        )
    partial = None
    if tree.nodes:
        deepest = next(n for n in tree.nodes if len(n) == tree.max_length)
        partial = Witness(WitnessKind.PROPER_PIN_SEQUENCE, matching, deepest)
    return WitnessReport(b, matching.n, None, partial)


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
    n, first_partner, k = args
    tally: Counter[str] = Counter()
    failures: list[str] = []
    for partner in _iter_partner_tuples_shard(n, first_partner):
        if not _is_indecomposable_partner(partner):
            continue
        matching = Matching(partner)
        tally["checked"] += 1
        try:
            report = witness(matching, k)
        except MatchingError as exc:
            failures.append(f"{matching}: witness raised {exc!r}")
            continue
        if report.witness is not None:
            try:
                report.witness.verify()
            except MatchingError as exc:
                failures.append(f"{matching}: witness failed re-verification: {exc!r}")
                continue
            tally[report.witness.kind.value] += 1
        else:
            if report.edge_count >= report.bounds.tree_bound:
                failures.append(
                    f"{matching}: below threshold with {report.edge_count} edges, "
                    f"bound {report.bounds.tree_bound}"
                )
                continue
            tally["below_threshold"] += 1
    return tally, failures


def verify_theorem(n_max: int, k: int, *, jobs: int = 1) -> TheoremReport:
    """Run witness over every indecomposable matching with n <= n_max and
    check each outcome's internal consistency.  Inconsistencies become
    report entries, never exceptions."""
    if n_max < 1:
        raise SizeTooSmall(n_max, 1, "n_max")
    if n_max > EXHAUSTIVE_CAP:
        raise SizeCapExceeded(n_max, EXHAUSTIVE_CAP)
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
