"""Exhaustive generation, census against the counting recurrence, and
avoider scans.

Matchings on [2n] are streamed in a canonical order: vertex 1 pairs with
each possible partner in increasing order, then the rest of the vertex set
is matched recursively the same way.  That order equals lexicographic order
of the partner tables, and fixing the partner of vertex 1 splits the stream
into 2n - 1 independent shards for parallel scans.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import Matching, _is_indecomposable_partner
from .errors import SizeCapExceeded, SizeTooSmall
from .patterns import PatternKind, max_pattern
from .pins import build_pin_tree

# (2n - 1)!! matchings on [2n]: n = 9 means ~34M, minutes of streaming.
# Beyond that the caller must opt in.
SOFT_CAP = 9


def _fill(partner: list[int], free: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if not free:
        yield tuple(partner)
        return
    a = free[0]
    for i in range(1, len(free)):
        b = free[i]
        partner[a - 1] = b
        partner[b - 1] = a
        yield from _fill(partner, free[1:i] + free[i + 1 :])


def _iter_partner_tuples(n: int) -> Iterator[tuple[int, ...]]:
    yield from _fill([0] * (2 * n), tuple(range(1, 2 * n + 1)))


def _iter_partner_tuples_shard(n: int, first_partner: int) -> Iterator[tuple[int, ...]]:
    """The sub-stream with vertex 1 paired to first_partner."""
    partner = [0] * (2 * n)
    partner[0] = first_partner
    partner[first_partner - 1] = 1
    rest = tuple(v for v in range(2, 2 * n + 1) if v != first_partner)
    yield from _fill(partner, rest)


def _host_shards(n_max: int, k: int) -> list[tuple[int, int, int]]:
    """(n, first partner, k) for each shard with n <= n_max that can hold an indecomposable."""
    # For n >= 2, first partner 2 closes [1, 2] and first partner 2n closes [2, 2n - 1].
    return [
        (n, fp, k)
        for n in range(1, n_max + 1)
        for fp in range(2, 2 * n + 1)
        if n == 1 or 2 < fp < 2 * n
    ]


def _run_shards(worker: Callable, shards: list, jobs: int) -> list:
    """worker over every shard, results in shard order; one pool of jobs processes if jobs > 1."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, shards))
    return [worker(s) for s in shards]


def _check_cap(n: int, allow_large: bool) -> None:
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > SOFT_CAP:
        if not allow_large:
            raise SizeCapExceeded(n, SOFT_CAP)
        warnings.warn(
            f"enumerating all matchings at n={n} streams {2 * n - 1}!! items",
            RuntimeWarning,
            stacklevel=3,
        )


def all_matchings(n: int, *, allow_large: bool = False) -> Iterator[Matching]:
    """Every matching on [2n] exactly once, in canonical order.

    The cap is checked eagerly, before the first item is drawn.
    """
    _check_cap(n, allow_large)
    return (Matching(partner) for partner in _iter_partner_tuples(n))


def recurrence_counts(n_max: int) -> tuple[int, ...]:
    """Indecomposable counts s_1..s_n_max predicted by the convolution
    recurrence s_n = (n-1) * sum(s_i * s_{n-i}, i = 1..n-1), s_1 = 1.
    Index 0 of the result is unused (kept 0).
    """
    if n_max < 1:
        raise SizeTooSmall(n_max, 1, "n_max")
    s = [0] * (n_max + 1)
    s[1] = 1
    for n in range(2, n_max + 1):
        s[n] = (n - 1) * sum(s[i] * s[n - i] for i in range(1, n))
    return tuple(s)


@dataclass(frozen=True)
class CensusRow:
    n: int
    total: int
    indecomposable: int
    recurrence_value: int

    @property
    def matches_recurrence(self) -> bool:
        return self.indecomposable == self.recurrence_value


def _census_shard(args: tuple[int, int]) -> tuple[int, int]:
    n, first_partner = args
    total = 0
    indec = 0
    for partner in _iter_partner_tuples_shard(n, first_partner):
        total += 1
        if _is_indecomposable_partner(partner):
            indec += 1
    return total, indec


def census(n: int, *, jobs: int = 1, allow_large: bool = False) -> CensusRow:
    """Count matchings and indecomposable matchings on [2n].

    The enumerated count is ground truth; recurrence_value is the
    recurrence's prediction, and matches_recurrence reports agreement
    rather than assuming it.
    """
    if n < 1:
        raise SizeTooSmall(n, 1, "n")
    _check_cap(n, allow_large)
    parts = _run_shards(_census_shard, [(n, fp) for fp in range(2, 2 * n + 1)], jobs)
    total = sum(p[0] for p in parts)
    indec = sum(p[1] for p in parts)
    return CensusRow(n, total, indec, recurrence_counts(n)[n])


def _is_avoider_partner(partner: tuple[int, ...], k: int) -> bool:
    """No size-k interleaving or broken nesting, and no proper
    right-reaching pin sequence with k pins (the depth-capped tree decides
    the latter).  Proper pin sequences that fail to reach the last vertex
    are NOT excluded.  At k = 2 that cannot matter (a 2-pin sequence is a
    crossing, which the interleaving check already rules out), and at k = 3
    no difference appears for any host with n <= 6; from k = 4 on the two
    readings genuinely disagree.
    """
    matching = Matching(partner)
    # The pin tree is the cheapest check and rules out most hosts.
    if build_pin_tree(matching, k).max_length >= k:
        return False
    return all(
        max_pattern(matching, kind)[0] < k
        for kind in (
            PatternKind.INTERLEAVING,
            PatternKind.RIGHT_BROKEN_NESTING,
            PatternKind.LEFT_BROKEN_NESTING,
        )
    )


@dataclass(frozen=True)
class AvoiderReport:
    n_max: int
    k: int
    counts: dict[int, int]
    examples: dict[int, Matching]

    @property
    def max_size(self) -> int:
        hits = [n for n, c in self.counts.items() if c > 0]
        return max(hits, default=0)


def _scan_shard(args: tuple[int, int, int]) -> tuple[int, tuple[int, ...] | None]:
    n, first_partner, k = args
    count = 0
    example = None
    for partner in _iter_partner_tuples_shard(n, first_partner):
        if not _is_indecomposable_partner(partner):
            continue
        if _is_avoider_partner(partner, k):
            count += 1
            if example is None:
                example = partner
    return count, example


def scan_avoiders(
    n_max: int, k: int, *, jobs: int = 1, allow_large: bool = False
) -> AvoiderReport:
    """Find the indecomposable matchings with n <= n_max avoiding all three
    target structures at size k; report counts per n and the canonically
    first avoider of each size."""
    if n_max < 1:
        raise SizeTooSmall(n_max, 1, "n_max")
    if k < 2:
        raise SizeTooSmall(k, 2, "k")
    _check_cap(n_max, allow_large)
    shards = _host_shards(n_max, k)
    counts = dict.fromkeys(range(1, n_max + 1), 0)
    examples: dict[int, Matching] = {}
    for (n, _, _), (count, example) in zip(shards, _run_shards(_scan_shard, shards, jobs)):
        counts[n] += count
        # Shards run in canonical order, so the first example of each n is its least.
        if example is not None and n not in examples:
            examples[n] = Matching(example)
    return AvoiderReport(n_max, k, counts, examples)
