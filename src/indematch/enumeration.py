"""Exhaustive generation, census against the counting recurrence, and
avoider scans.

Matchings on [2n] are streamed in a canonical order: vertex 1 pairs with
each possible partner in increasing order, then the rest of the vertex set
is matched the same way, from an explicit stack of frames.  That order
equals lexicographic order of the partner tables.  Fixing the partner of
vertex 1 splits the stream into 2n - 1 independent shards; each stream
runs one shard, so shards can run in parallel.

The stream decides indecomposability as it completes each table, by the
crossing-component pass in core's module docstring.  All vertices below
the smallest free vertex are matched, so each pairing folds the vertices
it finishes into its frame's open components.  The last four free
vertices are completed in place, with no frame, three tables at a time.
Once a component closes the branch stops that work but still completes
and yields every table below it.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import Matching, _components
from .errors import _at_least
from .patterns import PatternKind, max_pattern
from .pins import _deepest

# (2n - 1)!! matchings on [2n]: n = 9 means ~34M, minutes of streaming.
# Beyond that the caller must opt in.
SOFT_CAP = 9
_LIFT = "; pass allow_large=True (--allow-large) to override"
# The recurrence's big-int sums cost about n_max**3: 500 takes a fifth of a
# second, 1000 several seconds.
RECURRENCE_CAP = 500
_NO_LIFT = "; the recurrence has no override"


def _tables(partner: list[int], first_partner: int, *, decide: bool = True) -> Iterator[bool]:
    """Fill partner, a buffer of 2n >= 2 slots, with each table of the shard
    pairing vertex 1 with first_partner, in canonical order, and yield
    whether that table is indecomposable.  Every table is yielded; without
    decide every flag is False.

    A frame pairs free[0] with free[i] for each i in its choices in turn.
    Its stack holds the open components of the vertices below free[0]; it
    is None without decide or once one has closed.  A pairing that leaves
    no free vertex yields its flag.  Any other folds the vertices below
    the smallest free one, c, once; then with four free, c < d < e < f, it
    writes the three pairings c-d e-f, c-e d-f and c-f d-e in place, and
    with more or fewer it pushes a frame.
    """
    m = len(partner)
    frames = [(tuple(range(1, m + 1)), iter((first_partner - 1,)), () if decide else None)]
    while frames:
        free, choices, stack = frames[-1]
        a = free[0]
        for i in choices:
            b = free[i]
            partner[a - 1] = b
            partner[b - 1] = a
            rest = free[1:i] + free[i + 1 :]
            if not rest:
                yield stack is not None and _components(partner, a, m, stack) is not None
                continue
            folded = None if stack is None else _components(partner, a, rest[0], stack)
            if len(rest) != 4:
                frames.append((rest, iter(range(1, len(rest))), folded))
                break
            c, d, e, f = rest
            for x, y, z in ((d, e, f), (e, d, f), (f, d, e)):
                partner[c - 1] = x
                partner[x - 1] = c
                partner[y - 1] = z
                partner[z - 1] = y
                yield folded is not None and _components(partner, c, m, folded) is not None
        else:
            frames.pop()


def _hosts(n: int, first_partner: int) -> Iterator[tuple[int, ...]]:
    """The shard's tables the stream decided are indecomposable, in order,
    as partner tuples: the shards wrap one in a Matching only to report it."""
    partner = [0] * (2 * n)
    return (tuple(partner) for indec in _tables(partner, first_partner) if indec)


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
    """worker over every shard, results in shard order; one pool of
    min(jobs, len(shards)) processes when that is more than one."""
    _at_least(jobs, 1, "jobs")
    workers = min(jobs, len(shards))
    if workers > 1:
        # Imported here, so that a serial run never loads the pool's modules.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, shards))
    return [worker(s) for s in shards]


def _warn_large(n: int) -> None:
    if n > SOFT_CAP:
        message = f"enumerating all matchings at n={n} streams {2 * n - 1}!! items"
        warnings.warn(message, RuntimeWarning, stacklevel=3)


def all_matchings(n: int, *, allow_large: bool = False) -> Iterator[Matching]:
    """Every matching on [2n] exactly once, in canonical order: the shards
    in turn, or the one empty matching at n = 0.

    The cap is checked eagerly, before the first item is drawn.
    """
    _at_least(n, 0, "n", None if allow_large else SOFT_CAP, _LIFT)
    _warn_large(n)
    if not n:
        return iter((Matching(()),))
    partner = [0] * (2 * n)
    shards = (_tables(partner, fp, decide=False) for fp in range(2, 2 * n + 1))
    return (Matching(tuple(partner)) for shard in shards for _ in shard)


def recurrence_counts(n_max: int) -> tuple[int, ...]:
    """Indecomposable counts s_1..s_n_max predicted by the convolution
    recurrence s_n = (n-1) * sum(s_i * s_{n-i}, i = 1..n-1), s_1 = 1.
    Index 0 of the result is unused (kept 0).
    """
    _at_least(n_max, 1, "n_max", RECURRENCE_CAP, _NO_LIFT)
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
    flags = Counter(_tables([0] * (2 * n), first_partner))
    return flags[True] + flags[False], flags[True]


def check_census(n: int, *, jobs: int = 1, allow_large: bool = False) -> None:
    """Raise what census(n, jobs=jobs, allow_large=allow_large) raises on
    its arguments, without streaming: a table of rows 1..n checks its last
    row before printing the first."""
    _at_least(n, 1, "n", RECURRENCE_CAP, _NO_LIFT)
    _at_least(n, 1, "n", None if allow_large else SOFT_CAP, _LIFT)
    _at_least(jobs, 1, "jobs")


def census(n: int, *, jobs: int = 1, allow_large: bool = False) -> CensusRow:
    """Count matchings and indecomposable matchings on [2n].

    The enumerated count is ground truth; recurrence_value is the
    recurrence's prediction, and matches_recurrence reports agreement
    rather than assuming it.
    """
    check_census(n, jobs=jobs, allow_large=allow_large)
    _warn_large(n)
    parts = _run_shards(_census_shard, [(n, fp) for fp in range(2, 2 * n + 1)], jobs)
    total = sum(p[0] for p in parts)
    indec = sum(p[1] for p in parts)
    return CensusRow(n, total, indec, recurrence_counts(n)[n])


def _avoider(partner: tuple[int, ...], k: int) -> Matching | None:
    """The host as a Matching if it has no size-k interleaving or broken
    nesting and no proper right-reaching pin sequence with k pins (the
    depth-capped tree decides the latter), else None.  Proper pin sequences
    that fail to reach the last vertex are NOT excluded.  At k = 2 that
    cannot matter (a 2-pin sequence is a crossing, which the interleaving
    check already rules out), and at k = 3 no difference appears for any
    host with n <= 6; from k = 4 on the two readings genuinely disagree.
    """
    # Cheapest check, ruling out most hosts: the pin tree to its first
    # length-k node, on the partner table.
    if len(_deepest(partner, k)) == k:
        return None
    matching = Matching(partner)
    kinds = (
        PatternKind.INTERLEAVING,
        PatternKind.RIGHT_BROKEN_NESTING,
        PatternKind.LEFT_BROKEN_NESTING,
    )
    return matching if all(max_pattern(matching, kind)[0] < k for kind in kinds) else None


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


def _scan_shard(args: tuple[int, int, int]) -> tuple[int, Matching | None]:
    """Count the avoiders among one shard's partner tables, with the first
    of them as the Matching _avoider built for its pattern stage."""
    n, first_partner, k = args
    count = 0
    example = None
    for partner in _hosts(n, first_partner):
        matching = _avoider(partner, k)
        if matching is not None:
            count += 1
            if example is None:
                example = matching
    return count, example


def scan_avoiders(
    n_max: int, k: int, *, jobs: int = 1, allow_large: bool = False
) -> AvoiderReport:
    """Find the indecomposable matchings with n <= n_max avoiding all three
    target structures at size k; report counts per n and the canonically
    first avoider of each size."""
    _at_least(n_max, 1, "n_max", None if allow_large else SOFT_CAP, _LIFT)
    _at_least(k, 2, "k")
    _warn_large(n_max)
    shards = _host_shards(n_max, k)
    counts = dict.fromkeys(range(1, n_max + 1), 0)
    examples: dict[int, Matching] = {}
    for (n, _, _), (count, example) in zip(shards, _run_shards(_scan_shard, shards, jobs)):
        counts[n] += count
        # Shards run in canonical order, so the first example of each n is its least.
        if example is not None and n not in examples:
            examples[n] = example
    return AvoiderReport(n_max, k, counts, examples)
