"""Tabulate the indecomposable census against the counting recurrence.

Each row is enumerated from scratch, so the table doubles as a timing
probe: wall-clock per n shows where exhaustive streaming stops being
practical and parallel shards start paying off.
"""

from __future__ import annotations

import argparse
import sys
import time

from indematch import census, check_census
from indematch.errors import MatchingError


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--n-max", type=int, default=7, help="largest n (default 7)")
    parser.add_argument("-j", "--jobs", type=int, default=1, help="parallel shards per row")
    parser.add_argument("--markdown", action="store_true", help="emit a markdown table")
    parser.add_argument(
        "--allow-large", action="store_true", help="lift the soft size cap past n=9"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        check_census(args.n_max, jobs=args.jobs, allow_large=args.allow_large)
    except MatchingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.markdown:
        print("| n | total | indecomposable | recurrence | match | seconds |")
        print("|--:|--:|--:|--:|:--|--:|")
    else:
        print(f"{'n':>2}  {'total':>12}  {'indecomposable':>14}  {'recurrence':>12}  "
              f"{'match':<5}  {'seconds':>8}")
    for n in range(1, args.n_max + 1):
        start = time.perf_counter()
        row = census(n, jobs=args.jobs, allow_large=args.allow_large)
        elapsed = time.perf_counter() - start
        match = "yes" if row.matches_recurrence else "NO"
        if args.markdown:
            print(f"| {row.n} | {row.total} | {row.indecomposable} | "
                  f"{row.recurrence_value} | {match} | {elapsed:.2f} |")
        else:
            print(f"{row.n:>2}  {row.total:>12}  {row.indecomposable:>14}  "
                  f"{row.recurrence_value:>12}  {match:<5}  {elapsed:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
