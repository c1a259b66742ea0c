"""Measure how far indecomposable avoiders actually reach below the stated
bound.

For each k, every indecomposable matching with n <= n_max is tested for a
size-k interleaving, broken nesting, and proper right-reaching pin
sequence.  The largest survivor is the empirical frontier; the script
prints it next to the tree bound and the stated (2k)^(2k) bound so the gap
is visible at a glance.
"""

from __future__ import annotations

import argparse
import sys

from indematch import bounds, scan_avoiders
from indematch.cli import format_matching
from indematch.errors import MatchingError


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--n-max", type=int, default=6, help="largest n (default 6)")
    parser.add_argument(
        "-k", type=int, nargs="+", default=[2, 3], help="target sizes (default 2 3)"
    )
    parser.add_argument("-j", "--jobs", type=int, default=1, help="parallel shards per n")
    parser.add_argument("--examples", action="store_true", help="print one avoider per size")
    parser.add_argument(
        "--allow-large", action="store_true", help="lift the soft size cap past n=9"
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for k in args.k:
        try:
            b = bounds(k)
            report = scan_avoiders(args.n_max, k, jobs=args.jobs, allow_large=args.allow_large)
        except MatchingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"k={k}: tree bound {b.tree_bound}, stated bound {b.stated}")
        for n in range(1, args.n_max + 1):
            count = report.counts.get(n, 0)
            line = f"  n={n}: {count} avoider(s)"
            if args.examples and n in report.examples:
                line += f"  e.g. {format_matching(report.examples[n])}"
            print(line)
        print(f"  largest avoider seen: n={report.max_size}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
