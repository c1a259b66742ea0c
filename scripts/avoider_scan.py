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
from dataclasses import dataclass

from indematch import bounds, scan_avoiders
from indematch.cli import format_matching
from indematch.errors import MatchingError


@dataclass(frozen=True)
class Config:
    n_max: int
    k_values: tuple[int, ...]
    jobs: int
    show_examples: bool
    allow_large: bool


def parse_args(argv: list[str] | None = None) -> Config:
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
    args = parser.parse_args(argv)
    return Config(args.n_max, tuple(args.k), args.jobs, args.examples, args.allow_large)


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    for k in cfg.k_values:
        try:
            b = bounds(k)
            report = scan_avoiders(cfg.n_max, k, jobs=cfg.jobs, allow_large=cfg.allow_large)
        except MatchingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"k={k}: tree bound {b.tree_bound}, stated bound {b.stated}")
        for n in range(1, cfg.n_max + 1):
            count = report.counts.get(n, 0)
            line = f"  n={n}: {count} avoider(s)"
            if cfg.show_examples and n in report.examples:
                line += f"  e.g. {format_matching(report.examples[n])}"
            print(line)
        print(f"  largest avoider seen: n={report.max_size}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
