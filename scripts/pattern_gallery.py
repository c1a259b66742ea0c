"""Render an SVG gallery of the canonical patterns, one file per kind and
size, plus optional witness overlays for user-supplied matchings."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from indematch import PatternKind, canonical, witness
from indematch.cli import parse_matching, render_svg
from indematch.errors import MatchingError


def _write(path: Path, svg: str) -> None:
    path.write_text(svg, encoding="utf-8")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-k", type=int, nargs="+", default=[2, 3, 4], help="pattern sizes")
    parser.add_argument(
        "-o", "--out-dir", type=Path, default=Path("gallery"), help="output directory"
    )
    parser.add_argument(
        "--matching",
        action="append",
        default=[],
        metavar="TEXT",
        help="also render this matching (edge list or chord word) with its "
        "size-min(k) witness highlighted; repeatable",
    )
    args = parser.parse_args(argv)

    # Everything is rendered before the first file is written, so bad input
    # leaves no partial gallery behind.
    try:
        svgs = [
            (f"{kind.name.lower()}_{k}.svg", render_svg(canonical(kind, k)))
            for k in args.k
            for kind in PatternKind
        ]
        # Witness overlays only make sense for indecomposable hosts; witness()
        # raises NotIndecomposable on anything else.
        for i, text in enumerate(args.matching):
            host = parse_matching(text)
            report = witness(host, min(args.k))
            svg = render_svg(host, report.witness or report.partial)
            svgs.append((f"host_{i}_{report.outcome}.svg", svg))
    except MatchingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, svg in svgs:
        _write(args.out_dir / name, svg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
