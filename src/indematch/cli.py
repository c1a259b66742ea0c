"""Command-line interface, text formats, JSON certificates, SVG rendering.

The only module that touches stdin, stdout or files.  Matchings travel as
either an edge list ("3-5 4-7 1-6 2-8") or a chord word ("ABCDCADB", equal
letters matched; labels appear in order of first occurrence).  Witness
reports serialize to a versioned JSON certificate that verify_certificate
re-checks from scratch.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Iterable

from .core import (
    Edge,
    Matching,
    as_edge,
    find_intervals,
    is_indecomposable,
    make_matching,
    subpattern,
)
from .enumeration import census, scan_avoiders
from .errors import (
    EmptyMatching,
    InvariantViolation,
    MatchingError,
    ParseError,
    UnknownEdge,
)
from .patterns import PatternKind, Witness, canonical, canonical_edges
from .pins import classify_sequence, grow_right_reaching, properize
from .ramsey import WitnessReport, bounds, verify_theorem, witness

SCHEMA_VERSION = 1


def _label(i: int) -> str:
    """0 -> A, 25 -> Z, 26 -> AA, ... (bijective base 26)."""
    out = []
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        out.append(chr(ord("A") + r))
    return "".join(reversed(out))


def parse_matching(text: str) -> Matching:
    """Parse either text form; a '-' anywhere selects the edge-list form.

    Positions in errors are 1-based character offsets into text.  Semantic
    problems (bad vertex sets) surface as make_matching errors rather than
    ParseError.
    """
    if not text.strip():
        return Matching(())
    if "-" in text:
        return _parse_edge_list(text)
    return _parse_chord_word(text)


def _parse_edge_list(text: str) -> Matching:
    pairs = []
    for m in re.finditer(r"\S+", text):
        token = m.group()
        if not re.fullmatch(r"\d+-\d+", token):
            raise ParseError(f"expected a-b, got {token!r}", m.start() + 1)
        a, b = token.split("-")
        pairs.append((int(a), int(b)))
    return make_matching(pairs)


def _parse_chord_word(text: str) -> Matching:
    start = len(text) - len(text.lstrip())
    body = text.strip()
    labeled: list[tuple[str, int]] = []
    if "," in body:
        pos = start + 1
        for token in body.split(","):
            if not token or not all("A" <= c <= "Z" for c in token):
                raise ParseError(f"expected a label of capitals, got {token!r}", pos)
            labeled.append((token, pos))
            pos += len(token) + 1
    else:
        for i, ch in enumerate(body):
            if not "A" <= ch <= "Z":
                raise ParseError(f"expected an uppercase letter, got {ch!r}", start + i + 1)
            labeled.append((ch, start + i + 1))

    # open[label] = (first vertex, position) until the label closes.
    open_at: dict[str, tuple[int, int] | None] = {}
    pairs = []
    fresh = 0
    for vertex, (label, pos) in enumerate(labeled, start=1):
        if label not in open_at:
            if label != _label(fresh):
                raise ParseError(
                    f"labels must first appear in order; expected {_label(fresh)}, got {label}",
                    pos,
                )
            fresh += 1
            open_at[label] = (vertex, pos)
        else:
            slot = open_at[label]
            if slot is None:
                raise ParseError(f"label {label} appears more than twice", pos)
            pairs.append((slot[0], vertex))
            open_at[label] = None
    for label, slot in open_at.items():
        if slot is not None:
            raise ParseError(f"label {label} appears only once", slot[1])
    return make_matching(pairs)


def format_matching(matching: Matching, form: str = "edges") -> str:
    """Render as 'edges' (a-b list) or 'chord' (canonical chord word)."""
    if form == "edges":
        return str(matching)
    if form != "chord":
        raise ValueError(f"unknown form {form!r}")
    label_of: dict[int, str] = {}
    word = []
    fresh = 0
    for v in range(1, matching.top + 1):
        p = matching.partner_of(v)
        if v < p:
            label_of[v] = _label(fresh)
            fresh += 1
            word.append(label_of[v])
        else:
            word.append(label_of[p])
    return ",".join(word) if matching.n > 26 else "".join(word)


def certificate_document(report: WitnessReport, host: Matching) -> dict:
    """JSON-ready certificate for a witness report.  Bounds go out as
    decimal strings; (2k)^(2k) will not survive a float round-trip."""
    b = report.bounds
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "k": b.k,
        "host": format_matching(host, "edges"),
        "bounds": {
            "stated": str(b.stated),
            "crossing_threshold": str(b.crossing_threshold),
            "tree_bound": str(b.tree_bound),
        },
    }
    w = report.witness
    if w is not None:
        doc["kind"] = w.kind.value
        doc["edges"] = [[e.left, e.right] for e in w.edges]
        doc["size"] = w.size
        if w.side is not None:
            doc["side"] = w.side.value
            doc["breaker"] = [w.breaker.left, w.breaker.right]
    else:
        doc["kind"] = "below_threshold"
        doc["edge_count"] = report.edge_count
        partial = report.partial.edges if report.partial is not None else ()
        doc["edges"] = [[e.left, e.right] for e in partial]
        doc["size"] = len(partial)
    return doc


_FOUND_KINDS = {"interleaving", "broken_nesting", "proper_pin_sequence"}


def _certificate_edges(pairs: object) -> tuple[Edge, ...]:
    """A certificate's edge list, checked to be a list of two-integer lists."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(v, int) for v in p)
        for p in pairs
    ):
        raise InvariantViolation("edges must be a list of two-integer lists")
    return tuple(as_edge(p) for p in pairs)


def verify_certificate(doc: dict) -> str:
    """Re-check a certificate from its serialized form alone.

    Deliberately avoids the Witness class: patterns are re-checked by
    inducing the sub-matching and comparing with the canonical pattern, pin
    sequences by reclassification, bounds by recomputation.  Returns a
    summary line; raises on any defect.
    """
    if not isinstance(doc, dict):
        raise InvariantViolation("certificate must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InvariantViolation(f"unsupported schema_version {doc.get('schema_version')!r}")
    missing = {"kind", "k", "host", "edges", "size", "bounds"} - doc.keys()
    if missing:
        raise InvariantViolation(f"certificate lacks fields {sorted(missing)}")
    kind = doc["kind"]
    k = doc["k"]
    if not isinstance(k, int):
        raise InvariantViolation("k must be an integer")
    if not isinstance(doc["host"], str):
        raise InvariantViolation("host must be a string")
    if not isinstance(doc["size"], int):
        raise InvariantViolation("size must be an integer")
    b = bounds(k)
    want = {
        "stated": str(b.stated),
        "crossing_threshold": str(b.crossing_threshold),
        "tree_bound": str(b.tree_bound),
    }
    if doc["bounds"] != want:
        raise InvariantViolation("bounds disagree with recomputation")
    host = parse_matching(doc["host"])
    edges = _certificate_edges(doc["edges"])
    for e in edges:
        if not host.has_edge(e):
            raise UnknownEdge(e)
    if len(set(edges)) != len(edges):
        raise InvariantViolation("certificate repeats an edge")
    if doc["size"] != len(edges):
        raise InvariantViolation("size disagrees with the edge list")

    if kind in _FOUND_KINDS and len(edges) < k:
        raise InvariantViolation(f"witness of size {len(edges)} cannot attest k={k}")
    if kind == "interleaving":
        if subpattern(host, edges) != canonical(PatternKind.INTERLEAVING, len(edges)):
            raise InvariantViolation("edges do not induce a canonical interleaving")
    elif kind == "broken_nesting":
        side = doc.get("side")
        if side not in ("left", "right"):
            raise InvariantViolation(f"bad side {side!r}")
        if doc.get("breaker") != doc["edges"][0]:
            raise InvariantViolation("breaker must be the first edge")
        pattern = (
            PatternKind.RIGHT_BROKEN_NESTING
            if side == "right"
            else PatternKind.LEFT_BROKEN_NESTING
        )
        if subpattern(host, edges) != canonical(pattern, len(edges)):
            raise InvariantViolation("edges do not induce a canonical broken nesting")
    elif kind == "proper_pin_sequence":
        cls = classify_sequence(host, edges)
        if not (cls.is_pin_sequence and cls.is_proper):
            raise InvariantViolation("edges are not a proper pin sequence")
    elif kind == "below_threshold":
        if doc.get("edge_count") != host.n:
            raise InvariantViolation("edge_count disagrees with the host")
        if host.n >= b.tree_bound:
            raise InvariantViolation(
                f"below_threshold claimed with {host.n} edges >= bound {b.tree_bound}"
            )
        if len(edges) >= k:
            raise InvariantViolation("partial pin sequence is long enough to be a witness")
        if edges:
            cls = classify_sequence(host, edges)
            if not (cls.is_pin_sequence and cls.is_proper):
                raise InvariantViolation("partial edges are not a proper pin sequence")
    else:
        raise InvariantViolation(f"unknown certificate kind {kind!r}")
    return f"certificate ok: {kind}, k={k}, size={len(edges)}, host with {host.n} edges"


# Arc-diagram geometry; UNIT stays even so every radius is an integer and
# the output is byte-stable.
UNIT = 24
MARGIN = 30


def render_svg(matching: Matching, highlight: Witness | Iterable[Edge] | None = None) -> str:
    """Arc diagram: vertices on a baseline, one semicircle per edge, the
    highlighted edges drawn on top in their own stroke."""
    if matching.n == 0:
        raise EmptyMatching("cannot render an empty matching")
    if isinstance(highlight, Witness):
        marked = tuple(highlight.edges)
    else:
        marked = tuple(highlight) if highlight is not None else ()
    for e in marked:
        if not matching.has_edge(e):
            raise UnknownEdge(e)

    top = matching.top

    def x(v: int) -> int:
        return MARGIN + (v - 1) * UNIT

    base_y = MARGIN + (top - 1) * UNIT // 2
    width = 2 * MARGIN + (top - 1) * UNIT
    height = base_y + MARGIN

    def arc(e: Edge) -> str:
        r = (e.right - e.left) * UNIT // 2
        return (
            f'    <path d="M {x(e.left)} {base_y} '
            f'A {r} {r} 0 0 1 {x(e.right)} {base_y}"/>'
        )

    marked_set = set(marked)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        "  <!-- indematch arc diagram, format 1 -->",
        '  <g fill="none" stroke="#777777" stroke-width="1.5">',
    ]
    lines.extend(arc(e) for e in matching.edges() if e not in marked_set)
    lines.append("  </g>")
    if marked:
        lines.append('  <g fill="none" stroke="#c62828" stroke-width="2.5">')
        lines.extend(arc(e) for e in marked)
        lines.append("  </g>")
    lines.append('  <g fill="#222222">')
    lines.extend(
        f'    <circle cx="{x(v)}" cy="{base_y}" r="3"/>' for v in range(1, top + 1)
    )
    lines.append("  </g>")
    lines.append(
        '  <g fill="#222222" font-family="monospace" font-size="12" text-anchor="middle">'
    )
    lines.extend(
        f'    <text x="{x(v)}" y="{base_y + 16}">{v}</text>' for v in range(1, top + 1)
    )
    lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _read_matching(text: str) -> Matching:
    if text == "-":
        text = sys.stdin.read()
    return parse_matching(text)


def _read_certificate(path: str) -> object:
    """The JSON value in a certificate file ('-' reads stdin); undecodable
    bytes and non-JSON text are certificate defects."""
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                raw = fh.read()
        return json.loads(raw)
    except UnicodeDecodeError as exc:
        raise InvariantViolation(f"certificate is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvariantViolation(f"certificate is not valid JSON: {exc}") from exc


def _flags(matching: Matching, pins: tuple[Edge, ...]) -> str:
    cls = classify_sequence(matching, pins)
    yn = {True: "yes", False: "no"}
    return (
        f"pin_sequence={yn[cls.is_pin_sequence]} "
        f"proper={yn[cls.is_proper]} "
        f"right_reaching={yn[cls.is_right_reaching]}"
    )


def _edge_text(edges: Iterable[Edge]) -> str:
    return " ".join(str(e) for e in edges)


def _cmd_check(args: argparse.Namespace) -> int:
    matching = _read_matching(args.matching)
    print(f"matching: {matching}")
    print(f"indecomposable: {'yes' if is_indecomposable(matching) else 'no'}")
    for seg in find_intervals(matching):
        print(f"interval {seg}")
    return 0


def _cmd_pins(args: argparse.Namespace) -> int:
    matching = _read_matching(args.matching)
    if matching.n == 0:
        raise EmptyMatching("no edge to start a pin sequence from")
    if args.start is not None:
        m = re.fullmatch(r"(\d+)-(\d+)", args.start)
        if not m:
            raise ParseError(f"expected a-b, got {args.start!r}", 1)
        start = as_edge((int(m.group(1)), int(m.group(2))))
    else:
        start = matching.edges()[0]
    grown = grow_right_reaching(matching, start)
    print(f"start: {start}")
    print(f"grown: {_edge_text(grown)}  [{_flags(matching, grown)}]")
    proper = properize(matching, grown)
    print(f"proper: {_edge_text(proper.pins)}  [{_flags(matching, proper.pins)}]")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    matching = _read_matching(args.matching)
    report = witness(matching, args.k)
    doc = certificate_document(report, matching)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"outcome: {report.outcome}")
    print(f"kind: {doc['kind']}")
    if report.witness is not None:
        print(f"size: {doc['size']}")
        print(f"edges: {_edge_text(report.witness.edges)}")
        if report.witness.side is not None:
            print(f"side: {report.witness.side.value}  breaker: {report.witness.breaker}")
    else:
        print(
            f"edge_count: {report.edge_count} "
            f"(below tree bound {report.bounds.tree_bound})"
        )
        if report.partial is not None:
            print(f"partial: {_edge_text(report.partial.edges)}")
    b = report.bounds
    print(
        f"bounds: stated={b.stated} crossing_threshold={b.crossing_threshold} "
        f"tree_bound={b.tree_bound}"
    )
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    print(_edge_text(canonical_edges(PatternKind(args.kind), args.k)))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    print(f"{'n':>2}  {'total':>12}  {'indecomposable':>14}  {'recurrence':>12}  match")
    for n in range(1, args.n + 1):
        row = census(n, jobs=args.jobs, allow_large=args.allow_large)
        flag = "yes" if row.matches_recurrence else "NO (enumeration wins)"
        print(
            f"{row.n:>2}  {row.total:>12}  {row.indecomposable:>14}  "
            f"{row.recurrence_value:>12}  {flag}"
        )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    report = scan_avoiders(args.n, args.k, jobs=args.jobs, allow_large=args.allow_large)
    for n in range(1, args.n + 1):
        line = f"n={n}: {report.counts.get(n, 0)} avoider(s)"
        if n in report.examples:
            line += f"  first: {report.examples[n]}"
        print(line)
    print(f"max avoider size: {report.max_size}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = verify_theorem(args.n, args.k, jobs=args.jobs)
    print(f"checked: {report.checked} indecomposable matchings, n <= {report.n_max}, k={report.k}")
    print(
        f"found: interleaving={report.found_interleaving} "
        f"broken_nesting={report.found_broken_nesting} "
        f"proper_pin_sequence={report.found_pin_sequence}"
    )
    print(f"below_threshold: {report.below_threshold}")
    print(f"failures: {len(report.failures)}")
    for failure in report.failures:
        print(f"  {failure}")
    return 0 if report.ok else 1


def _cmd_render(args: argparse.Namespace) -> int:
    matching = _read_matching(args.matching)
    highlight: tuple[Edge, ...] = ()
    if args.witness is not None:
        doc = _read_certificate(args.witness)
        if not isinstance(doc, dict) or "edges" not in doc:
            raise InvariantViolation("certificate lacks an edge list")
        highlight = _certificate_edges(doc["edges"])
    svg = render_svg(matching, highlight)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        print(svg, end="")
    return 0


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    print(verify_certificate(_read_certificate(args.certificate)))
    return 0


def _add_matching_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "matching",
        help="edge list 'a-b c-d ...' or chord word 'ABAB'; '-' reads stdin",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indematch",
        description="Indecomposable matchings: intervals, pin sequences, witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="indecomposability and nontrivial intervals")
    _add_matching_argument(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("pins", help="grow and properize a right-reaching pin sequence")
    _add_matching_argument(p)
    p.add_argument("--start", metavar="A-B", help="starting edge (default: first edge)")
    p.set_defaults(func=_cmd_pins)

    p = sub.add_parser("witness", help="search for a size-k structure")
    _add_matching_argument(p)
    p.add_argument("-k", type=int, required=True, help="target structure size")
    p.add_argument("--json", action="store_true", help="emit a JSON certificate")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("canonical", help="print a canonical pattern")
    p.add_argument("kind", choices=[k.value for k in PatternKind])
    p.add_argument("-k", type=int, required=True, help="number of edges")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("census", help="count indecomposable matchings up to n")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("scan", help="find matchings avoiding all size-k structures")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--allow-large", action="store_true")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="exhaustive witness consistency run")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("render", help="draw an arc diagram as SVG")
    _add_matching_argument(p)
    p.add_argument("-o", "--output", metavar="FILE", help="write here instead of stdout")
    p.add_argument("--witness", metavar="CERT.JSON", help="highlight a certificate's edges")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("verify-cert", help="re-verify a JSON certificate")
    p.add_argument("certificate", help="certificate file; '-' reads stdin")
    p.set_defaults(func=_cmd_verify_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatchingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
