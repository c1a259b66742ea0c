"""Command-line interface, text formats, JSON certificates, SVG rendering.

The only module that touches stdin, stdout or files.  Matchings travel as
either an edge list ("3-5 4-7 1-6 2-8") or a chord word ("ABCDCADB", equal
letters matched; labels appear in order of first occurrence).  Witness
reports serialize to a versioned JSON certificate; verify_certificate
re-reads one from its text alone and rebuilds the Witness it claims.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Iterable

from .core import (
    Edge,
    Matching,
    _host_edges,
    _partner_table,
    find_intervals,
    is_indecomposable,
    make_matching,
)
from .enumeration import census, check_census, scan_avoiders
from .errors import (
    EmptyMatching,
    InvariantViolation,
    MatchingError,
    ParseError,
    _is_int,
    _show,
)
from .patterns import PatternKind, Side, Witness, WitnessKind, canonical_edges
from .pins import PinSequence, classify_sequence, grow_right_reaching, properize
from .ramsey import Bounds, WitnessReport, bounds, verify_theorem, witness

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
    if not isinstance(text, str):
        raise MatchingError(f"{_show(text, repr)} is not a string")
    if not text.strip():
        return Matching(())
    if "-" in text:
        return _parse_edge_list(text)
    return _parse_chord_word(text)


# An a-b token, with both endpoints as groups.
_EDGE_TOKEN = re.compile(r"(\d+)-(\d+)")
# Text made of a-b tokens alone, separated by whitespace.
_EDGE_LIST = re.compile(r"\s*\d+-\d+(?:\s+\d+-\d+)*\s*")


def _parse_pair(token: str, pos: int) -> tuple[int, int]:
    """The endpoints of an a-b token found at 1-based offset pos."""
    match = _EDGE_TOKEN.fullmatch(token)
    if match is None:
        raise ParseError(f"expected a-b, got {token!r}", pos)
    try:
        return int(match.group(1)), int(match.group(2))
    except ValueError:  # past the digit limit of int(); no vertex is that large
        raise ParseError(f"vertex number too long in {token[:24]!r}...", pos) from None


def _parse_edge_list(text: str) -> Matching:
    # Every token parses before make_matching checks the vertex set.  Text
    # of a-b tokens alone is read as one run of numbers, where int() fails
    # only past its digit limit.  Any other text, or that failure, is
    # walked token by token, which reports the first bad token at its offset.
    pairs = None
    if _EDGE_LIST.fullmatch(text):
        ends = map(int, text.replace("-", " ").split())
        try:
            pairs = list(zip(ends, ends))
        except ValueError:
            pass
    if pairs is None:
        pairs = [_parse_pair(m.group(), m.start() + 1) for m in re.finditer(r"\S+", text)]
    return make_matching(pairs)


def _parse_chord_word(text: str) -> Matching:
    start = len(text) - len(text.lstrip())
    body = text.strip()
    split = "," in body  # past 26 labels, each comma-separated run is one
    want, gap = ("a label of capitals", 1) if split else ("an uppercase letter", 0)
    labeled: list[tuple[str, int]] = []
    pos = start + 1
    for token in body.split(",") if split else body:
        if not (token.isascii() and token.isalpha() and token.isupper()):  # one or more of A-Z
            raise ParseError(f"expected {want}, got {token!r}", pos)
        labeled.append((token, pos))
        pos += len(token) + gap

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
    partner = _partner_table(matching)
    if form == "edges":
        return str(matching)
    if form != "chord":
        raise MatchingError(f"unknown form {_show(form, repr)}; expected 'edges' or 'chord'")
    label_of: dict[int, str] = {}
    word = []
    fresh = 0
    for v, p in enumerate(partner, 1):
        if v < p:
            label_of[v] = _label(fresh)
            fresh += 1
            word.append(label_of[v])
        else:
            word.append(label_of[p])
    return ",".join(word) if matching.n > 26 else "".join(word)


def _bounds_field(b: Bounds) -> dict[str, str]:
    """Bounds as decimal strings; (2k)^(2k) will not survive a float round-trip."""
    return {f: str(getattr(b, f)) for f in ("stated", "crossing_threshold", "tree_bound")}


def certificate_document(report: WitnessReport, host: Matching) -> dict:
    """JSON-ready certificate for a witness report."""
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "k": report.bounds.k,
        "host": format_matching(host, "edges"),
        "bounds": _bounds_field(report.bounds),
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


def _certificate_edges(pairs: object) -> list[list[int]]:
    """A certificate's edge list, checked to be a list of two-integer lists."""
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(_is_int(v) for v in p)
        for p in pairs
    ):
        raise InvariantViolation("edges must be a list of two-integer lists")
    return pairs


def verify_certificate(doc: dict) -> str:
    """Re-check a certificate from its serialized form alone.

    The reader checks the document's shape, recomputes the bounds, parses
    the host and checks the size and below-threshold counts; each
    structure, the partial pin sequence included, is then decided by
    building a Witness (distinct host edges, then the kind) from the
    certificate, so the certificate and the library share one definition
    of every kind.  Returns a summary line; raises on any defect.
    """
    if not isinstance(doc, dict):
        raise InvariantViolation("certificate must be a JSON object")
    version = doc.get("schema_version")
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise InvariantViolation(f"unsupported schema_version {version!r}")
    missing = {"kind", "k", "host", "edges", "size", "bounds"} - doc.keys()
    if missing:
        raise InvariantViolation(f"certificate lacks fields {sorted(missing)}")
    kind = doc["kind"]
    k = doc["k"]
    if not isinstance(kind, str):
        raise InvariantViolation("kind must be a string")
    if not _is_int(k):
        raise InvariantViolation("k must be an integer")
    if not isinstance(doc["host"], str):
        raise InvariantViolation("host must be a string")
    if not _is_int(doc["size"]):
        raise InvariantViolation("size must be an integer")
    b = bounds(k)
    if doc["bounds"] != _bounds_field(b):
        raise InvariantViolation("bounds disagree with recomputation")
    host = parse_matching(doc["host"])
    edges = _certificate_edges(doc["edges"])
    if doc["size"] != len(edges):
        raise InvariantViolation("size disagrees with the edge list")
    # Only a broken nesting has a side and a breaker, as in Witness.
    breaker_data = (doc.get("side"), doc.get("breaker")) != (None, None)
    if breaker_data and kind != WitnessKind.BROKEN_NESTING.value:
        raise InvariantViolation(f"{kind} certificate carries side or breaker data")

    if kind == "below_threshold":
        edge_count = doc.get("edge_count")
        if not _is_int(edge_count) or edge_count != host.n:
            raise InvariantViolation("edge_count disagrees with the host")
        if host.n >= b.tree_bound:
            raise InvariantViolation(
                f"below_threshold claimed with {host.n} edges >= bound {b.tree_bound}"
            )
        # Only this outcome rests on the theorem's hypothesis; a found
        # structure is one in any host.
        if not is_indecomposable(host):
            raise InvariantViolation("below_threshold claimed for a decomposable host")
        if len(edges) >= k:
            raise InvariantViolation("partial pin sequence is long enough to be a witness")
        if edges:
            Witness(WitnessKind.PROPER_PIN_SEQUENCE, host, edges)
    else:
        try:
            found = WitnessKind(kind)
        except ValueError:
            raise InvariantViolation(f"unknown certificate kind {kind!r}") from None
        if len(edges) < k:
            raise InvariantViolation(f"witness of size {len(edges)} cannot attest k={k}")
        side = None
        if found is WitnessKind.BROKEN_NESTING:
            if doc.get("side") not in ("left", "right"):
                raise InvariantViolation(f"bad side {doc.get('side')!r}")
            breaker = doc.get("breaker")
            if not (isinstance(breaker, list) and all(map(_is_int, breaker))) or (
                breaker != doc["edges"][0]
            ):
                raise InvariantViolation("breaker must be the first edge")
            side = Side(doc["side"])
        Witness(found, host, edges, side=side, breaker=None if side is None else edges[0])
    return f"certificate ok: {kind}, k={k}, size={len(edges)}, host with {host.n} edges"


# Arc-diagram geometry; UNIT stays even so every radius is an integer and
# the output is byte-stable.
UNIT = 24
MARGIN = 30


def render_svg(matching: Matching, highlight: Witness | Iterable | None = None) -> str:
    """Arc diagram: vertices on a baseline, one semicircle per edge, the
    highlighted edges (a Witness's, or edge pairs) drawn on top in their own stroke."""
    if not _partner_table(matching):
        raise EmptyMatching("cannot render an empty matching")
    if isinstance(highlight, Witness):
        highlight = highlight.edges
    marked = _host_edges(matching, highlight) if highlight is not None else ()

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
    except (ValueError, RecursionError) as exc:  # also overlong integers, deep nesting
        raise InvariantViolation(f"certificate is not valid JSON: {exc}") from exc


def _flags(cls: PinSequence) -> str:
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
    intervals = find_intervals(matching)
    print(f"indecomposable: {'no' if intervals else 'yes'}")
    for seg in intervals:
        print(f"interval {seg}")
    return 0


def _cmd_pins(args: argparse.Namespace) -> int:
    matching = _read_matching(args.matching)
    if matching.n == 0:
        raise EmptyMatching("no edge to start a pin sequence from")
    start = matching.edges()[0] if args.start is None else _parse_pair(args.start, 1)
    grown = grow_right_reaching(matching, start)
    print(f"start: {grown[0]}")
    print(f"grown: {_edge_text(grown)}  [{_flags(classify_sequence(matching, grown))}]")
    proper = properize(matching, grown)
    print(f"proper: {_edge_text(proper.pins)}  [{_flags(proper)}]")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    matching = _read_matching(args.matching)
    doc = certificate_document(witness(matching, args.k), matching)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    edges = _edge_text(map(Edge._make, doc["edges"]))
    found = "edge_count" not in doc
    print(f"outcome: {'found' if found else doc['kind']}")
    print(f"kind: {doc['kind']}")
    if found:
        print(f"size: {doc['size']}")
        print(f"edges: {edges}")
        if "side" in doc:
            print(f"side: {doc['side']}  breaker: {Edge._make(doc['breaker'])}")
    else:
        print(f"edge_count: {doc['edge_count']} (below tree bound {doc['bounds']['tree_bound']})")
        if edges:
            print(f"partial: {edges}")
    print("bounds: " + " ".join(f"{name}={value}" for name, value in doc["bounds"].items()))
    return 0


def _cmd_canonical(args: argparse.Namespace) -> int:
    print(_edge_text(canonical_edges(PatternKind(args.kind), args.k)))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    check_census(args.n, jobs=args.jobs, allow_large=args.allow_large)
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
    highlight: list[list[int]] = []
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

    p = sub.add_parser(
        "witness",
        help="search for a size-k structure",
        description="Search for a size-k structure.  On a host with no heavy edge, the pin-tree "
        "case takes time exponential in k: 1.5 s for 80 edges at k = 14, over 90 s for 160 at "
        "k = 30.",
    )
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout is met here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed, as by `| head`: end quietly, and let the flush
        # at exit write to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (MatchingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
