import io
import json
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from indematch import (
    Edge,
    PatternKind,
    bounds,
    canonical,
    make_matching,
    witness,
)
from indematch.cli import (
    _bounds_field,
    _label,
    certificate_document,
    format_matching,
    main,
    parse_matching,
    render_svg,
    verify_certificate,
)
from indematch.errors import (
    EmptyMatching,
    InvariantViolation,
    MatchingError,
    ParseError,
    UnknownEdge,
    VertexOutOfRange,
)

from indematch.ramsey import K_CAP

from helpers import matchings, reference_findall_parse_edge_list, reference_parse_edge_list

CHAIN = make_matching([(3, 5), (4, 7), (1, 6), (2, 8)])
INT4 = canonical(PatternKind.INTERLEAVING, 4)
DATA = Path(__file__).parent / "data"


def test_label_progression():
    assert [_label(i) for i in (0, 1, 25, 26, 27, 51, 52)] == [
        "A", "B", "Z", "AA", "AB", "AZ", "BA",
    ]


def test_parse_edge_list():
    assert parse_matching("3-5 4-7 1-6 2-8") == CHAIN
    assert parse_matching("  1-3   2-4 ") == make_matching([(1, 3), (2, 4)])
    assert parse_matching("") == make_matching([])
    assert parse_matching("   ") == make_matching([])


def test_parse_chord_word():
    assert parse_matching("ABCDCADB") == CHAIN
    assert parse_matching("ABAB") == make_matching([(1, 3), (2, 4)])
    assert parse_matching("A,B,A,B") == make_matching([(1, 3), (2, 4)])


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_matching("BABA")
    assert exc.value.position == 1
    with pytest.raises(ParseError) as exc:
        parse_matching("ABA")
    assert exc.value.position == 2
    with pytest.raises(ParseError) as exc:
        parse_matching("AbAB")
    assert exc.value.position == 2
    with pytest.raises(ParseError) as exc:
        parse_matching("1-2 3")
    assert exc.value.position == 5
    with pytest.raises(ParseError) as exc:
        parse_matching("ABAB,")
    assert exc.value.position == 6
    with pytest.raises(ParseError) as exc:
        parse_matching("ABAABB")
    assert exc.value.position == 4


def test_parse_refuses_overlong_vertex_numbers():
    with pytest.raises(ParseError, match="too long") as exc:
        parse_matching("1-2 3-" + "9" * 5000)
    assert exc.value.position == 5
    assert main(["check", "1-" + "9" * 5000]) == 1
    assert main(["pins", "1-3 2-4", "--start", "1-" + "9" * 5000]) == 1


def _parse_outcome(parse, text):
    """The Matching parsed, or the type, text and offset of the error."""
    try:
        return parse(text)
    except MatchingError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


EDGE_TEXT_PIECES = st.sampled_from(
    ["1", "2", "3", "4", "12", "0", "-", " ", "  ", "\t", "\n", "\u00a0", "x", "\u0663",
     "9" * 4301, "1-2", "3-4"]
)


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.lists(EDGE_TEXT_PIECES, max_size=14).map("".join),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=6).map(
            lambda pairs: " ".join(f"{a}-{b}" for a, b in pairs)
        ),
        matchings(min_n=1, max_n=8).map(str),
    )
)
@example("1-23-4")
@example("1-2 3-4-")
def test_parse_matching_matches_the_reference_on_fuzzed_edge_lists(text):
    assume("-" in text and text.strip())
    got = _parse_outcome(parse_matching, text)
    assert got == _parse_outcome(reference_parse_edge_list, text)
    assert got == _parse_outcome(reference_findall_parse_edge_list, text)


def test_parse_semantic_errors_are_not_parse_errors():
    with pytest.raises(VertexOutOfRange):
        parse_matching("1-3")


def test_format_matching():
    assert format_matching(CHAIN) == "1-6 2-8 3-5 4-7"
    assert format_matching(CHAIN, "chord") == "ABCDCADB"
    with pytest.raises(MatchingError, match="unknown form 'dot'; expected 'edges' or 'chord'"):
        format_matching(CHAIN, "dot")
    with pytest.raises(MatchingError, match="unknown form <an integer of more than"):
        format_matching(CHAIN, 10**5000)


def test_chord_form_beyond_26_edges():
    wide = make_matching([(i, 55 - i) for i in range(1, 28)])
    word = format_matching(wide, "chord")
    assert "," in word
    assert word.startswith("A,B,C,")
    assert ",AA," in word
    assert parse_matching(word) == wide


@settings(max_examples=120)
@given(matchings(max_n=6))
def test_text_forms_round_trip(m):
    assert parse_matching(format_matching(m, "edges")) == m
    if m.n:
        assert parse_matching(format_matching(m, "chord")) == m


def test_certificate_round_trip_found():
    report = witness(INT4, 2)
    doc = json.loads(json.dumps(certificate_document(report, INT4)))
    assert doc["kind"] == "proper_pin_sequence"
    summary = verify_certificate(doc)
    assert summary == "certificate ok: proper_pin_sequence, k=2, size=2, host with 4 edges"


def test_certificate_round_trip_broken_nesting():
    host = make_matching([(5, 11), (1, 10), (2, 9), (3, 8), (4, 7), (6, 12)])
    report = witness(host, 2)
    doc = json.loads(json.dumps(certificate_document(report, host)))
    assert doc["kind"] == "broken_nesting"
    assert doc["side"] == "right" and doc["breaker"] == [5, 11]
    assert verify_certificate(doc).startswith("certificate ok: broken_nesting")


def test_certificate_round_trip_below_threshold():
    crossing = make_matching([(1, 3), (2, 4)])
    report = witness(crossing, 3)
    doc = json.loads(json.dumps(certificate_document(report, crossing)))
    assert doc["kind"] == "below_threshold"
    assert doc["edge_count"] == 2
    summary = verify_certificate(doc)
    assert summary == "certificate ok: below_threshold, k=3, size=2, host with 2 edges"


def _valid_doc() -> dict:
    report = witness(INT4, 2)
    return certificate_document(report, INT4)


def test_certificate_tampering_is_rejected():
    doc = _valid_doc()
    verify_certificate(doc)

    bad = dict(doc, schema_version=2)
    with pytest.raises(InvariantViolation, match="schema_version"):
        verify_certificate(bad)

    bad = dict(doc)
    del bad["size"]
    with pytest.raises(InvariantViolation, match="lacks fields"):
        verify_certificate(bad)

    with pytest.raises(InvariantViolation, match="integer"):
        verify_certificate(dict(doc, k="2"))

    bad = dict(doc, bounds=dict(doc["bounds"], stated="257"))
    with pytest.raises(InvariantViolation, match="bounds"):
        verify_certificate(bad)

    with pytest.raises(UnknownEdge):
        verify_certificate(dict(doc, edges=[[1, 5], [4, 6]]))

    with pytest.raises(InvariantViolation, match="repeats"):
        verify_certificate(dict(doc, edges=[[1, 5], [1, 5]]))

    with pytest.raises(InvariantViolation, match="size"):
        verify_certificate(dict(doc, size=3))

    with pytest.raises(InvariantViolation, match="cannot attest"):
        verify_certificate(dict(doc, edges=[[1, 5]], size=1))

    # Nested host edges can never pass as an interleaving; every pair in
    # the interleaving host crosses, so borrow a chain host for this one.
    chain = make_matching([(3, 5), (4, 7), (1, 6), (2, 8)])
    chain_doc = certificate_document(witness(chain, 2), chain)
    bad = dict(chain_doc, kind="interleaving", edges=[[3, 5], [1, 6]], size=2)
    with pytest.raises(InvariantViolation, match="interleaving"):
        verify_certificate(bad)

    # Edge order and the breaker's position count too: reversed interleaving
    # edges, and a right broken nesting led by its outermost nest edge.
    interleaving = VALID_DOCS[0]
    reversed_doc = dict(interleaving, edges=interleaving["edges"][::-1])
    with pytest.raises(InvariantViolation, match="left-to-right order"):
        verify_certificate(reversed_doc)
    nest_host = make_matching([(5, 11), (1, 10), (2, 9), (3, 8), (4, 7), (6, 12)])
    misplaced = dict(
        certificate_document(witness(nest_host, 3), nest_host),
        kind="broken_nesting",
        side="right",
        edges=[[1, 10], [5, 11], [2, 9]],
        breaker=[1, 10],
        size=3,
    )
    with pytest.raises(InvariantViolation, match="breaker position"):
        verify_certificate(misplaced)

    # The right edges with the nest innermost first.
    rbn12 = canonical(PatternKind.RIGHT_BROKEN_NESTING, 12)
    nested = certificate_document(witness(rbn12, 3), rbn12)
    assert nested["edges"] == [[12, 24], [10, 14], [11, 13]]
    with pytest.raises(InvariantViolation, match="nest outermost first"):
        verify_certificate(dict(nested, edges=[[12, 24], [11, 13], [10, 14]]))

    with pytest.raises(InvariantViolation, match="unknown certificate kind"):
        verify_certificate(dict(doc, kind="fancy"))

    with pytest.raises(InvariantViolation, match="bad side"):
        verify_certificate(dict(doc, kind="broken_nesting"))

    with pytest.raises(MatchingError):
        verify_certificate(dict(doc, k=1))

    with pytest.raises(InvariantViolation, match="JSON object"):
        verify_certificate([doc])

    for bad in (
        dict(doc, edges=[[1]]),
        dict(doc, edges=[5]),
        dict(doc, host=5),
        dict(doc, kind=["interleaving"]),
    ):
        with pytest.raises(InvariantViolation, match="must be"):
            verify_certificate(bad)


def _valid_docs() -> list[dict]:
    """One valid certificate of each kind."""
    hosts = (
        (canonical(PatternKind.INTERLEAVING, 5), 2),
        (make_matching([(5, 11), (1, 10), (2, 9), (3, 8), (4, 7), (6, 12)]), 2),
        (INT4, 2),
        (make_matching([(1, 3), (2, 4)]), 3),
    )
    docs = [json.loads(json.dumps(certificate_document(witness(m, k), m))) for m, k in hosts]
    assert [d["kind"] for d in docs] == [
        "interleaving", "broken_nesting", "proper_pin_sequence", "below_threshold",
    ]
    return docs


VALID_DOCS = _valid_docs()


def _single_edge_doc() -> dict:
    """A below-threshold certificate whose size and edge_count are both 1,
    on a host with the edge 1-2."""
    single = make_matching([(1, 2)])
    doc = json.loads(json.dumps(certificate_document(witness(single, 2), single)))
    assert doc["edge_count"] == doc["size"] == 1 and doc["edges"] == [[1, 2]]
    return doc


def _boolean_docs() -> list[dict]:
    """Certificates that verify when true or 1.0 is read as the integer 1."""
    doc = _single_edge_doc()
    _, broken, _, pair = VALID_DOCS
    assert pair["edges"][0] == [1, 3] and broken["breaker"] == [5, 11]
    return [
        dict(doc, schema_version=True),
        dict(doc, schema_version=1.0),
        dict(doc, size=True),
        dict(doc, edge_count=True),
        dict(doc, edges=[[True, 2]]),
        dict(pair, edges=[[True, 3]] + pair["edges"][1:]),
        dict(broken, breaker=[5.0, 11]),
    ]


def test_certificate_booleans_are_not_integers():
    verify_certificate(_single_edge_doc())
    for bad in _boolean_docs():
        with pytest.raises(InvariantViolation, match="schema_version|integer|edge_count|breaker"):
            verify_certificate(bad)
    with pytest.raises(InvariantViolation, match="k must be an integer"):
        verify_certificate(dict(_single_edge_doc(), k=True))


@pytest.mark.parametrize(
    "doc",
    [
        dict(VALID_DOCS[0], side=[1], breaker=7),
        dict(VALID_DOCS[2], side="left"),
        dict(VALID_DOCS[3], breaker=[1, 3]),
    ],
    ids=["interleaving", "proper_pin_sequence", "below_threshold"],
)
def test_only_a_broken_nesting_certificate_carries_breaker_data(doc):
    # As Witness refuses them; null fields are read as absent.
    verify_certificate(dict(doc, side=None, breaker=None))
    with pytest.raises(InvariantViolation, match=f"{doc['kind']} certificate carries"):
        verify_certificate(doc)


def test_cmd_verify_cert_reports_mistyped_fields(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    mistyped = [dict(_valid_doc(), kind=["interleaving"]), dict(_valid_doc(), kind={})]
    for bad in mistyped + _boolean_docs():
        cert.write_text(json.dumps(bad), encoding="utf-8")
        assert main(["verify-cert", str(cert)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_below_threshold_certificate_tampering(capsys, monkeypatch):
    crossing = make_matching([(1, 3), (2, 4)])
    doc = certificate_document(witness(crossing, 3), crossing)

    with pytest.raises(InvariantViolation, match="edge_count"):
        verify_certificate(dict(doc, edge_count=3))

    # Passing the host off as larger than the tree bound must fail even
    # with a consistent edge_count.
    big = dict(doc, host="1-3 2-4", edge_count=2, k=2, bounds={
        "stated": "256", "crossing_threshold": "4", "tree_bound": "4",
    })
    with pytest.raises(InvariantViolation, match="long enough"):
        verify_certificate(big)

    # A host at the tree bound cannot be below threshold, even with a
    # consistent edge_count, correct bounds and no partial pins.
    forged = {
        "schema_version": 1, "kind": "below_threshold", "k": 2, "host": "1-5 2-6 3-7 4-8",
        "edge_count": 4, "edges": [], "size": 0,
        "bounds": {"stated": "256", "crossing_threshold": "4", "tree_bound": "4"},
    }
    with pytest.raises(InvariantViolation, match="below_threshold claimed with 4 edges >= bound 4"):
        verify_certificate(forged)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(forged)))
    assert main(["verify-cert", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "host, k, partial",
    [("1-2 3-4", 2, []), ("1-2 3-5 4-6", 3, [[3, 5], [4, 6]])],
)
def test_below_threshold_certificate_for_a_decomposable_host(capsys, monkeypatch, host, k, partial):
    # witness refuses these hosts; the theorem says nothing about them.
    forged = {
        "schema_version": 1, "kind": "below_threshold", "k": k, "host": host,
        "edge_count": len(host.split()), "edges": partial, "size": len(partial),
        "bounds": _bounds_field(bounds(k)),
    }
    with pytest.raises(InvariantViolation, match="below_threshold claimed for a decomposable host"):
        verify_certificate(forged)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(forged)))
    assert main(["verify-cert", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_render_svg_crossing_geometry():
    svg = render_svg(make_matching([(1, 3), (2, 4)]))
    assert 'width="132" height="96"' in svg
    assert '<path d="M 30 66 A 24 24 0 0 1 78 66"/>' in svg
    assert '<path d="M 54 66 A 24 24 0 0 1 102 66"/>' in svg
    assert svg.endswith("</svg>\n")
    assert svg == render_svg(make_matching([(1, 3), (2, 4)]))


def test_render_svg_highlight_and_errors():
    svg = render_svg(INT4, (Edge(1, 5),))
    assert svg.count("#c62828") == 1
    assert svg.count("<path") == 4
    with pytest.raises(EmptyMatching):
        render_svg(make_matching([]))
    with pytest.raises(UnknownEdge):
        render_svg(INT4, (Edge(1, 6),))


def test_cli_passes_pairs_in_either_order_to_the_library(tmp_path, capsys):
    assert main(["pins", str(CHAIN), "--start", "8-2"]) == 0
    assert capsys.readouterr().out.startswith("start: 2-8\ngrown: 2-8  [")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"edges": [[5, 1], [4, 8]]}), encoding="utf-8")
    assert main(["render", str(INT4), "--witness", str(cert)]) == 0
    assert capsys.readouterr().out == render_svg(INT4, (Edge(1, 5), Edge(4, 8)))
    cert.write_text(json.dumps({"edges": [[1, 6]]}), encoding="utf-8")
    assert main(["render", str(INT4), "--witness", str(cert)]) == 1
    assert capsys.readouterr().err == "error: edge 1-6 is not an edge of the matching\n"


def test_render_svg_golden_file():
    report = witness(INT4, 2)
    expect = (DATA / "interleaving8.svg").read_text(encoding="utf-8")
    assert render_svg(INT4, report.witness) == expect


def test_render_svg_is_well_formed_xml():
    report = witness(INT4, 2)
    root = ET.fromstring(render_svg(INT4, report.witness))
    assert root.tag.endswith("svg")


def test_cmd_check(capsys):
    assert main(["check", "1-3 2-4"]) == 0
    out = capsys.readouterr().out
    assert "matching: 1-3 2-4" in out
    assert "indecomposable: yes" in out

    assert main(["check", "1-3 2-8 4-6 5-7"]) == 0
    out = capsys.readouterr().out
    assert "indecomposable: no" in out
    assert "interval [4,7]" in out


def test_cmd_check_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("ABAB\n"))
    assert main(["check", "-"]) == 0
    assert "indecomposable: yes" in capsys.readouterr().out


def test_cmd_pins(capsys):
    assert main(["pins", "3-5 4-7 1-6 2-8", "--start", "3-5"]) == 0
    out = capsys.readouterr().out
    assert "grown: 3-5 4-7 1-6 2-8" in out
    assert "proper: 3-5 4-7 1-6 2-8" in out
    assert "right_reaching=yes" in out


def test_cmd_witness_text(capsys):
    assert main(["witness", "ABAB", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "outcome: found" in out
    assert "kind: proper_pin_sequence" in out
    assert "edges: 1-3 2-4" in out
    assert "bounds: stated=256 crossing_threshold=4 tree_bound=4" in out

    assert main(["witness", "5-11 1-10 2-9 3-8 4-7 6-12", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "kind: broken_nesting" in out
    assert "side: right  breaker: 5-11" in out.splitlines()

    # One host per outcome: every printed field is the --json document's.
    for host, k, kind in [
        ("1-7 2-8 3-9 4-10 5-11 6-12", "2", "interleaving"),
        ("5-11 1-10 2-9 3-8 4-7 6-12", "2", "broken_nesting"),
        ("ABAB", "2", "proper_pin_sequence"),
        ("ABAB", "3", "below_threshold"),
    ]:
        assert main(["witness", host, "-k", k, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(["witness", host, "-k", k]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert doc["kind"] == kind and doc["edges"], host
        edges = " ".join(f"{a}-{b}" for a, b in doc["edges"])
        if kind == "below_threshold":
            tree_bound = doc["bounds"]["tree_bound"]
            expected = ["outcome: below_threshold", f"kind: {kind}"]
            expected += [f"edge_count: {doc['edge_count']} (below tree bound {tree_bound})"]
            expected += [f"partial: {edges}"]
        else:
            expected = ["outcome: found", f"kind: {kind}", f"size: {doc['size']}", f"edges: {edges}"]
        if kind == "broken_nesting":
            expected += ["side: {}  breaker: {}-{}".format(doc["side"], *doc["breaker"])]
        fields = ("stated", "crossing_threshold", "tree_bound")
        expected += ["bounds: " + " ".join(f"{f}={doc['bounds'][f]}" for f in fields)]
        assert lines == expected, host


def test_cmd_witness_json_verifies(capsys):
    assert main(["witness", "1-5 2-6 3-7 4-8", "-k", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert verify_certificate(doc).startswith("certificate ok")
    keys = json.dumps(doc, sort_keys=True)
    assert keys == json.dumps(json.loads(keys), sort_keys=True)


def test_cmd_canonical(capsys):
    assert main(["canonical", "right_broken_nesting", "-k", "4"]) == 0
    assert capsys.readouterr().out.strip() == "4-8 1-7 2-6 3-5"
    assert main(["canonical", "interleaving", "-k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1-4 2-5 3-6"
    start = time.perf_counter()
    assert main(["canonical", "interleaving", "-k", "1000000000"]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: pattern size 1000000000 exceeds the cap 1000000\n"


def test_cmd_census(capsys):
    assert main(["census", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert " 3            15               4             4  yes" in out


@pytest.mark.parametrize("n", ["0", "-3"])
def test_census_refuses_n_below_one(capsys, n):
    assert main(["census", "-n", n]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: n {n} is below the minimum 1\n"


def test_census_refuses_past_the_cap_before_the_first_row(capsys):
    # Checked once up front: no row of n = 1..9 is streamed first.
    start = time.perf_counter()
    assert main(["census", "-n", "10"]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: n 10 exceeds the cap 9")


@pytest.mark.parametrize("command", [["census", "-n", "10"], ["scan", "-n", "10", "-k", "3"]])
def test_past_the_cap_the_message_names_the_flag(capsys, command):
    assert main(command) == 1
    out, err = capsys.readouterr()
    assert out == ""
    what = {"census": "n", "scan": "n_max"}[command[0]]
    assert err == (
        f"error: {what} 10 exceeds the cap 9; "
        "pass allow_large=True (--allow-large) to override\n"
    )


@pytest.mark.parametrize("jobs", ["0", "-5"])
@pytest.mark.parametrize(
    "command", [["census", "-n", "3"], ["scan", "-n", "3", "-k", "2"], ["verify", "-n", "3", "-k", "2"]]
)
def test_jobs_below_one_is_refused(capsys, command, jobs):
    assert main([*command, "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: jobs {jobs} is below the minimum 1\n"


def test_cmd_scan(capsys):
    assert main(["scan", "-n", "3", "-k", "3"]) == 0
    out = capsys.readouterr().out
    assert "n=2: 1 avoider(s)  first: 1-3 2-4" in out
    assert "max avoider size: 2" in out


def test_cmd_verify(capsys):
    assert main(["verify", "-n", "3", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "checked: 6 indecomposable matchings" in out
    assert "failures: 0" in out


def test_cmd_render_and_verify_cert_files(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    out_svg = tmp_path / "diagram.svg"

    assert main(["witness", "1-5 2-6 3-7 4-8", "-k", "2", "--json"]) == 0
    cert.write_text(capsys.readouterr().out, encoding="utf-8")

    assert main(["verify-cert", str(cert)]) == 0
    assert capsys.readouterr().out.startswith("certificate ok")

    rc = main([
        "render", "1-5 2-6 3-7 4-8", "--witness", str(cert), "-o", str(out_svg),
    ])
    assert rc == 0
    assert out_svg.read_text(encoding="utf-8") == (DATA / "interleaving8.svg").read_text(
        encoding="utf-8"
    )


def test_cmd_render_prints_the_svg_without_an_output_file(capsys):
    assert main(["render", "ABAB"]) == 0
    assert capsys.readouterr().out == render_svg(parse_matching("ABAB"))


def test_cmd_render_refuses_a_certificate_without_edges(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    doc = _valid_doc()
    del doc["edges"]
    cert.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["render", "1-3 2-4", "--witness", str(cert)]) == 1
    assert capsys.readouterr().err == "error: certificate lacks an edge list\n"


def test_cmd_verify_cert_stdin(capsys, monkeypatch):
    doc = json.dumps(_valid_doc())
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["verify-cert", "-"]) == 0
    assert "certificate ok" in capsys.readouterr().out


def test_cmd_verify_cert_rejects_bad_json(capsys, tmp_path):
    cert = tmp_path / "bad.json"
    cert.write_text("{not json", encoding="utf-8")
    assert main(["verify-cert", str(cert)]) == 1
    assert "error: certificate is not valid JSON" in capsys.readouterr().err


def test_cli_error_paths(capsys):
    assert main(["check", "1-2 3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parse error at position 5")

    assert main(["witness", "1-2 3-4", "-k", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")

    assert main(["pins", ""]) == 1
    assert capsys.readouterr().err.startswith("error:")

    assert main(["pins", "1-3 2-4", "--start", "9-9"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_reports_unreadable_files(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    for argv in (["verify-cert", missing], ["render", "1-3 2-4", "--witness", missing]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_cli_rejects_undecodable_and_non_json_certificates(capsys, tmp_path):
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    text = tmp_path / "text.json"
    text.write_text("not a certificate", encoding="utf-8")
    huge = tmp_path / "huge.json"
    huge.write_text('{"x": ' + "9" * 5000 + "}", encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    for path, reason in (
        (utf16, "not UTF-8"), (text, "not valid JSON"), (huge, "not valid JSON"),
        (deep, "not valid JSON"),
    ):
        for argv in (["verify-cert", str(path)], ["render", "1-3 2-4", "--witness", str(path)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: certificate is {reason}") and err.count("\n") == 1


def test_cli_refuses_k_past_the_cap(capsys):
    assert main(["witness", "1-3 2-4", "-k", str(K_CAP)]) == 0
    capsys.readouterr()
    assert main(["witness", "-k", "800", "1-3 2-4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k 800 exceeds the cap") and err.count("\n") == 1


def test_cli_refuses_n_past_the_exhaustive_cap(capsys):
    assert main(["verify", "-n", "2", "-k", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "-n", "9", "-k", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: n_max 9 exceeds the cap 8")
    assert err.count("\n") == 1 and "allow_large" not in err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
CERTIFICATE_FIELDS = (
    "schema_version", "k", "host", "kind", "edges", "size", "bounds",
    "side", "breaker", "edge_count",
)


TAMPERED_DOCS = st.builds(
    lambda doc, field, value: dict(doc, **{field: value}),
    st.sampled_from(VALID_DOCS),
    st.sampled_from(CERTIFICATE_FIELDS),
    JSON_VALUES,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES | TAMPERED_DOCS)
@example(dict(VALID_DOCS[0], kind=["interleaving"]))
@example(dict(VALID_DOCS[3], host="1-" + "9" * 5000))
def test_verify_certificate_fuzz(doc):
    # Any JSON value either verifies or is refused with a MatchingError,
    # and either way quickly.
    start = time.perf_counter()
    try:
        assert verify_certificate(doc).startswith("certificate ok: ")
    except MatchingError:
        pass
    assert time.perf_counter() - start < 2


def test_huge_certificate_k_is_refused_quickly():
    doc = dict(_valid_doc(), k=100_000_000)
    start = time.perf_counter()
    with pytest.raises(MatchingError):
        verify_certificate(doc)
    assert time.perf_counter() - start < 1
