"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

The lines bypass pytest capture so the verdicts always land in the run log.
These tests restate the library's headline guarantees against independent
oracles and frozen constants; see the module tests for the finer behavior.
"""

import contextlib
import json
import random
import time

import pytest

from indematch import (
    Edge,
    PatternKind,
    Side,
    WitnessKind,
    all_matchings,
    bounds,
    canonical,
    census,
    classify_sequence,
    crossers,
    extract_from_crossed_edge,
    grow_right_reaching,
    is_indecomposable,
    make_matching,
    max_pattern,
    properize,
    subpattern,
    verify_theorem,
)
from indematch.cli import certificate_document, format_matching, parse_matching, verify_certificate
from indematch.ramsey import witness as ramsey_witness

from helpers import (
    all_pin_sequences,
    contains,
    count_proper_rr_sequences,
    oracle_max_size,
    random_indecomposable,
    random_matching,
)

TOTALS = (1, 3, 15, 105, 945, 10395, 135135)
INDECOMPOSABLE = (1, 1, 4, 27, 248, 2830, 38232)


@pytest.fixture(name="criterion")
def criterion_fixture(capfd):
    """One verdict line per criterion, emitted outside pytest's capture so
    it survives into any piped run log."""

    @contextlib.contextmanager
    def criterion(num: int, desc: str):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capfd.disabled():
                print(f"[acceptance] criterion {num} ({desc}): {verdict}", flush=True)

    return criterion


def test_criterion_1_enumeration_cardinality(criterion):
    with criterion(1, "enumeration counts follow the double factorials"):
        t0 = time.monotonic()
        for n, expect in enumerate(TOTALS, start=1):
            assert sum(1 for _ in all_matchings(n)) == expect, n
        assert time.monotonic() - t0 < 60.0


def test_criterion_2_census_vs_recurrence(criterion):
    with criterion(2, "census agrees with the counting recurrence"):
        for n, (total, indec) in enumerate(zip(TOTALS, INDECOMPOSABLE), start=1):
            row = census(n, jobs=4)
            assert row.total == total
            assert row.indecomposable == indec
            # Enumeration is ground truth; the flag must report agreement
            # honestly rather than assume it.
            assert row.matches_recurrence == (row.indecomposable == row.recurrence_value)
            assert row.matches_recurrence
        assert census(2).indecomposable == 1


def _random_pin_sequence(rng, m):
    edges = m.edges()
    pins = [rng.choice(edges)]
    lo, hi = pins[0]
    while rng.random() < 0.75:
        options = [
            e
            for e in edges
            if e not in pins and ((lo <= e.left <= hi) + (lo <= e.right <= hi) == 1)
        ]
        if not options:
            break
        e = rng.choice(options)
        pins.append(e)
        lo, hi = min(lo, e.left), max(hi, e.right)
    return tuple(pins)


def test_criterion_3_pin_sequences_are_indecomposable(criterion):
    with criterion(3, "every pin sequence induces an indecomposable matching"):
        for n in range(1, 6):
            for m in all_matchings(n):
                if not is_indecomposable(m):
                    continue
                seen = set()
                for pins in all_pin_sequences(m):
                    key = frozenset(pins)
                    if key in seen:
                        continue
                    seen.add(key)
                    assert is_indecomposable(subpattern(m, tuple(sorted(pins))))
        rng = random.Random(1729)
        for _ in range(10_000):
            m = random_matching(rng, rng.randint(1, 10))
            pins = _random_pin_sequence(rng, m)
            assert classify_sequence(m, pins).is_pin_sequence
            assert is_indecomposable(subpattern(m, tuple(sorted(pins))))


def test_criterion_4_proper_right_reaching_pin_sequences(criterion):
    with criterion(4, "grow+properize succeed from every edge; tree has >= n nodes"):
        t0 = time.monotonic()
        for n in range(1, 7):
            for m in all_matchings(n):
                if not is_indecomposable(m):
                    continue
                for start in m.edges():
                    grown = grow_right_reaching(m, start)
                    out = properize(m, grown)
                    assert out.pins[0] == start
                    assert out.is_pin_sequence and out.is_proper and out.is_right_reaching
                assert count_proper_rr_sequences(m) >= m.n
        assert time.monotonic() - t0 < 300.0


def _crossed_host(rng, k):
    """A random matching with a designated edge crossed by at least
    2(k-1)^2 + 2 edges: that many one-in-one-out partners around the edge,
    plus a few bystander edges that stay clear of it."""
    need = 2 * (k - 1) ** 2 + 2
    c = need + rng.randint(0, 3)
    extra_kinds = [rng.choice(("left", "right", "over")) for _ in range(rng.randint(0, 3))]
    lefts = rng.randint(0, c)

    l_slots = lefts + 2 * extra_kinds.count("left") + extra_kinds.count("over")
    r_slots = (c - lefts) + 2 * extra_kinds.count("right") + extra_kinds.count("over")
    a = l_slots + 1
    b = a + c + 1

    inner = list(range(a + 1, b))
    outer_l = list(range(1, a))
    outer_r = list(range(b + 1, b + 1 + r_slots))
    rng.shuffle(inner)
    rng.shuffle(outer_l)
    rng.shuffle(outer_r)

    edges = [(a, b)]
    for i in range(c):
        edges.append((inner[i], outer_l.pop() if i < lefts else outer_r.pop()))
    for kind in extra_kinds:
        if kind == "left":
            edges.append((outer_l.pop(), outer_l.pop()))
        elif kind == "right":
            edges.append((outer_r.pop(), outer_r.pop()))
        else:
            edges.append((outer_l.pop(), outer_r.pop()))
    return make_matching(edges), Edge(a, b)


def _witness_pattern(w):
    if w.kind is WitnessKind.INTERLEAVING:
        return PatternKind.INTERLEAVING
    return (
        PatternKind.RIGHT_BROKEN_NESTING
        if w.side is Side.RIGHT
        else PatternKind.LEFT_BROKEN_NESTING
    )


def test_criterion_5_extraction_from_a_heavily_crossed_edge(criterion):
    with criterion(5, "heavy crossers always yield a size-k witness"):
        for k in (2, 3, 4):
            rng = random.Random(97 * k)
            need = 2 * (k - 1) ** 2 + 2
            for run in range(1000):
                m, e = _crossed_host(rng, k)
                left, right = crossers(m, e)
                assert len(left) + len(right) >= need
                w = extract_from_crossed_edge(m, e, k)
                assert w.size >= k
                kind = _witness_pattern(w)
                assert subpattern(m, tuple(sorted(w.edges))) == canonical(kind, w.size)
                if run % 100 == 0:
                    assert contains(m, canonical(kind, w.size)) is not None


def test_criterion_6_theorem_consistency(criterion):
    with criterion(6, "witness search is consistent over all hosts with n <= 6"):
        for k in (2, 3):
            report = verify_theorem(6, k, jobs=4)
            assert report.ok, report.failures[:3]
            assert report.checked == sum(INDECOMPOSABLE[:6])
            assert report.checked == report.found + report.below_threshold
        assert bounds(2).tree_bound == 4
        assert bounds(3).tree_bound == 91
        k2 = verify_theorem(6, 2, jobs=4)
        assert k2.below_threshold == 1
        assert k2.found == k2.checked - 1


def test_criterion_7_max_pattern_oracle_equivalence(criterion):
    with criterion(7, "max_pattern matches brute-force containment maxima"):
        for n in range(7):
            for m in all_matchings(n):
                for kind in PatternKind:
                    assert max_pattern(m, kind)[0] == oracle_max_size(m, kind)


def test_criterion_8_round_trips(criterion):
    with criterion(8, "text forms and certificates survive round-trips"):
        for n in range(6):
            for m in all_matchings(n):
                assert parse_matching(format_matching(m, "edges")) == m
                if m.n:
                    assert parse_matching(format_matching(m, "chord")) == m
        rng = random.Random(31337)
        for _ in range(100):
            m = random_indecomposable(rng, rng.randint(2, 8))
            k = rng.choice((2, 3, 4))
            report = ramsey_witness(m, k)
            doc = json.loads(json.dumps(certificate_document(report, m)))
            assert verify_certificate(doc).startswith("certificate ok")


def test_criterion_9_bound_arithmetic(criterion):
    with criterion(9, "bounds are exact with the closed-form tree bound"):
        assert bounds(2).stated == 256
        for k in range(2, 11):
            b = bounds(k)
            ratio = 2 * (k - 1) ** 2 + 1
            assert b.stated == (2 * k) ** (2 * k)
            assert b.crossing_threshold == ratio + 1
            q, r = divmod(ratio**k - 1, ratio - 1)
            assert r == 0
            assert b.tree_bound == q
