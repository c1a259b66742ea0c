import pytest

from indematch import (
    AvoiderReport,
    CensusRow,
    all_matchings,
    build_pin_tree,
    canonical,
    census,
    check_census,
    enumeration,
    is_indecomposable,
    make_matching,
    recurrence_counts,
    scan_avoiders,
    verify_theorem,
)
from indematch.enumeration import RECURRENCE_CAP, SOFT_CAP
from indematch.errors import MatchingError, SizeCapExceeded, SizeTooSmall
from indematch.patterns import PatternKind

from helpers import (
    all_pin_sequences,
    contains,
    reference_is_indecomposable_partner,
    reference_partner_tuples,
    reference_partner_tuples_shard,
)

TOTALS = {1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
INDECOMPOSABLE = {1: 1, 2: 1, 3: 4, 4: 27, 5: 248, 6: 2830}


def test_all_matchings_small_streams():
    assert list(all_matchings(0)) == [make_matching([])]
    assert [str(m) for m in all_matchings(2)] == ["1-2 3-4", "1-3 2-4", "1-4 2-3"]


def test_all_matchings_counts_and_uniqueness():
    for n in range(1, 6):
        seen = list(all_matchings(n))
        assert len(seen) == TOTALS[n]
        assert len(set(seen)) == TOTALS[n]


def test_all_matchings_order_is_lex_on_partner_tables():
    for n in range(1, 5):
        tables = [m.partner for m in all_matchings(n)]
        assert tables == sorted(tables)


def test_all_matchings_cap():
    with pytest.raises(SizeCapExceeded) as exc:
        all_matchings(SOFT_CAP + 1)
    assert exc.value.cap == SOFT_CAP
    with pytest.warns(RuntimeWarning, match="streams 19!!"):
        gen = all_matchings(SOFT_CAP + 1, allow_large=True)
    assert next(gen).n == SOFT_CAP + 1
    with pytest.raises(ValueError):
        all_matchings(-1)
    with pytest.raises(MatchingError):
        all_matchings(-1)


def test_every_shard_streams_the_reference_tables_in_order():
    # Position by position: every table is the reference's, and the flagged
    # ones are exactly the reference's indecomposables.
    for n in range(1, 8):
        for fp in range(2, 2 * n + 1):
            partner = [0] * (2 * n)
            got = [(tuple(partner), flag) for flag in enumeration._tables(partner, fp)]
            ref = list(reference_partner_tuples_shard(n, fp))
            assert len(got) == len(ref), (n, fp)
            assert [t for t, flag in got if flag] == [
                t for t in ref if reference_is_indecomposable_partner(t)
            ], (n, fp)
            assert [t for t, _ in got] == ref, (n, fp)


def test_the_stream_reaches_its_first_table_at_n_2000():
    # The stream keeps its frames on a list: no recursion grows with n.
    with pytest.warns(RuntimeWarning):
        first = next(all_matchings(2000, allow_large=True))
    assert first.partner[:4] == (2, 1, 4, 3) and first.n == 2000
    partner = [0] * 4000
    assert next(enumeration._tables(partner, 3)) is False
    assert partner[:4] == [3, 4, 1, 2]
    assert sorted(partner) == list(range(1, 4001))


def _streamed(n, first_partner, decide=True):
    partner = [0] * (2 * n)
    stream = enumeration._tables(partner, first_partner, decide=decide)
    return [(tuple(partner), flag) for flag in stream]


def test_without_decide_every_flag_is_false_and_every_table_the_reference():
    for n in range(1, 8):
        for fp in range(2, 2 * n + 1):
            ref = reference_partner_tuples_shard(n, fp)
            assert _streamed(n, fp, decide=False) == [(t, False) for t in ref], (n, fp)


def test_the_smallest_streams_complete_from_the_root_frame():
    # n = 3: the root's pairing leaves four free vertices, whose three
    # pairings are written in place with no frame pushed.
    assert _streamed(3, 3) == [
        ((3, 4, 1, 2, 6, 5), False),
        ((3, 5, 1, 6, 2, 4), True),
        ((3, 6, 1, 5, 4, 2), False),
    ]
    assert _streamed(3, 6) == [
        ((6, 3, 2, 5, 4, 1), False),
        ((6, 4, 5, 2, 3, 1), False),
        ((6, 5, 4, 3, 2, 1), False),
    ]
    # n = 2: the root's pairing leaves two, paired inline.
    assert _streamed(2, 3) == [((3, 4, 1, 2), True)]
    assert _streamed(1, 2) == [((2, 1), True)]


def test_all_matchings_is_the_reference_stream():
    for n in range(7):
        assert [m.partner for m in all_matchings(n)] == list(reference_partner_tuples(n)), n


def test_recurrence_counts():
    assert recurrence_counts(7) == (0, 1, 1, 4, 27, 248, 2830, 38232)
    with pytest.raises(SizeTooSmall):
        recurrence_counts(0)
    # The largest allowed call, and census may go up to it with allow_large.
    table = recurrence_counts(RECURRENCE_CAP)
    assert len(table) == RECURRENCE_CAP + 1 and table[8] == 593859
    check_census(RECURRENCE_CAP, allow_large=True)


def test_census_rows():
    for n in range(1, 6):
        row = census(n)
        assert row == CensusRow(n, TOTALS[n], INDECOMPOSABLE[n], INDECOMPOSABLE[n])
        assert row.matches_recurrence


def test_census_parallel_agrees():
    assert census(5, jobs=2) == census(5)


def test_pool_never_exceeds_the_shard_count(monkeypatch):
    # A stand-in pool: records its size, maps in this process.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    assert census(3, jobs=100_000) == census(3)
    assert census(3, jobs=2) == census(3)
    assert sizes == [5, 2]


def test_census_warns_once_past_the_cap(monkeypatch):
    monkeypatch.setattr(enumeration, "SOFT_CAP", 2)
    with pytest.raises(SizeCapExceeded):
        census(3)
    with pytest.warns(RuntimeWarning, match="streams 5!! items") as caught:
        row = census(3, allow_large=True)
    assert len(caught) == 1
    assert row == CensusRow(3, TOTALS[3], INDECOMPOSABLE[3], INDECOMPOSABLE[3])


def test_census_validation():
    with pytest.raises(SizeTooSmall):
        census(0)
    with pytest.raises(SizeCapExceeded):
        census(SOFT_CAP + 1)


def test_jobs_below_one_raise_before_any_work():
    for jobs in (0, -5):
        with pytest.raises(SizeTooSmall, match=f"jobs {jobs} is below the minimum 1"):
            census(3, jobs=jobs)
        with pytest.raises(SizeTooSmall):
            check_census(3, jobs=jobs)
        with pytest.raises(SizeTooSmall):
            scan_avoiders(3, 2, jobs=jobs)
        with pytest.raises(SizeTooSmall):
            verify_theorem(3, 2, jobs=jobs)
    with pytest.raises(SizeCapExceeded):
        check_census(SOFT_CAP + 1)
    check_census(SOFT_CAP + 1, allow_large=True)


def test_scan_avoiders_k2():
    report = scan_avoiders(6, 2)
    assert report.counts == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
    assert report.max_size == 1
    assert str(report.examples[1]) == "1-2"
    assert 2 not in report.examples


def test_scan_avoiders_k3():
    report = scan_avoiders(6, 3)
    assert report.counts == {1: 1, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}
    assert report.max_size == 2
    assert str(report.examples[1]) == "1-2"
    assert str(report.examples[2]) == "1-3 2-4"


def test_scan_avoiders_parallel_agrees():
    a = scan_avoiders(5, 3, jobs=2)
    b = scan_avoiders(5, 3)
    assert (a.counts, a.examples, a.max_size) == (b.counts, b.examples, b.max_size)


def test_scan_avoiders_validation():
    with pytest.raises(SizeTooSmall):
        scan_avoiders(0, 2)
    with pytest.raises(SizeTooSmall):
        scan_avoiders(3, 1)


def oracle_avoider(m, k: int) -> bool:
    """Containment oracle for the three patterns plus an order-blind search
    for a proper right-reaching sequence of k pins."""
    for kind in (
        PatternKind.INTERLEAVING,
        PatternKind.RIGHT_BROKEN_NESTING,
        PatternKind.LEFT_BROKEN_NESTING,
    ):
        if contains(m, canonical(kind, k)) is not None:
            return False
    from indematch import classify_sequence

    for pins in all_pin_sequences(m):
        if len(pins) < k:
            continue
        cls = classify_sequence(m, pins)
        if cls.is_proper and cls.is_right_reaching:
            return False
    return True


@pytest.mark.parametrize("k", [2, 3, 4])
def test_scan_avoiders_against_containment_oracle(k):
    report = scan_avoiders(4, k)
    for n in range(1, 5):
        expect = sum(
            1
            for m in all_matchings(n)
            if is_indecomposable(m) and oracle_avoider(m, k)
        )
        assert report.counts[n] == expect


def test_pin_tree_enumerates_all_proper_right_reaching_sequences():
    # The avoider scan trusts the tree to hold every proper right-reaching
    # sequence; cross-check against the order-blind generator.
    for n in range(1, 5):
        for m in all_matchings(n):
            if not is_indecomposable(m):
                continue
            from indematch import classify_sequence

            tree = set(build_pin_tree(m, m.n).nodes)
            brute = {
                pins
                for pins in all_pin_sequences(m)
                if (lambda c: c.is_proper and c.is_right_reaching)(
                    classify_sequence(m, pins)
                )
            }
            assert tree == brute, str(m)


def test_avoider_max_size_is_monotone_in_k():
    sizes = [scan_avoiders(5, k).max_size for k in (2, 3, 4)]
    assert sizes == sorted(sizes)


def test_avoider_report_max_size_empty():
    assert AvoiderReport(3, 2, {1: 0, 2: 0, 3: 0}, {}).max_size == 0
