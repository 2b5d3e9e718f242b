import json
import tracemalloc

import pytest

from ghcodes.ghcodec import encode_fast, exists, missing_runs
from ghcodes.oracle import (
    SearchLimitError,
    _SubsetSearcher,
    all_codes,
    gap_scan,
    oracle_exists,
)
from ghcodes.sequences import GHSequence


def test_existence_examples():
    assert oracle_exists(-5, 12) is False
    assert oracle_exists(-2, 7) is True
    assert oracle_exists(-5, 35) is False


def test_all_codes_examples():
    assert all_codes(-2, 7) == {"01011", "1000011"}
    assert all_codes(-5, 5) == set()
    assert all_codes(-2, 1) == {"0011"}


def test_fast_code_appears_in_all_codes():
    for a, n in [(-2, 7), (-4, 135), (-6, 649), (-9, 77), (-20, 64)]:
        out = encode_fast(a, n)
        if out is not None:
            assert out.code in all_codes(a, n)


def test_equivalence_with_encoder_on_small_grid():
    for a in (-2, -5, -8, -13):
        for n in range(1, 301):
            assert oracle_exists(a, n) == exists(a, n)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        oracle_exists(-2, 0)
    with pytest.raises(ValueError):
        oracle_exists(-1, 5)
    with pytest.raises(ValueError):
        gap_scan(-5, 0)
    with pytest.raises(ValueError):
        gap_scan(-5, 10, mode="psychic")


def _expand(runs):
    return tuple(n for start, length in runs for n in range(start, start + length))


def test_gap_scan_examples():
    report = gap_scan(-5, 100, mode="oracle")
    assert {5, 12} <= set(_expand(report.runs))
    assert report.max_run == 1
    clean = gap_scan(-2, 100)
    assert clean.runs == ()
    assert clean.max_run == 0
    assert gap_scan(-10, 2000).max_run <= 6


def test_gap_scan_modes_agree():
    assert gap_scan(-6, 400, mode="fast") == gap_scan(-6, 400, mode="oracle")


def test_missing_upto_equals_oracle_scan():
    for a in (-5, -7, -12):
        for n_max in (1, 17, 400):
            report = gap_scan(a, n_max, mode="oracle")
            assert tuple(missing_runs(a, 1, n_max)) == report.runs
            assert gap_scan(a, n_max, mode="fast") == report
            assert json.loads(report.summary())["missing_count"] == len(_expand(report.runs))


def test_gap_scan_memory_does_not_grow_with_n_max():
    tracemalloc.start()
    try:
        report = gap_scan(-1000, 10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.max_run == 996
    assert peak < 4 * 2**20, peak


def test_gap_bound_holds_to_two_hundred_thousand():
    for k in range(1, 17):
        report = gap_scan(-(4 + k), 200_000)
        assert 0 < report.max_run <= k, (k, report.max_run)


def test_gap_report_runs_structure():
    report = gap_scan(-5, 60)
    assert _expand(report.runs) == tuple(n for n in range(1, 61) if not exists(-5, n))
    for (s1, l1), (s2, _) in zip(report.runs, report.runs[1:]):
        assert s1 + l1 < s2  # runs are maximal, so a gap separates them
    assert report.max_run == max((l for _, l in report.runs), default=0)


def test_search_bound_slack_does_not_change_verdicts():
    for a in (-2, -7, -12, -20):
        for n in range(1, 200, 7):
            assert oracle_exists(a, n) == oracle_exists(a, n, slack=3)


def test_search_cap():
    with pytest.raises(SearchLimitError):
        oracle_exists(-2, 10**9, max_index=20)


def test_search_cap_names_a_huge_n_by_its_size():
    # formatting n in decimal would itself fail past 4300 digits
    with pytest.raises(SearchLimitError, match="n of 16610 bits"):
        oracle_exists(-7, 10**5000)


def _bound_by_loop(seq, n, max_index):
    # linear walk up from index 7; None where it would pass max_index
    i = 7
    while seq.term(i) + seq.term(1) <= n:
        i += 1
        if i > max_index:
            return None
    return i


def _bound_outcome(searcher, n, max_index):
    try:
        return searcher.bound(n, max_index, 0)
    except SearchLimitError:
        return None


def test_search_bound_equals_linear_walk():
    for a in (-2, -7, -1000):
        searcher = _SubsetSearcher(a)
        seq = searcher.seq
        for max_index in range(7, 21):
            # every bound change up to two indices past the cap, and its neighbours
            ns = {*range(1, 100)}
            for j in range(6, max_index + 3):
                edge = seq.term(j) + seq.term(1)
                ns.update(m for m in (edge - 1, edge, edge + 1) if m >= 1)
            for n in sorted(ns):
                assert _bound_outcome(searcher, n, max_index) == _bound_by_loop(seq, n, max_index)
            assert searcher.bound(3, max_index, 4) == _bound_by_loop(seq, 3, max_index) + 4


def test_search_bound_does_not_grow_the_sequence_for_hostile_n():
    for max_index in (7, 20, 64):
        searcher = _SubsetSearcher(-7)
        searcher.seq = GHSequence(-7, horizon=2)  # private, so other tests cannot grow it
        with pytest.raises(SearchLimitError):
            searcher.bound(10**4000, max_index, 0)
        assert len(searcher.seq._terms) - 1 <= max_index + 1


def test_csv_and_summary_rendering():
    report = gap_scan(-5, 15)
    lines = report.to_csv().splitlines()
    assert lines[0] == "n,exists"
    assert lines[1] == "1,true"
    assert lines[5] == "5,false"
    assert len(lines) == 16
    assert list(report.csv_rows()) == lines
    summary = report.summary()
    assert '"a": -5' in summary
    assert '"k": 1' in summary
    assert '"max_run": 1' in summary
    assert "[5, 1]" in summary and "[12, 1]" in summary


def test_summary_line_is_pinned():
    # the exact bytes `gaps` prints, for a scan with runs and one without
    assert gap_scan(-7, 40).summary() == (
        '{"a": -7, "k": 3, "n_range": [1, 40], "missing_count": 11, '
        '"max_run": 3, "runs": [[5, 3], [14, 3], [24, 3], [34, 2]]}'
    )
    assert gap_scan(-2, 40).summary() == (
        '{"a": -2, "k": null, "n_range": [1, 40], "missing_count": 0, '
        '"max_run": 0, "runs": []}'
    )
