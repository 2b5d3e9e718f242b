import pytest

from ghcodes.ghcodec import encode_fast, exists, missing_upto
from ghcodes.oracle import SearchLimitError, all_codes, gap_scan, oracle_exists


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


def test_gap_scan_examples():
    report = gap_scan(-5, 100, mode="oracle")
    assert {5, 12} <= set(report.missing)
    assert report.max_run == 1
    clean = gap_scan(-2, 100)
    assert clean.missing == ()
    assert clean.max_run == 0
    assert gap_scan(-10, 2000).max_run <= 6


def test_gap_scan_modes_agree():
    assert gap_scan(-6, 400, mode="fast") == gap_scan(-6, 400, mode="oracle")


def test_missing_upto_equals_oracle_scan():
    for a in (-5, -7, -12):
        for n_max in (1, 17, 400):
            report = gap_scan(a, n_max, mode="oracle")
            assert missing_upto(a, n_max) == report.missing
            assert gap_scan(a, n_max, mode="fast") == report


def test_gap_bound_holds_to_two_hundred_thousand():
    for k in range(1, 17):
        report = gap_scan(-(4 + k), 200_000)
        assert 0 < report.max_run <= k, (k, report.max_run)


def test_gap_report_runs_structure():
    report = gap_scan(-5, 60)
    rebuilt = [n for start, length in report.runs for n in range(start, start + length)]
    assert tuple(rebuilt) == report.missing
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
