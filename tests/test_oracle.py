import json
import random
import tracemalloc

import pytest

from ghcodes import oracle
from ghcodes.cli import gap_scan, main
from ghcodes.ghcodec import encode_fast, exists, missing_runs
from ghcodes.oracle import (
    SearchLimitError,
    _search_bound,
    all_codes,
    oracle_exists,
    range_exists,
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
    with pytest.raises(ValueError, match="n_max must be >= 1, got 0"):
        range_exists(-2, 0)
    with pytest.raises(ValueError):
        range_exists(-1, 5)


def _verdicts(a, n_max):
    # character n - 1 is "1" iff n has a code, read in one pass
    return format(range_exists(a, n_max), "b").zfill(n_max)[::-1]


def test_range_oracle_equals_per_n_oracle():
    for a in range(-20, -1):
        bits = range_exists(a, 3000)
        assert _verdicts(a, 3000) == "".join(
            "1" if oracle_exists(a, n) else "0" for n in range(1, 3001)
        ), a
        # a shorter range is the same verdicts, cut: the mask holds at every size
        for n_max in range(1, 13):
            assert range_exists(a, n_max) == bits & ((1 << n_max) - 1), (a, n_max)


def test_range_oracle_agrees_on_sampled_large_n():
    rng = random.Random(20200401)
    for a in (-5, -7, -12):
        verdicts = _verdicts(a, 10**6)
        for n in rng.sample(range(1, 10**6 + 1), 200):
            assert (verdicts[n - 1] == "1") == oracle_exists(a, n), (a, n)


def test_range_oracle_runs_equal_the_walker_to_a_million():
    for a in (-5, -7, -12):
        assert gap_scan(a, 10**6, "oracle") == tuple(missing_runs(a, 1, 10**6)), a


def test_range_oracle_rejects_a_hostile_n_max_before_it_grows(monkeypatch):
    for max_index, n_max in ((7, 10**7), (20, 10**7), (64, 10**4000)):
        monkeypatch.setattr(oracle, "DEFAULT_MAX_INDEX", max_index)
        # the per-n oracle stops at the same bound
        with pytest.raises(SearchLimitError):
            oracle_exists(-7, n_max)
        seq = GHSequence(-7)  # private, so other tests cannot grow it
        monkeypatch.setattr(oracle, "gh_sequence", lambda a: seq)
        tracemalloc.start()
        try:
            with pytest.raises(SearchLimitError, match=f"exceeds cap {max_index} for a=-7"):
                range_exists(-7, n_max)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a bitset of 10**7 bits alone would take 1.2 MiB
        assert peak < 2**16, (max_index, peak)
        assert len(seq._terms) - 1 <= max_index + 1
        monkeypatch.undo()


@pytest.mark.parametrize("a, n_max", [
    (-1000, 5000), (-(2**15), 600), (-10**6, 600), (-10**12, 600), (-10**30, 600),
])
def test_range_oracle_equals_the_walk_for_huge_negative_a(a, n_max):
    # at a = -1000 the range reaches past term(6) = 2005, so both kinds of code take tail terms
    walked = (oracle._walk(a, n, lambda chosen: True) for n in range(1, n_max + 1))
    assert _verdicts(a, n_max) == "".join("1" if found else "0" for found in walked)


def test_range_oracle_at_a_huge_negative_a_holds_bits_of_n_max():
    tracemalloc.start()
    try:
        range_exists(-10**30, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # bitsets of n_max - a bits would take about 10**29 bytes
    assert peak < 2**14, peak


def test_oracle_mode_and_verify_answer_a_huge_negative_a(capsys):
    a = f"--a={-10**30}"
    fast = _gaps_out(capsys, a, "--max-n", "10")
    assert _gaps_out(capsys, a, "--max-n", "10", "--mode", "oracle") == fast
    assert main(["verify", a, "--max-n", "10"]) == 0
    assert capsys.readouterr().out == (
        f"verify a={-10**30} n=1..10: pass (encodable 4, missing 6, disagreements 0)\n"
    )


def _expand(runs):
    return tuple(n for start, length in runs for n in range(start, start + length))


def _max_run(runs):
    return max((length for _, length in runs), default=0)


def _gaps_out(capsys, *argv):
    assert main(["gaps", *argv]) == 0
    return capsys.readouterr().out


def test_gap_scan_examples():
    runs = gap_scan(-5, 100, "oracle")
    assert {5, 12} <= set(_expand(runs))
    assert _max_run(runs) == 1
    assert gap_scan(-2, 100, "fast") == ()
    assert _max_run(gap_scan(-10, 2000, "fast")) <= 6


def test_gap_scan_modes_agree():
    assert gap_scan(-6, 400, "fast") == gap_scan(-6, 400, "oracle")


def test_missing_upto_equals_oracle_scan(capsys):
    for a in (-5, -7, -12):
        for n_max in (1, 17, 400):
            runs = gap_scan(a, n_max, "oracle")
            assert tuple(missing_runs(a, 1, n_max)) == runs
            assert gap_scan(a, n_max, "fast") == runs
            out = _gaps_out(capsys, "--a", str(a), "--max-n", str(n_max), "--mode", "oracle")
            assert json.loads(out)["missing_count"] == len(_expand(runs))


def test_gap_scan_memory_does_not_grow_with_n_max():
    tracemalloc.start()
    try:
        runs = gap_scan(-1000, 10**7, "fast")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _max_run(runs) == 996
    assert peak < 4 * 2**20, peak


def test_oracle_gap_scan_holds_one_verdict_string():
    gap_scan(-1000, 1, "oracle")
    tracemalloc.start()
    try:
        runs = gap_scan(-1000, 10**7, "oracle")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert runs == tuple(missing_runs(-1000, 1, 10**7))
    # one byte per n for the verdicts, and the bitset they are read from;
    # a reversed or zero-filled copy would add another byte per n
    assert peak < 10**7 + 2 * 2**20, peak


def test_per_a_caches_stay_bounded_over_many_a():
    # sequences and remainder tables are cached per a; a CLI span of a
    # can name tens of thousands of them
    gap_scan(-2, 1, "fast")
    oracle_exists(-2, 1)
    tracemalloc.start()
    try:
        for a in range(-20_002, -2):
            gap_scan(a, 1, "fast")
        for a in range(-2_002, -2):
            oracle_exists(a, 1)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 2**20, current


def test_gap_bound_holds_to_two_hundred_thousand():
    for k in range(1, 17):
        max_run = _max_run(gap_scan(-(4 + k), 200_000, "fast"))
        assert 0 < max_run <= k, (k, max_run)


def test_gap_report_runs_structure(capsys):
    runs = gap_scan(-5, 60, "fast")
    assert _expand(runs) == tuple(n for n in range(1, 61) if not exists(-5, n))
    for (s1, l1), (s2, _) in zip(runs, runs[1:]):
        assert s1 + l1 < s2  # runs are maximal, so a gap separates them
    report = json.loads(_gaps_out(capsys, "--a", "-5", "--max-n", "60"))
    assert report["max_run"] == max((l for _, l in runs), default=0)
    assert report["runs"] == [list(run) for run in runs]


def test_search_bound_slack_does_not_change_verdicts(monkeypatch):
    # a window three indices wider than the bound gives the same verdicts and codes
    cases = [(a, n) for a in (-2, -7, -12, -20) for n in range(1, 200, 7)]
    before = [(oracle_exists(a, n), all_codes(a, n)) for a, n in cases]
    bound = oracle._search_bound
    monkeypatch.setattr(oracle, "_search_bound", lambda seq, n: bound(seq, n) + 3)
    assert [(oracle_exists(a, n), all_codes(a, n)) for a, n in cases] == before


def test_per_n_oracle_keeps_nothing_between_calls():
    oracle_exists(-7, 1)  # grows the shared sequence to its cap outside the trace
    tracemalloc.start()
    try:
        for n in range(1, 20_001):
            oracle_exists(-7, n)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a memo of (index, target) verdicts would hold about 0.3 KiB per n
    assert current < 256 * 2**10, current


def test_search_cap(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_MAX_INDEX", 20)
    with pytest.raises(SearchLimitError, match="exceeds cap 20"):
        oracle_exists(-2, 10**9)


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


def _bound_outcome(seq, n):
    try:
        return _search_bound(seq, n)
    except SearchLimitError:
        return None


def test_search_bound_equals_linear_walk(monkeypatch):
    for a in (-2, -7, -1000):
        seq = GHSequence(a)
        for max_index in range(7, 21):
            monkeypatch.setattr(oracle, "DEFAULT_MAX_INDEX", max_index)
            # every bound change up to two indices past the cap, and its neighbours
            ns = {*range(1, 100)}
            for j in range(6, max_index + 3):
                edge = seq.term(j) + seq.term(1)
                ns.update(m for m in (edge - 1, edge, edge + 1) if m >= 1)
            for n in sorted(ns):
                assert _bound_outcome(seq, n) == _bound_by_loop(seq, n, max_index)


def test_search_bound_does_not_grow_the_sequence_for_hostile_n(monkeypatch):
    for max_index in (7, 20, 64):
        monkeypatch.setattr(oracle, "DEFAULT_MAX_INDEX", max_index)
        seq = GHSequence(-7)  # private, so other tests cannot grow it
        with pytest.raises(SearchLimitError):
            _search_bound(seq, 10**4000)
        assert len(seq._terms) - 1 <= max_index + 1


def test_csv_and_summary_rendering(capsys):
    lines = _gaps_out(capsys, "--a", "-5", "--max-n", "15", "--format", "csv").splitlines()
    assert lines[0] == "n,exists"
    assert lines[1] == "1,true"
    assert lines[5] == "5,false"
    assert len(lines) == 16
    summary = _gaps_out(capsys, "--a", "-5", "--max-n", "15")
    assert '"a": -5' in summary
    assert '"k": 1' in summary
    assert '"max_run": 1' in summary
    assert "[5, 1]" in summary and "[12, 1]" in summary


def test_summary_line_is_pinned(capsys):
    # the exact bytes `gaps` prints, for a scan with runs and one without
    assert _gaps_out(capsys, "--a", "-7", "--max-n", "40") == (
        '{"a": -7, "k": 3, "n_range": [1, 40], "missing_count": 11, '
        '"max_run": 3, "runs": [[5, 3], [14, 3], [24, 3], [34, 2]]}\n'
    )
    assert _gaps_out(capsys, "--a", "-2", "--max-n", "40") == (
        '{"a": -2, "k": null, "n_range": [1, 40], "missing_count": 0, '
        '"max_run": 0, "runs": []}\n'
    )
