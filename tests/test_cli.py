import contextlib
import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
from itertools import repeat
from pathlib import Path

import pytest

import ghcodes
from ghcodes import cli, ghcodec
from ghcodes.cli import main
from ghcodes.ghcodec import decode, exists, missing_runs
from ghcodes.stream import codeword_encoder, stream_decode, stream_encode


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode(capsys):
    code, out, _ = run(capsys, "encode", "--a", "-2", "7")
    assert code == 0 and out.strip() == "01011"


def test_encode_equals_form(capsys):
    code, out, _ = run(capsys, "encode", "--a=-2", "7")
    assert code == 0 and out.strip() == "01011"


def test_encode_fib(capsys):
    code, out, _ = run(capsys, "encode", "--code", "fib", "11")
    assert code == 0 and out.strip() == "001011"


def test_encode_nonexistent(capsys):
    code, out, err = run(capsys, "encode", "--a", "-5", "5")
    assert code == 1 and out == "" and "no code" in err


def test_encode_requires_a_for_gh(capsys):
    code, _, err = run(capsys, "encode", "7")
    assert code == 2 and "error" in err


_NO_A = "error: --a is required for the gh code\n"
_A_ABOVE = "error: parameter a must be <= -2, got {}\n"
_FIB_A = "error: --a only applies to the gh code\n"
_BAD_SPEC = "error: codec spec must be 'fib' or 'gh:A', got {!r}\n"
_SPAN = "error: {} must be an integer or an inclusive lo:hi range, got {!r}\n"
_UNIFORM = "error: uniform bounds must satisfy 1 <= lo <= hi, got {!r}\n"
_GEOMETRIC = "error: geometric p must be in (0, 1), got {}\n"
_DIST = "error: distribution must be constant:V, uniform:LO:HI or geometric:P, got {!r}\n"


@pytest.mark.parametrize("argv, status, message", [
    (("encode", "7"), 2, _NO_A),
    (("encode", "--a", "-1", "7"), 2, _A_ABOVE.format(-1)),
    (("encode", "--a", "3", "7"), 2, _A_ABOVE.format(3)),
    (("encode", "--code", "fib", "--a", "-2", "7"), 2, _FIB_A),
    (("encode", "--code", "fib", "--a", "0", "7"), 2, _FIB_A),
    (("encode", "--a", "-5", "5"), 1, "no code exists for n=5 at a=-5\n"),
    (("decode", "0011"), 2, _NO_A),
    (("decode", "--a", "-1", "0011"), 2, _A_ABOVE.format(-1)),
    (("decode", "--a", "3", "0011"), 2, _A_ABOVE.format(3)),
    (("decode", "--code", "fib", "--a", "-2", "0011"), 2, _FIB_A),
    (("decode", "--code", "fib", "--a", "0", "0011"), 2, _FIB_A),
    (("bench", "--dist", "constant:1", "--codes", "gh:x"), 2, _BAD_SPEC.format("gh:x")),
    (("bench", "--dist", "constant:1", "--codes", "gh:"), 2, _BAD_SPEC.format("gh:")),
    (("bench", "--dist", "constant:1", "--codes", "fib:0"), 2, _BAD_SPEC.format("fib:0")),
    (("bench", "--dist", "constant:1", "--codes", "morse"), 2, _BAD_SPEC.format("morse")),
    (("bench", "--dist", "constant:1", "--codes", "fib,gh:-1"), 2, _A_ABOVE.format(-1)),
    (("bench", "--dist", "constant:1", "--codes", "gh:3"), 2, _A_ABOVE.format(3)),
    (("bench", "--dist", "constant:1", "--codes", " , "), 2, "error: --codes selected no codecs\n"),
    (("table", "--a", "-7", "--n", "1:2:3"), 2, _SPAN.format("--n", "1:2:3")),
    (("table", "--a", "-7", "--n", "x"), 2, _SPAN.format("--n", "x")),
    (("exists", "--a", "-7", "5:3"), 2, "error: n range must have lo <= hi, got '5:3'\n"),
    (("table", "--a", "-5:-9", "--n", "1"), 2, "error: --a range must have lo <= hi, got '-5:-9'\n"),
    (("table", "--a", "-7", "--n", "0:3"), 2, "error: n must be >= 1, got 0\n"),
    (("verify", "--a", "-7", "--max-n", "0"), 2, "error: --max-n must be >= 1, got 0\n"),
    (("bench", "--dist", "constant:1", "--count", "0"), 2, "error: --count must be >= 1, got 0\n"),
    (("bench", "--dist", "constant:0"), 2, "error: constant value must be >= 1, got 0\n"),
    (("bench", "--dist", "uniform:5:3"), 2, _UNIFORM.format("5:3")),
    (("bench", "--dist", "uniform:0:3"), 2, _UNIFORM.format("0:3")),
    (("bench", "--dist", "geometric:1.5"), 2, _GEOMETRIC.format(1.5)),
    (("bench", "--dist", "geometric:0"), 2, _GEOMETRIC.format(0.0)),
    (("bench", "--dist", "geometric:x"), 2, _DIST.format("geometric:x")),
])
def test_codec_and_a_errors_are_pinned(capsys, argv, status, message):
    assert run(capsys, *argv) == (status, "", message)


@pytest.mark.parametrize("argv, status, message", [
    ((), 2, _NO_A),
    (("--a", "-1"), 2, _A_ABOVE.format(-1)),
    (("--a", "3"), 2, _A_ABOVE.format(3)),
    (("--code", "fib", "--a", "-2"), 2, _FIB_A),
    (("--code", "fib", "--a", "0"), 2, _FIB_A),
    (("--a", "-40000"), 2, "error: parameter a must be >= -32768 to fit the header, got -40000\n"),
    (("--a", "-5"), 1, "error: no code exists for value 5 at a=-5\n"),
])
def test_stream_pack_codec_and_a_errors_are_pinned(tmp_path, capsys, argv, status, message):
    path = tmp_path / "doc.ghc"
    assert run(capsys, "stream-pack", *argv, "--out", str(path), "7", "5") == (status, "", message)
    assert not path.exists()


def test_decode(capsys):
    code, out, _ = run(capsys, "decode", "--a", "-6", "10000000001011")
    assert code == 0 and out.strip() == "649"


def test_decode_fib(capsys):
    code, out, _ = run(capsys, "decode", "--code", "fib", "010011")
    assert code == 0 and out.strip() == "10"


def test_decode_malformed(capsys):
    code, _, err = run(capsys, "decode", "--a", "-4", "10000000111")
    assert code == 2 and "error" in err


def test_decode_nonpositive(capsys):
    code, _, err = run(capsys, "decode", "--a", "-2", "11")
    assert code == 2 and "non-positive" in err


def test_exists_single(capsys):
    code, out, _ = run(capsys, "exists", "--a", "-5", "5")
    assert code == 1 and out.strip() == "no"
    code, out, _ = run(capsys, "exists", "--a", "-2", "7")
    assert code == 0 and out.strip() == "yes"


def test_exists_range(capsys):
    code, out, _ = run(capsys, "exists", "--a", "-5", "4:6")
    assert code == 1
    assert out.strip().splitlines() == ["4 yes", "5 no", "6 yes"]
    for a, lo, hi in ((-7, 99_990, 100_020), (-12, 1, 3000), (-7, 10**21, 10**21 + 300)):
        code, out, _ = run(capsys, "exists", "--a", str(a), f"{lo}:{hi}")
        assert code == 1
        assert out == "".join(
            f"{n} {'yes' if exists(a, n) else 'no'}\n" for n in range(lo, hi + 1)
        )
    code, out, _ = run(capsys, "exists", "--a", "-3", "1:2000")
    assert code == 0 and out == "".join(f"{n} yes\n" for n in range(1, 2001))


def test_invalid_a_is_usage_error(capsys):
    code, _, err = run(capsys, "exists", "--a", "-1", "5")
    assert code == 2 and "error" in err


def test_table_rows_round_trip(capsys):
    code, out, _ = run(capsys, "table", "--a", "-2:-2", "--n", "1:8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,n,code"
    assert len(lines) == 9
    for line in lines[1:]:
        a_s, n_s, word = line.split(",")
        assert decode(int(a_s), word) == int(n_s)


def test_table_negative_range_value(capsys):
    code, out, _ = run(capsys, "table", "--a", "-3:-2", "--n", "1:2", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_table_marker_for_missing(capsys):
    code, out, _ = run(capsys, "table", "--a", "-5", "--n", "5:5", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "-5,5,-"


def test_table_corrected_code_for_135(capsys):
    code, out, _ = run(capsys, "table", "--a", "-4", "--n", "135:135", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1].endswith("100000000011")


def test_table_text_layout(capsys):
    # a right-aligned in 4 columns, n in 8, then the code or '-'
    code, out, _ = run(capsys, "table", "--a", "-5:-4", "--n", "4:6")
    assert code == 0
    assert out == (
        "  -5        4 101011\n"
        "  -5        5 -\n"
        "  -5        6 011\n"
        "  -4        4 101011\n"
        "  -4        5 011\n"
        "  -4        6 00011\n"
    )
    code, out, _ = run(capsys, "table", "--a", "-1000", "--n", "135")
    assert (code, out) == (0, "-1000      135 -\n")


@pytest.mark.parametrize("a, n", [
    ("-20:-2", "1:400"), ("-20:-2", "150:190"), ("-1000", "1:40"), ("-1000", "2005:2060"),
    ("-1000", "5020:5020"), (str(-10**30), "1:40"),
])
def test_table_csv_is_the_encoder_per_n(capsys, monkeypatch, a, n):
    # windows from n = 1, from a leaf start (term(6) = 2005 at a = -1000), inside a
    # later leaf, and of one n; slices of 7 n cut the longer leaves
    monkeypatch.setattr(ghcodec, "_LEAF_SLICE", 7)
    code, out, err = run(capsys, "table", f"--a={a}", "--n", n, "--format", "csv")
    a_lo, a_hi = cli._parse_span(a, "--a")
    n_lo, n_hi = cli._parse_span(n, "--n")
    assert (code, err) == (0, "")
    assert out == "a,n,code\n" + "".join(
        f"{a},{n},{codeword_encoder('gh', a)(n) or '-'}\n"
        for a in range(a_lo, a_hi + 1) for n in range(n_lo, n_hi + 1))


def test_table_reads_a_leaf_far_from_its_start_in_time():
    # n is 10**31 into a leaf of about 2 * 10**30 n: a template over every residual
    # up to n's would never finish, and the walk lists only the residuals with a code
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["table", f"--a={-10**30}", "--n", f"{10**31}:{10**31 + 2}"]) == 0
    assert time.perf_counter() - start < 2
    assert out.getvalue() == "".join(
        f"{-10**30:>4} {n:>8} {codeword_encoder('gh', -10**30)(n) or '-'}\n"
        for n in range(10**31, 10**31 + 3))


def test_gaps_summary(capsys):
    code, out, _ = run(capsys, "gaps", "--a", "-5", "--max-n", "100")
    assert code == 0
    assert '"max_run": 1' in out
    assert "[5, 1]" in out and "[12, 1]" in out


def test_gaps_universal_parameter(capsys):
    code, out, _ = run(capsys, "gaps", "--a", "-2", "--max-n", "100")
    assert code == 0 and '"max_run": 0' in out


def test_gaps_csv(capsys):
    code, out, _ = run(capsys, "gaps", "--a", "-5", "--max-n", "15", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,exists" and lines[5] == "5,false"


def test_gaps_csv_streams_the_report_rows(capsys):
    code, out, _ = run(capsys, "gaps", "--a", "-7", "--max-n", "3000", "--format", "csv")
    assert code == 0
    assert out == "n,exists\n" + "".join(
        f"{n},{'true' if exists(-7, n) else 'false'}\n" for n in range(1, 3001)
    )


def test_gaps_range_equals_single_runs_in_order(capsys):
    code, out, _ = run(capsys, "gaps", "--a", "-7:-5", "--max-n", "200")
    assert code == 0
    singles = []
    for a in ("-7", "-6", "-5"):
        single_code, single_out, _ = run(capsys, "gaps", "--a", a, "--max-n", "200")
        assert single_code == 0
        singles.append(single_out)
    assert out == "".join(singles)


def test_gaps_one_element_range_equals_single(capsys):
    for fmt in ("text", "csv"):
        _, ranged, _ = run(capsys, "gaps", "--a", "-5:-5", "--max-n", "50", "--format", fmt)
        _, single, _ = run(capsys, "gaps", "--a", "-5", "--max-n", "50", "--format", fmt)
        assert ranged == single


def test_gaps_oracle_mode_prints_the_fast_bytes(capsys):
    # csv takes a single a, so the span runs once as text and a by a as csv
    cases = [("-12:-5", "text")] + [(str(a), "csv") for a in range(-12, -4)]
    for a, fmt in cases:
        argv = ("gaps", "--a", a, "--max-n", "3000", "--format", fmt)
        fast = run(capsys, *argv)
        assert run(capsys, *argv, "--mode", "oracle") == fast
        assert fast[0] == 0 and fast[1]


@pytest.mark.parametrize("argv", [
    ("--a", "-3:-1"),
    ("--a", "-7:-5", "--format", "csv"),
])
def test_gaps_range_usage_errors(capsys, argv):
    code, out, err = run(capsys, "gaps", "--max-n", "20", *argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("gaps", "--a", "-3:-1", "--max-n", "20"),
    ("table", "--a", "-3:-1", "--n", "1:5"),
    ("verify", "--a", "-1", "--max-n", "10"),
    ("exists", "--a", "-1", "5"),
])
def test_a_bound_error_text_is_shared(capsys, argv):
    # every subcommand reports a > -2 through the one check in GHSequence
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: parameter a must be <= -2, got -1\n")


@pytest.mark.parametrize("n", ["-5", "-5:-1", "-5:3"])
def test_exists_negative_n_is_usage_error(capsys, n):
    # a negative span would otherwise read as an unknown option, not as n
    code, out, err = run(capsys, "exists", "--a", "-7", n)
    assert (code, out, err) == (2, "", "error: n must be >= 1, got -5\n")


def test_gaps_max_n_cap_exits_before_scanning(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gap_scan", lambda *args, **kw: pytest.fail("scanned"))
    code, out, err = run(capsys, "gaps", "--a", "-7", "--max-n", str(10**7 + 1))
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be <= 10000000, got 10000001\n"


def test_gaps_max_n_below_one_exits_before_scanning(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gap_scan", lambda *args, **kw: pytest.fail("scanned"))
    code, out, err = run(capsys, "gaps", "--a", "-7", "--max-n", "0")
    assert (code, out, err) == (2, "", "error: --max-n must be >= 1, got 0\n")


@pytest.mark.parametrize("a", ["-7", "-2"])
def test_gaps_exits_3_on_a_run_longer_than_k(capsys, monkeypatch, a):
    # k is 3 at a = -7 and None at a = -2, where no run may exist at all;
    # the report is printed in full before the status says the bound failed
    monkeypatch.setattr(cli, "gap_scan", lambda *args, **kw: ((5, 4),))
    code, out, err = run(capsys, "gaps", "--a", a, "--max-n", "20")
    assert (code, err) == (3, "")
    assert out.count("\n") == 1 and '"max_run": 4' in out and '"runs": [[5, 4]]' in out
    code, out, err = run(capsys, "gaps", "--a", a, "--max-n", "20", "--format", "csv")
    assert (code, err) == (3, "")
    assert out == "n,exists\n" + "".join(
        f"{n},{'false' if 5 <= n <= 8 else 'true'}\n" for n in range(1, 21))


def test_gaps_rejects_unknown_mode(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gap_scan", lambda *args, **kw: pytest.fail("scanned"))
    with pytest.raises(SystemExit) as exc:
        main(["gaps", "--a", "-7", "--max-n", "10", "--mode", "psychic"])
    assert exc.value.code == 2
    assert "invalid choice: 'psychic'" in capsys.readouterr().err


def test_verify_max_n_cap_exits_before_checking(capsys, monkeypatch):
    for name in ("range_exists", "_leaf_codes", "encode_simple", "encode_fast"):
        monkeypatch.setattr(cli, name, lambda *args, **kw: pytest.fail("checked"))
    code, out, err = run(capsys, "verify", "--a", "-7", "--max-n", str(10**6 + 1))
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be <= 1000000, got 1000001\n"


def test_bench_memory_does_not_grow_with_count():
    # each codec draws its values from a generator, so no list of --count values is held
    def bench_peak(count):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["bench", "--dist", "geometric:0.05", "--count", str(count),
                             "--codes", "fib,gh:-7", "--format", "csv"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    small, large = bench_peak(10**4), bench_peak(10**5)
    assert large < small + 2**16, (small, large)


def test_bench_bad_codec_spec_exits_before_drawing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_gen_values", lambda *args, **kw: pytest.fail("drew values"))
    code, out, err = run(capsys, "bench", "--dist", "geometric:0.05", "--count", "2000000",
                         "--codes", "fib,gh:x")
    assert (code, out) == (2, "")
    assert err == "error: codec spec must be 'fib' or 'gh:A', got 'gh:x'\n"


def test_bench_constant_fib(capsys):
    code, out, _ = run(capsys, "bench", "--dist", "constant:1", "--count", "100",
                       "--codes", "fib", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "codec,count,encoded,skipped,total_bits,bits_per_value"
    assert row == "fib,100,100,0,200,2.0000"


def test_bench_constant_gh(capsys):
    code, out, _ = run(capsys, "bench", "--dist", "constant:7", "--count", "10",
                       "--codes", "gh:-2", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[1] == "gh:-2,10,10,0,50,5.0000"


def test_bench_text_table(capsys):
    # the default format; only the seconds column varies from run to run
    code, out, err = run(capsys, "bench", "--dist", "constant:7", "--count", "10",
                         "--codes", "fib,gh:-2")
    assert (code, err) == (0, "")
    header, *rows = out.splitlines()
    assert header == "codec          count  skipped   total_bits  bits/value  seconds"
    assert [row[:-9] for row in rows] == [
        "fib               10        0           50      5.0000",
        "gh:-2             10        0           50      5.0000",
    ]
    for row in rows:
        assert row[-9] == " " and float(row[-8:]) >= 0


def test_bench_uniform_csv_rows_are_pinned(capsys):
    code, out, err = run(capsys, "bench", "--dist", "uniform:1:1000", "--count", "1000",
                         "--codes", "fib,gh:-7", "--format", "csv")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "fib,1000,1000,0,13273,13.2730",
        "gh:-7,1000,725,275,9237,12.7407",
    ]


def test_bench_csv_is_seed_stable_and_universal_skips_nothing(capsys):
    argv = ("bench", "--dist", "geometric:0.05", "--count", "500",
            "--codes", "fib,gh:-3", "--seed", "99", "--format", "csv")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    for row in first.strip().splitlines()[1:]:
        assert row.split(",")[3] == "0"


def test_bench_bad_dist(capsys):
    code, _, err = run(capsys, "bench", "--dist", "zipf:1", "--codes", "fib")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("dist", ["geometric:5e-324", "geometric:1e-320", "uniform:5"])
def test_bench_bad_dist_names_spec(capsys, dist):
    code, out, err = run(capsys, "bench", "--dist", dist, "--count", "1", "--codes", "fib")
    assert code == 2 and out == ""
    assert err.startswith("error:") and dist in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--a", "-7", "--max-n", "300")
    assert code == 0 and "pass" in out


def test_verify_reports_an_oracle_disagreement(capsys, monkeypatch):
    # n = 5 has no code at a = -7; an oracle that says it has one must fail verify
    real = cli.range_exists
    monkeypatch.setattr(cli, "range_exists", lambda a, n_max: real(a, n_max) | (1 << 4))
    code, out, err = run(capsys, "verify", "--a", "-7", "--max-n", "40")
    assert code == 1
    assert err == "n=5: code=False oracle=True\n"
    assert out == (
        "verify a=-7 n=1..40: FAIL (encodable 29, missing 11, disagreements 1)\n"
    )


def test_verify_decodes_equal_codes_once(capsys, monkeypatch):
    # the two encoders give one code for each n, so each n costs one decode
    calls = []
    real = cli.decode_many
    monkeypatch.setattr(cli, "decode_many", lambda a, codes: calls.extend(codes) or real(a, codes))
    code, out, _ = run(capsys, "verify", "--a", "-7", "--max-n", "40")
    assert code == 0 and "encodable 29" in out
    assert len(calls) == 29


def test_verify_reports_a_wrong_code_once(capsys, monkeypatch):
    # n = 30 has the code 00100011 from both encoders: one line, one disagreement
    real = cli.decode_many
    monkeypatch.setattr(cli, "decode_many", lambda a, codes: [
        n + (code == "00100011") for n, code in zip(real(a, codes), codes)])
    code, out, err = run(capsys, "verify", "--a", "-7", "--max-n", "40")
    assert code == 1
    assert err == "n=30: code 00100011 decodes to 31\n"
    assert out == (
        "verify a=-7 n=1..40: FAIL (encodable 29, missing 11, disagreements 1)\n"
    )


def _with_codes(walk, codes_at):
    """A _leaf_codes stand-in: walk's leaves with the codes of some n replaced.

    codes_at maps n to the code put in its place.
    """

    def leaves(a, lo, hi):
        for first, codes in walk(a, lo, hi):
            ns = range(first, first + len(codes))
            if any(n in codes_at for n in ns):
                codes = [codes_at.get(n, code) for n, code in zip(ns, codes)]
            yield first, codes

    return leaves


@pytest.mark.parametrize("bad, message", [
    ("0010111", "interior adjacent ones (bit offset 4)"),
    ("001\u00e90011", "invalid character '\u00e9' (bit offset 3)"),
    ("1011", "codeword '1011' decodes to non-positive value -6"),
])
def test_verify_exits_2_on_the_first_malformed_code(capsys, monkeypatch, bad, message):
    # n = 30 and n = 38 get bad codes; the first one is reported
    walk = _with_codes(cli._leaf_codes, codes_at={30: bad, 38: "2"})
    monkeypatch.setattr(cli, "_leaf_codes", walk)
    code, out, err = run(capsys, "verify", "--a", "-7", "--max-n", "40")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_reports_flipped_oracle_bits_inside_a_good_leaf(capsys, monkeypatch):
    # 1000 starts a short leaf at a = -7, where r = 3 (n = 1003) has a code through
    # _close's carry and r = 5 (n = 1005) has none; the lines are the ones n-by-n
    # checking printed, and the leaf's other codes are still decoded
    real = cli.range_exists
    monkeypatch.setattr(cli, "range_exists",
                        lambda a, n_max: real(a, n_max) ^ (1 << 1002) ^ (1 << 1004))
    decoded = []
    real_many = cli.decode_many
    monkeypatch.setattr(cli, "decode_many",
                        lambda a, codes: decoded.extend(codes) or real_many(a, codes))
    code, out, err = run(capsys, "verify", "--a", "-7", "--max-n", "1100")
    assert code == 1
    assert err == (
        "n=1003: code=True oracle=False\n"
        "n=1005: code=False oracle=True\n"
    )
    assert out == (
        "verify a=-7 n=1..1100: FAIL (encodable 784, missing 316, disagreements 2)\n"
    )
    assert len(decoded) == 784
    assert sorted(map(cli.decode, repeat(-7), decoded)) == [
        n for n in range(1, 1101) if exists(-7, n) and n != 1003]


def test_verify_memory_stays_flat():
    # the verdicts are one 40,000-bit int, not a memo that grows with --max-n
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--a", "-7", "--max-n", "40000"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("a, n_max", [(-5000, 40000), (-100000, 200000)])
def test_verify_memory_stays_flat_over_long_leaves(a, n_max):
    # a template's fixups hold only the uncovered residuals that have a code,
    # and a leaf of 200,000 n comes in slices (whole, it peaked at 5.7 MB)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--a", str(a), "--max-n", str(n_max)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_verify_keeps_only_the_failures_it_prints(capsys, monkeypatch):
    # an oracle that claims every n fails each missing n, about 11,500 of them
    # here; only the first 20 lines are kept, the rest are counted
    monkeypatch.setattr(cli, "range_exists", lambda a, n_max: (1 << n_max) - 1)
    missing = [n for start, length in missing_runs(-7, 1, 40000)
               for n in range(start, start + length)]
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "verify", "--a", "-7", "--max-n", "40000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == "".join(f"n={n}: code=False oracle=True\n" for n in missing[:20])
    assert out == (
        f"verify a=-7 n=1..40000: FAIL (encodable {40000 - len(missing)}, "
        f"missing {len(missing)}, disagreements {len(missing)})\n"
    )
    assert peak < 2**20, peak


def test_verify_universal_has_no_missing(capsys):
    code, out, _ = run(capsys, "verify", "--a", "-2", "--max-n", "300")
    assert code == 0 and "missing 0" in out


def test_verify_rejects_bad_a(capsys):
    code, _, err = run(capsys, "verify", "--a", "-1", "--max-n", "10")
    assert code == 2 and "error" in err


def test_stream_pack_unpack(tmp_path, capsys):
    path = tmp_path / "doc.ghc"
    code, _, _ = run(capsys, "stream-pack", "--code", "gh", "--a", "-2",
                     "--out", str(path), "7", "10", "1")
    assert code == 0
    code, out, _ = run(capsys, "stream-unpack", str(path))
    assert code == 0 and out.split() == ["7", "10", "1"]


def test_stream_pack_reads_stdin(tmp_path, capsys, monkeypatch):
    values = [7, 10, 1, 7, 123456789, 1]
    piped, listed = tmp_path / "piped.ghc", tmp_path / "listed.ghc"
    monkeypatch.setattr("sys.stdin", io.StringIO("7 10\n1\t7\n\n123456789 1\n"))
    code, out, err = run(capsys, "stream-pack", "--a", "-2", "--out", str(piped))
    assert (code, out, err) == (0, "", "")
    run(capsys, "stream-pack", "--a", "-2", "--out", str(listed), *map(str, values))
    assert piped.read_bytes() == listed.read_bytes()
    code, out, _ = run(capsys, "stream-unpack", str(piped))
    assert code == 0 and out == "".join(f"{v}\n" for v in values)


def _pack_stdin(tmp_path, capsys, monkeypatch, text, *argv):
    path = tmp_path / "piped.ghc"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "stream-pack", *argv, "--out", str(path))
    return code, out, err, path


# a value that straddles the first read's end: characters 65532..65540
_STRADDLING = "7 " * (cli._STDIN_CHUNK // 2 - 2) + "123456789\n"


@pytest.mark.parametrize("text", [
    _STRADDLING,
    "7 10\n1\t7\n\n123456789 1",  # no trailing newline
    "7 10\r\n\r\n1\t7\r\n\t\n  123456789\t1\r\n",
    "\n\n 7\n",
])
def test_stream_pack_stdin_matches_listed_values(tmp_path, capsys, monkeypatch, text):
    values = text.split()
    code, out, err, piped = _pack_stdin(tmp_path, capsys, monkeypatch, text, "--a", "-2")
    assert (code, out, err) == (0, "", "")
    listed = tmp_path / "listed.ghc"
    run(capsys, "stream-pack", "--a", "-2", "--out", str(listed), *values)
    assert piped.read_bytes() == listed.read_bytes()


def test_stream_pack_stdin_tokens_across_many_reads(tmp_path, capsys, monkeypatch):
    # tiny reads cut tokens anywhere, some across three or more reads
    rng = random.Random(3)
    monkeypatch.setattr(cli, "_STDIN_CHUNK", 3)
    for _ in range(40):
        values = [rng.choice((rng.randint(1, 9), rng.randint(1, 10**12))) for _ in range(30)]
        gaps = [rng.choice((" ", "\n", "\t", "\r\n", "  \n\n")) for _ in values]
        text = rng.choice(("", "\n ")) + "".join(f"{v}{g}" for v, g in zip(values, gaps))
        code, _, _, path = _pack_stdin(tmp_path, capsys, monkeypatch, text.rstrip(), "--code", "fib")
        assert code == 0
        assert list(stream_decode(path.read_bytes())) == values


def test_stream_pack_empty_stdin_is_header_only(tmp_path, capsys, monkeypatch):
    code, out, err, path = _pack_stdin(tmp_path, capsys, monkeypatch, "", "--a", "-2")
    assert (code, out, err) == (0, "", "")
    assert path.read_bytes() == stream_encode("gh", -2, [])


@pytest.mark.parametrize("text, argv, status, message", [
    ("7 10 x 1\n", ("--a", "-2"), 2, "error: invalid literal for int() with base 10: 'x'\n"),
    ("7 5 1\n", ("--a", "-5"), 1, "error: no code exists for value 5 at a=-5\n"),
    # the first bad input decides the error, though a batch is read whole
    ("7 5 x\n", ("--a", "-5"), 1, "error: no code exists for value 5 at a=-5\n"),
    ("7 x 5\n", ("--a", "-5"), 2, "error: invalid literal for int() with base 10: 'x'\n"),
])
def test_stream_pack_failure_keeps_existing_out_file(tmp_path, capsys, monkeypatch,
                                                     text, argv, status, message):
    path = tmp_path / "piped.ghc"
    path.write_bytes(b"kept")
    code, out, err, _ = _pack_stdin(tmp_path, capsys, monkeypatch, text, *argv)
    assert (code, out, err) == (status, "", message)
    assert path.read_bytes() == b"kept"


def test_stream_pack_unencodable(tmp_path, capsys):
    path = tmp_path / "doc.ghc"
    code, _, err = run(capsys, "stream-pack", "--code", "gh", "--a", "-5",
                       "--out", str(path), "5")
    assert code == 1 and "5" in err


def test_stream_unpack_corrupted_is_malformed_input(tmp_path, capsys):
    path = tmp_path / "doc.ghc"
    run(capsys, "stream-pack", "--code", "fib", "--out", str(path), "1", "2", "3")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0x01
    path.write_bytes(bytes(blob))
    code, _, err = run(capsys, "stream-unpack", str(path))
    assert code == 2 and "error" in err


def test_stream_unpack_resync_never_aborts(tmp_path, capsys):
    path = tmp_path / "doc.ghc"
    run(capsys, "stream-pack", "--code", "fib", "--out", str(path), "1", "2", "3")
    blob = bytearray(path.read_bytes())
    blob[24] ^= 0x80
    path.write_bytes(bytes(blob))
    code, out, _ = run(capsys, "stream-unpack", "--resync", str(path))
    assert code == 0
    assert out.strip()


def test_stream_pack_a_outside_header_field(tmp_path, capsys):
    path = tmp_path / "doc.ghc"
    code, _, err = run(capsys, "stream-pack", "--a", "-40000", "--out", str(path), "1")
    assert code == 2 and err.startswith("error:") and "-40000" in err
    assert not path.exists()


def test_stream_unpack_resync_output_lines(tmp_path, capsys):
    path = tmp_path / "doc.ghc"
    run(capsys, "stream-pack", "--a", "-2", "--out", str(path), "7", "10", "1", "7")
    blob = bytearray(path.read_bytes())
    blob[24] ^= 0x80
    path.write_bytes(bytes(blob))
    code, out, _ = run(capsys, "stream-unpack", "--resync", str(path))
    assert code == 0
    assert out == "# garbage bits [0:2)\n3\n10\n1\n7\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["encode"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_stream_unpack_joins_its_lines_into_few_writes(tmp_path, monkeypatch):
    values = list(range(1, 20_001))
    path = tmp_path / "doc.ghc"
    path.write_bytes(stream_encode("gh", -2, values))
    for argv in (["stream-unpack", str(path)], ["stream-unpack", "--resync", str(path)]):
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(argv) == 0
        assert out.getvalue() == "".join(f"{v}\n" for v in values)
        assert out.writes <= 4


class _NullStdout:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_stream_unpack_resync_holds_no_line_per_value(tmp_path, monkeypatch):
    # the output goes nowhere, so the peak is what the command itself holds
    monkeypatch.setattr(sys, "stdout", _NullStdout())

    def resync_peak(count):
        path = tmp_path / f"{count}.ghc"
        path.write_bytes(stream_encode("gh", -2, cli._gen_values("geometric:0.05", count, 12345)))
        tracemalloc.start()
        try:
            assert main(["stream-unpack", "--resync", str(path)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert resync_peak(500_000) <= 1.5 * resync_peak(50_000)


# more output than a pipe buffers, so the writer meets the closed pipe
@pytest.mark.parametrize("argv", [
    ["stream-unpack", "{doc}"],
    ["gaps", "--a", "-7", "--max-n", "1000000", "--format", "csv"],
])
def test_closed_pipe_exits_141_with_nothing_on_stderr(tmp_path, argv):
    doc = tmp_path / "doc.ghc"
    doc.write_bytes(stream_encode("gh", -2, [1000] * 300_000))
    src = str(Path(ghcodes.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = [arg.format(doc=doc) for arg in argv]
    with subprocess.Popen([sys.executable, "-m", "ghcodes.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline()  # the first line, as `| head -1` reads it
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""
