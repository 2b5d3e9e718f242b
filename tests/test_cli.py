import pytest

from ghcodes import cli
from ghcodes.cli import main
from ghcodes.ghcodec import decode, exists
from ghcodes.oracle import gap_scan


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
    assert out == gap_scan(-7, 3000).to_csv() + "\n"


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


def test_gaps_max_n_cap_exits_before_scanning(capsys, monkeypatch):
    monkeypatch.setattr(cli, "gap_scan", lambda *args, **kw: pytest.fail("scanned"))
    code, out, err = run(capsys, "gaps", "--a", "-7", "--max-n", str(10**7 + 1))
    assert (code, out) == (2, "")
    assert err == "error: --max-n must be <= 10000000, got 10000001\n"


def test_bench_count_cap_exits_before_drawing(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_gen_values", lambda *args, **kw: pytest.fail("drew values"))
    code, out, err = run(capsys, "bench", "--dist", "constant:1", "--count", str(10**7 + 1))
    assert (code, out) == (2, "")
    assert err == "error: --count must be <= 10000000, got 10000001\n"


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
