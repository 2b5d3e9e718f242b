"""Tests for the benchmark itself; run with `python3 -m pytest perfbench`."""

import json
import re
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def work():
    path = ROOT / ".perfbench_work" / "tests"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path)


def test_generator_is_deterministic_per_seed_and_changes_with_it():
    for draw in (lambda s: gen.geometric_values(0.05, 2000, s),
                 lambda s: gen.uniform_values(1, 10**12, 2000, s),
                 lambda s: gen.flip_positions(100_000, 4096, s),
                 lambda s: gen.jittered(100_000, s, "gaps")):
        assert draw(7) == draw(7)
        assert draw(7) != draw(8)


def test_flip_positions_have_the_stated_density():
    positions = gen.flip_positions(100_000, 4096, 1)
    assert len(positions) == len(set(positions)) == 100_000 // 4096
    assert positions == sorted(positions) and 0 <= positions[0] and positions[-1] < 100_000
    assert len(gen.flip_positions(10, 4096, 1)) == 1


def _fib_file(payload: str, count: int) -> bytes:
    padded = payload + "0" * (-len(payload) % 8)
    body = int(padded, 2).to_bytes(len(padded) // 8, "big")
    return struct.pack("<4sBBhQQ", b"GHC1", 1, 0, 0, count, len(payload)) + body


def test_recovered_fraction_on_a_hand_built_damaged_stream():
    # Fibonacci codewords of 1, 2, 3 are 11, 011, 0011
    clean = _fib_file("110110011", 3)
    spans = checks.codeword_spans(checks.payload_bits(clean))
    assert spans == [(0, 2), (2, 5), (5, 9)]
    damaged = checks.payload_bits(gen.flip_bits(clean, [2]))
    assert damaged == "111110011"
    # resync splits 11|11|10011: values 1, 1 and 1 + 5
    tokens = checks.resync_value_tokens(damaged, "1\n1\n6\n")
    assert tokens == {0: (2, 1), 2: (4, 1), 4: (9, 6)}
    assert checks.recovered(spans, [1, 2, 3], tokens) == 1

    tokens = checks.resync_value_tokens(damaged, "# garbage bits [0:4)\n6\n")
    assert checks.recovered(spans, [1, 2, 3], tokens) == 0
    clean_bits = checks.payload_bits(clean)
    tokens = checks.resync_value_tokens(clean_bits, "# garbage bits [0:5)\n3\n")
    assert checks.recovered(spans, [1, 2, 3], tokens) == 1


@pytest.mark.parametrize("text", [
    "1\n",                      # stops short of the payload end
    "1\n# garbage bits [3:9)\n",  # garbage must start where the last token ended
    "1\n2\n3\n4\n",             # more values than closing pairs
])
def test_resync_output_that_does_not_cover_the_payload_is_rejected(text):
    with pytest.raises(checks.OutputError):
        checks.resync_value_tokens("110110011", text)


def test_a_wrong_value_counts_as_failed(work):
    workload = run.StreamWorkload("fib", None, "uniform:1:9", 3)
    workload.values = [1, 2, 3]
    step = run.Step("stream_unpack", [], 3)
    out = work / "unpack.out"
    out.write_text("1\n5\n3\n")
    assert run._check(workload, step, 0, out) == run.Outcome(3, 1, 2)
    out.write_text("1\n2\n")
    assert run._check(workload, step, 0, out) == run.Outcome(3, 1, 2)
    out.write_text("1\nnot a number\n3\n")
    assert run._check(workload, step, 0, out) == run.Outcome(3, 3, 0)
    assert run._check(workload, step, 2, out) == run.Outcome(3, 3, 0)


def test_metric_names_are_valid_and_match_the_benchmark():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for key, produced in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        names = [m["name"] for m in SPEC[key]]
        assert all(pattern.fullmatch(name) for name in names)
        assert len(names) == len(set(names))
        assert {m["name"]: m["unit"] for m in SPEC[key]} == produced
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_passes_its_correctness_gate(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--scale", "0.002"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gap-scan",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_packed_file_is_byte_identical_across_runs_of_one_seed():
    def sha(seed):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "stream-small", "--seed", str(seed),
             "--seconds", "0", "--scale", "0.002"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stdout[-3000:]
        return re.search(r"^# packed_sha256 = ([0-9a-f]{64}) hex$", proc.stdout, re.M)[1]

    assert sha(5) == sha(5) != sha(6)
