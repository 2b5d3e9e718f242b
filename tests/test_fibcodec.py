import math
import os
import random
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ghcodes
from ghcodes import fibcodec
from ghcodes.bits import MalformedCodeError, _digit_limit, values
from ghcodes.fibcodec import fib_decode, fib_encode
from ghcodes.ghcodec import decode
from ghcodes.sequences import fib_sequence

GOLDEN = {
    1: "11", 2: "011", 3: "0011", 4: "1011", 5: "00011",
    6: "10011", 7: "01011", 8: "000011", 9: "100011", 10: "010011",
    11: "001011", 12: "101011", 13: "0000011", 14: "1000011", 15: "0100011",
}


def _reference_fib_encode(n: int) -> str:
    # the greedy over every index, one index at a time
    seq = fib_sequence()
    top = seq.largest_leq(n)
    terms = seq.prefix(top)
    word = ["0"] * top
    remainder = n
    for i in range(top - 1, -1, -1):
        if terms[i] <= remainder:
            word[i] = "1"
            remainder -= terms[i]
    return "".join(word) + "1"


def _around_every_term(last: int) -> list[int]:
    # term(j) - 1, term(j) and term(j) + 1 for j <= last: every block edge
    # of the tables and both sides of term(97), where they end
    seq = fib_sequence()
    return [n for j in range(1, last + 1) for n in (seq.term(j) - 1, seq.term(j), seq.term(j) + 1) if n >= 1]


def test_golden_codes():
    for n, code in GOLDEN.items():
        assert fib_encode(n) == code
        assert fib_decode(code) == n


def test_decode_examples():
    assert fib_decode("11") == 1
    assert fib_decode("1011") == 4
    assert fib_decode("010011") == 10


def test_encode_rejects_nonpositive():
    for n in (0, -1, -100):
        with pytest.raises(ValueError):
            fib_encode(n)


def test_decode_rejects_malformed():
    with pytest.raises(ValueError):
        fib_decode("10")
    with pytest.raises(ValueError):
        fib_decode("011011")


@pytest.mark.parametrize("decoder", [fib_decode, partial(decode, -7)], ids=["fib_decode", "decode"])
def test_both_decoders_give_one_error_per_structural_fault(decoder):
    # both read a word through bits.read_codeword, so each fault reads alike
    limit = _digit_limit()[0]
    faults = {
        "01x11": "invalid character 'x' (bit offset 2)",
        "0\u00e911": "invalid character '\u00e9' (bit offset 1)",
        "": "codeword shorter than the closing pair (bit offset 0)",
        "1": "codeword shorter than the closing pair (bit offset 0)",
        "0110011": "interior adjacent ones (bit offset 1)",
        "01010": "missing closing 11 (bit offset 3)",
        "0" * (limit - 1) + "11": f"codeword longer than {limit} bits (bit offset {limit})",
    }
    for code, message in faults.items():
        with pytest.raises(MalformedCodeError) as err:
            decoder(code)
        assert (type(err.value), str(err.value)) == (MalformedCodeError, message)


@given(n=st.integers(min_value=1, max_value=10**9))
def test_round_trip_property(n):
    assert fib_decode(fib_encode(n)) == n


def test_round_trip_and_length_bound_sweep():
    # length(code) <= ceil(log_phi(sqrt(5) * (n + 1))) + 1 across the sweep
    log_phi = math.log((1 + math.sqrt(5)) / 2)
    sqrt5 = math.sqrt(5)
    for n in range(1, 1_000_001):
        code = fib_encode(n)
        assert fib_decode(code) == n
        assert len(code) <= math.ceil(math.log(sqrt5 * (n + 1)) / log_phi) + 1


def test_zeckendorf_uniqueness_by_exhaustion():
    # count every no-two-adjacent index subset summing to each n <= 5000;
    # exactly one representation per n is the uniqueness claim
    seq = fib_sequence()
    limit = 5000
    top = seq.largest_leq(limit)
    counts: dict[int, int] = {}

    def walk(i: int, total: int) -> None:
        if total > limit:
            return
        if i > top:
            if total >= 1:
                counts[total] = counts.get(total, 0) + 1
            return
        walk(i + 1, total)
        walk(i + 2, total + seq.term(i))

    walk(1, 0)
    for n in range(1, limit + 1):
        assert counts.get(n, 0) == 1


def test_encode_equals_the_reference_up_to_200000():
    bad = [n for n in range(1, 200_001) if fib_encode(n) != _reference_fib_encode(n)]
    assert bad == []


def test_encode_equals_the_reference_around_every_term():
    # past term(97) fib_encode runs the tail greedy from index 97 (bits._tail_greedy)
    values = _around_every_term(400)
    assert max(values) > 2**64 and fib_sequence().term(97) in values
    assert [fib_encode(n) for n in values] == [_reference_fib_encode(n) for n in values]


def test_encode_equals_the_reference_far_past_the_tables():
    rng = random.Random(400)
    values = [rng.randrange(10 ** (digits - 1), 10**digits) for digits in (rng.randint(30, 1000) for _ in range(200))]
    assert [fib_encode(n) for n in values] == [_reference_fib_encode(n) for n in values]


@given(n=st.integers(min_value=1, max_value=10**60))
def test_encode_equals_the_reference_for_large_n(n):
    assert fib_encode(n) == _reference_fib_encode(n)


def test_tables_keep_their_size_whatever_n():
    fib_encode(10**200)
    patterns, block_sums, starts = fibcodec._tables()
    assert len(patterns) == 377 and len(starts) == 9
    assert [len(sums) for sums in block_sums] == [377] * 8
    assert block_sums[0] == tuple(range(377))
    assert starts[-1] == fib_sequence().term(97)


def test_import_builds_no_table():
    src = str(Path(ghcodes.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = ("import ghcodes.cli, ghcodes.fibcodec as f; "
             "print(*(t.cache_info().currsize for t in (f._tables, f._lane_tables, f._byte_tables)))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 0 0\n", "")


def test_only_the_lanes_load_array():
    # -S keeps site's imports out, so only the package can load array
    src = str(Path(ghcodes.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    probe = ("import contextlib, io, sys, ghcodes.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    status = cli.main(['gaps', '--a', '-7', '--max-n', '1000'])\n"
             "print(status, 'array' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 False\n", "")


# _encode_lanes: the greedy in the 64-bit lanes of one int, for values in
# [1, term(65)); stream_encode sends it the batches in [term(24), term(65))

def _lane_reference(values):
    return "".join(map(fib_encode, values))


def test_lanes_equal_fib_encode_around_every_term_they_take():
    seq = fib_sequence()
    values = [n for j in range(24, 65) for n in (seq.term(j) - 1, seq.term(j), seq.term(j) + 1)]
    values += [1, 2, 3, seq.term(65) - 1]
    assert seq.term(24) == 75_025 and seq.term(65) == 27_777_890_035_288
    assert fibcodec._encode_lanes(values) == _lane_reference(values)
    # one value to a block: each lane alone, the largest setting index 64
    for n in values:
        assert fibcodec._encode_lanes([n]) == fib_encode(n), n
    assert len(fib_encode(seq.term(65) - 1)) == 65


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 8192])
def test_lanes_equal_fib_encode_across_block_edges(count):
    # a block holds 1024 values; a short last block leaves its other lanes at 0
    rng = random.Random(count)
    top = fib_sequence().term(65)
    values = [rng.choice((rng.randrange(75_025, top), rng.randrange(1, 10**6))) for _ in range(count)]
    assert fibcodec._encode_lanes(values) == _lane_reference(values)
    assert fibcodec._encode_lanes(values[::-1]) == _lane_reference(values[::-1])


@given(values=st.lists(st.integers(min_value=75_025, max_value=27_777_890_035_287), max_size=1100))
def test_lanes_equal_fib_encode_on_long_values(values):
    assert fibcodec._encode_lanes(values) == _lane_reference(values)


# _decode_lanes: each piece + "1" summed in the 64-bit lanes of one int, for
# pieces of at most 63 bits; stream's decoders send it the fib chunks of such pieces

def _lane_decode_reference(pieces):
    # the C-level sum of the terms at a piece's ones, plus its closing term
    terms = fib_sequence().prefix(64)
    return [v + terms[len(p)] for v, p in zip(values(terms, pieces), pieces)]


def _piece(digits):
    # the first width digits with the last one cleared: no 11 pair and no final 1,
    # a piece as the framer yields it
    return digits[:-1] + "0" if digits else ""


def test_decode_lanes_equal_the_reference_at_every_length():
    rng = random.Random(63)
    pieces = []
    for width in range(64):
        pieces += [_piece("0" * width), _piece(("10" * 32)[:width])]
        pieces += [_piece("".join(rng.choice(("0", "10")) for _ in range(width))[:width]) for _ in range(4)]
    assert [len(p) for p in pieces] == [width for width in range(64) for _ in range(6)]
    assert not any("11" in p or p.endswith("1") for p in pieces)
    assert fibcodec._decode_lanes(pieces) == _lane_decode_reference(pieces)
    # the proof holds whatever the bits: every bit set makes P = 87 and Q = 54 in every byte
    ones = ["1" * width for width in range(64)]
    assert fibcodec._decode_lanes(ones) == _lane_decode_reference(ones)
    for piece in pieces + ones:  # one piece to a block: each lane alone
        assert fibcodec._decode_lanes([piece]) == _lane_decode_reference([piece]), piece


def test_decode_lanes_give_the_values_around_every_term_they_take():
    seq = fib_sequence()
    values = [n for j in range(1, 66) for n in (seq.term(j) - 1, seq.term(j), seq.term(j) + 1) if 1 <= n < seq.term(65)]
    pieces = [fib_encode(n)[:-2] for n in values]
    assert max(map(len, pieces)) == 63
    assert fibcodec._decode_lanes(pieces) == values
    assert fibcodec._decode_lanes(pieces[::-1]) == values[::-1]


def test_byte_tables_reach_the_bounds_of_the_proof():
    p_table, q_table, factors, low = fibcodec._byte_tables()
    assert (p_table[255], q_table[255], max(p_table), max(q_table)) == (87, 54, 87, 54)
    assert (p_table[128], q_table[128], p_table[1], q_table[1]) == (1, 1, 34, 21)  # F(2), F(1), F(9), F(8)
    assert factors[7] == (365_435_296_162, 225_851_433_717)  # F(57), F(56)
    assert 16 * 87 * factors[7][0] < 2**63
    assert low == int.from_bytes(b"\0" * 7 + b"\xff", "big") * sum(2 ** (64 * i) for i in range(1024))


@pytest.mark.parametrize("count", [1, 1023, 1024, 1025, 8192])
def test_decode_lanes_equal_the_reference_across_block_edges(count):
    # a block holds 1024 pieces; a short last block makes a shorter int
    rng = random.Random(count)
    top = fib_sequence().term(65)
    values = [rng.choice((rng.randrange(1, top), rng.randrange(1, 10**6))) for _ in range(count)]
    pieces = [fib_encode(n)[:-2] for n in values]
    assert fibcodec._decode_lanes(pieces) == values == _lane_decode_reference(pieces)


@given(values=st.lists(st.integers(min_value=1, max_value=27_777_890_035_287), max_size=1100))
def test_decode_lanes_equal_the_reference_on_random_pieces(values):
    # every piece of at most 63 bits with no 11 pair and no final 1 is fib_encode(n)[:-2]
    # for one n in [1, term(65))
    pieces = [fib_encode(n)[:-2] for n in values]
    assert fibcodec._decode_lanes(pieces) == values == _lane_decode_reference(pieces)


def test_threads_making_the_first_call_together_get_the_reference_codes():
    values = _around_every_term(140) + list(range(1, 2000))
    expected = [_reference_fib_encode(n) for n in values]
    fibcodec._tables.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def encode_all(slot):
        start.wait(timeout=60)
        results[slot] = [fib_encode(n) for n in values]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode_all, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 4
