"""The digit limit where words enter the decoders (bits._digit_limit).

Every value a decoder returns must be printable under the interpreter's
digit limit D, and a word past it must cost no more than its size.
"""

import math
import os
import random
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from ghcodes import sequences, stream
from ghcodes.bits import (
    MalformedCodeError,
    NonPositiveValueError,
    _digit_limit,
    _limit_at,
    read_codeword,
    validate_codeword,
    value,
)
from ghcodes.cli import main
from ghcodes.fibcodec import fib_decode, fib_encode
from ghcodes.ghcodec import decode, decode_many, encode_fast, missing_runs
from ghcodes.sequences import fib_sequence, gh_sequence
from ghcodes.stream import (
    PayloadError,
    ResyncToken,
    UnencodableValueError,
    resync_decode,
    stream_decode,
    stream_encode,
)

# the 60,000-bit fib codeword of a 7,524-byte stream file: 59,998 zeros, then the pair
LONG_WORD = "0" * 59_998 + "11"


def _fib(n: int) -> int:
    """F(n), with F(1) = F(2) = 1."""
    f, g = 0, 1
    for _ in range(n):
        f, g = g, f + g
    return f


def _document(codec_byte: int, a: int, count: int, bits: str) -> bytes:
    padded = bits + "0" * (-len(bits) % 8)
    payload = int(padded, 2).to_bytes(len(padded) // 8, "big") if padded else b""
    return struct.pack("<4sBBhQQ", b"GHC1", 1, codec_byte, a, count, len(bits)) + payload


def _peak(fn):
    """fn's result and its peak of traced memory, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _strict(blob):
    try:
        return list(stream_decode(blob))
    except PayloadError as err:
        return err.bit_offset


# the limit itself

@pytest.mark.parametrize("digits, longest", [(640, 3066), (4300, 20579)])
def test_digit_limit_pins(int_digits, digits, longest):
    int_digits(digits)
    assert _digit_limit() == (longest, 10**digits)


def test_digit_limit_zero_is_no_limit(int_digits):
    int_digits(0)
    assert _digit_limit() == (math.inf, math.inf)
    validate_codeword(LONG_WORD)


def test_limit_is_the_longest_length_whose_lower_bound_stays_below():
    # a walk up the Fibonacci numbers, against the estimate settled by fast doubling
    length, f, g = 3, 1, 1  # F(length - 2), F(length - 1)
    for digits in range(1, 1201):
        bound = 10**digits
        while g < bound:
            length, f, g = length + 1, g, f + g
        assert f < bound <= g
        assert _limit_at(digits) == (length, bound), digits


@pytest.mark.parametrize("a", [None, *range(-40, -1), -(2**15), -(10**30)])
def test_every_codeword_is_worth_at_least_f_of_its_length_less_two(a):
    # the cheapest word of each length: its top 1, and for gh term(1) = a,
    # the only negative term; the gh words of 2 and 4 bits below the bound
    # are the non-positive "11" and "1011"
    seq = fib_sequence() if a is None else gh_sequence(a)
    for length in range(2 if a is None else 5, 201):
        body = "0" * (length - 2) + "1" if a is None else "1" + "0" * (length - 3) + "1"
        validate_codeword(body + "1")
        assert value(seq, body) >= _fib(length - 2), length


# the doors at D = 640, where L = 3,066

_CODECS = [("fib", 0), ("gh", -2), ("gh", -7), ("gh", -(2**15))]


def _code(codec, a, n):
    if codec == "fib":
        return fib_encode(n)
    outcome = encode_fast(a, n)
    return outcome and outcome.code


def _decoders(codec, a):
    """Each single and batch decoder of codec at a, as a function of one code."""
    if codec == "fib":
        return [fib_decode]
    return [lambda code: decode(a, code), lambda code: decode_many(a, ["011", code])[1]]


def _largest_below(codec, a, bound):
    """The largest n < bound with a code."""
    n = bound - 1
    runs = [] if codec == "fib" else list(missing_runs(a, n - 2**16, n))
    return runs[-1][0] - 1 if runs and sum(runs[-1]) - 1 == n else n


def _smallest_from(codec, a, bound):
    """The smallest n >= bound with a code."""
    n = bound
    runs = [] if codec == "fib" else list(missing_runs(a, n, n + 2**16))
    return runs[0][0] + runs[0][1] if runs and runs[0][0] == n else n


@pytest.mark.parametrize("codec, a", _CODECS)
def test_largest_value_below_the_bound_round_trips(int_digits, codec, a):
    int_digits(640)
    limit, bound = _digit_limit()
    top = _largest_below(codec, a, bound)
    code = _code(codec, a, top)
    assert limit - 26 < len(code) <= limit  # inside the window the stream doors evaluate
    for decoder in _decoders(codec, a):
        assert decoder(code) == top
    values = [1, top, 2, top]
    blob = stream_encode(codec, a, values)
    assert list(stream_decode(blob)) == values
    assert [t.value for t in resync_decode(blob)] == values


@pytest.mark.parametrize("codec, a", _CODECS)
def test_codes_of_the_bound_are_refused_by_every_door(int_digits, codec, a):
    int_digits(640)
    limit, bound = _digit_limit()
    n = _smallest_from(codec, a, bound)
    code = _code(codec, a, n)  # the encoders take any n
    assert len(code) <= limit  # refused for its value, not its length
    with pytest.raises(UnencodableValueError, match=f"value of {n.bit_length()} bits"):
        stream_encode(codec, a, [1, n])
    for decoder in _decoders(codec, a):
        with pytest.raises(MalformedCodeError, match="value past the integer digit limit"):
            decoder(code)
    first = _code(codec, a, 1)
    blob = _document(0 if codec == "fib" else 1, a, 2, first + code)
    with pytest.raises(PayloadError, match="value past the integer digit limit") as err:
        stream_decode(blob)
    assert err.value.bit_offset == len(first)
    width = len(first) + len(code)
    assert list(resync_decode(blob)) == [
        ResyncToken("value", 1, (0, len(first))),
        ResyncToken("garbage", None, (len(first), width)),
    ]
    # the CLI's lines come from the chunks, of 380 bytes at D = 640: taken together,
    # each garbage span by its word's index in the payload and its bits
    found, garbage = [], []
    for values, spans in resync_decode(blob).chunks():
        garbage += [(len(found) + i, lo, hi) for i, lo, hi in spans]
        found += values
    assert (found, garbage) == ([1, 0], [(1, len(first), width)])


def test_word_past_the_limit_is_refused_unevaluated(int_digits, monkeypatch):
    int_digits(640)
    limit = _digit_limit()[0]
    word = "0" * (limit - 1) + "11"
    lengths = []
    prefix = sequences._AdditiveSequence.prefix
    monkeypatch.setattr(sequences._AdditiveSequence, "prefix",
                        lambda self, n: lengths.append(n) or prefix(self, n))
    held = len(fib_sequence()._terms)
    for decoder in [fib_decode, *_decoders("gh", -7)]:
        with pytest.raises(MalformedCodeError, match=f"longer than {limit} bits"):
            decoder(word)
    for codec_byte, a in [(0, 0), (1, -7)]:
        blob = _document(codec_byte, a, 1, word)
        assert _strict(blob) == 0
        assert list(resync_decode(blob)) == [ResyncToken("garbage", None, (0, limit + 1))]
    assert max(lengths) < limit - 26
    assert len(fib_sequence()._terms) == held


def _flip(blob, bit):
    out = bytearray(blob)
    out[24 + bit // 8] ^= 0x80 >> bit % 8
    return bytes(out)


def _word_of_width(codec, a, width, rng):
    """A codeword of exactly width bits, for a random value that has one."""
    seq = fib_sequence() if codec == "fib" else gh_sequence(a)
    while True:
        code = _code(codec, a, rng.randrange(seq.term(width - 1), seq.term(width)))
        if code and len(code) == width:
            return code


# The framer (stream._Scan._frames) is the one door for the limit in the stream
# decoders. Its chunks hold at most near = L - 26 bits, so a word of more
# than near - 1 bits is always the first piece of a chunk, carried into it

@pytest.mark.parametrize("digits, size", [(640, 380), (4300, 2569), (0, 4096)])
def test_only_a_chunks_first_piece_has_a_word_past_near_less_one(int_digits, digits, size):
    int_digits(digits)
    limits = _digit_limit()
    limit = limits[0]
    bits = 8 * size  # the bits of a chunk
    assert bits <= limit - 26 and (digits == 0 or bits > limit - 34)
    rng = random.Random(digits)
    # no word of near + 1 to L bits, which the framer would evaluate
    long = [bits - 2, bits - 1, bits] + ([limit + 1, 2 * limit] if digits else [bits + 1, 3 * bits])
    widths = []
    for width in rng.sample(long * 3, 3 * len(long)):
        widths += rng.choices(range(2, 9), k=rng.randrange(6)) + [width]
    pieces = []
    for width in widths:
        piece = "".join(rng.choice(("0", "10")) for _ in range(width))[: width - 2]
        pieces.append(piece[:-1] + "0" if piece.endswith("1") else piece)
    payload = "".join(piece + "11" for piece in pieces)
    blob = _document(0, 0, len(pieces), payload)
    chunks = [found for _, found in stream._Scan(fib_sequence(), len(payload), memoryview(blob)[24:])._frames()]
    assert [len(p) + 2 for found in chunks for p in found] == widths
    assert all(len(p) + 2 < bits for found in chunks for p in found[1:])
    assert any(len(found[0]) + 2 >= bits for found in chunks if found)
    # refused for its length alone: only a word past L, and only as a first piece
    dropped = [isinstance(p, stream._Dropped) for found in chunks for p in found]
    assert dropped == [width > limit for width in widths]


def _read(seq, a, code):
    """read_codeword's value of code, or None where it refuses the word."""
    try:
        return read_codeword(seq, code, a)
    except MalformedCodeError:
        return None


# words the stream decoders evaluate or refuse for the limit, put at every kind
# of chunk boundary: carried across one chunk or across several
@pytest.mark.parametrize("chunk", [64, 4096])
@pytest.mark.parametrize("codec, a", [("fib", 0), ("gh", -7)])
def test_the_framer_refuses_the_words_the_reader_refuses(int_digits, monkeypatch, chunk, codec, a):
    int_digits(640)
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    limit, bound = _digit_limit()
    seq = fib_sequence() if codec == "fib" else gh_sequence(a)
    codec_byte = 0 if codec == "fib" else 1
    rng = random.Random(chunk)
    top = _code(codec, a, _largest_below(codec, a, bound))  # accepted
    over = _code(codec, a, _smallest_from(codec, a, bound))  # refused for its value
    longest = _word_of_width(codec, a, limit, rng)  # L bits, refused for its value
    past = "0" * (limit - 1) + "11"  # L + 1 bits, refused for its length
    far = "0" * (3 * limit) + "11"  # across several chunks
    assert limit - 26 < len(top) and limit - 26 < len(over) <= limit
    short = [code for code in (_code(codec, a, n) for n in range(1, 60)) if code]
    for _ in range(4):
        words = []
        for word in rng.sample([top, over, longest, past, far] * 2, 10):
            words += rng.choices(short, k=rng.randrange(8)) + [word]
        found = [_read(seq, a, word) for word in words]
        assert found.count(None) == 8
        starts = [0]
        for word in words:
            starts.append(starts[-1] + len(word))
        blob = _document(codec_byte, a, len(words), "".join(words))
        assert list(resync_decode(blob)) == [
            ResyncToken("value", v, span) if v else ResyncToken("garbage", None, span)
            for v, span in zip(found, zip(starts, starts[1:]))
        ]
        # strict decoding of the accepted words, then of those before each refused one
        # and that one: its message at its start
        accepted = [word for word, v in zip(words, found) if v]
        blob = _document(codec_byte, a, len(accepted), "".join(accepted))
        assert list(stream_decode(blob)) == [v for v in found if v]
        for k, v in enumerate(found):
            if v is None:
                prior = [word for word, ok in zip(words[:k], found) if ok]
                message = f"codeword longer than {limit} bits" if len(words[k]) > limit else \
                    "codeword value past the integer digit limit"
                with pytest.raises(PayloadError, match=message) as err:
                    stream_decode(_document(codec_byte, a, len(prior) + 1, "".join(prior + words[k : k + 1])))
                assert err.value.bit_offset == sum(map(len, prior))


# One flipped bit, the last of a closing pair, joins two words into one: past
# L, or of near + 1 to L bits and worth 10^D or more. Either way the resync
# scan loses just those two words, to one garbage span over both, and strict
# decoding refuses the joined word at its start
@pytest.mark.parametrize("chunk", [1, 4096])
@pytest.mark.parametrize("codec, a", [("fib", 0), ("gh", -7)])
@pytest.mark.parametrize("widths, message", [
    ((1600, 1600), "codeword longer than 3066 bits"),
    ((1533, 1533), "codeword value past the integer digit limit"),
])
def test_a_flip_that_joins_two_words_past_the_limit_damages_those_two(int_digits, monkeypatch, chunk,
                                                                      codec, a, widths, message):
    int_digits(640)
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    limit, bound = _digit_limit()
    seq = fib_sequence() if codec == "fib" else gh_sequence(a)
    rng = random.Random(sum(widths))
    short = [code for code in (_code(codec, a, n) for n in range(1, 60)) if code]
    for before in (0, 3, 11):
        joined = [_word_of_width(codec, a, width, rng) for width in widths]
        merged = joined[0][:-1] + "0" + joined[1]
        if len(merged) <= limit:
            assert limit - 26 < len(merged) and value(seq, merged[:-1]) >= bound
        words = rng.choices(short, k=before) + joined + rng.choices(short, k=5)
        blob = _document(0 if codec == "fib" else 1, a, len(words), "".join(words))
        clean = list(resync_decode(blob))
        assert list(stream_decode(blob)) == [t.value for t in clean] and None not in clean
        lo, hi = clean[before].bit_span[0], clean[before + 1].bit_span[1]
        damaged = _flip(blob, clean[before].bit_span[1] - 1)
        tokens = list(resync_decode(damaged))
        assert tokens == clean[:before] + [ResyncToken("garbage", None, (lo, hi))] + clean[before + 2 :]
        kept = set(tokens)
        assert [i for i, token in enumerate(clean) if token not in kept] == [before, before + 1]
        with pytest.raises(PayloadError, match=message) as err:
            stream_decode(damaged)
        assert err.value.bit_offset == lo


# the hostile files at the default limit, D = 4,300

def test_long_word_file_and_argument_are_refused_in_bounded_memory(int_digits, tmp_path, capsys):
    int_digits(4300)
    path = tmp_path / "long.ghc"
    path.write_bytes(_document(0, 0, 1, LONG_WORD))
    assert path.stat().st_size == 7524
    expected = {
        ("stream-unpack", str(path)): (2, "", "error: codeword longer than 20579 bits (bit offset 0)\n"),
        ("stream-unpack", "--resync", str(path)): (0, "# garbage bits [0:60000)\n", ""),
        ("decode", "--code", "fib", LONG_WORD):
            (2, "", "error: codeword longer than 20579 bits (bit offset 20579)\n"),
        ("decode", "--code", "gh", "--a", "-7", LONG_WORD):
            (2, "", "error: codeword longer than 20579 bits (bit offset 20579)\n"),
    }
    for argv, outcome in expected.items():
        start = time.perf_counter()
        status, peak = _peak(lambda: main(list(argv)))
        assert time.perf_counter() - start < 1, argv
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == outcome
        assert peak < 2**20, argv


def test_strict_prints_nothing_before_a_long_word(int_digits, tmp_path, capsys):
    int_digits(4300)
    path = tmp_path / "late.ghc"
    path.write_bytes(_document(0, 0, 8201, "11" * 8200 + LONG_WORD))
    assert main(["stream-unpack", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: codeword longer than 20579 bits (bit offset 16400)\n"


def test_pairless_megabyte_is_framed_in_bounded_memory(int_digits):
    int_digits(4300)
    blob = _document(0, 0, 1, "10" * 4 * 2**20)
    assert blob[24:] == b"\xaa" * 2**20
    offset, peak = _peak(lambda: _strict(blob))
    assert offset == 0 and peak < 2**20
    tokens, peak = _peak(lambda: list(resync_decode(blob)))
    assert tokens == [ResyncToken("garbage", None, (0, 2**23))] and peak < 2**20


def test_decode_refuses_a_short_word_past_the_bound_at_a_huge_a(int_digits, capsys):
    int_digits(4300)
    a = -(10**4299)
    code = "1010101011"  # term(1) + term(3) + term(5) + term(7) + term(9) = 33 - 11a
    assert value(gh_sequence(a), code[:-1]) >= 10**4300
    assert main(["decode", f"--a={a}", code]) == 2
    assert capsys.readouterr().err == "error: codeword value past the integer digit limit (bit offset 0)\n"


@pytest.mark.parametrize("digits", [4299, 4300])
def test_a_non_positive_word_past_the_bound_keeps_its_error_class(int_digits, digits):
    # "11" is worth term(1) = a: at a = -10^4300 str() cannot print it, so the
    # message gives its bit length, as UnencodableValueError does
    int_digits(4300)
    a = -(10**digits)
    with pytest.raises(NonPositiveValueError) as err:
        decode(a, "11")
    assert err.value.computed == a
    if digits == 4299:
        assert str(err.value) == f"codeword '11' decodes to non-positive value {a}"
    else:
        assert str(err.value) == (f"codeword '11' decodes to a non-positive value of {a.bit_length()} bits,"
                                  " past the integer digit limit")
    with pytest.raises(NonPositiveValueError):
        decode_many(a, ["11"])


def test_a_long_gh_word_at_a_huge_a_is_refused_unevaluated(int_digits, capsys):
    # a gh word of l >= 5 bits is worth at least F(l - 2) - a (F(l - 4) - 1)
    # (bits._digit_limit): at a = -10^4299 every word past 10 bits reaches 10^4300
    int_digits(4300)
    a = -(10**4299)
    assert _digit_limit(a) == (10, 10**4300)
    word = "0" * 20_000 + "11"
    start = time.perf_counter()
    status, peak = _peak(lambda: main(["decode", "--code", "gh", f"--a={a}", word]))
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert (status, captured.out) == (2, "")
    assert captured.err == "error: codeword value past the integer digit limit (bit offset 0)\n"
    assert peak < 25 * 2**20
    assert len(gh_sequence(a)._terms) <= 11  # term(10) at most, with the placeholder slot


@pytest.mark.parametrize("a", [-2, -7, -(2**15), -(10**30), -(10**600), -(10**639)])
def test_longest_gh_word_accepted_matches_a_brute_force_walk(int_digits, monkeypatch, a):
    int_digits(640)
    bound = 10**640
    # the cheapest word of each length sets only index 1, whose term a is the
    # only negative one, and its top index; walk the terms apart from gh_sequence
    terms = [a, 1 - a, 1, 2 - a]
    while a + terms[-1] < bound:
        terms.append(terms[-1] + terms[-2])
    longest = len(terms)  # a + term(longest - 1) < 10^640 <= a + term(longest)

    def cheapest(length):
        return "1" + "0" * (length - 3) + "11"

    assert _digit_limit(a)[0] == longest
    for length in range(5, longest + 1):
        code = cheapest(length)
        assert decode(a, code) == decode_many(a, ["011", code])[1] == a + terms[length - 2], length
    lengths = []
    prefix = sequences._AdditiveSequence.prefix
    monkeypatch.setattr(sequences._AdditiveSequence, "prefix",
                        lambda self, n: lengths.append(n) or prefix(self, n))
    for length in (longest + 1, longest + 2):
        for decoder in _decoders("gh", a):
            with pytest.raises(MalformedCodeError, match="value past the integer digit limit"):
                decoder(cheapest(length))
    assert max(lengths) == 2  # decode_many's "011" alone was evaluated


def test_no_limit_decodes_the_long_word_as_before(tmp_path):
    # in a child, as the shared Fibonacci terms it grows take about 170 MiB
    script = f"""
import sys
sys.set_int_max_str_digits(0)
from ghcodes.fibcodec import fib_decode
from ghcodes.sequences import fib_sequence
from ghcodes.stream import ResyncToken, resync_decode, stream_decode
n = fib_sequence().term(59_999)
blob = open(sys.argv[1], "rb").read()
assert fib_decode({LONG_WORD!r}) == n
assert list(stream_decode(blob)) == [n]
assert list(resync_decode(blob)) == [ResyncToken("value", n, (0, 60_000))]
"""
    path = tmp_path / "long.ghc"
    path.write_bytes(_document(0, 0, 1, LONG_WORD))
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script, str(path)], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr


def test_a_stream_decoder_keeps_the_limit_of_its_call(int_digits):
    int_digits(4300)
    wide = 10**640  # accepted under D = 4,300, refused under 640
    blob = stream_encode("fib", 0, [wide, 1])
    decoded, scan = stream_decode(blob), resync_decode(blob)
    int_digits(640)
    assert list(decoded) == [wide, 1]
    assert [t.value for t in scan] == [wide, 1]
    assert _strict(blob) == 0
