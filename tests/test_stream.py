import contextlib
import io
import os
import random
import struct
import tempfile
import time
import tracemalloc
from bisect import bisect_right
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import ghcodes.stream as stream
from ghcodes.bits import _digit_limit, value
from ghcodes.cli import _gen_values, main
from ghcodes.fibcodec import fib_encode
from ghcodes.ghcodec import encode_fast
from ghcodes.sequences import fib_sequence, gh_sequence
from ghcodes.stream import (
    _MEMO_MAX_BITS,
    _SHORT_PIECES,
    HeaderError,
    PayloadError,
    ResyncToken,
    UnencodableValueError,
    resync_decode,
    stream_decode,
    stream_encode,
)

HEADER_SIZE = 24


def _flip(blob: bytes, payload_bit: int) -> bytes:
    out = bytearray(blob)
    out[HEADER_SIZE + payload_bit // 8] ^= 0x80 >> (payload_bit % 8)
    return bytes(out)


def _frame_spans(values, a):
    spans = []
    pos = 0
    for v in values:
        width = len(encode_fast(a, v).code)
        spans.append((pos, pos + width))
        pos += width
    return spans


def test_single_fib_value_layout():
    blob = stream_encode("fib", 0, [1])
    assert blob[:4] == b"GHC1"
    assert blob[4] == 1
    assert blob[5] == 0
    assert int.from_bytes(blob[6:8], "little", signed=True) == 0
    assert int.from_bytes(blob[8:16], "little") == 1
    assert int.from_bytes(blob[16:24], "little") == 2
    assert blob[24:] == bytes([0b11000000])


def test_empty_document():
    blob = stream_encode("gh", -2, [])
    assert len(blob) == HEADER_SIZE
    assert list(stream_decode(blob)) == []
    assert list(resync_decode(blob)) == []


def test_known_bytes():
    blob = stream_encode("gh", -2, [7, 10, 1])
    assert blob.hex() == "474843310101feff030000000000000010000000000000005933"


def test_unencodable_value():
    with pytest.raises(UnencodableValueError) as err:
        stream_encode("gh", -5, [5])
    assert err.value.value == 5


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        stream_encode("fib", -2, [1])
    with pytest.raises(ValueError):
        stream_encode("gh", 0, [1])
    with pytest.raises(ValueError):
        stream_encode("morse", 0, [1])
    with pytest.raises(ValueError):
        stream_encode("fib", 0, [0])


def test_round_trip_example():
    blob = stream_encode("gh", -2, [7, 10, 1])
    assert list(stream_decode(blob)) == [7, 10, 1]
    assert int.from_bytes(blob[16:24], "little") == len("01011" + "0010011" + "0011")


def test_deterministic_bytes():
    values = [n for n in range(1, 200) if encode_fast(-7, n) is not None][:80]
    assert stream_encode("gh", -7, values) == stream_encode("gh", -7, values)


def test_header_errors():
    blob = stream_encode("fib", 0, [1])
    with pytest.raises(HeaderError):
        stream_decode(b"NOPE" + blob[4:])
    with pytest.raises(HeaderError):
        stream_decode(blob[:10])
    with pytest.raises(HeaderError):
        stream_decode(blob[:4] + bytes([9]) + blob[5:])
    with pytest.raises(HeaderError):
        stream_decode(blob[:5] + bytes([7]) + blob[6:])


def test_truncated_payload():
    blob = stream_encode("gh", -2, [7, 10, 1])
    with pytest.raises(PayloadError):
        stream_decode(blob[:-1])


def test_trailing_bytes_rejected():
    blob = stream_encode("gh", -2, [7])
    with pytest.raises(PayloadError):
        stream_decode(blob + b"\x00")


def test_count_mismatch_rejected():
    blob = stream_encode("gh", -2, [7, 10])
    fewer = blob[:8] + (1).to_bytes(8, "little") + blob[16:]
    with pytest.raises(PayloadError):
        stream_decode(fewer)


def test_nonzero_padding_rejected():
    blob = stream_encode("gh", -2, [7])  # 5 payload bits, 3 padding bits
    corrupt = blob[:-1] + bytes([blob[-1] | 0b00000001])
    with pytest.raises(PayloadError) as err:
        stream_decode(corrupt)
    assert err.value.bit_offset >= 5


def test_flip_creating_interior_pair_is_rejected():
    blob = stream_encode("gh", -2, [7, 10, 1])
    with pytest.raises(PayloadError) as err:
        stream_decode(_flip(blob, 2))
    assert err.value.bit_offset >= 0


def test_resync_matches_strict_decode_when_clean():
    values = [7, 10, 1, 99, 4]
    blob = stream_encode("gh", -2, values)
    tokens = list(resync_decode(blob))
    assert [t.value for t in tokens] == values
    assert all(t.kind == "value" for t in tokens)
    assert tokens[0].bit_span[0] == 0
    for prev, cur in zip(tokens, tokens[1:]):
        assert prev.bit_span[1] == cur.bit_span[0]


def test_single_flip_suffix_recovery():
    rng = random.Random(7)
    values = [rng.randint(1, 500) for _ in range(100)]
    blob = stream_encode("gh", -2, values)
    spans = _frame_spans(values, -2)
    total_bits = spans[-1][1]
    for _ in range(200):
        p = rng.randrange(total_bits)
        frame = next(i for i, (lo, hi) in enumerate(spans) if lo <= p < hi)
        tokens = list(resync_decode(_flip(blob, p)))
        got = [t.value if t.kind == "value" else None for t in tokens]
        assert got[:frame] == values[:frame]
        tail = len(values) - (frame + 2)
        if tail > 0:
            assert got[-tail:] == values[frame + 2 :]
        assert abs(len(tokens) - len(values)) <= 2


def _flip_stream(name):
    """(codec, a, values) of one of the small streams whose every payload bit is flipped."""
    rng = random.Random(name)
    if name == "fib small":
        return "fib", 0, [rng.randint(1, 40) for _ in range(60)]
    if name == "fib large":
        return "fib", 0, [rng.randint(1, 10**9) for _ in range(40)]
    if name == "gh -2^15":
        # random draws almost never have a code at this a; a sum of non-adjacent
        # terms from index 6 up is its own greedy split with leftover 0, which has one
        terms = gh_sequence(-(2**15)).prefix(40)
        values = []
        while len(values) < 50:
            i, picks = 6 + rng.randrange(3), []
            while i <= 40 and (not picks or rng.random() < 0.7):
                picks.append(i)
                i += 2 + rng.randrange(4)
            values.append(sum(terms[j - 1] for j in picks))
        return "gh", -(2**15), values
    a = int(name.split()[1])
    values = []
    while len(values) < 50:  # on both sides of the memo's 24-bit bound
        n = rng.randint(1, rng.choice((40, 10**4, 10**9)))
        if encode_fast(a, n):
            values.append(n)
    return "gh", a, values


@pytest.mark.parametrize("chunk", [1, 4096])
@pytest.mark.parametrize("name", ["fib small", "fib large", "gh -2", "gh -7", "gh -2^15"])
def test_one_flipped_bit_damages_one_run_of_at_most_three_words(monkeypatch, name, chunk):
    # a clean token is its kind, value and bit span; the clean tokens a flip loses
    # must be one run that starts at the word holding the flipped bit
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    codec, a, values = _flip_stream(name)
    blob = stream_encode(codec, a, values)
    clean = list(resync_decode(blob))
    assert [t.value for t in clean] == values
    starts = [t.bit_span[0] for t in clean]
    for p in range(clean[-1].bit_span[1]):
        kept = set(resync_decode(_flip(blob, p)))
        lost = [i for i, token in enumerate(clean) if token not in kept]
        first = bisect_right(starts, p) - 1
        assert 1 <= len(lost) <= 3 and lost == list(range(first, first + len(lost))), (p, lost)


@pytest.mark.parametrize("name", ["fib small", "fib large", "gh -2", "gh -7", "gh -2^15"])
def test_flips_that_keep_the_framing_change_one_value_or_are_refused(name):
    # the framing is the bit spans of the closed words. It stays when a 0-to-1
    # flip makes no pair (its right neighbour is 0, its left one 0 or the end
    # of a word) and when a 1-to-0 flip clears a 1 outside a closing pair;
    # every other flip of a payload bit moves a span. A kept framing changes
    # one value by term(i): strict decoding gives the declared count with that
    # one value changed, or, under gh, where term(1) = a < 0, refuses a value
    # below 1. A flip in the padding keeps the framing, and strict decoding
    # refuses the nonzero padding
    codec, a, values = _flip_stream(name)
    blob = stream_encode(codec, a, values)
    framed = lambda blob: [(lo, hi) for lo, hi, v in _reference_spans(blob)[2] if v is not None]
    clean = framed(blob)
    bit_length = clean[-1][1]
    bits = "".join(f"{byte:08b}" for byte in blob[HEADER_SIZE:])[:bit_length] + "0"
    closing = {i for _, hi in clean for i in (hi - 2, hi - 1)}
    outcomes = set()
    for p in range(8 * (len(blob) - HEADER_SIZE)):
        damaged = _flip(blob, p)
        framing = framed(damaged)
        if p >= bit_length:
            assert framing == clean, p
            with pytest.raises(PayloadError, match="padding bits must be zero"):
                stream_decode(damaged)
            outcomes.add("padding")
            continue
        if bits[p] == "0":
            keeps = bits[p + 1] == "0" and (p == 0 or bits[p - 1] == "0" or p - 1 in closing)
        else:
            keeps = p not in closing
        assert (framing == clean) == keeps, p
        if not keeps:
            continue
        try:
            got = list(stream_decode(damaged))
        except PayloadError as exc:
            assert codec == "gh" and "non-positive value" in str(exc), (p, exc)
            outcomes.add("non-positive")
        else:
            assert len(got) == len(values) and sum(map(int.__ne__, got, values)) == 1, p
            outcomes.add("one value")
    # of these streams only gh -2 holds a word a kept framing can take below 1
    assert outcomes - {"padding"} == ({"one value", "non-positive"} if name == "gh -2" else {"one value"})


def test_terminator_flip_merges_two_frames():
    values = [7, 10, 1, 99, 4, 250]
    blob = stream_encode("gh", -2, values)
    spans = _frame_spans(values, -2)
    tokens = list(resync_decode(_flip(blob, spans[1][1] - 1)))
    assert len(tokens) == len(values) - 1
    assert tokens[0].value == 7
    assert [t.value for t in tokens[-3:]] == values[3:]
    assert tokens[1].bit_span == (spans[1][0], spans[2][1])


def test_resync_reports_unterminated_tail_as_garbage():
    values = [7, 10]
    blob = stream_encode("gh", -2, values)
    spans = _frame_spans(values, -2)
    # kill the final closing pair entirely
    broken = _flip(_flip(blob, spans[1][1] - 1), spans[1][1] - 2)
    tokens = list(resync_decode(broken))
    assert tokens[-1].kind == "garbage"
    assert tokens[-1].bit_span[1] == spans[1][1]


def test_resync_scan_iterates_again_with_equal_tokens():
    values = [7, 10, 1, 99, 4, 250]
    scan = resync_decode(_flip(stream_encode("gh", -2, values), 3))
    first = list(scan)
    assert len(first) > 1
    assert list(scan) == first


def test_resync_checks_the_header_at_the_call():
    blob = stream_encode("gh", -2, [7, 10, 1])
    with pytest.raises(HeaderError):
        resync_decode(blob[:10])  # raised by the call itself: nothing is iterated
    with pytest.raises(HeaderError):
        resync_decode(b"NOPE" + blob[4:])


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resync_scan_holds_no_token_per_value():
    values = _gen_values("geometric:0.05", 50_000, 12345)
    scan = resync_decode(stream_encode("gh", -2, values))

    def walk():
        for _ in scan:
            pass

    walked, listed = _traced_peak(walk), _traced_peak(lambda: list(scan))
    assert 5 * walked <= listed


@given(values=st.lists(st.integers(min_value=1, max_value=10**6), max_size=40))
@settings(max_examples=50)
def test_fib_round_trip_property(values):
    assert list(stream_decode(stream_encode("fib", 0, values))) == values


@given(values=st.lists(st.integers(min_value=1, max_value=10**5), max_size=40))
@settings(max_examples=50)
def test_gh_round_trip_property(values):
    assert list(stream_decode(stream_encode("gh", -3, values))) == values


def test_a_outside_header_field_rejected_before_encoding():
    def values():
        raise AssertionError("values read before a was checked")
        yield

    with pytest.raises(ValueError, match="-40000"):
        stream_encode("gh", -40000, values())


def _writer_error(codec: str, a: int) -> str | None:
    """The message stream_encode refuses codec and a with, or None if it accepts them."""
    try:
        stream_encode(codec, a, [])
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("codec_byte, a", product((0, 1, 2), (-32768, -3, -2, -1, 0, 3)))
def test_reader_accepts_exactly_the_headers_the_writer_makes(codec_byte, a):
    header = struct.pack("<4sBBhQQ", b"GHC1", 1, codec_byte, a, 0, 0)
    written = _writer_error(("fib", "gh", "morse")[codec_byte], a)
    try:
        stream._parse_header(header)
        read = None
    except HeaderError as exc:
        read = str(exc)
    assert (written is None) == (read is None), (written, read)
    if written is None:
        assert stream_encode(("fib", "gh")[codec_byte], a, []) == header
    elif codec_byte != 2:
        assert written == read


@pytest.mark.parametrize("codec, message", [
    ("fib", "a must be 0 for the fib codec, got -40000"),
    ("gh", "parameter a must be >= -32768 to fit the header, got -40000"),
])
def test_writer_alone_checks_an_a_outside_the_header_field(codec, message):
    assert _writer_error(codec, -40000) == message


def test_codeword_encoder_calls_the_encoders_the_module_holds_now(monkeypatch):
    # perfbench/tracer.py patches stream.fib_encode and stream.encode_fast after import
    monkeypatch.setattr(stream, "fib_encode", lambda n: "fib")
    monkeypatch.setattr(stream, "encode_fast", lambda a, n: None)
    assert stream.codeword_encoder("fib", 0)(7) == "fib"
    assert stream.codeword_encoder("gh", -2)(7) is None


def test_a_at_header_field_minimum_round_trips():
    blob = stream_encode("gh", -32768, [1, 4])
    assert int.from_bytes(blob[6:8], "little", signed=True) == -32768
    assert list(stream_decode(blob)) == [1, 4]


# Unmemoised references: one codeword build per value, one bits.value
# call per token span, with the header and bit packing written out here.

def _reference_codeword(codec, a, v):
    return fib_encode(v) if codec == "fib" else encode_fast(a, v).code


def _document(codec_byte, a, count, bits):
    padded = bits + "0" * (-len(bits) % 8)
    payload = bytes(int(padded[i : i + 8], 2) for i in range(0, len(padded), 8))
    return struct.pack("<4sBBhQQ", b"GHC1", 1, codec_byte, a, count, len(bits)) + payload


def _reference_encode(codec, a, values):
    bits = "".join(_reference_codeword(codec, a, v) for v in values)
    return _document(0 if codec == "fib" else 1, a, len(values), bits)


# the encoder packs in batches of 8192 values: counts on both sides of one
# and of two batch boundaries
@pytest.mark.parametrize("count", [0, 1, 8191, 8192, 8193, 16387])
@pytest.mark.parametrize("codec, a", [("fib", 0), ("gh", -2), ("gh", -7)])
def test_batched_encode_equals_one_shot_reference(codec, a, count):
    rng = random.Random(count)
    values = []
    while len(values) < count:
        v = rng.choice((rng.randint(1, 40), rng.randint(1, 10**9)))
        if codec == "fib" or encode_fast(a, v) is not None:
            values.append(v)
    pools = [values]
    if codec == "fib":  # long values only, so every batch goes to the lanes
        top = fib_sequence().term(65)
        pools.append([rng.choice((rng.randrange(75_025, top), rng.randint(75_025, 10**9))) for _ in range(count)])
    for values in pools:
        expected = _reference_encode(codec, a, values)
        assert stream_encode(codec, a, values) == expected
        assert stream_encode(codec, a, iter(values)) == expected


@pytest.mark.parametrize("odd", [None, 75_024, 27_777_890_035_288])
@pytest.mark.parametrize("at", [0, 4000, 8191])
def test_only_a_batch_of_long_fib_values_goes_to_the_lanes(monkeypatch, odd, at):
    # term(24) = 75,025 is the first value whose codeword passes the memo,
    # and term(65) the first whose codeword does not fit a 64-bit lane
    seq = fib_sequence()
    assert (seq.term(24), seq.term(65)) == (75_025, 27_777_890_035_288)
    rng = random.Random(at)
    values = [75_025, seq.term(65) - 1] + [rng.randrange(75_025, seq.term(65)) for _ in range(8189)]
    if odd is not None:
        values.insert(at, odd)  # 8192 values, one batch
    built = []
    monkeypatch.setattr(stream, "fib_encode", lambda v: built.append(v) or fib_encode(v))
    expected = _reference_encode("fib", 0, values)
    assert stream_encode("fib", 0, values) == expected
    assert built == ([] if odd is None else values)
    # a second batch of long values alone goes to the lanes whatever the first held
    built.clear()
    assert stream_encode("fib", 0, values + [75_025]) == _reference_encode("fib", 0, values + [75_025])
    assert built == ([] if odd is None else values)


@pytest.mark.parametrize("codec, a, good, bad, message", [
    pytest.param("fib", 0, (10**6, 10**7, 10**8), 0, "only positive integers are encodable, got 0", id="fib-long"),
    pytest.param("fib", 0, (5, 10**7, 10**8), 0, "only positive integers are encodable, got 0", id="fib-short"),
    pytest.param("gh", -5, (7, 10**6, 10**8), 5, "no code exists for value 5 at a=-5", id="gh"),
])
def test_an_error_of_the_iterable_comes_after_those_of_the_values_it_gave(codec, a, good, bad, message):
    # every batch is read whole; still a value with no code read before the
    # iterable fails is reported first, whether the iterable fails inside its
    # batch (lead 0, and _BATCH_VALUES: the second batch) or opens the next
    # one (the value with no code ends the first batch)
    first, second, late = good

    def values(lead, tail):
        yield from [first] * lead
        yield first
        yield second
        if tail is not None:
            yield tail
        raise KeyError("iterable")

    for lead in (0, stream._BATCH_VALUES - 3, stream._BATCH_VALUES):
        with pytest.raises(ValueError, match=message):
            stream_encode(codec, a, values(lead, bad))
        with pytest.raises(KeyError, match="iterable"):
            stream_encode(codec, a, values(lead, None))
        with pytest.raises(KeyError, match="iterable"):
            stream_encode(codec, a, values(lead, late))


def _reference_spans(blob):
    """(lo, hi, value) per span up to each closing pair; value None for an open tail."""
    _, _, codec, a, count, bit_length = struct.unpack_from("<4sBBhQQ", blob)
    seq = fib_sequence() if codec == 0 else gh_sequence(a)
    bits = "".join(f"{byte:08b}" for byte in blob[HEADER_SIZE:])[:bit_length]
    spans = []
    cursor = 0
    while cursor < len(bits):
        end = bits.find("11", cursor)
        if end == -1:
            spans.append((cursor, len(bits), None))
            break
        spans.append((cursor, end + 2, value(seq, bits[cursor : end + 1])))
        cursor = end + 2
    return count, bit_length, spans


def _reference_resync(blob):
    _, _, spans = _reference_spans(blob)
    return [
        ResyncToken("value", v, (lo, hi)) if v is not None and v >= 1
        else ResyncToken("garbage", None, (lo, hi))
        for lo, hi, v in spans
    ]


def _reference_strict(blob):
    """The decoded values, or the bit offset stream_decode must fail at."""
    count, bit_length, spans = _reference_spans(blob)
    payload = blob[HEADER_SIZE:]
    if len(payload) < (bit_length + 7) // 8:
        return 8 * len(payload)
    if len(payload) > (bit_length + 7) // 8:
        return bit_length
    for lo, _, v in spans[:count]:
        if v is None or v < 1:
            return lo
    if len(spans) < count:
        return bit_length
    if len(spans) > count:
        return spans[count][0]
    padding = "".join(f"{byte:08b}" for byte in payload)[bit_length:]
    if "1" in padding:
        return bit_length + padding.index("1")
    return [v for _, _, v in spans]


def _strict_outcome(blob):
    try:
        return list(stream_decode(blob))
    except PayloadError as err:
        return err.bit_offset


# per codec: values whose codewords fit the memo, and values whose codewords
# do not; the last short and first long values sit at 24 and 25 bits
_MEMO_POOLS = {
    ("fib", 0): ([1, 2, 3, 20, 99, 75024], [75025, 10**6, 10**9, 10**12]),
    ("gh", -2): ([1, 2, 3, 20, 99, 50548], [50549, 10**6, 10**9, 10**12]),
    ("gh", -7): ([1, 2, 3, 9, 20, 105278], [105272, 10**6, 10**9, 10**12 + 3]),
    # most values have no code at a = -2**15
    ("gh", -(2**15)): ([1, 2, 3, 32769, 98312, 306438049],
                       [358707185, 358772726, 10500230348, 15486824103503]),
}


@pytest.mark.parametrize("key", sorted(_MEMO_POOLS))
def test_memo_pools_straddle_the_bound(key):
    codec, a = key
    short, long = _MEMO_POOLS[key]
    assert all(len(_reference_codeword(codec, a, v)) <= _MEMO_MAX_BITS for v in short)
    assert all(len(_reference_codeword(codec, a, v)) > _MEMO_MAX_BITS for v in long)


def test_memo_keeps_short_words_and_rebuilds_long_ones(monkeypatch):
    built, evaluated, memos = [], [], []
    real_encode, real_value = stream.fib_encode, stream.value

    class RecordedWordValues(stream._WordValues):
        def __init__(self, seq):
            super().__init__(seq)
            memos.append(self)

    monkeypatch.setattr(stream, "fib_encode", lambda v: built.append(v) or real_encode(v))
    monkeypatch.setattr(stream, "value", lambda seq, w: evaluated.append(w) or real_value(seq, w))
    monkeypatch.setattr(stream, "_WordValues", RecordedWordValues)
    values = [75024, 75025, 75024, 75025, 75024]  # 24- and 25-bit codewords
    blob = stream_encode("fib", 0, values)
    assert built == [75024, 75025, 75025]
    short = fib_encode(75024)[:-2]

    def decode_both():
        memos.clear()
        evaluated.clear()
        assert list(stream_decode(blob)) == values
        assert [t.value for t in resync_decode(blob)] == values
        # the strict decoding pass, then the resync pass; the checking pass
        # evaluates no word of its own
        return [dict(m) for m in memos]

    # one word per chunk, or one chunk that the 25-bit word sends to the
    # lanes: either way the 24-bit word is evaluated once per pass and
    # kept, and the 25-bit word is never kept
    for chunk in (1, 4096):
        monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
        assert decode_both() == [{short: 75024}] * 2
        assert [w for w in evaluated if len(w) > 3] == [short + "1"] * 2


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_memoised_encode_equals_per_value_reference(data):
    codec, a = data.draw(st.sampled_from(sorted(_MEMO_POOLS)))
    short, long = _MEMO_POOLS[(codec, a)]
    values = data.draw(st.lists(st.sampled_from(short + long), max_size=200))
    assert stream_encode(codec, a, values) == _reference_encode(codec, a, values)


@pytest.mark.parametrize("key", sorted(_MEMO_POOLS))
def test_memoised_decoders_equal_per_span_reference_under_bit_flips(key):
    codec, a = key
    short, long = _MEMO_POOLS[key]
    rng = random.Random(20261017)
    for _ in range(40):
        values = [rng.choice(short if rng.random() < 0.8 else long) for _ in range(120)]
        blob = stream_encode(codec, a, values)
        assert list(stream_decode(blob)) == values
        assert list(resync_decode(blob)) == _reference_resync(blob)
        payload_bits = int.from_bytes(blob[16:24], "little")
        damaged = blob
        for _ in range(rng.randint(1, 4)):
            damaged = _flip(damaged, rng.randrange(payload_bits))
        assert list(resync_decode(damaged)) == _reference_resync(damaged)
        assert _strict_outcome(damaged) == _reference_strict(damaged)


# at a=-2 "01011" is 7, while "11" evaluates to term(1) = a = -2

def test_non_positive_word_reported_before_truncated_tail():
    blob = _document(1, -2, 3, "01011" + "11" + "0010")
    with pytest.raises(PayloadError, match="non-positive") as err:
        stream_decode(blob)
    assert err.value.bit_offset == 5


@pytest.mark.parametrize("chunk", [1, 4096])
def test_non_positive_word_past_the_count_is_leftover(monkeypatch, chunk):
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    blob = _document(1, -2, 1, "01011" + "11")
    with pytest.raises(PayloadError, match="continues past the declared count") as err:
        stream_decode(blob)
    assert err.value.bit_offset == 5


def test_repeated_non_positive_word_is_garbage_every_time():
    blob = _document(1, -2, 4, "11" + "01011" + "11" + "01011")
    with pytest.raises(PayloadError, match="non-positive") as err:
        stream_decode(blob)
    assert err.value.bit_offset == 0
    assert list(resync_decode(blob)) == [
        ResyncToken("garbage", None, (0, 2)),
        ResyncToken("value", 7, (2, 7)),
        ResyncToken("garbage", None, (7, 9)),
        ResyncToken("value", 7, (9, 14)),
    ]


# the decoders' error contract on untrusted input: small blobs, mutated
_FUZZ_CODECS = [("fib", 0), ("gh", -2), ("gh", -7), ("gh", -40)]
# a word is at most 8 * 64 bits, so no sequence grows past a few hundred terms
_FUZZ_MAX_PAYLOAD = 64


@st.composite
def _small_blobs(draw):
    codec, a = draw(st.sampled_from(_FUZZ_CODECS))
    values = draw(st.lists(st.integers(min_value=1, max_value=10**4), max_size=40))
    if codec == "gh":
        values = [v for v in values if encode_fast(a, v) is not None]
    blob = stream_encode(codec, a, values)
    while len(blob) - HEADER_SIZE > _FUZZ_MAX_PAYLOAD:
        values.pop()
        blob = stream_encode(codec, a, values)
    return blob


# (offset, width) of the version, codec, a, count and bit-length fields
_HEADER_FIELDS = [(4, 1), (5, 1), (6, 2), (8, 8), (16, 8)]


@st.composite
def _mutated(draw, blob):
    kind = draw(st.sampled_from(["flip", "truncate", "field", "append", "header", "zeros", "long"]))
    out = bytearray(blob)
    payload_bits = 8 * (len(blob) - HEADER_SIZE)
    if kind == "flip" and payload_bits:
        for p in draw(st.lists(st.integers(0, payload_bits - 1), min_size=1, max_size=4)):
            out[HEADER_SIZE + p // 8] ^= 0x80 >> (p % 8)
    elif kind == "truncate":
        del out[draw(st.integers(0, len(blob))):]
    elif kind == "field":  # a forged value, often a small one such as a = 0 or count = 1
        offset, width = draw(st.sampled_from(_HEADER_FIELDS))
        forged = draw(st.integers(0, 256**width - 1))
        out[offset:offset + width] = forged.to_bytes(width, "little")
    elif kind == "append":
        out += draw(st.binary(min_size=1, max_size=8))
    elif kind == "header":
        for i in draw(st.lists(st.integers(0, HEADER_SIZE - 1), min_size=1, max_size=4)):
            out[i] = draw(st.integers(0, 255))
    elif kind in ("zeros", "long"):
        # a run of zeros, or a whole word, past L (bits._digit_limit) at any
        # bit: whatever word takes it in is too long to be evaluated
        _, _, codec_byte, a, count, bit_length = struct.unpack_from("<4sBBhQQ", blob)
        bits = "".join(f"{byte:08b}" for byte in blob[HEADER_SIZE:])[:bit_length]
        limit = _digit_limit()[0]
        run = "0" * draw(st.integers(limit - 1, 3 * limit)) + ("11" if kind == "long" else "")
        at = draw(st.integers(0, len(bits)))
        return _document(codec_byte, a, count, bits[:at] + run + bits[at:])
    return bytes(out)


def _decode_or_error(decoder, blob):
    try:
        return decoder(blob)
    except (HeaderError, PayloadError):  # any other exception fails the test
        return None


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_decoders_raise_only_documented_errors_under_mutation(data):
    blob = data.draw(_small_blobs())
    strict = list(stream_decode(blob))
    clean = resync_decode(blob)
    assert [t.value for t in clean] == strict
    assert all(t.kind == "value" for t in clean)
    damaged = data.draw(_mutated(blob))
    start = time.perf_counter()
    tracemalloc.start()
    try:
        _decode_or_error(stream_decode, damaged)
        # only the call may raise: iterating the scan never aborts
        scan = _decode_or_error(resync_decode, damaged)
        tokens = None if scan is None else list(scan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the payload is at most a few KiB, and no word past L grows a sequence
    assert time.perf_counter() - start < 1
    assert peak < 2**20
    if tokens is None:
        return
    covered = min(int.from_bytes(damaged[16:24], "little"), 8 * (len(damaged) - HEADER_SIZE))
    ends = [0] + [t.bit_span[1] for t in tokens]
    assert [t.bit_span[0] for t in tokens] == ends[:-1]
    assert ends[-1] == covered


# The chunked framer, with chunks of 1 to 3 bytes so that every feature
# below meets a chunk boundary somewhere

def _padded_document(codec_byte, a, count, bits, padding):
    """A document whose final byte carries padding in its unused low bits."""
    blob = bytearray(_document(codec_byte, a, count, bits))
    if len(bits) % 8:
        blob[-1] |= padding & (0xFF >> len(bits) % 8)
    return bytes(blob)


def _closed_words(codec_byte, a, bits):
    """How many words in bits end with their closing pair."""
    _, _, spans = _reference_spans(_document(codec_byte, a, 0, bits))
    return sum(v is not None for _, _, v in spans)


def _boundary_cases(width):
    """Payload bits that put each framing hazard at the boundary at bit width."""
    return [
        "0" * (width - 1) + "11" + "011",  # a closing pair split by the boundary
        "0" * (width - 2) + "111" + "0011",  # 111 across it: the pair ends the chunk
        "0" * (width - 1) + "111" + "011",  # 111 across it: the pair opens the next
        "0" * (3 * width) + "11",  # one word over more than 3 chunks
        "0" * (width - 2) + "11" + "11" + "011",  # gh word "1" (a) first in a chunk
        "0" * (width - 6) + "11" + "1011" + "011",  # gh word "101" (a + 1) last in it
        "11" + "0" * (width - 8) + "11" + "1011",  # the same two words first and last
        "0" * (width - 2) + "11" + "0101",  # an open tail across the boundary
        "011" * width,  # many short words, so a count can end mid-chunk
    ]


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("codec_byte, a", [(0, 0), (1, -2), (1, -7)])
def test_framer_matches_the_reference_at_chunk_boundaries(monkeypatch, chunk, codec_byte, a):
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    for bits in _boundary_cases(8 * chunk):
        words = _closed_words(codec_byte, a, bits)
        for count in {0, 1, words // 2, words - 1, words, words + 1}:
            for padding in (0, 0xFF, 0x01):
                blob = _padded_document(codec_byte, a, count, bits, padding)
                assert _strict_outcome(blob) == _reference_strict(blob), (bits, count)
                assert list(resync_decode(blob)) == _reference_resync(blob), bits


_FRAGMENTS = ["0", "00", "1", "11", "111", "1111", "1011", "0" * 13, "01" * 9]


@given(
    chunk=st.sampled_from([1, 2, 3]),
    key=st.sampled_from([(0, 0), (1, -2), (1, -7), (1, -(2**15))]),
    bits=st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    count_shift=st.integers(-2, 2),
    padding=st.integers(0, 255),
    cut=st.integers(0, 2),
)
@settings(max_examples=300, deadline=None)
def test_framer_matches_the_reference_on_random_payloads(chunk, key, bits, count_shift,
                                                          padding, cut):
    codec_byte, a = key
    count = max(0, _closed_words(codec_byte, a, bits) + count_shift)
    blob = _padded_document(codec_byte, a, count, bits, padding)
    blob = blob[: len(blob) - min(cut, len(blob) - HEADER_SIZE)]
    with patch.object(stream, "_CHUNK_BYTES", chunk):
        assert _strict_outcome(blob) == _reference_strict(blob)
        assert list(resync_decode(blob)) == _reference_resync(blob)


# one line per token, rendered token by token: the reference for the lines
# stream-unpack --resync renders a chunk at a time
def _token_line(token) -> str:
    if token.kind == "value":
        return str(token.value)
    lo, hi = token.bit_span
    return f"# garbage bits [{lo}:{hi})"


def _assert_cli_resync_prints_the_tokens(blob):
    tokens = list(resync_decode(blob))
    assert tokens == _reference_resync(blob)
    with tempfile.TemporaryDirectory() as tmp:
        doc = os.path.join(tmp, "doc.ghc")
        with open(doc, "wb") as fh:
            fh.write(blob)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["stream-unpack", "--resync", doc]) == 0
    assert out.getvalue() == "".join(_token_line(t) + "\n" for t in tokens)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("codec_byte, a", [(0, 0), (1, -2), (1, -7)])
def test_cli_resync_lines_equal_the_tokens_at_chunk_boundaries(monkeypatch, chunk, codec_byte, a):
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    for bits in _boundary_cases(8 * chunk):
        for padding in (0, 0xFF):
            _assert_cli_resync_prints_the_tokens(_padded_document(codec_byte, a, 0, bits, padding))


@given(
    chunk=st.sampled_from([1, 2, 3]),
    key=st.sampled_from([(0, 0), (1, -2), (1, -7), (1, -(2**15))]),
    bits=st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    padding=st.integers(0, 255),
    cut=st.integers(0, 2),
)
@settings(max_examples=200, deadline=None)
def test_cli_resync_lines_equal_the_tokens_on_random_payloads(chunk, key, bits, padding, cut):
    codec_byte, a = key
    blob = _padded_document(codec_byte, a, 0, bits, padding)
    with patch.object(stream, "_CHUNK_BYTES", chunk):
        _assert_cli_resync_prints_the_tokens(blob[: len(blob) - min(cut, len(blob) - HEADER_SIZE)])


# A chunk's pieces take the memo while each is at most 22 bits (a 24-bit
# codeword), and once one has 23 bits or more, the lanes (fib, at most 63
# bits) or C-level maps. Payloads of each pool put the last short and first
# long codewords alone in a chunk or beside others, and a gh long word beside
# the non-positive words "11" and "1011".
@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
@pytest.mark.parametrize("key", sorted(_MEMO_POOLS))
def test_chunk_evaluator_equals_the_references(monkeypatch, chunk, key):
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    codec, a = key
    codec_byte = 0 if codec == "fib" else 1
    short, long = _MEMO_POOLS[key]
    words = [_reference_codeword(codec, a, v) for v in short + long]
    rng = random.Random(chunk)
    cases = ["".join(words[: len(short)]), "".join(words[: len(short) + 1]), "".join(words)]
    cases += ["".join(rng.choices(words, k=60)) for _ in range(4)]
    if codec == "gh":
        cases.append(words[-1] + "11" + words[0] + "1011" + words[len(short)] + "11")
    # the longest pieces of the first two cases
    assert [max(map(len, words[: len(short) + i])) - 2 for i in (0, 1)] == [22, 23]
    for bits in cases:
        damaged = clean = _document(codec_byte, a, _closed_words(codec_byte, a, bits), bits)
        for _ in range(rng.randint(1, 4)):
            damaged = _flip(damaged, rng.randrange(len(bits)))
        for blob in (clean, damaged):
            assert _strict_outcome(blob) == _reference_strict(blob)
            _assert_cli_resync_prints_the_tokens(blob)


def _recorded_lanes(monkeypatch):
    """The chunks stream sends to fibcodec._decode_lanes from now on, recorded as they go."""
    sent, real = [], stream._decode_lanes
    monkeypatch.setattr(stream, "_decode_lanes", lambda pieces: sent.append(list(pieces)) or real(pieces))
    return sent


def test_only_fib_chunks_of_pieces_up_to_63_bits_go_to_the_lanes(monkeypatch):
    sent = _recorded_lanes(monkeypatch)
    seq = fib_sequence()
    reference = lambda pieces: [value(seq, p + "1") for p in pieces]
    short = [fib_encode(n)[:-2] for n in (1, 5, 75_024)]  # memo hits alone: no chunk evaluation
    longest = fib_encode(seq.term(65) - 1)[:-2]  # 63 bits
    past = fib_encode(seq.term(65))[:-2]  # 64 bits
    assert (len(longest), len(past)) == (63, 64)
    for pieces, lanes in ((short, False), (short + [longest], True), ([longest, past] + short, False), ([past], False)):
        sent.clear()
        assert stream._WordValues(seq).chunk(pieces) == reference(pieces)
        assert sent == ([pieces] if lanes else []), [len(p) for p in pieces]
    # a gh chunk keeps the C-level path, its longest piece short or not
    gh = gh_sequence(-2)
    for v in (10**6, 10**12):
        pieces = [encode_fast(-2, n).code[:-2] for n in (1, 7, v)]
        found = stream._WordValues(gh).chunk(pieces)
        assert found == [value(gh, p + "1") for p in pieces] and sent == []


@pytest.mark.parametrize("chunk", [64, 4096])
def test_lanes_and_the_c_path_give_the_same_tokens_on_a_damaged_fib_file(monkeypatch, chunk):
    # one flip per 512 payload bits of long fib words: the flips merge words past
    # 63 bits, so both paths run; the lanes may not change a token or a garbage span
    monkeypatch.setattr(stream, "_CHUNK_BYTES", chunk)
    rng = random.Random(chunk)
    values = [rng.randrange(1, 10**12) for _ in range(3000)] + [fib_sequence().term(65)]
    blob = stream_encode("fib", 0, values)
    damaged = blob
    bits = int.from_bytes(blob[16:24], "little")
    for start in range(0, bits, 512):
        damaged = _flip(damaged, rng.randrange(start, min(start + 512, bits)))
    # the unterminated tail: the last word loses its closing 1
    damaged = _flip(damaged, bits - 1)
    sent = _recorded_lanes(monkeypatch)
    assert list(stream_decode(blob)) == values
    with_lanes = list(resync_decode(damaged))
    assert with_lanes == _reference_resync(damaged)
    # some chunks went to the lanes, and some hold a word past 65 bits, which they may not take
    assert sent and any(t.bit_span[1] - t.bit_span[0] > 65 for t in with_lanes)
    assert any(t.kind == "garbage" for t in with_lanes)
    monkeypatch.setattr(stream, "_LANES_BELOW", 0)  # every chunk takes the C-level path
    sent.clear()
    assert list(resync_decode(damaged)) == with_lanes and sent == []


def _pieces(max_bits):
    """Every piece of at most max_bits bits: no 11 pair, and no final 1."""
    return [p for width in range(max_bits + 1)
            for p in map("".join, product("01", repeat=width))
            if "11" not in p and not p.endswith("1")]


# both decoders look for words below 1 among the short pieces alone
@pytest.mark.parametrize("a", [None, -2, -3, -4, -7, -40, -(2**15)])
def test_only_the_short_pieces_evaluate_below_one(a):
    seq = fib_sequence() if a is None else gh_sequence(a)
    low = [p for p in _pieces(14) if value(seq, p + "1") < 1]
    assert low == ([] if a is None else ["", "10"])
    assert set(low) <= set(_SHORT_PIECES)


def test_strict_errors_come_from_the_call_and_values_from_each_iteration():
    blob = stream_encode("gh", -2, [7, 10, 1])
    decoded = stream_decode(blob)
    assert list(decoded) == list(decoded) == [7, 10, 1]
    with pytest.raises(PayloadError):
        stream_decode(_flip(blob, 2))  # nothing iterated


# a payload with no closing pair at all: a framer that joined its carry
# anew on every chunk would take time quadratic in the payload
def test_framing_a_pairless_payload_takes_linear_time(monkeypatch):
    monkeypatch.setattr(stream, "_CHUNK_BYTES", 64)
    size = 2**20
    blob = _document(0, 0, 1, "10" * 4 * size)
    assert blob[HEADER_SIZE:] == b"\xaa" * size
    start = time.perf_counter()
    with pytest.raises(PayloadError, match="truncated before its closing pair") as err:
        stream_decode(blob)
    assert err.value.bit_offset == 0
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    assert list(resync_decode(blob)) == [ResyncToken("garbage", None, (0, 8 * size))]
    assert time.perf_counter() - start < 2


def test_strict_decode_holds_no_value_per_word():
    def decode_peak(count):
        blob = stream_encode("gh", -2, _gen_values("geometric:0.05", count, 12345))

        def walk():
            for _ in stream_decode(blob):
                pass

        return _traced_peak(walk)

    assert decode_peak(500_000) <= 1.5 * decode_peak(50_000)
