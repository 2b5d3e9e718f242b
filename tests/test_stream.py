import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

import ghcodes.stream as stream
from ghcodes.bits import value
from ghcodes.fibcodec import fib_encode
from ghcodes.ghcodec import encode_fast
from ghcodes.sequences import fib_sequence, gh_sequence
from ghcodes.stream import (
    _MEMO_MAX_BITS,
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
    assert stream_decode(blob) == []
    assert resync_decode(blob) == []


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
    assert stream_decode(blob) == [7, 10, 1]
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
    tokens = resync_decode(blob)
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
        tokens = resync_decode(_flip(blob, p))
        got = [t.value if t.kind == "value" else None for t in tokens]
        assert got[:frame] == values[:frame]
        tail = len(values) - (frame + 2)
        if tail > 0:
            assert got[-tail:] == values[frame + 2 :]
        assert abs(len(tokens) - len(values)) <= 2


def test_terminator_flip_merges_two_frames():
    values = [7, 10, 1, 99, 4, 250]
    blob = stream_encode("gh", -2, values)
    spans = _frame_spans(values, -2)
    tokens = resync_decode(_flip(blob, spans[1][1] - 1))
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
    tokens = resync_decode(broken)
    assert tokens[-1].kind == "garbage"
    assert tokens[-1].bit_span[1] == spans[1][1]


@given(values=st.lists(st.integers(min_value=1, max_value=10**6), max_size=40))
@settings(max_examples=50)
def test_fib_round_trip_property(values):
    assert stream_decode(stream_encode("fib", 0, values)) == values


@given(values=st.lists(st.integers(min_value=1, max_value=10**5), max_size=40))
@settings(max_examples=50)
def test_gh_round_trip_property(values):
    assert stream_decode(stream_encode("gh", -3, values)) == values


def test_a_outside_header_field_rejected_before_encoding():
    def values():
        raise AssertionError("values read before a was checked")
        yield

    with pytest.raises(ValueError, match="-40000"):
        stream_encode("gh", -40000, values())


def test_a_at_header_field_minimum_round_trips():
    blob = stream_encode("gh", -32768, [1, 4])
    assert int.from_bytes(blob[6:8], "little", signed=True) == -32768
    assert stream_decode(blob) == [1, 4]


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
    for lo, _, v in spans[:count]:
        if v is None or v < 1:
            return lo
    if len(spans) < count:
        return bit_length
    if len(spans) > count:
        return spans[count][0]
    return [v for _, _, v in spans]


def _strict_outcome(blob):
    try:
        return stream_decode(blob)
    except PayloadError as err:
        return err.bit_offset


# per codec: values whose codewords fit the memo, and values whose codewords
# do not; the last short and first long values sit at 24 and 25 bits
_MEMO_POOLS = {
    ("fib", 0): ([1, 2, 3, 20, 99, 75024], [75025, 10**6, 10**9, 10**12]),
    ("gh", -2): ([1, 2, 3, 20, 99, 50548], [50549, 10**6, 10**9, 10**12]),
    ("gh", -7): ([1, 2, 3, 9, 20, 105278], [105272, 10**6, 10**9, 10**12 + 3]),
}


@pytest.mark.parametrize("key", sorted(_MEMO_POOLS))
def test_memo_pools_straddle_the_bound(key):
    codec, a = key
    short, long = _MEMO_POOLS[key]
    assert all(len(_reference_codeword(codec, a, v)) <= _MEMO_MAX_BITS for v in short)
    assert all(len(_reference_codeword(codec, a, v)) > _MEMO_MAX_BITS for v in long)


def test_memo_keeps_short_words_and_rebuilds_long_ones(monkeypatch):
    built, evaluated = [], []
    real_encode, real_value = stream.fib_encode, stream.value
    monkeypatch.setattr(stream, "fib_encode", lambda v: built.append(v) or real_encode(v))
    monkeypatch.setattr(stream, "value", lambda seq, w: evaluated.append(w) or real_value(seq, w))
    values = [75024, 75025, 75024, 75025, 75024]  # 24- and 25-bit codewords
    blob = stream_encode("fib", 0, values)
    assert built == [75024, 75025, 75025]
    assert stream_decode(blob) == values
    assert [t.value for t in resync_decode(blob)] == values
    assert [len(w) + 1 for w in evaluated] == [24, 25, 25] * 2


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
        assert stream_decode(blob) == values
        assert resync_decode(blob) == _reference_resync(blob)
        payload_bits = int.from_bytes(blob[16:24], "little")
        damaged = blob
        for _ in range(rng.randint(1, 4)):
            damaged = _flip(damaged, rng.randrange(payload_bits))
        assert resync_decode(damaged) == _reference_resync(damaged)
        assert _strict_outcome(damaged) == _reference_strict(damaged)


# at a=-2 "01011" is 7, while "11" evaluates to term(1) = a = -2

def test_non_positive_word_reported_before_truncated_tail():
    blob = _document(1, -2, 3, "01011" + "11" + "0010")
    with pytest.raises(PayloadError, match="non-positive") as err:
        stream_decode(blob)
    assert err.value.bit_offset == 5


def test_repeated_non_positive_word_is_garbage_every_time():
    blob = _document(1, -2, 4, "11" + "01011" + "11" + "01011")
    with pytest.raises(PayloadError, match="non-positive") as err:
        stream_decode(blob)
    assert err.value.bit_offset == 0
    assert resync_decode(blob) == [
        ResyncToken("garbage", None, (0, 2)),
        ResyncToken("value", 7, (2, 7)),
        ResyncToken("garbage", None, (7, 9)),
        ResyncToken("value", 7, (9, 14)),
    ]
