"""Self-delimiting bitstream container for coded integers.

File layout (fixed 24-byte header, then payload):

    offset  size  field
    0       4     magic b"GHC1"
    4       1     version, 0x01
    5       1     codec: 0x00 Fibonacci, 0x01 generalized
    6       2     parameter a, signed little-endian (0 for Fibonacci)
    8       8     count of coded values, unsigned little-endian
    16      8     payload length in bits, unsigned little-endian
    24      ...   payload, bits packed most significant bit first,
                  final byte zero padded

Codewords end with the only adjacent pair of ones in the word, so the
first pair a reader meets always closes the current word. The strict
decoder insists the payload parse into exactly the declared count; the
token scanner instead realigns at the next pair after damage and
reports what it could not validate as garbage spans.

Memory: the encoder packs its input in batches of _BATCH_VALUES (8192)
values, so it holds one batch's codewords and the packed bytes, never a
list or a '0'/'1' string of the whole stream; the values may come from
a generator. resync_decode checks the header at once and returns a scan
that yields its tokens one at a time, each time it is iterated, so only
the payload and its unpacked bits are held, never a token per value.
The strict decoder returns a list: it must fail before its caller sees
any value.

Small values dominate typical streams, so each call (each iteration of
a resync scan) memoises codewords in a dict that lives only that long:
the encoder builds each distinct value's codeword once, and the
decoders evaluate each distinct word once. Only codewords of at most
_MEMO_MAX_BITS (24) bits are kept; longer ones are rebuilt or
re-evaluated every time. Each entry stands for a distinct codeword, so
a memo holds at most 75,024 entries, the number of codewords of 2 to 24
bits.
"""

import struct
from collections.abc import Iterable, Iterator
from itertools import islice
from typing import NamedTuple

from ghcodes.bits import value
from ghcodes.fibcodec import fib_encode
from ghcodes.ghcodec import encode_fast
from ghcodes.sequences import fib_sequence, gh_sequence

__all__ = [
    "CODEC_FIB",
    "CODEC_GH",
    "HeaderError",
    "PayloadError",
    "ResyncToken",
    "UnencodableValueError",
    "resync_decode",
    "stream_decode",
    "stream_encode",
]

MAGIC = b"GHC1"
VERSION = 1
CODEC_FIB = 0x00
CODEC_GH = 0x01
_HEADER = struct.Struct("<4sBBhQQ")
_A_MIN = -(2**15)  # the header stores a as a signed 16-bit field
_MEMO_MAX_BITS = 24
# values packed per batch: the codewords of one batch are joined and
# packed, and the fewer than 8 bits left over go to the next one
_BATCH_VALUES = 8192


class HeaderError(ValueError):
    """The fixed header is missing, malformed, or inconsistent."""


class PayloadError(ValueError):
    """The payload does not parse; bit_offset is where parsing gave up."""

    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset


class UnencodableValueError(ValueError):
    """A value with no code under the requested codec and parameter."""

    def __init__(self, value: int, a: int):
        super().__init__(f"no code exists for value {value} at a={a}")
        self.value = value
        self.a = a


class ResyncToken(NamedTuple):
    """One span of payload bits: a recovered value or unvalidated garbage."""

    kind: str  # "value" or "garbage"
    value: int | None
    bit_span: tuple[int, int]


def _pack_bits(bits: str) -> bytes:
    if not bits:
        return b""
    nbytes = (len(bits) + 7) // 8
    return (int(bits, 2) << (nbytes * 8 - len(bits))).to_bytes(nbytes, "big")


def _unpack_bits(data: bytes) -> str:
    if not data:
        return ""
    return bin(int.from_bytes(data, "big"))[2:].zfill(len(data) * 8)


def stream_encode(codec: str, a: int, values: Iterable[int]) -> bytes:
    """Build a document; byte output is deterministic for the same inputs."""
    if codec == "fib":
        if a != 0:
            raise ValueError(f"a must be 0 for the fib codec, got {a}")
        codec_byte = CODEC_FIB
    elif codec == "gh":
        if a < _A_MIN:
            raise ValueError(f"parameter a must be >= {_A_MIN} to fit the header, got {a}")
        gh_sequence(a)  # validates a <= -2
        codec_byte = CODEC_GH
    else:
        raise ValueError(f"codec must be 'fib' or 'gh', got {codec!r}")
    memo: dict[int, str] = {}
    payload = bytearray()
    count = bit_length = 0
    carry = ""
    unread = iter(values)
    while True:
        words = []
        for v in islice(unread, _BATCH_VALUES):
            code = memo.get(v)
            if code is None:
                if codec_byte == CODEC_FIB:
                    code = fib_encode(v)
                else:
                    outcome = encode_fast(a, v)
                    if outcome is None:
                        raise UnencodableValueError(v, a)
                    code = outcome.code
                if len(code) <= _MEMO_MAX_BITS:
                    memo[v] = code
            words.append(code)
        if not words:
            break
        count += len(words)
        bits = carry + "".join(words)
        bit_length += len(bits) - len(carry)
        whole = len(bits) - len(bits) % 8
        payload += _pack_bits(bits[:whole])
        carry = bits[whole:]
    payload += _pack_bits(carry)
    return _HEADER.pack(MAGIC, VERSION, codec_byte, a, count, bit_length) + payload


def _parse_header(data: bytes) -> tuple[int, int, int, int, bytes]:
    if len(data) < _HEADER.size:
        raise HeaderError(f"stream shorter than the {_HEADER.size}-byte header")
    magic, version, codec, a, count, bit_length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise HeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise HeaderError(f"unsupported version {version}")
    if codec not in (CODEC_FIB, CODEC_GH):
        raise HeaderError(f"unknown codec byte {codec:#04x}")
    if codec == CODEC_FIB and a != 0:
        raise HeaderError(f"a must be 0 for the fib codec, got {a}")
    if codec == CODEC_GH and a > -2:
        raise HeaderError(f"parameter a must be <= -2, got {a}")
    return codec, a, count, bit_length, data[_HEADER.size :]


class _WordValues(dict):
    """word -> value for one decode call, under the codec a header names.

    A word is a codeword without its closing 1. A missing word is
    evaluated on lookup and kept when its codeword is at most
    _MEMO_MAX_BITS long. Callers check the value on every lookup, so a
    non-positive word is rejected on a memo hit too.
    """

    def __init__(self, codec: int, a: int):
        super().__init__()
        self.seq = fib_sequence() if codec == CODEC_FIB else gh_sequence(a)

    def __missing__(self, word: str) -> int:
        v = value(self.seq, word)
        if len(word) < _MEMO_MAX_BITS:  # the closing 1 makes the codeword one bit longer
            self[word] = v
        return v


def stream_decode(data: bytes) -> list[int]:
    """Parse exactly the declared count of codewords, or raise.

    PayloadError covers truncation, a codeword without its closing pair,
    a codeword evaluating to a non-positive integer, leftover bits past
    the declared count, and nonzero padding.
    """
    codec, a, count, bit_length, payload = _parse_header(data)
    expected_bytes = (bit_length + 7) // 8
    if len(payload) < expected_bytes:
        raise PayloadError("payload truncated", len(payload) * 8)
    if len(payload) > expected_bytes:
        raise PayloadError("trailing bytes after the payload", bit_length)
    bits = _unpack_bits(payload)
    body, padding = bits[:bit_length], bits[bit_length:]
    word_values = _WordValues(codec, a)
    values: list[int] = []
    cursor = 0
    for _ in range(count):
        end = body.find("11", cursor)
        if end == -1:
            raise PayloadError("codeword truncated before its closing pair", cursor)
        v = word_values[body[cursor : end + 1]]
        if v < 1:
            raise PayloadError(f"codeword decodes to non-positive value {v}", cursor)
        values.append(v)
        cursor = end + 2
    if cursor != bit_length:
        raise PayloadError("payload continues past the declared count", cursor)
    if "1" in padding:
        raise PayloadError("padding bits must be zero", bit_length + padding.index("1"))
    return values


class _ResyncScan:
    """The tokens of one parsed payload, scanned anew on each iteration."""

    def __init__(self, codec: int, a: int, bit_length: int, payload: bytes):
        self._codec = codec
        self._a = a
        self._avail = min(bit_length, len(payload) * 8)
        self._payload = payload

    def __iter__(self) -> Iterator[ResyncToken]:
        body = _unpack_bits(self._payload)[: self._avail]
        word_values = _WordValues(self._codec, self._a)
        cursor = 0
        while cursor < self._avail:
            end = body.find("11", cursor)
            if end == -1:
                yield ResyncToken("garbage", None, (cursor, self._avail))
                return
            after = end + 2
            v = word_values[body[cursor : end + 1]]
            if v >= 1:
                yield ResyncToken("value", v, (cursor, after))
            else:
                yield ResyncToken("garbage", None, (cursor, after))
            cursor = after


def resync_decode(data: bytes) -> Iterable[ResyncToken]:
    """Tolerant scan: split at each closing pair, validate, never abort.

    Checks the header now, raising HeaderError, and returns an iterable
    of contiguous tokens covering the payload; each iteration scans the
    payload again and yields the tokens one at a time. Spans that
    evaluate to a positive integer come back as value tokens; anything
    else, including an unterminated tail, comes back as garbage.
    """
    codec, a, _count, bit_length, payload = _parse_header(data)
    return _ResyncScan(codec, a, bit_length, payload)
