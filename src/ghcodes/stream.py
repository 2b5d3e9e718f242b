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
reports what it could not validate as garbage spans. One flipped
payload bit loses at most three words: the clean tokens missing from
the damaged scan form one run of one to three words, starting at the
word that holds the flip. That bound is tested on every flip of five
small streams (tests/test_stream.py), not proved. Two kinds of flip
keep the framing, every closed word where it was: a 0-to-1 flip that
makes no pair, its right neighbour 0 and its left one 0 or the end of a
word, and a 1-to-0 flip of a 1 outside a closing pair. Each changes one
value by a term, so strict decoding returns the declared count with
that value changed, or, under gh, refuses it as below 1, term(1) = a
being the only negative term. A flip of a padding bit keeps the framing
too, and strict decoding refuses the nonzero padding. Every other flip
of a payload bit moves, adds or removes the end of a word. These rules
are tested on every flip of the same five streams.

Memory: the encoder packs its input in batches of _BATCH_VALUES (8192)
values, so it holds one batch's values and codewords and the packed
bytes, never a list or a '0'/'1' string of the whole stream; the
values may come from a generator. Both decoders read the payload
through one reader, _Scan, which holds the header's sequence, the digit
limit read at the decoder's call (L and 10^D of bits._digit_limit) and
the payload. Its framer, _Scan._frames, turns a chunk of at most
_CHUNK_BYTES (4096) bytes, and at most L - _NEAR_BITS bits, at a time
into bits and splits them at each closing pair, carrying only the
unfinished word into the next chunk. So a decoder holds the payload,
one chunk's bits and words, and one word that runs past a chunk, never
a string of the whole payload or a value per word. That unclosed word
is bounded too: past L bits, which no decoder evaluates, only its width
is kept. The framer is the one door for the digit limit: it refuses a
word longer than L or worth 10^D or more, the values that could not be
printed. With chunks that small only a word carried into a chunk can
be either, so it looks at that word alone, and evaluates it once if it
is longer than L - _NEAR_BITS. The reader's _scan finds each chunk's
garbage in the frames: that refused word, and the words below 1. Only
the short pieces of _SHORT_PIECES can be below 1, so it evaluates those
alone and searches a chunk only for the ones it holds. The strict
decoder runs that scan as a first pass over the whole payload and fails
at the first garbage word within the declared count, so it fails before
its caller sees any value; it then returns the reader's subclass
_Values, whose iteration decodes the values chunk by chunk from the
frames alone. The resync scan reports the garbage as spans.
resync_decode checks the header at once and returns the reader, which
yields its tokens one at a time. It evaluates each chunk of the scan
in one call and computes bit spans only for its garbage, and the CLI
prints each chunk's values and garbage spans from it without a token
per value. Each iteration of either frames the payload anew.

Small values dominate typical streams, so each call, and each
iteration of a decoder's result, memoises codewords in a dict that
lives only that long. The encoder builds each distinct value's
codeword once when it is at most _MEMO_MAX_BITS (24) bits long, and
rebuilds longer ones every time. Every batch is read whole, for both
codecs, and the lane rule comes first: a fib batch whose values all
lie in [term(24), term(65)), so each codeword is 25 to 65 bits long,
skips the memo and goes to fibcodec._encode_lanes, which runs the
greedy for 1024 values at a time in the 64-bit lanes of one int. The
batch's first value is tested before its minimum and maximum, so a
batch that opens with a short word costs no scan. The decoders
evaluate a chunk's words together. They look the words up in the memo,
which evaluates each distinct word once, until a word's codeword is
longer than _MEMO_MAX_BITS bits. Then they evaluate every word of that
chunk at once and keep none, with no Python call per word. Under fib,
when no word of the chunk is longer than 65 bits, they go to
fibcodec._decode_lanes, which sums 1024 words at a time in the 64-bit
lanes of one int. Any other chunk goes to the C-level maps of
bits.values over one prefix of the terms, and the closing terms are
added. A word the framer refused is valued 0, unevaluated.
Each entry stands for a distinct codeword of 2 to 24 bits, so a memo
holds at most 75,024 entries.
"""

import struct
from collections.abc import Callable, Iterable, Iterator
from functools import partial
from itertools import accumulate, chain, compress, islice, pairwise
from operator import add, itemgetter
from typing import NamedTuple

from ghcodes.bits import _digit_limit, value, values
from ghcodes.fibcodec import _LANES_BELOW, _decode_lanes, _encode_lanes, fib_encode
from ghcodes.ghcodec import encode_fast
from ghcodes.sequences import FibSequence, GHSequence, fib_sequence, gh_sequence

__all__ = [
    "CODEC_FIB",
    "CODEC_GH",
    "HeaderError",
    "PayloadError",
    "ResyncToken",
    "UnencodableValueError",
    "codeword_encoder",
    "resync_decode",
    "stream_decode",
    "stream_encode",
]

MAGIC = b"GHC1"
VERSION = 1
CODEC_FIB = 0x00
CODEC_GH = 0x01
_CODEC_BYTES = {"fib": CODEC_FIB, "gh": CODEC_GH}
_HEADER = struct.Struct("<4sBBhQQ")
_A_MIN = -(2**15)  # the header stores a as a signed 16-bit field
_MEMO_MAX_BITS = 24
# values packed per batch: the codewords of one batch are joined and
# packed, and the fewer than 8 bits left over go to the next one
_BATCH_VALUES = 8192
# payload bytes the decoders turn into bits at a time, at most: _Scan._frames keeps
# a chunk within L - _NEAR_BITS bits (bits._digit_limit)
_CHUNK_BYTES = 4096
# a codeword of l bits is worth less than (|a| + 3) F(l + 1), F(1) = F(2) = 1:
# the ones sit at non-adjacent indices below l, every |term(i)| is at most
# (|a| + 3) F(i + 1), and F(2) + ... over non-adjacent indices up to l stays
# below F(l + 1). With |a| <= 2^15 (the header's field) and F(L - 2) >=
# F(24) F(L - 25) > (2^15 + 3) F(L - 25), a word no longer than L - 26 bits
# stays below 10^D (bits._digit_limit); only longer ones are evaluated for it
_NEAR_BITS = 26
# every piece of at most 2 bits (a piece never ends in 1), and the only
# ones a word below 1 can have: term(1) = a is the only negative term, and
# a 1 at index >= 4 adds at least 2 - a
_SHORT_PIECES = ("", "0", "00", "10")


class HeaderError(ValueError):
    """The fixed header is missing, malformed, or inconsistent."""


class PayloadError(ValueError):
    """The payload does not parse; bit_offset is where parsing gave up."""

    def __init__(self, message: str, bit_offset: int):
        super().__init__(f"{message} (bit offset {bit_offset})")
        self.bit_offset = bit_offset


class UnencodableValueError(ValueError):
    """A value with no code under the requested codec and parameter, or one the decoders refuse.

    The decoders refuse a value of 10^D or more (bits._digit_limit),
    which the message gives by its bit length, as str() cannot print it.
    """

    def __init__(self, value: int, a: int):
        if value < _digit_limit()[1]:
            super().__init__(f"no code exists for value {value} at a={a}")
        else:
            super().__init__(f"value of {value.bit_length()} bits is past the integer digit limit at a={a}")
        self.value = value
        self.a = a


class ResyncToken(NamedTuple):
    """One span of payload bits: a recovered value or unvalidated garbage."""

    kind: str  # "value" or "garbage"
    value: int | None
    bit_span: tuple[int, int]


def _sequence(codec_byte: int, a: int) -> GHSequence | FibSequence:
    """The sequence a codec byte and a name; the rule both the writer and the reader apply."""
    if codec_byte == CODEC_FIB:
        if a != 0:
            raise ValueError(f"a must be 0 for the fib codec, got {a}")
        return fib_sequence()
    if codec_byte == CODEC_GH:
        return gh_sequence(a)  # raises for a > -2
    raise ValueError(f"unknown codec byte {codec_byte:#04x}")


def codeword_encoder(codec: str, a: int) -> Callable[[int], str | None]:
    """The encoder codec ("fib" or "gh") and a name: it gives a value's codeword, or None.

    Raises ValueError for an unknown codec or an a the codec does not
    take. Only gh leaves values without a code.
    """
    if codec not in _CODEC_BYTES:
        raise ValueError(f"codec must be 'fib' or 'gh', got {codec!r}")
    _sequence(_CODEC_BYTES[codec], a)
    # fib_encode and encode_fast are read from this module's globals at call
    # time, so the ones the benchmark tracer (perfbench/tracer.py) patches in run
    if codec == "fib":
        return fib_encode

    def encode_gh(n: int) -> str | None:
        outcome = encode_fast(a, n)
        return outcome.code if outcome is not None else None

    return encode_gh


def stream_encode(codec: str, a: int, values: Iterable[int]) -> bytes:
    """Build a document; byte output is deterministic for the same inputs.

    Raises UnencodableValueError for a value with no code, and for one
    of 10^D or more (bits._digit_limit), which the decoders would refuse.
    Every batch of _BATCH_VALUES values is read whole before any of it
    is encoded, so a value with no code is reported only once its batch
    is read. Should the iterable raise while a batch is read, the values
    it gave first are checked before its error is raised, so the first
    bad input decides the error, as if each value were checked before
    the next one is read.
    """
    encode = codeword_encoder(codec, a)
    if a < _A_MIN:
        raise ValueError(f"parameter a must be >= {_A_MIN} to fit the header, got {a}")
    bound = _digit_limit()[1]
    memo: dict[int, str] = {}

    def add_codewords(values: Iterable[int], words: list[str]) -> list[str]:
        for v in values:
            code = memo.get(v)
            if code is None:
                if v >= bound:  # the decoders would refuse it
                    raise UnencodableValueError(v, a)
                code = encode(v)
                if code is None:
                    raise UnencodableValueError(v, a)
                if len(code) <= _MEMO_MAX_BITS:
                    memo[v] = code
            words.append(code)
        return words

    # fib values whose codewords pass the memo and fit the lanes of
    # _encode_lanes; all are below 10^D, as D is 0 or at least 640
    lo, hi = fib_sequence().term(_MEMO_MAX_BITS), fib_sequence().term(_LANES_BELOW)
    payload = bytearray()
    count = 0
    carry = ""
    unread = iter(values)
    while True:
        batch: list[int] = []
        try:
            batch += islice(unread, _BATCH_VALUES)
        except Exception:
            add_codewords(batch, [])  # a value with no code read before the error comes first
            raise
        if not batch:
            break
        count += len(batch)
        if codec == "fib" and lo <= batch[0] < hi and lo <= min(batch) and max(batch) < hi:
            bits = carry + _encode_lanes(batch)
        else:
            bits = "".join(add_codewords(batch, [carry]))
        tail = len(bits) % 8
        payload += (int(bits, 2) >> tail).to_bytes(len(bits) // 8, "big")
        carry = bits[len(bits) - tail :]
    header = _HEADER.pack(MAGIC, VERSION, _CODEC_BYTES[codec], a, count, 8 * len(payload) + len(carry))
    if carry:
        payload.append(int(carry, 2) << 8 - len(carry))
    return header + payload


def _parse_header(data: bytes) -> tuple[GHSequence | FibSequence, int, int, memoryview]:
    """The sequence the header names, its count and bit length, and the payload."""
    if len(data) < _HEADER.size:
        raise HeaderError(f"stream shorter than the {_HEADER.size}-byte header")
    magic, version, codec, a, count, bit_length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise HeaderError(f"bad magic {magic!r}")
    if version != VERSION:
        raise HeaderError(f"unsupported version {version}")
    try:
        seq = _sequence(codec, a)
    except ValueError as exc:
        raise HeaderError(str(exc)) from None
    # a view, so the payload is not copied
    return seq, count, bit_length, memoryview(data)[_HEADER.size :]


class _Dropped(str):
    """A piece _Scan._frames refused, kept as its width: len() gives that, and it holds no bits.

    Its word is longer than L, or worth 10^D or more (bits._digit_limit).
    Its text is "11", which no piece holds, so no lookup of a piece can
    match it.
    """

    def __new__(cls, width: int):
        piece = super().__new__(cls, "11")
        piece.width = width
        return piece

    def __len__(self) -> int:
        return self.width


class _WordValues(dict):
    """piece -> value for one decode pass, under the sequence a header names.

    A piece is a codeword without its closing pair. chunk() evaluates
    one chunk's pieces. It looks them up while their codewords are at
    most _MEMO_MAX_BITS long, and a missing one is evaluated once and
    kept. A longer piece is a KeyError: then chunk() evaluates every
    piece of the chunk with no Python call per piece, and keeps none of
    them. Under fib, a chunk whose pieces are at most 63 bits goes to
    fibcodec._decode_lanes; any other chunk is evaluated in C-level maps
    over one prefix of the terms, the longest piece + 1 long. A piece
    _frames refused, which only a chunk's first piece can be, is a
    _Dropped piece, longer than the memo takes: it is valued 0 and never
    evaluated. So a memo hit costs no length check.
    """

    def __init__(self, seq: GHSequence | FibSequence):
        self.seq = seq  # dict.__new__ has made the empty memo

    def __missing__(self, piece: str) -> int:
        if len(piece) + 2 > _MEMO_MAX_BITS:
            raise KeyError(piece)
        return self.setdefault(piece, value(self.seq, piece + "1"))

    def chunk(self, pieces: list[str]) -> list[int]:
        """The values of a chunk's pieces in order, 0 for a refused first piece."""
        try:
            return list(map(self.__getitem__, pieces))
        except KeyError:
            if isinstance(pieces[0], _Dropped):
                return [0, *self.chunk(pieces[1:])]
            longest = max(map(len, pieces))
            if longest + 2 <= _LANES_BELOW and isinstance(self.seq, FibSequence):  # words of at most 65 bits
                return _decode_lanes(pieces)
            # the sum of the terms at a piece's ones, plus its closing 1
            terms = self.seq.prefix(longest + 1)
            return list(map(add, values(terms, pieces), map(terms.__getitem__, map(len, pieces))))


def stream_decode(data: bytes) -> Iterable[int]:
    """Check that the payload parses into exactly the declared count, or raise.

    PayloadError covers truncation, a codeword without its closing pair,
    a codeword evaluating to a non-positive integer, a codeword longer
    than L or worth 10^D or more (bits._digit_limit), leftover bits past
    the declared count, and nonzero padding; it is raised by the call,
    before any value is seen. Returns an iterable of the values that
    decodes the payload anew, chunk by chunk, each time it is iterated,
    under the digit limit that was in force at the call.
    """
    seq, count, bit_length, payload = _parse_header(data)
    expected_bytes = (bit_length + 7) // 8
    if len(payload) < expected_bytes:
        raise PayloadError("payload truncated", len(payload) * 8)
    if len(payload) > expected_bytes:
        raise PayloadError("trailing bytes after the payload", bit_length)
    values = _Values(seq, bit_length, payload)
    limit = values._limits[0]
    left = count
    # the scan ends with a chunk of no pieces, so start and words are always set
    for start, pieces, garbage in values._scan():
        words = pieces[:left]
        if garbage and garbage[0][0] < left:
            i, lo, _ = garbage[0]
            if len(pieces[i]) + 2 > limit:
                raise PayloadError(f"codeword longer than {limit} bits", lo)
            if isinstance(pieces[i], _Dropped):  # refused by _frames for its value
                raise PayloadError("codeword value past the integer digit limit", lo)
            raise PayloadError(f"codeword decodes to non-positive value {value(seq, pieces[i] + '1')}", lo)
        left -= len(words)
        if not left:
            break
    cursor = start + sum(map(len, words)) + 2 * len(words)
    if left:
        raise PayloadError("codeword truncated before its closing pair", cursor)
    if cursor != bit_length:
        raise PayloadError("payload continues past the declared count", cursor)
    unused = 8 * expected_bytes - bit_length
    padding = payload[-1] & ((1 << unused) - 1) if unused else 0
    if padding:
        raise PayloadError("padding bits must be zero", 8 * expected_bytes - padding.bit_length())
    return values


class _Scan:
    """The tokens of one parsed payload, scanned anew on each iteration.

    It holds the sequence the header names, the digit limit
    (bits._digit_limit) read once, here, at the decoder's call, the
    payload bits the header declares, as far as the payload holds them,
    and the payload. Every pass over the payload frames it with
    _frames() and keeps to that limit.
    """

    def __init__(self, seq: GHSequence | FibSequence, bit_length: int, payload: memoryview):
        self._seq = seq
        self._limits = _digit_limit()
        self._avail = min(bit_length, len(payload) * 8)
        self._payload = payload

    def _frames(self) -> Iterator[tuple[int, list[str]]]:
        """The complete pieces in the available bits of the payload, chunk by chunk.

        A piece runs from the start of a word to the next 11 pair, the first
        one str.find("11") would meet, so a run of three ones closes its
        word at the first two. Per chunk that completes a piece, yields the
        bit offset of its first piece and its pieces in order. The
        unfinished last piece is carried into the next chunk as a list of
        parts, joined once when the piece closes, so the time stays linear
        in the available bits however long a piece runs. Last comes a
        chunk with no pieces, at the offset where the last piece ends: an
        unterminated tail starts there, and it is never yielded.

        This is the one place a stream decoder refuses a word for the digit
        limit, the reader's (L, 10^D) (bits._digit_limit): a word longer
        than L, or worth 10^D or more under the header's sequence. A chunk
        is _CHUNK_BYTES bytes, or fewer, so that it holds at most
        near = L - _NEAR_BITS bits. A piece that opens after a closing
        pair in a chunk, and closes in it, then has a word of at most
        near - 1 bits (the chunk's bits, a carried 1 in front, less the
        pair before it), which stays below 10^D. So only the first piece
        of a chunk, the one carried into it, can be refused, and its width
        is known. Once its word is longer than L, only its width and its
        last bit are kept, so the memory stays bounded as well, and it
        closes as a _Dropped piece unevaluated. A word of near + 1 to L
        bits is evaluated once when it closes, and is a _Dropped piece if
        it is worth 10^D or more.
        """
        limit, bound = self._limits
        near = limit - _NEAR_BITS
        # _CHUNK_BYTES is read per call, so a test can put boundaries anywhere
        size = min(_CHUNK_BYTES, near // 8)
        nbytes = (self._avail + 7) // 8
        held: list[str] = []  # parts of the unfinished piece, less a final 1, while it fits
        width = 0  # the bits of that piece, held or not
        lead = ""  # that final 1, which may open a pair with the next chunk
        start = 0  # bit offset of the unfinished piece
        for first in range(0, nbytes, size):
            block = self._payload[first : min(first + size, nbytes)]
            # the extra top bit keeps the leading zeros, so no zfill copy is made
            bits = bin(int.from_bytes(block, "big") | 1 << 8 * len(block))[3:]
            end = min(8 * (first + len(block)), self._avail)
            parts = (lead + bits[: end - 8 * first]).split("11")
            tail = parts.pop()
            lead = tail[-1:] if tail.endswith("1") else ""
            if parts:
                width += len(parts[0])
                held.append(parts[0])
                parts[0] = "".join(held) if width + 2 <= limit else _Dropped(width)
                if near < width + 2 <= limit and value(self._seq, parts[0] + "1") >= bound:
                    parts[0] = _Dropped(width)
                yield start, parts
                held, width = [], 0
                start = end - len(tail)
            held.append(tail[: len(tail) - len(lead)])
            width += len(held[-1])
            if width + 2 > limit:
                held.clear()
        yield start, []

    def _scan(self) -> Iterator[tuple[int, list[str], list[tuple[int, int, int]]]]:
        """Per chunk _frames() yields: its start, its pieces, and its garbage.

        garbage lists (index, lo, hi) per piece whose word is below 1 or
        refused by _frames(), with the bits of the word and its closing
        pair. Only the short pieces can be below 1, so they alone are
        evaluated, and only a chunk that holds one of them is searched
        and measured. Only the first piece can be refused, so that costs
        one look per chunk.
        """
        below = [p for p in _SHORT_PIECES if value(self._seq, p + "1") < 1]
        for start, pieces in self._frames():
            low = {p for p in below if p in pieces}
            garbage = []
            if low:
                # ends[i] is where piece i starts, less the 2 * i bits of the pairs before it
                ends = list(accumulate(map(len, pieces), initial=start))
                at = compress(range(len(pieces)), map(low.__contains__, pieces))
                garbage = [(i, ends[i] + 2 * i, ends[i + 1] + 2 * i + 2) for i in at]
            if pieces and isinstance(pieces[0], _Dropped):  # no short piece matches it
                garbage.insert(0, (0, start, start + len(pieces[0]) + 2))
            yield start, pieces, garbage

    def _evaluated(self) -> Iterator[tuple[int, Iterable[int], list[int], list]]:
        """Per chunk: where its words start, their widths, their values and its garbage.

        A word's width counts its closing pair, and is computed only when
        read. An unterminated tail comes last, as a chunk of one garbage
        word of value 0.
        """
        word_values = _WordValues(self._seq)
        for start, pieces, garbage in self._scan():
            yield start, map(partial(add, 2), map(len, pieces)), word_values.chunk(pieces), garbage
        # the last chunk has no pieces and starts where the tail does
        if start < self._avail:
            yield start, [self._avail - start], [0], [(0, start, self._avail)]

    def chunks(self) -> Iterator[tuple[list[int], list[tuple[int, int, int]]]]:
        """Per chunk: its word values and its garbage.

        garbage lists (index, lo, hi) per word below 1 or refused, valued
        0; an unterminated tail is the last chunk's only word, with value 0.
        """
        return map(itemgetter(2, 3), self._evaluated())

    def __iter__(self) -> Iterator[ResyncToken]:
        for start, widths, values, _ in self._evaluated():
            for v, span in zip(values, pairwise(accumulate(widths, initial=start))):
                yield ResyncToken("value", v, span) if v > 0 else ResyncToken("garbage", None, span)


class _Values(_Scan):
    """The values of one checked payload, decoded anew on each iteration.

    Its iteration is strict decoding's value pass: _frames(), then
    _WordValues.chunk per chunk.
    """

    def __iter__(self) -> Iterator[int]:
        pieces = map(itemgetter(1), self._frames())
        # chained in C: no Python frame resumes per chunk or per value. The
        # check refused the file if _frames() refused a word, so none is valued 0
        return chain.from_iterable(map(_WordValues(self._seq).chunk, pieces))


def resync_decode(data: bytes) -> Iterable[ResyncToken]:
    """Tolerant scan: split at each closing pair, validate, never abort.

    Checks the header now, raising HeaderError, and returns an iterable
    of contiguous tokens covering the payload; each iteration scans the
    payload again and yields the tokens one at a time. Spans that
    evaluate to a positive integer come back as value tokens; anything
    else, including an unterminated tail, comes back as garbage.
    """
    seq, _count, bit_length, payload = _parse_header(data)
    return _Scan(seq, bit_length, payload)
