"""Checks on CLI output, written from the file format rather than the program.

A GHC1 file is a 24-byte header (magic, version, codec, a, count, payload
bit length) followed by the payload packed most significant bit first.
Every codeword ends with the only adjacent pair of ones in it, so the
codeword spans of a payload follow from its bits alone.
"""

import re
import struct

HEADER = struct.Struct("<4sBBhQQ")
_GARBAGE = re.compile(r"# garbage bits \[(\d+):(\d+)\)")


class OutputError(ValueError):
    """CLI output that does not fit the input it was given."""


def read_header(blob: bytes) -> tuple[int, int]:
    """(count, payload bit length) from a GHC1 file."""
    if len(blob) < HEADER.size:
        raise OutputError(f"{len(blob)}-byte file is shorter than the header")
    magic, _version, _codec, _a, count, bit_length = HEADER.unpack_from(blob)
    if magic != b"GHC1":
        raise OutputError(f"bad magic {magic!r}")
    return count, bit_length


def payload_bits(blob: bytes) -> str:
    _, bit_length = read_header(blob)
    payload = blob[HEADER.size :]
    if not payload:
        return ""
    return bin(int.from_bytes(payload, "big"))[2:].zfill(len(payload) * 8)[:bit_length]


def codeword_spans(bits: str) -> list[tuple[int, int]]:
    """[start, end) of each codeword of a clean payload."""
    spans = []
    cursor = 0
    while cursor < len(bits):
        end = bits.find("11", cursor)
        if end == -1:
            raise OutputError(f"unterminated codeword at bit {cursor}")
        spans.append((cursor, end + 2))
        cursor = end + 2
    return spans


def parse_ints(text: str) -> list[int]:
    return [int(line) for line in text.split()]


def mismatches(got: list[int], want: list[int]) -> int:
    """Positions where got differs from want, counting missing and extra lines."""
    return sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))


def resync_value_tokens(bits: str, text: str) -> dict[int, tuple[int, int]]:
    """Map start -> (end, value) for the value lines of `stream-unpack --resync`.

    The output lists tokens in payload order. Garbage lines carry their
    span; a value line's span runs from the end of the previous token to
    just past the next closing pair. The tokens must cover the payload
    without gaps or overlaps.
    """
    tokens = {}
    cursor = 0
    for line in text.splitlines():
        match = _GARBAGE.fullmatch(line)
        if match:
            lo, hi = int(match[1]), int(match[2])
            if lo != cursor or hi <= lo:
                raise OutputError(f"garbage span [{lo}:{hi}) does not start at bit {cursor}")
            cursor = hi
            continue
        end = bits.find("11", cursor)
        if end == -1:
            raise OutputError(f"value line {line!r} after the last closing pair")
        tokens[cursor] = (end + 2, int(line))
        cursor = end + 2
    if cursor != len(bits):
        raise OutputError(f"tokens cover {cursor} of {len(bits)} payload bits")
    return tokens


def recovered(spans: list[tuple[int, int]], values: list[int],
              tokens: dict[int, tuple[int, int]]) -> int:
    """Clean codewords whose exact span comes back as a token with the right value."""
    return sum(tokens.get(start) == (end, v) for (start, end), v in zip(spans, values))
