"""Bit-string primitives: evaluation, Zeckendorf rewriting, codeword framing.

Bit strings are plain "0"/"1" strings with the index-1 digit leftmost,
so text vectors print exactly like the code tables they are checked
against; leading zeros are significant. A codeword is a bit string whose
only adjacent pair of ones is its final two bits; that closing pair is
what delimits codewords in a stream.
"""

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress, repeat

from ghcodes.sequences import FibSequence, GHSequence

__all__ = [
    "MalformedCodeError",
    "from_codeword",
    "is_zeckendorf",
    "normalize",
    "to_codeword",
    "trim_trailing_zeros",
    "validate_codeword",
    "value",
    "values",
]


class MalformedCodeError(ValueError):
    """A codeword breaks a structural rule; offset is the 0-based bit position."""

    def __init__(self, rule: str, offset: int):
        super().__init__(f"{rule} (bit offset {offset})")
        self.rule = rule
        self.offset = offset


# byte -> 1 for b"1", 0 for every other byte; non-ASCII characters are
# encoded as b"?" first, so each character stays one byte
_ONES = bytes(int(byte == ord("1")) for byte in range(256))


def values(terms: Sequence[int], words: Iterable[str]) -> Iterator[int]:
    """Per word, the sum of terms[i] over the positions i holding "1"; "" gives 0.

    terms must be at least as long as the longest word. The words are
    evaluated in C-level maps (encode, translate to 0/1 bytes, compress
    against the terms, sum), with no Python call per word, as they are
    read from the iterator returned.
    """
    encoded = map(str.encode, words, repeat("ascii"), repeat("replace"))
    return map(sum, map(compress, repeat(terms), map(bytes.translate, encoded, repeat(_ONES))))


def value(seq: GHSequence | FibSequence, bits: str) -> int:
    """Sum of seq terms at the positions holding "1"; the empty string is 0."""
    (n,) = values(seq.prefix(len(bits)), (bits,))
    return n


def normalize(bits: str) -> str:
    """Rewrite away adjacent set pairs, rightmost pair first.

    Clearing positions i, i+1 and setting i+2 preserves the evaluated
    value because every term is the sum of the two before it; the bit
    two past the rightmost pair is always clear (or past the end), so
    the carry never collides. Each rewrite removes one set bit, which
    bounds the loop, and the result is at most one bit longer than the
    input.
    """
    s = bits
    i = s.rfind("11")
    while i >= 0:
        if i + 2 < len(s):
            s = s[:i] + "001" + s[i + 3 :]
        else:
            s = s[:i] + "001"
        i = s.rfind("11")
    return s


def is_zeckendorf(bits: str) -> bool:
    """True iff bits is nonempty, has no adjacent ones, and ends in 1."""
    return bits != "" and "11" not in bits and bits.endswith("1")


def trim_trailing_zeros(bits: str) -> str:
    return bits.rstrip("0")


def to_codeword(bits: str) -> str:
    """Close a Zeckendorf string with the extra 1 that marks word end."""
    if not is_zeckendorf(bits):
        raise ValueError(f"not a Zeckendorf bit string: {bits!r}")
    return bits + "1"


def validate_codeword(code: str) -> None:
    """Raise MalformedCodeError unless code is structurally valid."""
    if code.strip("01"):  # only a bad character survives the strip
        for i, ch in enumerate(code):
            if ch not in "01":
                raise MalformedCodeError(f"invalid character {ch!r}", i)
    if len(code) < 2:
        raise MalformedCodeError("codeword shorter than the closing pair", 0)
    if not code.endswith("11"):
        raise MalformedCodeError("missing closing 11", len(code) - 2)
    first = code.find("11")
    if first != len(code) - 2:
        raise MalformedCodeError("interior adjacent ones", first)


def from_codeword(code: str) -> str:
    """Validate and strip the closing 1, recovering the Zeckendorf string."""
    validate_codeword(code)
    return code[:-1]
