"""Bit-string primitives: evaluation, Zeckendorf rewriting, codeword framing.

Bit strings are plain "0"/"1" strings with the index-1 digit leftmost,
so text vectors print exactly like the code tables they are checked
against; leading zeros are significant. A codeword is a bit string whose
only adjacent pair of ones is its final two bits; that closing pair is
what delimits codewords in a stream.
"""

import math
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import compress, repeat

from ghcodes.sequences import CACHED_PARAMETERS, FibSequence, GHSequence

__all__ = [
    "MalformedCodeError",
    "NonPositiveValueError",
    "from_codeword",
    "is_zeckendorf",
    "normalize",
    "read_codeword",
    "to_codeword",
    "trim_trailing_zeros",
    "validate_codeword",
    "value",
    "values",
]


class MalformedCodeError(ValueError):
    """A codeword breaks a structural rule or the digit limit; offset is the 0-based bit position."""

    def __init__(self, rule: str, offset: int):
        super().__init__(f"{rule} (bit offset {offset})")
        self.rule = rule
        self.offset = offset


class NonPositiveValueError(ValueError):
    """Structurally valid codeword whose bits sum to zero or less.

    A value of 10^D or more in size (_digit_limit) is given by its bit
    length, as str() cannot print it.
    """

    def __init__(self, computed: int, code: str):
        if -computed < _digit_limit()[1]:
            super().__init__(f"codeword {code!r} decodes to non-positive value {computed}")
        else:
            super().__init__(f"codeword {code!r} decodes to a non-positive value of {computed.bit_length()} bits,"
                             " past the integer digit limit")
        self.computed = computed
        self.code = code


def _fib_pair(n: int) -> tuple[int, int]:
    """(F(n), F(n + 1)) for the Fibonacci numbers F(0) = 0, F(1) = 1, by fast doubling."""
    f, g = 0, 1
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f), f * f + g * g  # F(2k), F(2k + 1) from F(k), F(k + 1)
        if bit == "1":
            f, g = g, f + g
    return f, g


@lru_cache(maxsize=CACHED_PARAMETERS)
def _limit_at(digits: int, a: int = 0) -> tuple[float, float]:
    if not digits:
        return math.inf, math.inf
    bound = 10**digits

    def cheapest(length: int) -> int:  # F(length - 2) - a (F(length - 4) - 1), length >= 4
        f, g = _fib_pair(length - 4)
        return f + g - a * (f - 1)

    # F(i) is within 1 of phi^i / sqrt(5), so cheapest(l) is about phi^(l - 4) (phi^2 - a) / sqrt(5):
    # start from that estimate, then settle it exactly; cheapest(6) = 3 is below every bound
    log_phi = math.log((1 + math.sqrt(5)) / 2)
    length = max(6, 4 + int((digits * math.log(10) + math.log(5) / 2 - math.log(3 - a)) / log_phi))
    while cheapest(length) >= bound:
        length -= 1
    while cheapest(length + 1) < bound:
        length += 1
    return length, bound


def _digit_limit(a: int = 0) -> tuple[float, float]:
    """(L, 10^D): the longest codeword a decoder evaluates at a, and the bound its value must stay below.

    D is sys.get_int_max_str_digits(), read at each call, so every value
    a decoder returns can be printed; 0 (no limit) makes both infinite.
    L is the largest l with F(l - 2) - a (F(l - 4) - 1) < 10^D, where
    F(1) = F(2) = 1 are the Fibonacci numbers. For fib, a = 0: then L is
    the largest l with F(l - 2) < 10^D, 20,579 at D = 4,300 and 3,066 at
    D = 640. For gh at a <= -2, L is at most that, and smaller as |a| grows.

    Every codeword of l >= 5 bits is worth at least F(l - 2) -
    a (F(l - 4) - 1), under fib with a = 0 and under gh at a, so a word
    longer than L is past the bound and is refused without being
    evaluated. The word less its closing 1 has its top 1 at index l - 1
    and its other ones at l - 3 or below. Fib terms are positive, with
    term(i) = F(i + 1), so the word is worth at least F(l). Of the gh
    terms only term(1) = a is negative, so the word is worth at least
    term(l - 1) + a, and exactly that when it sets only indices 1 and
    l - 1: so at gh this L is the length of the longest word a decoder
    accepts. That is term(4) + a = 2 = F(3) at l = 5, term(5) + a = 3 =
    F(4) at l = 6 (F(1) - 1 = F(2) - 1 = 0), and for i >= 6, term(i) =
    F(i - 1) - a F(i - 3) (it holds at i = 6 and 7, and both sides add
    like the sequence), so term(i) + a = F(i - 1) - a (F(i - 3) - 1).
    The shorter words below the bound are the non-positive "11" and
    "1011" of gh, and L >= 6.

    Cached per D and a, and computed by fast doubling from an estimate,
    so no shared sequence grows: fib_sequence() to L terms holds about
    19 MB, and gh_sequence(a) to that length more as |a| grows. An
    interpreter without the limit (before 3.10.7) has no limit here.
    """
    return _limit_at(getattr(sys, "get_int_max_str_digits", int)(), a)


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
    """Raise MalformedCodeError unless code is structurally valid and within _digit_limit's L."""
    limit = _digit_limit()[0]
    if len(code) > limit:  # worth 10^D or more (_digit_limit), checked before the O(len) rules
        raise MalformedCodeError(f"codeword longer than {limit} bits", limit)
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


def read_codeword(seq: GHSequence | FibSequence, code: str, a: int = 0) -> int:
    """The value of code under seq, whose term(1) is a (0 for fib): validated, then 1 <= n < 10^D.

    D is the digit limit of _digit_limit. The structure is checked first
    (from_codeword). A word within its length limit can still reach
    10^D, as every gh word can at a large enough |a|. A word longer than
    _digit_limit(a)'s L is worth that much at a, so it is refused
    unevaluated, and no term of seq past L is made. Raises
    MalformedCodeError for a fault, a word past L or a value of 10^D or
    more, and NonPositiveValueError for a value below 1.
    """
    body = from_codeword(code)
    limit, bound = _digit_limit(a)
    n = value(seq, body) if len(code) <= limit else bound  # a longer word is worth bound or more
    if n < 1:
        raise NonPositiveValueError(n, code)
    if n >= bound:
        raise MalformedCodeError("codeword value past the integer digit limit", 0)
    return n


def _tail_greedy(terms: list[int], target: int, first: int = 6) -> tuple[tuple[int, ...], int]:
    """Greedy picks over indices >= first for 0 <= target < the term after terms[-1].

    Returns (picks, residual < term(first)). terms[i - 1] is term(i), and
    each term is the sum of the two before it. After taking term(i) the
    remainder is below term(i - 1), so the next search stops short of
    index i - 1, and no two picks are adjacent.
    """
    picked: list[int] = []
    lowest = terms[first - 1]
    hi = len(terms)
    while target >= lowest:
        i = bisect_right(terms, target, first - 1, hi)  # largest index with term(i) <= target
        picked.append(i)
        target -= terms[i - 1]
        hi = i - 2
    return tuple(picked), target


def _tail_bits(picked: tuple[int, ...], first: int = 6) -> str:
    """Bits first and up of a word: each pick, lowest first, as its run of zeros and a 1."""
    parts = []
    j = first - 1
    for i in reversed(picked):
        parts.append("0" * (i - j - 1) + "1")
        j = i
    return "".join(parts)
