"""Classic Fibonacci universal code.

fib_encode reads the Zeckendorf digits of n from fixed tables, twelve
indices at a time. Why that gives the greedy digits:

A set of indices below k with no two adjacent sums to less than term(k);
the largest such sum, term(k - 1) + term(k - 3) + ..., is term(k) - 1.
So of two Zeckendorf representations, the one with the digit set at the
highest index where they differ stands for the larger number: Zeckendorf
order is lexicographic from the top digit. Now fix a block of indices
s..s+11 and let r be n less its digits above the block, and p the digits
of n in the block. Then r is the sum of p plus n's digits below s. For
any pattern q above p in that order, at the highest index k where they
differ q has the digit and p does not, so q sums to at least the shared
digits above k plus term(k). But r is the shared digits plus digits of
n below k, which sum to less than term(k). So q sums to more than r,
and p is the pattern with the largest block sum that is at most r. The
patterns of one block are ordered the same way at every position, so
each block's sums form one ascending list over one list of patterns,
and a bisect finds p. Below term(13) the block sum of a pattern is its
value, so the low block is an index into the patterns.

Twelve indices give 377 patterns, and the tables for eight blocks take
about 150 KB. Eight blocks of twelve reach index 96, the first whole
block past index 92, the highest a value below 2^64 can set. Encoding
100k values of about 10^12 in-process, sixteen indices per block (2584
patterns, about 0.8 MB) ran only 2-3% faster, and eight ran about 1.2x
slower.

_encode_lanes runs the greedy for many values at once instead, 1024
values to a block, each in one 64-bit lane of a Python int. Per index i
from the block's top index down, the lane of a remainder r takes term(i)
exactly when r >= term(i). It adds 2^63 - term(i) to every lane and
reads bit 63, which is set exactly when r + 2^63 - term(i) >= 2^63.
No carry or borrow crosses a lane: every value is below term(65) < 2^63,
so r < 2^63 and 1 <= term(i) <= 2^63 give 0 <= r + 2^63 - term(i) <
2^64, and a lane that takes term(i) holds r >= term(i), so subtracting
it borrows nothing. So each lane runs the top-down greedy over every
index, and taking the largest term not above the remainder leaves less
than the term below it, so these are the Zeckendorf digits, the same as
fib_encode's. Below term(65) the top digit is at index 64 at most, so
the digits fit the 64 bits of a lane, digit i at bit i - 1.

_decode_lanes evaluates words the other way, 1024 to a block: each
piece (a word less its closing pair) and its closing 1, at most 64
bits, fill one 64-bit lane from the top, index i at lane bit 64 - i, so
the lane's byte k, counted from the top, holds indices 8k + 1..8k + 8.
Let F(0) = 0, F(1) = F(2) = 1 be the Fibonacci numbers, so term(i) =
F(i + 1). From F(m + n) = F(m) F(n + 1) + F(m - 1) F(n),

    term(8k + 1 + j) = F(8k + j + 2) = F(8k + 1) F(j + 2) + F(8k) F(j + 1),

so a byte with bits b_0..b_7, b_j at index 8k + 1 + j, adds F(8k + 1) P +
F(8k) Q to its lane, where P is the sum of b_j F(j + 2) and Q the sum of
b_j F(j + 1). P and Q depend on the byte alone: two 256-entry tables,
which bytes.translate applies to every byte at once. Whatever the bits,
P <= F(2) + ... + F(9) = F(11) - 2 = 87 and Q <= F(1) + ... + F(8) =
F(10) - 1 = 54, so each fits a byte and the translated bytes keep the
lane layout. For each k, shifting right by 56 - 8k and masking the low
byte of every lane leaves P_k (or Q_k) alone in its lane, and one
multiply by F(8k + 1) (or F(8k)) and one add give every lane its share.
Every product is non-negative, and a lane's sum has at most 16 of them,
each at most 87 F(57), with F(57) = 365,435,296,162 the largest factor
(k = 7); 16 * 87 * F(57) < 2^49 < 2^63. So no partial sum leaves its 64
bits, no carry crosses a lane, and each lane ends as its word's value,
which the lanes are read back as. A decoder refuses a word longer than
L or worth 10^D or more (bits._digit_limit). D is 0, with no limit, or
at least 640, the smallest limit Python allows, and there L >= 3,066;
a word of at most 65 bits is worth less than term(65) < 2^63 < 10^19.
So no word the lanes take can be refused.
"""

import sys
from bisect import bisect_right
from functools import lru_cache
from itertools import repeat
from operator import add, itemgetter

from ghcodes.bits import _tail_bits, _tail_greedy, read_codeword
from ghcodes.sequences import fib_sequence

__all__ = ["fib_decode", "fib_encode"]

_BLOCK = 12  # indices per block of the tables
_BLOCKS = 8  # blocks in the tables, indices 1..96
_LANES = 1024  # values or words per block of the lanes, one 64-bit lane each
_LANES_BELOW = 65  # the lanes take the values below term(65), whose codewords of at most 65 bits fit a lane
_REVERSED = itemgetter(slice(None, None, -1))


@lru_cache(maxsize=None)
def _tables() -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Patterns, each block's sums of them, and the start term of each block.

    The patterns of width w in value order are those of width w - 1 with
    index w clear, then those of width w - 2 with index w - 1 clear and
    index w set. A block's sums follow the same recursion with its own
    terms. The start terms run from term(1) to term(97), one past the
    tables. Built on the first call, so importing the module builds
    nothing; the cache publishes the finished tuple in one step.
    """
    shorter, patterns = [""], ["0", "1"]
    for _ in range(_BLOCK - 1):
        shorter, patterns = patterns, [p + "0" for p in patterns] + [p + "01" for p in shorter]
    terms = fib_sequence().prefix(_BLOCK * _BLOCKS + 1)
    block_sums = []
    for start in range(0, _BLOCK * _BLOCKS, _BLOCK):
        first, *rest = terms[start : start + _BLOCK]
        shorter, sums = [0], [0, first]
        for term in rest:
            shorter, sums = sums, sums + [s + term for s in shorter]
        block_sums.append(tuple(sums))
    return tuple(patterns), tuple(block_sums), tuple(terms[::_BLOCK])


def fib_encode(n: int) -> str:
    """Zeckendorf bits for n plus the closing 1.

    Each block from n's top one down takes the pattern with the largest
    block sum not exceeding the remainder (see the module docstring). An
    n of term(97) or more first runs bits._tail_greedy over the indices
    from 97 up, the greedy the gh tail runs from 6, and leaves less than
    term(97) to the tables.
    """
    if n < 1:
        raise ValueError(f"only positive integers are encodable, got {n}")
    patterns, block_sums, starts = _tables()
    top = bisect_right(starts, n) - 1  # the block of n's top index, or _BLOCKS past the tables
    word = ""
    if top == _BLOCKS:
        seq = fib_sequence()
        picked, n = _tail_greedy(seq.prefix(seq.largest_leq(n)), n, _BLOCK * _BLOCKS + 1)
        word = _tail_bits(picked, _BLOCK * _BLOCKS + 1)
        top -= 1
    for sums in block_sums[top:0:-1]:
        k = bisect_right(sums, n) - 1
        word = patterns[k] + word
        n -= sums[k]
    return (patterns[n] + word).rstrip("0") + "1"


@lru_cache(maxsize=None)
def _lane_tables() -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """term(1)..term(65), then per index 2^63 - term(i) in every lane of a block, then 2^63 in every lane.

    Built on the first call, as _tables is: 65 ints of 8 KB each. The
    lanes alone import array, so no other command loads it.
    """
    from array import array

    terms = tuple(fib_sequence().prefix(_LANES_BELOW))
    ones = int.from_bytes(array("Q", [1] * _LANES).tobytes(), sys.byteorder)
    return terms, tuple((2**63 - term) * ones for term in terms), ones << 63


def _encode_lanes(values: list[int]) -> str:
    """"".join(map(fib_encode, values)), for values that all lie in [1, term(65)).

    Runs the greedy on 1024 values at a time, one to a 64-bit lane of a
    Python int (see the module docstring for why that is exact), from
    the top index of the block's largest value down. A short last block
    reads only its own lanes. Each lane's digits, index 1 at bit 0, are
    read back in C-level maps, and each codeword is its digits up to the
    top one, then the closing 1.
    """
    from array import array

    terms, keys, guard = _lane_tables()
    blocks = []
    for first in range(0, len(values), _LANES):
        block = values[first : first + _LANES]
        lanes = int.from_bytes(array("Q", block).tobytes(), sys.byteorder)
        digits = 0
        for i in range(bisect_right(terms, max(block)), 0, -1):
            taken = (lanes + keys[i - 1]) & guard  # 2^63 in each lane whose remainder is >= term(i)
            if taken:
                lanes -= (taken >> 63) * terms[i - 1]
                digits |= taken >> 64 - i
        found = array("Q")
        found.frombytes(digits.to_bytes(8 * len(block), sys.byteorder))
        blocks.append("1".join(map(_REVERSED, map(format, found, repeat("b")))) + "1")
    return "".join(blocks)


@lru_cache(maxsize=None)
def _byte_tables() -> tuple[bytes, bytes, tuple[tuple[int, int], ...], int]:
    """The P and Q tables, (F(8k + 1), F(8k)) for k = 0..7, and 255 in the low byte of every lane of a block.

    Byte b gives P = the sum of F(j + 2) and Q = the sum of F(j + 1) over
    its set bits j, j = 0 the top bit (see the module docstring). Built
    on the first call, as _lane_tables is.
    """
    f = [0, 1, *fib_sequence().prefix(56)]  # F(0) to F(57): F(n) = term(n - 1)

    def table(shift: int) -> bytes:
        return bytes(sum(f[j + shift] for j in range(8) if b & 128 >> j) for b in range(256))

    low = int.from_bytes((bytes(7) + b"\xff") * _LANES, "big")
    return table(2), table(1), tuple((f[8 * k + 1], f[8 * k]) for k in range(8)), low


def _decode_lanes(pieces: list[str]) -> list[int]:
    """The value of each piece + "1" under fib, for pieces of at most 63 bits.

    Evaluates 1024 pieces at a time, one to a 64-bit lane of a Python
    int, index 1 at the lane's top bit. The lanes' bytes go through the
    P and Q tables, and each lane's value is the sum over its bytes k of
    F(8k + 1) P_k + F(8k) Q_k, up to the byte that holds the block's
    longest word (see the module docstring for why that is exact). The
    strings are built and the lanes read back in C-level maps, with no
    Python call per piece.
    """
    from array import array

    p_table, q_table, factors, low = _byte_tables()
    found: list[int] = []
    for first in range(0, len(pieces), _LANES):
        block = pieces[first : first + _LANES]
        size = 8 * len(block)
        closed = map(str.ljust, map(add, block, repeat("1")), repeat(64), repeat("0"))  # a lane per piece
        raw = int("".join(closed), 2).to_bytes(size, "big")
        p = int.from_bytes(raw.translate(p_table), "big")
        q = int.from_bytes(raw.translate(q_table), "big")
        total = 0
        for k in range((max(map(len, block)) + 8) // 8):  # the bytes up to the longest word's closing 1
            shift = 56 - 8 * k
            total += (p >> shift & low) * factors[k][0] + (q >> shift & low) * factors[k][1]
        lanes = array("Q", total.to_bytes(size, "big"))
        if sys.byteorder == "little":
            lanes.byteswap()
        found += lanes
    return found


def fib_decode(code: str) -> int:
    """Integer a codeword stands for, read by bits.read_codeword: validated, then below 10^D."""
    return read_codeword(fib_sequence(), code)
