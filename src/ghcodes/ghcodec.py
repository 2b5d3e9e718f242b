"""Existence decision, encoding, and decoding for the generalized codes.

Every encodable n splits as n0 + n1: n1 is a greedy sum over the
positive tail (indices 6 and up) and the leftover n0 < term(6) must be
covered by the five leading terms. Which leftovers the initial segment
covers is a fixed five-bit lookup: total for a in {-2, -3, -4}, and for
a <= -5 exactly 13 rows with two uncoverable runs of k = -(a + 4)
values each, which is where non-encodable integers come from. A
leftover landing in a run does not end the story: one more attempt with
the cover 01010, the only five-bit prefix a non-greedy code can start
with, settles existence either way.
"""

from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from ghcodes.bits import (
    from_codeword,
    normalize,
    to_codeword,
    trim_trailing_zeros,
    value,
)
from ghcodes.sequences import GHSequence, gh_sequence

__all__ = [
    "EncodeOutcome",
    "NonPositiveValueError",
    "RemainderTable",
    "decode",
    "encode_fast",
    "encode_simple",
    "exists",
    "greedy_remaining",
    "missing_runs",
    "remainder_lookup",
    "remainder_table",
]


class NonPositiveValueError(ValueError):
    """Structurally valid codeword whose bits sum to zero or less."""

    def __init__(self, computed: int, code: str):
        super().__init__(f"codeword {code!r} decodes to non-positive value {computed}")
        self.computed = computed
        self.code = code


@dataclass(frozen=True)
class RemainderTable:
    """Five-bit covers for remainders below term(6), plus the uncovered runs.

    entries maps a remainder to the bits over indices 1..5 whose terms
    sum to it; treat it as read-only. gap_intervals lists the inclusive
    runs of remainders with no cover (empty for a in {-2, -3, -4}).
    """

    a: int
    entries: dict[int, str]
    gap_intervals: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EncodeOutcome:
    """One successful encoding, with the split that produced it."""

    code: str
    n0: int
    n1: int
    picked_indices: tuple[int, ...]
    used_fallback: bool


_TABLE_A2 = {
    0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "00010",
    5: "00001", 6: "00101", 7: "01010", 8: "01001",
}
_TABLE_A3 = {
    0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "10101",
    5: "00010", 6: "00001", 7: "00101", 8: "10011", 9: "01010",
    10: "01001",
}


def _parametric_rows(k: int) -> dict[int, str]:
    return {
        0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "10101",
        k + 5: "01000", k + 6: "00010", k + 7: "00001", k + 8: "00101",
        k + 9: "10011", k + 10: "10111",
        2 * k + 11: "01010", 2 * k + 12: "01001",
    }


@lru_cache(maxsize=None)
def remainder_table(a: int) -> RemainderTable:
    gh_sequence(a)  # validates a <= -2
    if a == -2:
        rows, gaps = _TABLE_A2, ()
    elif a == -3:
        rows, gaps = _TABLE_A3, ()
    else:
        k = -(a + 4)
        rows = _parametric_rows(k)
        gaps = ((5, k + 4), (k + 11, 2 * k + 10)) if k else ()
    return RemainderTable(a=a, entries=dict(rows), gap_intervals=gaps)


def remainder_lookup(a: int, r: int) -> str | None:
    """Five-bit cover for remainder r, or None when r has no cover."""
    bound = gh_sequence(a).term(6)
    if not 0 <= r < bound:
        raise ValueError(f"remainder {r} outside [0, {bound}) for a={a}")
    return remainder_table(a).entries.get(r)


def _tail_terms(seq: GHSequence, n: int) -> list[int]:
    """Terms 1..l, l the largest tail index with term(l) <= n (at least 6).

    The list holds every term the tail greedy can pick for a target of
    at most n, so one lookup serves every greedy run of one encode.
    """
    return seq.prefix(seq.largest_remaining_leq(n) or 6)


def _tail_greedy(terms: list[int], target: int) -> tuple[tuple[int, ...], int]:
    """Greedy picks over indices >= 6 for 0 <= target < the term after terms[-1].

    Returns (picks, residual). terms[i - 1] is term(i). After taking
    term(i) the remainder is below term(i - 1), so the next search stops
    short of index i - 1.
    """
    picked: list[int] = []
    first_tail = terms[5]
    hi = len(terms)
    while target >= first_tail:
        i = bisect_right(terms, target, 5, hi)  # largest index with term(i) <= target
        picked.append(i)
        target -= terms[i - 1]
        hi = i - 2
    return tuple(picked), target


def greedy_remaining(a: int, n: int) -> tuple[tuple[int, ...], int, int]:
    """Split n into tail picks, their sum n1, and the leftover n0 < term(6).

    Picks come out strictly decreasing with no two adjacent indices:
    after taking term(i) the remainder drops below term(i - 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    picked, residual = _tail_greedy(_tail_terms(gh_sequence(a), n), n)
    return picked, n - residual, residual


def _assemble(prefix5: str, picked: tuple[int, ...]) -> str:
    # cover on bits 1..5, picks from 6 up, then carry-rewrite, drop the
    # trailing zeros a short cover leaves, and close the word
    top = max(picked, default=5)
    raw = list(prefix5) + ["0"] * (top - 5)
    for i in picked:
        raw[i - 1] = "1"
    return to_codeword(trim_trailing_zeros(normalize("".join(raw))))


def encode_simple(a: int, n: int) -> EncodeOutcome | None:
    """Try every coverable leftover in ascending order, zero included.

    For each candidate n0 the tail greedy must absorb n - n0 exactly;
    the first candidate that works yields the code. None means no
    candidate worked, i.e. no code exists.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    terms = _tail_terms(gh_sequence(a), n)
    for n0, prefix in remainder_table(a).entries.items():  # ascending n0
        if n0 > n:
            break
        picked, residual = _tail_greedy(terms, n - n0)
        if residual == 0:
            return EncodeOutcome(_assemble(prefix, picked), n0, n - n0, picked, False)
    return None


def _split(
    seq: GHSequence, entries: dict[int, str], n: int
) -> tuple[str, tuple[int, ...], int, bool] | None:
    """(cover, tail picks, n0, used_fallback) for n, or None when no code exists.

    used_fallback is carried separately because a first-attempt leftover
    of term(2) + term(4) also takes the cover 01010.
    """
    terms = _tail_terms(seq, n)
    picked, residual = _tail_greedy(terms, n)
    prefix = entries.get(residual)
    if prefix is not None:
        return prefix, picked, residual, False
    fallback_n0 = terms[1] + terms[3]
    if n < fallback_n0:
        return None
    picked, residual = _tail_greedy(terms, n - fallback_n0)
    if residual != 0:
        return None
    return "01010", picked, fallback_n0, True


def encode_fast(a: int, n: int) -> EncodeOutcome | None:
    """Encode with at most two attempts.

    First attempt: greedy tail split; if the leftover has a cover the
    code follows directly. Second attempt, reachable only for a <= -5
    where uncoverable leftovers exist: restart from the fixed cover
    01010, i.e. n0 = term(2) + term(4), and require the tail greedy to
    absorb the rest exactly. The existence verdict is checked against
    encode_simple across the test suite rather than assumed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    split = _split(gh_sequence(a), remainder_table(a).entries, n)
    if split is None:
        return None
    prefix, picked, n0, used_fallback = split
    return EncodeOutcome(_assemble(prefix, picked), n0, n - n0, picked, used_fallback)


def exists(a: int, n: int) -> bool:
    """True iff a code for n exists under parameter a."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _split(gh_sequence(a), remainder_table(a).entries, n) is not None


def missing_runs(a: int, lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Maximal runs (start, length) of n in lo..hi with no code, ascending.

    Equals the n with exists(a, n) false, read off the structure of the
    greedy residual r(n), the leftover the tail greedy leaves for n. The
    greedy takes term(l) first for term(l) <= n < term(l + 1) and leaves
    n - term(l) < term(l - 1), which it reduces as it would on its own.
    So r(0), ..., r(term(l) - 1) is the word R(l) = R(l - 1) + R(l - 2),
    built from two leaves: the long R(6) = 0, ..., term(6) - 1 and the
    short R(5) = 0, ..., term(5) - 1. By induction on l, every R(l) with
    l >= 6 starts long, ends short iff l is odd, and has a long leaf
    before each short one. r(n) == 0 exactly where a leaf starts.

    As in encode_fast's two attempts, n has a code iff r(n) has a
    five-bit cover, or n - f is a leaf start, where f = term(2) + term(4)
    is the 01010 cover. For a = -(4 + k) with k >= 1, the uncovered
    residuals are the gap intervals [5, k + 4] and [k + 11, 2k + 10],
    and f = 2k + 11 = term(6) - 2. Take n = s + r with s a leaf start and
    r in a gap interval. In the second interval n - f lies 1..k before
    s, and in the first k + 7..2k + 6 before it. The leaf before s is
    term(5) = k + 7 or term(6) = 2k + 13 long, and any leaf before that
    lies further back than 2k + 6. So n - f is a leaf start only for
    r = f - term(5) = k + 4, the last n of the first interval, when the
    leaf before s is short. Every run is therefore one gap interval of
    one leaf, or that interval less its last n: runs of leaves never
    touch, and no run is longer than k, for every n. A universal a
    (-2, -3, -4) has no gap interval and no run.

    The walk visits the word depth first with a stack of (start, l,
    after_short) that holds only blocks meeting lo..hi, so its state is
    O(log hi) plus the run it yields, and its time is O(log hi) plus a
    step per leaf in lo..hi. Being a generator, it checks its arguments
    when iteration starts.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
    seq = gh_sequence(a)
    gaps = remainder_table(a).gap_intervals
    if not gaps:
        return
    (lo1, hi1), (lo2, hi2) = gaps
    # the runs of each kind of leaf, by (l, after_short), as residual spans;
    # a short leaf ends before the second interval and never follows a short one
    leaf_runs = {(5, False): gaps[:1], (6, False): gaps, (6, True): ((lo1, hi1 - 1), (lo2, hi2))}
    terms = seq.prefix((seq.largest_remaining_leq(hi) or 5) + 1)  # term(l) is terms[l - 1]
    stack = [(0, len(terms), False)]  # R(len(terms)) covers 0..hi
    while stack:  # it holds only blocks that meet lo..hi
        start, l, after_short = stack.pop()
        if l > 6:  # R(l) is R(l - 1) from start, then R(l - 2) from middle
            middle = start + terms[l - 2]
            if middle <= hi:  # R(l - 1) ends short iff l is even
                stack.append((middle, l - 2, l % 2 == 0))
            if middle > lo:  # pushed last, so popped first
                stack.append((start, l - 1, after_short))
            continue
        for first, last in leaf_runs[l, after_short]:
            # conditional expressions, not max() and min(): the walk runs 1.6x faster
            first, last = start + first, start + last
            first, last = first if first > lo else lo, last if last < hi else hi
            if first <= last:
                yield first, last - first + 1


def decode(a: int, code: str) -> int:
    """Validate structure, strip the closing 1, evaluate, require >= 1."""
    n = value(gh_sequence(a), from_codeword(code))
    if n < 1:
        raise NonPositiveValueError(n, code)
    return n
