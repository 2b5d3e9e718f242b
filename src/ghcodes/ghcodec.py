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
    "missing_upto",
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

    @property
    def representable_set(self) -> frozenset[int]:
        return frozenset(self.entries)


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
_TABLE_A4 = {
    0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "10101",
    5: "01000", 6: "00010", 7: "00001", 8: "00101", 9: "10011",
    10: "10111", 11: "01010", 12: "01001",
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
    elif a == -4:
        rows, gaps = _TABLE_A4, ()
    else:
        k = -(a + 4)
        rows = _parametric_rows(k)
        gaps = ((5, k + 4), (k + 11, 2 * k + 10))
    return RemainderTable(a=a, entries=dict(rows), gap_intervals=gaps)


def remainder_lookup(a: int, r: int) -> str | None:
    """Five-bit cover for remainder r, or None when r has no cover."""
    bound = gh_sequence(a).term(6)
    if not 0 <= r < bound:
        raise ValueError(f"remainder {r} outside [0, {bound}) for a={a}")
    return remainder_table(a).entries.get(r)


def _tail_greedy(seq: GHSequence, target: int) -> tuple[tuple[int, ...], int]:
    """Greedy picks over indices >= 6 for target >= 0; returns (picks, residual)."""
    picked: list[int] = []
    remainder = target
    first_tail = seq.term(6)
    while remainder >= first_tail:
        i = seq.largest_remaining_leq(remainder)
        picked.append(i)
        remainder -= seq.term(i)
    return tuple(picked), remainder


def greedy_remaining(a: int, n: int) -> tuple[tuple[int, ...], int, int]:
    """Split n into tail picks, their sum n1, and the leftover n0 < term(6).

    Picks come out strictly decreasing with no two adjacent indices:
    after taking term(i) the remainder drops below term(i - 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    picked, residual = _tail_greedy(gh_sequence(a), n)
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
    seq = gh_sequence(a)
    entries = remainder_table(a).entries
    for n0 in range(seq.term(6)):
        prefix = entries.get(n0)
        if prefix is None or n0 > n:
            continue
        picked, residual = _tail_greedy(seq, n - n0)
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
    picked, residual = _tail_greedy(seq, n)
    prefix = entries.get(residual)
    if prefix is not None:
        return prefix, picked, residual, False
    fallback_n0 = seq.term(2) + seq.term(4)
    if n < fallback_n0:
        return None
    picked, residual = _tail_greedy(seq, n - fallback_n0)
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


def missing_upto(a: int, n_max: int) -> tuple[int, ...]:
    """Every n in 1..n_max with no code under parameter a, ascending.

    Equals the n with exists(a, n) false, decided in one pass from the
    greedy residual r(n), the leftover the tail greedy leaves for n:

        r(n) = n               for n < term(6)
        r(n) = r(n - term(l))  for term(l) <= n < term(l + 1), l >= 6

    Proof: the greedy takes term(l) first and leaves n - term(l) <
    term(l - 1), which it then reduces exactly as it would on its own.
    So each block [term(l), term(l + 1)) of residuals is a copy of
    r(0), ..., r(term(l - 1) - 1). Then, as in encode_fast's two
    attempts, n has a code iff r(n) has a five-bit cover, or n >= f and
    r(n - f) == 0, where f = term(2) + term(4) is the 01010 cover.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = gh_sequence(a)
    entries = remainder_table(a).entries
    # a list, not an array: block copies share the int objects, so it also
    # costs 8 bytes per n, and it indexes faster and needs no extra import
    residual = list(range(min(seq.term(6), n_max + 1)))
    i = 6
    while len(residual) <= n_max:  # here len(residual) == term(i)
        residual += residual[: min(seq.term(i + 1), n_max + 1) - seq.term(i)]
        i += 1
    fallback_n0 = seq.term(2) + seq.term(4)
    return tuple(
        n
        for n in range(1, n_max + 1)
        if residual[n] not in entries and (n < fallback_n0 or residual[n - fallback_n0])
    )


def decode(a: int, code: str) -> int:
    """Validate structure, strip the closing 1, evaluate, require >= 1."""
    n = value(gh_sequence(a), from_codeword(code))
    if n < 1:
        raise NonPositiveValueError(n, code)
    return n
