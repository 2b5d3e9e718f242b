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

from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, sub
from typing import NamedTuple

from ghcodes.bits import NonPositiveValueError, _digit_limit, normalize, read_codeword, values
from ghcodes.bits import _tail_bits, _tail_greedy  # the greedy fibcodec runs past its tables too
# unused here, but the benchmark tracer (perfbench/tracer.py) patches these names
from ghcodes.bits import from_codeword, to_codeword, trim_trailing_zeros, value  # noqa: F401
from ghcodes.sequences import CACHED_PARAMETERS, GHSequence, gh_sequence

__all__ = [
    "EncodeOutcome",
    "NonPositiveValueError",
    "RemainderTable",
    "decode",
    "decode_many",
    "encode_fast",
    "encode_simple",
    "exists",
    "missing_runs",
    "remainder_table",
]


class RemainderTable(NamedTuple):
    """Five-bit covers for remainders below term(6), plus the uncovered runs.

    entries maps a remainder to the bits over indices 1..5 whose terms
    sum to it; treat it as read-only. gap_intervals lists the inclusive
    runs of remainders with no cover (empty for a in {-2, -3, -4}).
    """

    a: int
    entries: dict[int, str]
    gap_intervals: tuple[tuple[int, int], ...]


class EncodeOutcome(NamedTuple):
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


@lru_cache(maxsize=CACHED_PARAMETERS)
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


def _tail_terms(seq: GHSequence, n: int) -> list[int]:
    """Terms 1..l, l the largest tail index with term(l) <= n (at least 6).

    The list holds every term the tail greedy can pick for a target of
    at most n, so one lookup serves every greedy run of one encode, or
    of every n in a range that ends at n. Raises ValueError for n < 1.
    """
    return seq.prefix(seq.largest_remaining_leq(n) or 6)


def _greedy_remaining(a: int, n: int) -> tuple[tuple[int, ...], int, int]:
    """Split n into tail picks, their sum n1, and the leftover n0 < term(6).

    Picks come out strictly decreasing with no two adjacent indices:
    after taking term(i) the remainder drops below term(i - 1).
    """
    picked, residual = _tail_greedy(_tail_terms(gh_sequence(a), n), n)
    return picked, n - residual, residual


def _close(low: str, high: str) -> str:
    # the low bits (a cover on bits 1..5, or a leaf template's bits 1..pm),
    # then the bits above them; carry-rewrite only where a pair of ones
    # shows, drop the trailing zeros a short cover or a resumed greedy
    # leaves, and close the word. Only a rewritten word can hold a pair,
    # and only an empty one can fail to end in 1 once its zeros are gone
    raw = low + high
    rewritten = "11" in raw
    if rewritten:
        raw = normalize(raw)
    word = raw.rstrip("0")
    if not word or (rewritten and "11" in word):
        raise ValueError(f"not a Zeckendorf bit string: {word!r}")
    return word + "1"


def _finish(
    entries: dict[int, str], terms: list[int], picked: tuple[int, ...], r: int,
    leftovers: Callable[[dict[int, str], list[int], int], Iterable[tuple[int, str]]],
) -> tuple[int, str, tuple[int, ...]] | None:
    """(n0, cover, picks) for an n on which the tail greedy picks picked and leaves r.

    A covered r is its own leftover, with the picks of n. Otherwise, given
    a pick, the first (n0, cover) of leftovers(entries, terms, r), each
    above r, whose greedy on n - n0 ends at 0 wins. That greedy takes the
    picks of n above the last, then runs on term(last) + r - n0
    (encode_simple's docstring), so only that run is made. None when no
    leftover works, and for an uncovered r with no pick: then r = n, and
    every leftover above r is above n. leftovers is called only when r
    has no cover and there is a pick.
    """
    cover = entries.get(r)
    if cover is not None:
        return r, cover, picked
    if picked:
        last = picked[-1]
        for n0, cover in leftovers(entries, terms, r):
            # the target is below term(last), so the greedy picks below last
            rest, residual = _tail_greedy(terms, terms[last - 1] + r - n0)
            if residual == 0:
                return n0, cover, picked[:-1] + rest
    return None


def _above(entries: dict[int, str], terms: list[int], r: int) -> Iterator[tuple[int, str]]:
    # entries ascend, so these are the leftovers above r in ascending order
    return ((n0, prefix) for n0, prefix in entries.items() if n0 > r)


def _fallback(entries: dict[int, str], terms: list[int], r: int) -> tuple[tuple[int, str]]:
    return ((terms[1] + terms[3], "01010"),)  # the cover of term(2) + term(4)


def _encode(a: int, n: int, leftovers: Callable) -> EncodeOutcome | None:
    # the body of both encoders, which differ in the leftovers _finish tries
    terms = _tail_terms(gh_sequence(a), n)
    picked, r = _tail_greedy(terms, n)
    found = _finish(remainder_table(a).entries, terms, picked, r, leftovers)
    if found is None:
        return None
    n0, cover, picks = found
    fallback = leftovers is _fallback and n0 != r  # only encode_fast's second attempt is one
    return EncodeOutcome(_close(cover, _tail_bits(picks)), n0, n - n0, picks, fallback)


def encode_simple(a: int, n: int) -> EncodeOutcome | None:
    """Try every coverable leftover in ascending order, zero included.

    For each candidate n0 the tail greedy must absorb n - n0 exactly;
    the first candidate that works yields the code. None means no
    candidate worked, i.e. no code exists.

    The greedy runs on n once, not once per candidate. Say it picks
    p1 > ... > pm and leaves r < term(6), with R(j) what is left after
    the first j picks. Every table leftover n0 is below term(6), which
    is at most term(pm). The greedy on n - n0 takes the largest term
    at most R(j - 1) - n0, so it takes pj as the greedy on n does for
    as long as R(j) >= n0. R(m - 1) = term(pm) + r is above n0, so it
    takes p1..p(m - 1) for every candidate, and pm as well iff r >= n0.
    Then n0 < r leaves r - n0 > 0 and fails, and n0 == r succeeds with
    the picks of n. For n0 > r, the greedy after p(m - 1) has
    term(pm) + r - n0 < term(pm) to absorb, so it goes on below pm.
    With no pick at all, r = n and every n0 > r is a leftover above n.
    _finish does exactly this, trying every cover above r.

    The leftover that works is always encode_fast's, so the two give
    the same code: encode_simple(a, n) is encode_fast(a, n) with
    used_fallback False, None included. At a in {-2, -3, -4} every r is
    covered. Take a = -(4 + k) with k >= 1, and an uncovered r, which
    lies in [5, k + 4] or [k + 11, 2k + 10]. The covers above r are
    among k + 5..k + 10, f = 2k + 11 (01010) and 2k + 12, so each is
    n0 = r + d with 1 <= d <= 2k + 7. The resume works iff its greedy
    leaves 0 on x = term(pm) - d, that is iff a leaf starts at x. The
    residuals of 0..term(pm) - 1 form the word missing_runs calls
    R(pm): its last leaf is term(6) = 2k + 13 or term(5) = k + 7 long,
    and the leaf before a short leaf is long. So a leaf starts at x iff
    d = k + 7 and R(pm) ends short. Over the first interval the covers
    k + 5..k + 10 give d <= k + 5, f gives d = k + 7 only at r = k + 4,
    and 2k + 12 only at r = k + 5, which is covered. Over the second,
    d <= k + 1. So the first leftover that works, if any, is f, the one
    encode_fast tries.
    """
    return _encode(a, n, _above)


def encode_fast(a: int, n: int) -> EncodeOutcome | None:
    """Encode with at most two attempts.

    First attempt: greedy tail split; if the leftover has a cover the
    code follows directly. Second attempt, reachable only for a <= -5
    where uncoverable leftovers exist: restart from the fixed cover
    01010, i.e. n0 = f = term(2) + term(4), and require the tail greedy
    to absorb the rest exactly. encode_simple's docstring proves that
    this gives encode_simple's code, and no code only where it has none.

    The restart is _finish's resume at n0 = f alone. f = term(6) - 2
    lies above every uncovered r and at or below term(pm), the lowest
    pick, so by encode_simple's docstring the greedy on n - f takes the
    picks of n above pm and resumes below it. With no pick, r = n < f,
    so there is nothing to restart. used_fallback is n0 != r, set apart
    from the cover, because a first-attempt leftover of f also takes
    the cover 01010.
    """
    return _encode(a, n, _fallback)


def exists(a: int, n: int) -> bool:
    """True iff a code for n exists under parameter a: encode_fast finds one."""
    return encode_fast(a, n) is not None


_LEAF_SLICE = 4096  # n per list _leaf_codes yields; a longer leaf comes in slices


def _leaves(terms: list[int], lo: int, hi: int) -> Iterator[tuple[int, int, bool]]:
    """(start, l, after_short) for each leaf of the residual word that meets lo..hi, ascending.

    The word is R(len(terms)), the greedy residuals of 0..term(len(terms)) - 1
    (missing_runs), and terms reach past hi. A leaf is the long R(6) or
    the short R(5): term(l) residuals from 0, the first at n = start.
    after_short says the leaf before it is short.

    The walk visits the word depth first with a stack of (start, l,
    after_short) that holds only blocks meeting lo..hi, so its state is
    O(log hi), and its time is O(log hi) plus a step per leaf in lo..hi.
    """
    stack = [(0, len(terms), False)]
    while stack:  # it holds only blocks that meet lo..hi
        start, l, after_short = stack.pop()
        while l > 6:  # R(l) is R(l - 1) from start, then R(l - 2) from middle
            middle = start + terms[l - 2]
            if middle <= hi:  # R(l - 1) ends short iff l is even
                stack.append((middle, l - 2, l % 2 == 0))
            if middle <= lo:  # R(l - 1) ends before lo
                break
            l -= 1  # descend into R(l - 1) in place
        else:  # a leaf
            yield start, l, after_short


_Template = tuple[list[tuple[int, str]], list[tuple[int, str]]]


def _leaf_template(entries: dict[int, str], terms: list[int], pick: tuple[int, ...]) -> _Template:
    """(low, carried): (r, bits) for each residual r a leaf with lowest pick pick has a code at.

    pick is (pm,), or () in the first leaf. bits are bits 1..pm of what
    _finish gives for pick alone: the cover, then pm where r is covered,
    or else the picks of the greedy resumed below pm. carried lists the
    bits that hold a pair of ones, the only codes _close carry-rewrites;
    low lists the others. _finish tries encode_fast's leftover, which is
    encode_simple's as well (encode_simple's docstring).

    Only a covered r, or r = f - term(5) = k + 4, can have a code:
    missing_runs' docstring proves that the 01010 cover f resumes to a
    leaf start from no other uncovered residual. So a template holds at
    most 14 residuals, however long its leaves are.
    """
    width = len(_tail_bits(pick))  # bits 6..pm
    low: list[tuple[int, str]] = []
    carried: list[tuple[int, str]] = []
    for r in {*entries, terms[1] + terms[3] - terms[4]}:  # f - term(5)
        found = _finish(entries, terms, pick, r, _fallback)
        if found:
            bits = found[1] + _tail_bits(found[2]).ljust(width, "0")
            (carried if "11" in bits else low).append((r, bits))
    return low, carried


def _fill(template: _Template, high: str, lo: int, hi: int) -> list[str | None]:
    # a leaf's codes at residuals lo..hi - 1, from its bits above pm; with
    # none, the zeros a resumed greedy leaves up to pm go, as _close drops them
    low, carried = template
    codes: list[str | None] = [None] * (hi - lo)
    tail = high + "1"
    for r, bits in low:
        if lo <= r < hi:
            codes[r - lo] = bits + tail if high else bits.rstrip("0") + "1"
    for r, bits in carried:
        if lo <= r < hi:
            codes[r - lo] = _close(bits, high)
    return codes


def _leaf_codes(a: int, lo: int, hi: int) -> Iterator[tuple[int, list[str | None]]]:
    """(first_n, codes) per leaf of the greedy residual met by lo..hi, ascending, for 1 <= lo.

    codes[i] is the code encode_fast(a, first_n + i) and encode_simple
    give, one code by encode_simple's docstring, None where there is
    none. The first list starts at lo, and a leaf longer than
    _LEAF_SLICE n comes as slices of that many, each with its first n.

    One term lookup serves the range, and the tail greedy runs once per
    leaf of the residual word (_leaves), not once per n. The n of the
    R(l - 2) part of R(l) are term(l - 1) plus those of R(l - 2), and
    the greedy picks term(l - 1) on them first. So each leaf has one set
    of picks, found at its start, with r running from 0 across it. The
    first leaf, R(6) from n = 0, has no pick.

    _finish gives the outcome from the lowest pick pm and r alone, and
    it resumes the greedy only below pm. So a code is the low bits of
    the template for pm at r (_leaf_template), then the leaf's bits
    above pm, then the closing 1. The next pick is at pm + 2 or higher,
    so no pair of ones forms where the two parts meet, and _close runs
    per leaf only for the carried low bits, whose carry may run into the
    bits above. One template per lowest pick, built at its first leaf,
    serves every leaf.
    """
    seq = gh_sequence(a)
    entries = remainder_table(a).entries
    terms = seq.prefix((seq.largest_remaining_leq(hi) or 5) + 1)  # term(l) is terms[l - 1]
    templates: dict[int, _Template] = {}
    for start, l, _ in _leaves(terms, lo, hi):
        picked, _ = _tail_greedy(terms, start)  # r = 0 at a leaf start
        pm = picked[-1] if picked else 5  # the lowest pick; 5 in the first leaf
        template = templates.get(pm)
        if template is None:
            template = templates[pm] = _leaf_template(entries, terms, picked[-1:])
        high = _tail_bits(picked)[pm - 5:]  # the bits above pm
        first, stop = max(lo - start, 0), min(terms[l - 1], hi + 1 - start)  # residuals met
        for r in range(first, stop, _LEAF_SLICE):
            yield start + r, _fill(template, high, r, min(r + _LEAF_SLICE, stop))


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

    The runs come from a table per kind of leaf, over the leaves _leaves
    walks, so the state is O(log hi) plus the run it yields. Being a
    generator, it checks its arguments when iteration starts.
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
    terms = seq.prefix((seq.largest_remaining_leq(hi) or 5) + 1)  # R(len(terms)) covers 0..hi
    for start, l, after_short in _leaves(terms, lo, hi):
        for first, last in leaf_runs[l, after_short]:
            # conditional expressions, not max() and min(): the walk runs 1.6x faster
            first, last = start + first, start + last
            first, last = first if first > lo else lo, last if last < hi else hi
            if first <= last:
                yield first, last - first + 1


def decode(a: int, code: str) -> int:
    """The value of code at a, read by bits.read_codeword: validated, then 1 <= n < 10^D."""
    return read_codeword(gh_sequence(a), code, a)  # gh_sequence raises for a > -2


_BODY = itemgetter(slice(None, -1))  # a codeword less its closing 1


def decode_many(a: int, codes: Sequence[str]) -> list[int]:
    """[decode(a, code) for code in codes], raising what that loop raises first.

    The batch is checked at once, with no Python call per code, against
    the rules of bits.validate_codeword, with the length limit at a (L
    of bits._digit_limit(a)): only "0" and "1", and the first pair of
    ones at the end. One prefix of the terms then serves every code, and
    every value must be >= 1 and below the digit limit's bound. A code
    shorter than the closing pair passes the pair check only as "0" or
    "1", and its value is 0.
    Should any check fail, decode runs over the codes in order, so the
    error is the one the first bad code gives.
    """
    seq = gh_sequence(a)  # raises for a > -2
    lengths = list(map(len, codes))
    longest = max(lengths, default=1)
    limit, bound = _digit_limit(a)
    if not (
        longest > limit
        # a character other than "0" or "1" survives, as itself or as "?"
        or "".join(codes).encode("ascii", "replace").translate(None, b"01")
        or list(map(str.find, codes, repeat("11"))) != list(map(sub, lengths, repeat(2)))
    ):
        ns = list(values(seq.prefix(longest - 1), map(_BODY, codes)))
        if min(ns, default=1) >= 1 and max(ns, default=0) < bound:
            return ns
    return [decode(a, code) for code in codes]
