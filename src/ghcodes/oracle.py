"""Brute-force ground truth, kept independent of the table-and-greedy encoder.

Both searchers range over subsets of sequence indices with no two
adjacent, exactly the space of candidate Zeckendorf representations.
They share only the sequence cache with the encoder, so agreement
between the two is meaningful evidence rather than a tautology.

One depth-first walk serves one n at a time: `oracle_exists` stops it
at the first code, and `all_codes` lets it list every code. It keeps
nothing between calls. `range_exists` serves a whole range: one
subset-sum pass over an int used as a bitset decides every n in
1..n_max, and holds a few n_max-bit ints.
"""

from bisect import bisect_right
from collections.abc import Callable

# unused here, but the benchmark tracer (perfbench/tracer.py) patches this
# name when it installs, and fails on every workload if it is missing
from ghcodes.ghcodec import exists as _codec_exists  # noqa: F401
from ghcodes.sequences import GHSequence, gh_sequence

__all__ = [
    "DEFAULT_MAX_INDEX", "SearchLimitError", "all_codes", "oracle_exists", "range_exists",
]

# the highest sequence index a search may touch; read at call time
DEFAULT_MAX_INDEX = 64


class SearchLimitError(RuntimeError):
    """The search would need more sequence indices than DEFAULT_MAX_INDEX."""


def _search_bound(seq: GHSequence, n: int) -> int:
    """Smallest index >= 7 whose term overshoots n even with term(1) taken.

    Any subset touching that index or beyond sums past n, because
    term(1) is the only negative term a subset can contain. Raises
    SearchLimitError when that index would pass DEFAULT_MAX_INDEX,
    without growing the sequence past max(DEFAULT_MAX_INDEX, 7)
    terms, however big n is.
    """
    top = max(DEFAULT_MAX_INDEX, 7)
    terms = seq.prefix(top)
    # terms[i - 1] is term(i); the tail from index 6 on increases
    i = bisect_right(terms, n - terms[0], 6, top) + 1
    if i > top:
        raise SearchLimitError(
            f"search bound exceeds cap {DEFAULT_MAX_INDEX} for a={seq.a}, "
            f"n of {n.bit_length()} bits"
        )
    return i


def _walk(a: int, n: int, found: Callable[[list[int]], bool]) -> bool:
    """Hand each code of n to found, depth first, until found returns True.

    A code goes as its chosen indices, highest first, in a list the walk
    reuses, so found must copy what it keeps. Returns whether found
    stopped the walk.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seq = gh_sequence(a)
    top = _search_bound(seq, n)
    term = [0, *seq.prefix(top)]  # term[i] is term(i)
    best = [0, 0]  # best[i]: the largest sum of a no-two-adjacent subset of 1..i
    for i in range(2, top + 1):
        best.append(max(best[i - 1], term[i] + best[i - 2]))
    chosen: list[int] = []

    def walk(i: int, t: int) -> bool:
        # chosen plus each subset of indices 1..i that sums to t
        if t == 0:
            # no nonempty subset sums to 0: one needs term(1) and a sum of
            # -a >= 2 from indices 3 up, which give 1 or more than -a
            return found(chosen)
        if i <= 0 or t < term[1] or t > best[i]:
            return False
        if walk(i - 1, t):
            return True
        chosen.append(i)
        stop = walk(i - 2, t - term[i])
        chosen.pop()
        return stop

    return walk(top, n)


def oracle_exists(a: int, n: int) -> bool:
    """Exhaustive-search existence verdict for n under parameter a."""
    return _walk(a, n, lambda chosen: True)


def all_codes(a: int, n: int) -> set[str]:
    """Every codeword whose bits sum to n, as a set of text codes."""
    codes: set[str] = set()

    def add(chosen: list[int]) -> bool:
        word = ["0"] * chosen[0]
        for i in chosen:
            word[i - 1] = "1"
        codes.add("".join(word) + "1")
        return False  # walk on to the next code

    _walk(a, n, add)
    return codes


def range_exists(a: int, n_max: int) -> int:
    """Every verdict for n in 1..n_max at once: bit n - 1 is set iff n has a code.

    From a first index j, S(i), the set of sums of no-two-adjacent
    subsets of indices j..i, obeys S(i) = S(i-1) | (S(i-2) + term(i)):
    a subset either leaves i out, or takes it and then leaves i - 1
    out. Each set is an int with bit s set for each sum s, so adding a
    term is a left shift. Sums past n_max are dropped by a mask to bit
    n_max, and a shift by more than n_max is skipped, so no int of more
    than 2 * n_max + 1 bits is built, however negative a is.

    term(1) = a is the only negative term, so the codes split in two.
    Those without index 1 sum over indices 2 up, whose terms are all
    positive, so a sum once past n_max never comes back: S starts at
    {0}, the empty subset. Those with index 1 leave 2 out and sum to
    a + T, T over indices 3 up. term(3) = 1 and term(4) = 2 - a, so T
    is 0 or 1 for the subsets of {3} and at least 2 - a otherwise. The
    first two give a sum below 1 and are not held; every other a + T is
    at least 2, and only grows. So that set starts empty, and index
    i >= 4 also adds a + term(i) plus each subset of {3} it leaves
    free: {0} for i = 4 and {0, 1} from i = 5 on. n >= 1 has a code iff
    bit n of either set is set. Indices from the search bound of n_max
    on add nothing to either: their terms exceed n_max - a.

    Like the depth-first walk, this shares only the sequence cache
    with the encoders, and it raises SearchLimitError where
    oracle_exists(a, n_max) would, before any bitset grows. It holds a
    few ints of about n_max bits. Read the result in one pass, such as
    format(bits, "b"); shifting it once per n takes time quadratic in
    n_max.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = gh_sequence(a)
    terms = seq.prefix(_search_bound(seq, n_max) - 1)
    mask = (1 << n_max + 1) - 1

    def shifted(sums: int, by: int) -> int:
        return (sums << by) & mask if by <= n_max else 0

    # without index 1, over indices 2 up; before and free are S(i - 2) and S(i - 1)
    before, free = 1, 1
    for term in terms[1:]:
        before, free = free, free | shifted(before, term)
    # with index 1, over indices 3 up, holding only the sums of 2 or more
    before, tied = 0, 0
    loose = 1  # T over the subsets of {3} that index i leaves free: {0}, then {0, 1}
    for term in terms[3:]:
        before, tied = tied, tied | shifted(before, term) | shifted(loose, term + a)
        loose = 3
    return (free | tied) >> 1
