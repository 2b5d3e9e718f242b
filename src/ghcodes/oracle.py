"""Brute-force ground truth, kept independent of the table-and-greedy encoder.

Both searchers range over subsets of sequence indices with no two
adjacent, exactly the space of candidate Zeckendorf representations.
They share only the sequence cache with the encoder, so agreement
between the two is meaningful evidence rather than a tautology.

The depth-first searcher serves one n at a time (`oracle_exists`) and
lists every code of one n (`all_codes`); the memo its searches share is
a cache of subproblem verdicts, safe to reuse across calls.
`range_exists` serves a whole range: one subset-sum pass over an int
used as a bitset decides every n in 1..n_max, and holds a few
n_max-bit ints, not a memo.
"""

from bisect import bisect_right
from functools import lru_cache

# unused here, but the benchmark tracer (perfbench/tracer.py) patches this
# name when it installs, and fails on every workload if it is missing
from ghcodes.ghcodec import exists as _codec_exists  # noqa: F401
from ghcodes.sequences import CACHED_PARAMETERS, GHSequence, gh_sequence

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


class _SubsetSearcher:
    """Depth-first enumeration of no-two-adjacent index subsets."""

    def __init__(self, a: int):
        self.seq = gh_sequence(a)
        self._memo: dict[tuple[int, int], bool] = {}
        self._max_sums = [0, 0]  # best subset sum over indices 1..i

    def _max_sum(self, i: int) -> int:
        sums = self._max_sums
        while len(sums) <= i:
            j = len(sums)
            sums.append(max(sums[j - 1], self.seq.term(j) + sums[j - 2]))
        return sums[i]

    def _reachable(self, i: int, t: int) -> bool:
        # can some no-two-adjacent subset of {1..i} sum to t?
        if t == 0:
            return True
        if i <= 0:
            return False
        if i == 1:
            return t == self.seq.term(1)
        if t < self.seq.term(1) or t > self._max_sum(i):
            return False
        key = (i, t)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._reachable(i - 1, t) or self._reachable(i - 2, t - self.seq.term(i))
            self._memo[key] = hit
        return hit

    def exists(self, n: int) -> bool:
        return self._reachable(_search_bound(self.seq, n), n)

    def codes(self, n: int) -> set[str]:
        found: set[str] = set()
        chosen: list[int] = []
        term = self.seq.term
        lowest = term(1)

        def walk(i: int, t: int) -> None:
            if i <= 0:
                if t == 0 and chosen:
                    word = ["0"] * chosen[0]
                    for j in chosen:
                        word[j - 1] = "1"
                    found.add("".join(word) + "1")
                return
            if t < lowest or t > self._max_sum(i):
                return
            walk(i - 1, t)
            chosen.append(i)
            walk(i - 2, t - term(i))
            chosen.pop()

        walk(_search_bound(self.seq, n), n)
        return found


@lru_cache(maxsize=CACHED_PARAMETERS)
def _searcher(a: int) -> _SubsetSearcher:
    return _SubsetSearcher(a)


def oracle_exists(a: int, n: int) -> bool:
    """Exhaustive-search existence verdict for n under parameter a."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _searcher(a).exists(n)


def all_codes(a: int, n: int) -> set[str]:
    """Every codeword whose bits sum to n, as a set of text codes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _searcher(a).codes(n)


def range_exists(a: int, n_max: int) -> int:
    """Every verdict for n in 1..n_max at once: bit n - 1 is set iff n has a code.

    S(i), the set of sums of no-two-adjacent subsets of indices 1..i,
    obeys S(i) = S(i-1) | (S(i-2) + term(i)): a subset either leaves i
    out, or takes it and then leaves i - 1 out. S(-1) = S(0) = {0}, the
    empty subset, so S(1) = {0, a}. term(1) = a is the only negative
    term, so every sum is at least a; held as an int with bit s - a set
    for each sum s, S(0) is 1 << -a and S(1) is S(0) | 1, and from then
    on every term is a left shift. Sums past n_max are dropped by a mask
    to bit n_max - a, since terms are never negative past index 1 and
    so no subset comes back below n_max once past it. For the same
    reason, indices from the search bound of n_max on add nothing: their
    terms exceed n_max - a. n >= 1 has a code iff bit n - a of the last
    S is set, the nonempty subsets summing to n being exactly its codes.

    Like the depth-first searcher, this shares only the sequence cache
    with the encoders, and it raises SearchLimitError where
    oracle_exists(a, n_max) would, before any bitset grows. It holds a
    few ints of n_max - a bits. Read the result in one pass, such as
    format(bits, "b"); shifting it once per n takes time quadratic in
    n_max.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    seq = gh_sequence(a)
    terms = seq.prefix(_search_bound(seq, n_max) - 1)
    mask = (1 << (n_max - a + 1)) - 1
    before, sums = 1 << -a, (1 << -a) | 1
    for term in terms[1:]:
        before, sums = sums, (sums | (before << term)) & mask
    return sums >> (1 - a)
