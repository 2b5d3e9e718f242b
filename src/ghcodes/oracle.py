"""Brute-force ground truth, kept independent of the table-and-greedy encoder.

The searcher enumerates subsets of sequence indices with no two
adjacent, exactly the space of candidate Zeckendorf representations. It
shares only the sequence cache with the encoder, so agreement between
the two is meaningful evidence rather than a tautology. Searches are
pure and independent per n; the memo they share is a cache of
subproblem verdicts, safe to reuse across calls.
"""

from bisect import bisect_right
from functools import lru_cache

# unused here, but the benchmark tracer (perfbench/tracer.py) patches this
# name when it installs, and fails on every workload if it is missing
from ghcodes.ghcodec import exists as _codec_exists  # noqa: F401
from ghcodes.sequences import CACHED_PARAMETERS, gh_sequence

__all__ = ["DEFAULT_MAX_INDEX", "SearchLimitError", "all_codes", "oracle_exists"]

# the highest sequence index a search may touch; read at call time
DEFAULT_MAX_INDEX = 64


class SearchLimitError(RuntimeError):
    """The search would need more sequence indices than DEFAULT_MAX_INDEX."""


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

    def bound(self, n: int) -> int:
        """Smallest index >= 7 whose term overshoots n even with term(1) taken.

        Any subset touching that index or beyond sums past n, because
        term(1) is the only negative term a subset can contain. Raises
        SearchLimitError when that index would pass DEFAULT_MAX_INDEX,
        without growing the sequence past max(DEFAULT_MAX_INDEX, 7)
        terms, however big n is.
        """
        top = max(DEFAULT_MAX_INDEX, 7)
        terms = self.seq.prefix(top)
        # terms[i - 1] is term(i); the tail from index 6 on increases
        i = bisect_right(terms, n - terms[0], 6, top) + 1
        if i > top:
            raise SearchLimitError(
                f"search bound exceeds cap {DEFAULT_MAX_INDEX} for a={self.seq.a}, "
                f"n of {n.bit_length()} bits"
            )
        return i

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
        return self._reachable(self.bound(n), n)

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

        walk(self.bound(n), n)
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

