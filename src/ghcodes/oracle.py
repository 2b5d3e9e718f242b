"""Brute-force ground truth, kept independent of the table-and-greedy encoder.

The searcher enumerates subsets of sequence indices with no two
adjacent, exactly the space of candidate Zeckendorf representations. It
shares only the sequence cache with the encoder, so agreement between
the two is meaningful evidence rather than a tautology. Searches are
pure and independent per n; the memo they share is a cache of
subproblem verdicts, safe to reuse across calls.
"""

import json
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby

# unused here, but the benchmark tracer (perfbench/tracer.py) patches this
# name when it installs, and fails on every workload if it is missing
from ghcodes.ghcodec import exists as _codec_exists  # noqa: F401
from ghcodes.ghcodec import missing_runs
from ghcodes.sequences import gh_sequence

__all__ = [
    "DEFAULT_MAX_INDEX",
    "GapReport",
    "SearchLimitError",
    "all_codes",
    "expand_runs",
    "gap_scan",
    "oracle_exists",
]

DEFAULT_MAX_INDEX = 64


class SearchLimitError(RuntimeError):
    """The search would need more sequence indices than the configured cap."""


@dataclass(frozen=True)
class GapReport:
    """Maximal runs (start, length) of n with no code over an inclusive range."""

    a: int
    n_range: tuple[int, int]
    runs: tuple[tuple[int, int], ...]

    @cached_property
    def max_run(self) -> int:
        return max((length for _, length in self.runs), default=0)

    def csv_rows(self) -> Iterator[str]:
        """The lines of to_csv(), header first, one at a time."""
        yield "n,exists"
        yield from expand_runs(self.runs, *self.n_range, "{},true", "{},false")

    def to_csv(self) -> str:
        """Rows n,exists over the scanned range."""
        return "\n".join(self.csv_rows())

    def summary(self) -> str:
        """One JSON object with the headline numbers."""
        return json.dumps(
            {
                "a": self.a,
                "k": gh_sequence(self.a).gap_parameter,
                "n_range": self.n_range,
                "missing_count": sum(length for _, length in self.runs),
                "max_run": self.max_run,
                "runs": self.runs,
            }
        )


def expand_runs(
    runs: Iterable[tuple[int, int]], lo: int, hi: int, present: str, absent: str
) -> Iterator[str]:
    """One line per n in lo..hi, ascending, from the runs of missing n in it.

    A line is absent.format(n) for n inside a run, present.format(n)
    otherwise. The runs are read once, as they come, so a walk can feed
    them without holding them all.
    """
    n = lo
    for start, length in runs:
        yield from map(present.format, range(n, start))
        n = start + length
        yield from map(absent.format, range(start, n))
    yield from map(present.format, range(n, hi + 1))


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

    def bound(self, n: int, max_index: int, slack: int) -> int:
        """Smallest index >= 7 whose term overshoots n even with term(1) taken.

        Any subset touching that index or beyond sums past n, because
        term(1) is the only negative term a subset can contain. Raises
        SearchLimitError when that index would pass max_index, without
        growing the sequence past max(max_index, 7) terms, however big n is.
        """
        top = max(max_index, 7)
        terms = self.seq.prefix(top)
        # terms[i - 1] is term(i); the tail from index 6 on increases
        i = bisect_right(terms, n - terms[0], 6, top) + 1
        if i > top:
            raise SearchLimitError(
                f"search bound exceeds cap {max_index} for a={self.seq.a}, "
                f"n of {n.bit_length()} bits"
            )
        return i + slack

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

    def exists(self, n: int, max_index: int = DEFAULT_MAX_INDEX, slack: int = 0) -> bool:
        return self._reachable(self.bound(n, max_index, slack), n)

    def codes(self, n: int, max_index: int = DEFAULT_MAX_INDEX) -> set[str]:
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

        walk(self.bound(n, max_index, 0), n)
        return found


@lru_cache(maxsize=None)
def _searcher(a: int) -> _SubsetSearcher:
    return _SubsetSearcher(a)


def oracle_exists(
    a: int, n: int, max_index: int = DEFAULT_MAX_INDEX, slack: int = 0
) -> bool:
    """Exhaustive-search existence verdict for n under parameter a.

    slack widens the search window past the computed bound; the verdict
    must not depend on it, which the test suite checks.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _searcher(a).exists(n, max_index=max_index, slack=slack)


def all_codes(a: int, n: int, max_index: int = DEFAULT_MAX_INDEX) -> set[str]:
    """Every codeword whose bits sum to n, as a set of text codes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _searcher(a).codes(n, max_index=max_index)


def gap_scan(a: int, n_max: int, mode: str = "fast") -> GapReport:
    """Existence over 1..n_max as runs of consecutive missing values.

    The oracle mode decides each n by exhaustive search, the reference
    the fast walk over greedy residuals is tested against.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if mode == "fast":
        runs = tuple(missing_runs(a, 1, n_max))
    elif mode == "oracle":
        groups = groupby(range(1, n_max + 1), _searcher(a).exists)
        runs = tuple((ns[0], len(ns)) for ns in (list(g) for ok, g in groups if not ok))
    else:
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    return GapReport(a=a, n_range=(1, n_max), runs=runs)
