"""Second-order additive integer sequences behind the codecs.

Both families satisfy term(i) = term(i-1) + term(i-2). The Fibonacci
variant used for coding starts 1, 2. The generalized family is seeded
with a parameter a <= -2 and 1 - a, which forces term(3) = 1, keeps the
first five terms a mix of signs, and makes everything from index 6 on
positive and strictly increasing (the tail the greedy encoder works on).

Terms are exact Python ints, so there is no index cap to overflow.
A sequence starts from its two seed terms and grows on demand. Growth is
append only and lock guarded, so shared instances can be read from many
threads; treat them as immutable.
"""

import threading
from bisect import bisect_right
from functools import lru_cache

__all__ = ["CACHED_PARAMETERS", "FibSequence", "GHSequence", "fib_sequence", "gh_sequence"]

# how many values of a each per-a cache (here and in ghcodec) keeps; a
# CLI span of a or a stream header can name tens of thousands
CACHED_PARAMETERS = 64


class _AdditiveSequence:
    """Append-only cache over term(i) = term(i-1) + term(i-2), 1-indexed."""

    def __init__(self, first: int, second: int):
        self._terms = [0, first, second]  # slot 0 is a placeholder
        self._lock = threading.Lock()

    def _grow_to(self, index: int) -> None:
        with self._lock:
            terms = self._terms
            while len(terms) <= index:
                terms.append(terms[-1] + terms[-2])

    def term(self, i: int) -> int:
        """The i-th term, growing the cache as needed; indices start at 1."""
        if i < 1:
            raise ValueError(f"sequence index must be >= 1, got {i}")
        if i >= len(self._terms):
            self._grow_to(i)
        return self._terms[i]

    def prefix(self, length: int) -> list[int]:
        """Terms 1..length as a list (term i sits at position i - 1)."""
        if length < 0:
            raise ValueError(f"prefix length must be >= 0, got {length}")
        if length >= len(self._terms):
            self._grow_to(length)
        return self._terms[1 : length + 1]

    def _largest_leq(self, n: int, first: int) -> int:
        """Largest index i >= first with term(i) <= n, or first - 1 when term(first) > n.

        Grows the cache past n first; the tail increases without bound,
        so that terminates.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if self._terms[-1] <= n:
            with self._lock:
                terms = self._terms
                while terms[-1] <= n:
                    terms.append(terms[-1] + terms[-2])
        return bisect_right(self._terms, n, first, len(self._terms)) - 1


class GHSequence(_AdditiveSequence):
    """Generalized sequence a, 1-a, 1, 2-a, 3-a, 5-2a, ... for a <= -2.

    Indices 1..5 form the initial segment (mixed signs, used to cover
    small remainders); indices 6 and up form the remaining segment,
    which is positive and strictly increasing.
    """

    REMAINING_START = 6

    def __init__(self, a: int):
        if a > -2:
            raise ValueError(f"parameter a must be <= -2, got {a}")
        self.a = a
        super().__init__(a, 1 - a)

    @property
    def gap_parameter(self) -> int | None:
        """k with a = -(4 + k) when a <= -5, else None.

        k sizes the two runs of remainders the initial segment cannot
        cover, and bounds runs of consecutive non-encodable integers.
        """
        return -(self.a + 4) if self.a <= -5 else None

    def largest_remaining_leq(self, n: int) -> int | None:
        """Largest index l >= 6 with term(l) <= n, or None when term(6) > n."""
        # with fewer than 6 terms held, term(6) still exceeds n: it exceeds
        # terms 1..5, and growth stops only once the last term exceeds n
        idx = self._largest_leq(n, self.REMAINING_START)
        return idx if idx >= self.REMAINING_START else None


class FibSequence(_AdditiveSequence):
    """Fibonacci numbers as used for coding: 1, 2, 3, 5, 8, 13, ..."""

    def __init__(self):
        super().__init__(1, 2)

    def largest_leq(self, n: int) -> int:
        """Largest index i with term(i) <= n; defined for every n >= 1."""
        return self._largest_leq(n, 1)


@lru_cache(maxsize=CACHED_PARAMETERS)
def gh_sequence(a: int) -> GHSequence:
    """Shared, lazily grown instance for parameter a."""
    return GHSequence(a)


@lru_cache(maxsize=None)
def fib_sequence() -> FibSequence:
    """Shared, lazily grown Fibonacci instance."""
    return FibSequence()
