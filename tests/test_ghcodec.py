import pytest
from hypothesis import given, settings, strategies as st

from ghcodes.bits import MalformedCodeError, value
from ghcodes.ghcodec import (
    NonPositiveValueError,
    _tail_greedy,
    _tail_terms,
    decode,
    encode_fast,
    encode_simple,
    exists,
    greedy_remaining,
    missing_runs,
    remainder_lookup,
    remainder_table,
)
from ghcodes.sequences import gh_sequence

params = st.integers(min_value=-20, max_value=-2)


def test_remainder_lookup_examples():
    assert remainder_lookup(-2, 7) == "01010"
    assert remainder_lookup(-5, 5) is None
    assert remainder_lookup(-4, 10) == "10111"
    assert remainder_lookup(-6, 13) is None


def test_remainder_lookup_bounds():
    with pytest.raises(ValueError):
        remainder_lookup(-2, -1)
    with pytest.raises(ValueError):
        remainder_lookup(-2, 9)  # term(6) is 9 for a=-2


def test_remainder_rows_evaluate_to_their_key():
    for a in range(-20, -1):
        seq = gh_sequence(a)
        for r, bits in remainder_table(a).entries.items():
            assert len(bits) == 5
            assert value(seq, bits) == r


def test_remainder_table_shape():
    for a in (-2, -3, -4):
        table = remainder_table(a)
        assert sorted(table.entries) == list(range(gh_sequence(a).term(6)))
        assert table.gap_intervals == ()
    for k in (1, 2, 7, 16):
        table = remainder_table(-(4 + k))
        assert len(table.entries) == 13
        assert table.entries[k + 5] == "01000"
        assert table.entries[2 * k + 11] == "01010"
        assert table.gap_intervals == ((5, k + 4), (k + 11, 2 * k + 10))


def test_gap_intervals_match_exhaustive_five_bit_search():
    for a in range(-20, -1):
        seq = gh_sequence(a)
        terms = seq.prefix(5)
        bound = seq.term(6)
        reachable = set()
        for mask in range(32):
            s = sum(t for j, t in enumerate(terms) if mask >> j & 1)
            if 0 <= s < bound:
                reachable.add(s)
        table = remainder_table(a)
        assert reachable == set(table.entries)
        for lo, hi in table.gap_intervals:
            assert all(r not in reachable for r in range(lo, hi + 1))


def test_greedy_examples():
    assert greedy_remaining(-2, 10) == ((6,), 9, 1)
    assert greedy_remaining(-2, 7) == ((), 0, 7)
    assert greedy_remaining(-4, 135) == ((10, 8, 6), 132, 3)


@given(a=params, n=st.integers(min_value=1, max_value=10**6))
def test_greedy_split_contract(a, n):
    picked, n1, n0 = greedy_remaining(a, n)
    seq = gh_sequence(a)
    assert n0 + n1 == n
    assert 0 <= n0 < seq.term(6)
    assert n1 == sum(seq.term(i) for i in picked)
    assert list(picked) == sorted(picked, reverse=True)
    taken = set(picked)
    assert all(i + 1 not in taken for i in taken)
    assert all(i >= 6 for i in picked)


def _greedy_per_pick(seq, target):
    # one sequence lookup per pick: the reference the term-list greedy must match
    picked = []
    while target >= seq.term(6):
        i = seq.largest_remaining_leq(target)
        picked.append(i)
        target -= seq.term(i)
    return tuple(picked), target


@given(
    a=st.integers(min_value=-300, max_value=-2),
    target=st.integers(min_value=0, max_value=10**40),
    extra=st.integers(min_value=0, max_value=10**40),
)
@settings(max_examples=300)
def test_tail_greedy_equals_per_pick_greedy(a, target, extra):
    # the list may be fetched for any n >= target, as the fallback attempt does
    seq = gh_sequence(a)
    for n in (max(target, 1), target + extra + 1):
        assert _tail_greedy(_tail_terms(seq, n), target) == _greedy_per_pick(seq, target)


def test_tail_greedy_equals_per_pick_greedy_on_every_small_target():
    for a in (-2, -7, -1000):
        seq = gh_sequence(a)
        last = seq.term(12)
        whole = _tail_terms(seq, last)
        for target in range(last + 1):
            expected = _greedy_per_pick(seq, target)
            assert _tail_greedy(_tail_terms(seq, max(target, 1)), target) == expected
            assert _tail_greedy(whole, target) == expected


def test_remainder_table_keys_ascend():
    # encode_simple stops at the first key above n, so the order is load-bearing
    for a in [*range(-40, -1), -1000, -32768]:
        keys = list(remainder_table(a).entries)
        assert all(x < y for x, y in zip(keys, keys[1:])), a


def test_encode_simple_examples():
    assert encode_simple(-2, 7).code == "01011"
    assert encode_simple(-5, 12) is None
    out = encode_simple(-4, 135)
    assert out.code == "100000000011"
    assert (out.n0, out.n1, out.picked_indices) == (3, 132, (10, 8, 6))
    assert not out.used_fallback


def test_encode_fast_examples():
    out = encode_fast(-2, 7)
    assert out.code == "01011" and not out.used_fallback
    assert encode_fast(-5, 20) is None
    out = encode_fast(-6, 649)
    assert out.code == "10000000001011"
    assert out.picked_indices == (13, 10, 8, 6)


def test_fallback_branch():
    out = encode_fast(-5, 28)
    assert out is not None and out.used_fallback
    assert out.n0 == 13 and out.n1 == 15
    assert decode(-5, out.code) == 28


def test_exists_examples():
    assert exists(-3, 57)
    assert not exists(-5, 5)
    assert exists(-5, 13)
    assert encode_fast(-5, 13).code == "01011"


def test_encode_rejects_bad_arguments():
    with pytest.raises(ValueError):
        encode_fast(-2, 0)
    with pytest.raises(ValueError):
        encode_simple(-2, -5)
    with pytest.raises(ValueError):
        encode_fast(-1, 3)


def test_decode_examples():
    assert decode(-2, "1000011") == 7
    with pytest.raises(NonPositiveValueError):
        decode(-2, "11")
    with pytest.raises(MalformedCodeError):
        decode(-4, "10000000111")


def test_outcome_split_invariant():
    for a, n in [(-2, 7), (-4, 135), (-6, 649), (-7, 500), (-20, 99)]:
        out = encode_fast(a, n)
        if out is None:
            continue
        assert out.n0 + out.n1 == n
        assert decode(a, out.code) == n


@given(a=params, n=st.integers(min_value=1, max_value=5000))
@settings(max_examples=300)
def test_round_trip_and_algorithm_agreement(a, n):
    fast = encode_fast(a, n)
    simple = encode_simple(a, n)
    assert (fast is None) == (simple is None)
    if fast is not None:
        assert decode(a, fast.code) == n
        assert decode(a, simple.code) == n


def test_algorithm_code_divergences_are_flagged():
    # the two encoders may legitimately emit different codes for the same n
    # as long as both decode back to n; print any divergence for review
    # (none are expected: the greedy tail sum is the largest reachable, so
    # its leftover is the smallest workable n0, which ascending search hits
    # first)
    diffs = []
    for a in (-2, -5, -9, -16):
        for n in range(1, 800):
            simple = encode_simple(a, n)
            fast = encode_fast(a, n)
            assert (simple is None) == (fast is None)
            if simple is not None and simple.code != fast.code:
                assert decode(a, simple.code) == n == decode(a, fast.code)
                diffs.append((a, n, simple.code, fast.code))
    if diffs:
        print(f"note: encoder code divergences to review: {diffs[:10]}")


def test_universality_spot_checks():
    for a in (-2, -3, -4):
        for n in list(range(1, 300)) + [999, 5555, 99991]:
            out = encode_fast(a, n)
            assert out is not None
            assert decode(a, out.code) == n


def test_emitted_codes_are_prefix_free():
    codes = sorted(
        encode_fast(-7, n).code for n in range(1, 1500) if exists(-7, n)
    )
    for prev, cur in zip(codes, codes[1:]):
        assert not cur.startswith(prev)


def _missing_by_exists(a, lo, hi):
    return tuple(n for n in range(lo, hi + 1) if not exists(a, n))


def _expand(runs):
    return tuple(n for start, length in runs for n in range(start, start + length))


def test_missing_upto_equals_per_n_exists():
    for a in [*range(-40, -1), -100, -1000]:
        below_tail = gh_sequence(a).term(6) - 1
        for n_max in (1, 2, below_tail, below_tail + 1, 3000):
            got = _expand(missing_runs(a, 1, n_max))
            assert got == _missing_by_exists(a, 1, n_max), (a, n_max)


@given(a=st.integers(min_value=-300, max_value=-2), n_max=st.integers(min_value=1, max_value=4000))
@settings(max_examples=60, deadline=None)
def test_missing_upto_property(a, n_max):
    assert _expand(missing_runs(a, 1, n_max)) == _missing_by_exists(a, 1, n_max)


@given(
    a=st.integers(min_value=-300, max_value=-2),
    x=st.integers(min_value=1, max_value=5000),
    y=st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=100, deadline=None)
def test_missing_runs_on_any_window_equals_per_n_exists(a, x, y):
    lo, hi = sorted((x, y))
    runs = list(missing_runs(a, lo, hi))
    assert _expand(runs) == _missing_by_exists(a, lo, hi)
    for (s1, l1), (s2, _) in zip(runs, runs[1:]):
        assert s1 + l1 < s2  # maximal: a present n separates consecutive runs


def test_missing_runs_far_from_zero():
    lo = 10**30
    for a in (-5, -7, -12, -300, -1000):
        for hi in (lo, lo + 1, lo + 3000):
            assert _expand(missing_runs(a, lo, hi)) == _missing_by_exists(a, lo, hi), (a, hi)


def test_every_run_is_one_gap_interval_of_its_leaf():
    # the k-bound for every n: a run is a gap interval of the residuals of
    # one leaf, whole or less its last n, so it is never longer than k
    for a in [*range(-40, -4), -1000]:
        k = -(a + 4)
        intervals = remainder_table(a).gap_intervals
        hi = gh_sequence(a).term(16)
        runs = list(missing_runs(a, 1, hi))
        for start, length in runs:
            r_first = greedy_remaining(a, start)[2]
            r_last = greedy_remaining(a, start + length - 1)[2]
            assert r_last - r_first == length - 1, (a, start)  # one leaf
            lo_gap, hi_gap = next(g for g in intervals if g[0] <= r_first <= g[1])
            assert r_first == lo_gap and hi_gap - 1 <= r_last <= hi_gap, (a, start)
        assert max(length for _, length in runs) == k
        for n_max in (k + 4, k + 5, 10 * k + 50):
            assert max(length for _, length in missing_runs(a, 1, n_max)) == k, (a, n_max)
    for a in (-2, -3, -4):
        assert list(missing_runs(a, 1, 10**6)) == []


def test_missing_upto_rejects_bad_arguments():
    # a generator checks its arguments when iteration starts
    for lo, hi in ((1, 0), (0, 10), (-3, 5), (7, 6)):
        with pytest.raises(ValueError):
            next(missing_runs(-5, lo, hi))
    with pytest.raises(ValueError):
        next(missing_runs(-1, 1, 10))
