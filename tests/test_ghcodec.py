import pytest
from hypothesis import given, settings, strategies as st

from ghcodes.bits import MalformedCodeError, value
from ghcodes.ghcodec import (
    NonPositiveValueError,
    decode,
    encode_fast,
    encode_simple,
    exists,
    greedy_remaining,
    missing_upto,
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
        assert table.representable_set == frozenset(table.entries)


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


def _missing_by_exists(a, n_max):
    return tuple(n for n in range(1, n_max + 1) if not exists(a, n))


def test_missing_upto_equals_per_n_exists():
    for a in [*range(-40, -1), -100, -1000]:
        below_tail = gh_sequence(a).term(6) - 1
        for n_max in (1, 2, below_tail, below_tail + 1, 3000):
            assert missing_upto(a, n_max) == _missing_by_exists(a, n_max), (a, n_max)


@given(a=st.integers(min_value=-300, max_value=-2), n_max=st.integers(min_value=1, max_value=4000))
@settings(max_examples=60, deadline=None)
def test_missing_upto_property(a, n_max):
    assert missing_upto(a, n_max) == _missing_by_exists(a, n_max)


def test_missing_upto_rejects_bad_arguments():
    with pytest.raises(ValueError):
        missing_upto(-5, 0)
    with pytest.raises(ValueError):
        missing_upto(-1, 10)
