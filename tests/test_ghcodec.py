from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from ghcodes import ghcodec
from ghcodes.bits import MalformedCodeError, normalize, to_codeword, trim_trailing_zeros, value
from ghcodes.ghcodec import (
    EncodeOutcome,
    NonPositiveValueError,
    _finish,
    _greedy_remaining,
    _leaf_codes,
    _tail_greedy,
    _tail_terms,
    decode,
    decode_many,
    encode_fast,
    encode_simple,
    exists,
    missing_runs,
    remainder_table,
)
from ghcodes.sequences import gh_sequence

params = st.integers(min_value=-20, max_value=-2)


def test_remainder_lookup_examples():
    assert remainder_table(-2).entries.get(7) == "01010"
    assert remainder_table(-5).entries.get(5) is None
    assert remainder_table(-4).entries.get(10) == "10111"
    assert remainder_table(-6).entries.get(13) is None


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
    assert _greedy_remaining(-2, 10) == ((6,), 9, 1)
    assert _greedy_remaining(-2, 7) == ((), 0, 7)
    assert _greedy_remaining(-4, 135) == ((10, 8, 6), 132, 3)


@given(a=params, n=st.integers(min_value=1, max_value=10**6))
def test_greedy_split_contract(a, n):
    picked, n1, n0 = _greedy_remaining(a, n)
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


def _outcome(call, *args):
    """call's result, or the type and message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _decode_each(a, codes):
    return [decode(a, code) for code in codes]


# every codeword: blocks "0" and "10" make every body with no pair that ends in 0
codewords = st.lists(st.sampled_from(["0", "10"]), max_size=30).map(lambda b: "".join(b) + "11")
# each broken rule, non-ASCII characters among them, and "11", below 1 for every a
bad_codes = st.sampled_from(["", "1", "0", "10", "0\u0661", "0110011", "01010", "0012011",
                             "00\u00e911", "0100111", "11", "1011"])


@given(
    a=params,
    codes=st.lists(codewords, max_size=40)
    | st.lists(codewords | bad_codes | st.text(alphabet="01", max_size=12) | st.text(max_size=6),
               max_size=40),
)
@settings(max_examples=300)
def test_decode_many_equals_decode_per_code(a, codes):
    assert _outcome(decode_many, a, codes) == _outcome(_decode_each, a, codes)


@pytest.mark.parametrize("bad", ["", "0", "1", "2", "\u00e9", "00\u00e911", "0\u066111", "0110011",
                                 "010100", "0010", "11", "1011"])
def test_decode_many_raises_what_the_first_bad_code_raises(bad):
    # the bad code alone breaks a rule, so no other code sends the batch to decode
    codes = ["0011", "10011", bad, "011"]
    expected = _outcome(_decode_each, -7, codes)
    assert isinstance(expected, tuple)  # each of these codes raises at a = -7
    assert _outcome(decode_many, -7, codes) == expected
    assert _outcome(decode_many, -7, codes + ["2", "11"]) == expected


def test_decode_many_checks_a_good_batch_without_decode(monkeypatch):
    codes = [encode_fast(-7, n).code for n in range(1000, 3000) if exists(-7, n)]
    expected = _decode_each(-7, codes)
    monkeypatch.setattr(ghcodec, "decode", None)
    assert decode_many(-7, codes) == expected
    assert decode_many(-7, []) == []


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
    if fast is not None:
        assert decode(a, fast.code) == n
        assert decode(a, simple.code) == n


def _simple_leftovers(a, n):
    """encode_simple's leftovers: every cover, ascending, zero included."""
    return [(n0, prefix, False) for n0, prefix in remainder_table(a).entries.items()]


def _fast_leftovers(a, n):
    """encode_fast's leftovers: the greedy residual's cover, else the 01010 cover alone."""
    seq = gh_sequence(a)
    entries = remainder_table(a).entries
    _, r = _greedy_per_pick(seq, n)
    if r in entries:
        return [(r, entries[r], False)]
    return [(seq.term(2) + seq.term(4), "01010", True)]


def _restart_per_leftover(a, n, leftovers):
    """An encoder as a restart per leftover: the tail greedy from the top for each n0 it tries.

    leftovers(a, n) lists (n0, cover, used_fallback) in the order the encoder tries them.
    """
    terms = _tail_terms(gh_sequence(a), n)
    for n0, prefix, fallback in leftovers(a, n):
        if n0 > n:
            break
        picked, residual = _tail_greedy(terms, n - n0)
        if residual == 0:
            raw = list(prefix) + ["0"] * (max(picked, default=5) - 5)
            for i in picked:
                raw[i - 1] = "1"
            code = to_codeword(trim_trailing_zeros(normalize("".join(raw))))
            return EncodeOutcome(code, n0, n - n0, picked, fallback)
    return None


restart_references = pytest.mark.parametrize(
    "encode, leftovers",
    [(encode_simple, _simple_leftovers), (encode_fast, _fast_leftovers)],
    ids=["simple", "fast"],
)


@restart_references
def test_encoder_equals_restart_per_leftover(encode, leftovers):
    # the resumed greedy tries the same leftovers, in the same order, with the same picks
    for a in range(-40, -1):
        for n in range(1, 3001):
            assert encode(a, n) == _restart_per_leftover(a, n, leftovers), (a, n)


@restart_references
@given(a=st.integers(min_value=-40, max_value=-2), n=st.integers(min_value=1, max_value=10**30))
@settings(max_examples=300)
def test_encoder_equals_restart_per_leftover_on_large_n(encode, leftovers, a, n):
    assert encode(a, n) == _restart_per_leftover(a, n, leftovers)


def _code(outcome):
    return outcome and outcome.code


def _walk_pairs(a, n_max, lo=1):
    """(n, code) for n in lo..n_max, read off _leaf_codes."""
    n = lo
    for first, codes in _leaf_codes(a, lo, n_max):
        assert first == n and len(codes) > 0
        yield from zip(range(first, first + len(codes)), codes)
        n += len(codes)
    assert n == n_max + 1


def test_outcome_pairs_equal_both_encoders():
    for a in range(-40, -1):
        for n, code in _walk_pairs(a, 3000):
            assert code == _code(encode_simple(a, n)) == _code(encode_fast(a, n)), (a, n)


@pytest.mark.parametrize("a", [-2, -3, -4, -5, -7, -12, -40])
def test_outcome_pairs_end_on_either_side_of_a_leaf_start(a):
    # term(l) starts a leaf, so the last n is the leaf's last, its first or its second.
    # Every walk runs to its end. Its last term(5) + term(6) + 2 codes, at least the
    # whole leaf before that start, are checked; the test above checks every code
    # up to 3000 (and CI up to 10^5)
    seq = gh_sequence(a)
    window = seq.term(5) + seq.term(6) + 2
    for l in range(6, 26):
        for n_max in (seq.term(l) - 1, seq.term(l), seq.term(l) + 1):
            last = deque(_walk_pairs(a, n_max), maxlen=window)
            assert last[-1][0] == n_max
            for n, code in last:
                assert code == _code(encode_simple(a, n)) == _code(encode_fast(a, n)), (
                    a, n_max, n)


def test_outcome_pairs_with_no_tail_pick():
    # term(6) is far above n_max, so every n is its own residual
    codes = [code for _, code in _walk_pairs(-10**30, 10)]
    assert codes == [_code(encode_simple(-10**30, n)) for n in range(1, 11)]
    assert codes == [_code(encode_fast(-10**30, n)) for n in range(1, 11)]


def test_outcome_pairs_run_the_tail_greedy_once_per_leaf(monkeypatch):
    calls = 0

    def counted(terms, target):
        nonlocal calls
        calls += 1
        return _tail_greedy(terms, target)

    monkeypatch.setattr(ghcodec, "_tail_greedy", counted)
    leaves = sum(1 for _ in _leaf_codes(-7, 1, 21085))
    # one greedy per n and one per tried leftover made 64,650 calls; the rest
    # over one per leaf are the templates' resumes, one per (lowest pick, r)
    assert 1000 < leaves < calls < 3000


def _finish_residuals(a):
    """Every r below term(6), or at large k every covered r and the ends of each gap.

    The ends are the first and last 200 r of each uncovered interval.
    """
    table = remainder_table(a)
    top = gh_sequence(a).term(6)
    if top <= 2000:
        return range(top)
    return sorted({*table.entries, *(r for lo, hi in table.gap_intervals
                                     for r in (*range(lo, lo + 200), *range(hi - 199, hi + 1)))})


def test_finish_tries_one_leftover_for_both_encoders():
    # encode_simple's docstring: of every cover above an uncovered r, only f = 01010
    # can work, so resuming from each in turn finds what resuming from f alone finds.
    # And _leaf_template's premise: only the covered r and r = f - term(5)
    # have a code, so a template lists no other residual
    for a in (*range(-60, -1), -1000, -5000, -100000, -10**30):
        entries = remainder_table(a).entries
        terms, residuals = gh_sequence(a).prefix(27), _finish_residuals(a)
        coded = {*entries, terms[1] + terms[3] - terms[4]}
        for pm in range(6, 28):
            for r in residuals:
                found = _finish(entries, terms, (pm,), r, ghcodec._fallback)
                assert _finish(entries, terms, (pm,), r, ghcodec._above) == found, (a, pm, r)
                assert found is None or r in coded, (a, pm, r)


def _same_outcome(a, n):
    fast = encode_fast(a, n)
    return encode_simple(a, n) == (fast and fast._replace(used_fallback=False))


def test_encode_simple_is_encode_fast_without_the_fallback_flag():
    for a in range(-40, -1):
        for n in range(1, 3001):
            assert _same_outcome(a, n), (a, n)


@given(a=st.integers(min_value=-40, max_value=-2), n=st.integers(min_value=1, max_value=10**30))
@settings(max_examples=300)
def test_encode_simple_is_encode_fast_without_the_fallback_flag_on_large_n(a, n):
    assert _same_outcome(a, n)


def _leaf_of(a, r, pm_is_6):
    """The first n above term(8) whose greedy leaves r, in a leaf with or without pick 6."""
    n = gh_sequence(a).term(8)
    while True:
        picks, _, residual = _greedy_remaining(a, n)
        if residual == r and (picks[-1] == 6) == pm_is_6:
            return n, picks
        n += 1


@pytest.mark.parametrize("a, r, pm_is_6", [
    *((a, r, False) for a in (-4, -5, -7, -12, -40) for r in (-a + 5, -a + 6)),
    *((a, r, True) for a in (-3, -4, -5, -7, -12, -40) for r in (3, 4)),
    (-2, 3, True),  # a = -2 covers 4 with 00010
])
def test_leaf_codes_carry_where_the_cover_meets_a_pair(a, r, pm_is_6):
    # rows k + 9 and k + 10 hold a pair of ones, and under pick 6 the tail starts
    # with 1, so the covers 10001 (r = 3) and 10101 (r = 4) meet it: these codes
    # are not cover + tail + "1", and must still equal both encoders'
    n, picks = _leaf_of(a, r, pm_is_6)
    cover = remainder_table(a).entries[r]
    assert "11" in cover + ghcodec._tail_bits(picks)
    code = next(c for m, c in _walk_pairs(a, n) if m == n)
    assert code == encode_simple(a, n).code == encode_fast(a, n).code
    assert code != cover + ghcodec._tail_bits(picks) + "1"


@pytest.mark.parametrize("a, n_max", [
    (-7, 3), (-7, 17), (-7, 100), (-40, 60), (-40, 1000), (-10**30, 10), (-2, 777),
])
@pytest.mark.parametrize("size", [1, 2, 5, 64])
def test_leaf_codes_slice_a_leaf_cut_by_n_max_at_both_ends(monkeypatch, a, n_max, size):
    # the first leaf starts at n = 1, past its r = 0, and n_max ends the last one
    # inside; slices of size n cut every longer leaf at both ends as well
    whole = list(_walk_pairs(a, n_max))
    monkeypatch.setattr(ghcodec, "_LEAF_SLICE", size)
    assert all(len(codes) <= size for _, codes in _leaf_codes(a, 1, n_max))
    assert list(_walk_pairs(a, n_max)) == whole
    assert whole == [(n, _code(encode_simple(a, n))) for n in range(1, n_max + 1)]
    assert whole == [(n, _code(encode_fast(a, n))) for n in range(1, n_max + 1)]


def _windows(a):
    """(lo, hi): inside the first leaf, from the leaf starts term(6) and term(7),
    inside a later leaf, and one n inside a leaf."""
    t = gh_sequence(a).term
    return [(3, 40), (t(6), t(6) + 40), (t(7), t(7) + 60), (t(8) + 3, t(8) + 30),
            (t(7) + 2, t(7) + 2), (1, 1)]


@pytest.mark.parametrize("a", [*range(-20, -1), -1000, -10**30])
def test_leaf_codes_from_lo_are_the_walk_from_1_cut_at_lo(monkeypatch, a):
    # slices of 5 cut the longer leaves as well; _walk_pairs checks that the
    # lists are not empty and that their first n run on from lo
    monkeypatch.setattr(ghcodec, "_LEAF_SLICE", 5)
    for lo, hi in _windows(a):
        window = list(_walk_pairs(a, hi, lo))
        assert window == [(n, _code(encode_fast(a, n))) for n in range(lo, hi + 1)], (lo, hi)
        if hi < 10**5:  # at a = -10**30 the walk from 1 to term(6) is 2 * 10**30 long
            assert window == [(n, code) for n, code in _walk_pairs(a, hi) if n >= lo], (lo, hi)


@given(a=st.integers(min_value=-40, max_value=-2), lo=st.integers(min_value=1, max_value=5000),
       size=st.integers(min_value=0, max_value=300))
@settings(max_examples=200)
def test_leaf_codes_from_lo_are_the_walk_from_1_cut_at_lo_on_random_windows(a, lo, size):
    hi = lo + size
    assert list(_walk_pairs(a, hi, lo)) == [(n, code) for n, code in _walk_pairs(a, hi) if n >= lo]


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
            r_first = _greedy_remaining(a, start)[2]
            r_last = _greedy_remaining(a, start + length - 1)[2]
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
