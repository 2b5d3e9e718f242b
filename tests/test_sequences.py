import threading

import pytest

from ghcodes.sequences import FibSequence, GHSequence, fib_sequence, gh_sequence


def test_seed_terms():
    assert GHSequence(-2).prefix(6) == [-2, 3, 1, 4, 5, 9]
    assert GHSequence(-3).prefix(6) == [-3, 4, 1, 5, 6, 11]
    assert GHSequence(-4).prefix(6) == [-4, 5, 1, 6, 7, 13]


def test_term_examples():
    assert gh_sequence(-2).term(1) == -2
    assert gh_sequence(-6).term(3) == 1
    assert gh_sequence(-4).term(6) == 13


def test_third_term_is_one_for_every_a():
    for a in range(-20, -1):
        assert gh_sequence(a).term(3) == 1


def test_recurrence_positivity_and_growth():
    for a in (-2, -5, -13, -20):
        terms = gh_sequence(a).prefix(60)
        for i in range(2, 60):
            assert terms[i] == terms[i - 1] + terms[i - 2]
        # remaining segment (index 6 on) is positive and strictly increasing
        for i in range(5, 59):
            assert terms[i] > 0
            assert terms[i + 1] > terms[i]


def test_sixth_term_values():
    assert [gh_sequence(a).term(6) for a in (-2, -3, -4)] == [9, 11, 13]
    for k in range(1, 17):
        assert gh_sequence(-(4 + k)).term(6) == 2 * k + 13


def test_gap_parameter():
    assert gh_sequence(-2).gap_parameter is None
    assert gh_sequence(-4).gap_parameter is None
    assert gh_sequence(-5).gap_parameter == 1
    assert gh_sequence(-20).gap_parameter == 16


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        GHSequence(-1)
    with pytest.raises(ValueError):
        GHSequence(0)
    with pytest.raises(ValueError):
        gh_sequence(-2).term(0)
    with pytest.raises(ValueError):
        gh_sequence(-2).term(-3)
    with pytest.raises(ValueError):
        gh_sequence(-2).largest_remaining_leq(0)
    with pytest.raises(ValueError, match="prefix length must be >= 0, got -1"):
        fib_sequence().prefix(-1)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        fib_sequence().largest_leq(0)


def test_largest_remaining_leq():
    assert gh_sequence(-2).largest_remaining_leq(10) == 6
    assert gh_sequence(-2).largest_remaining_leq(8) is None
    assert gh_sequence(-5).largest_remaining_leq(15) == 6
    assert gh_sequence(-2).largest_remaining_leq(14) == 7
    assert gh_sequence(-2).largest_remaining_leq(13) == 6


def test_partial_sum_identity():
    for a in range(-20, -1):
        seq = gh_sequence(a)
        for r in range(2, 41):
            assert sum(seq.term(i) for i in range(2, r + 1)) == seq.term(r + 2) - 1


def test_segment_boundary():
    for a in range(-20, -1):
        seq = gh_sequence(a)
        assert seq.term(6) == seq.term(4) + seq.term(5)


def test_tail_growth_ratio():
    for a in range(-20, -1):
        seq = gh_sequence(a)
        for i in range(8, 40):
            assert seq.term(i + 1) / seq.term(i) >= 1.5


def test_fib_terms():
    seq = fib_sequence()
    assert seq.prefix(7) == [1, 2, 3, 5, 8, 13, 21]
    assert seq.largest_leq(1) == 1
    assert seq.largest_leq(2) == 2
    assert seq.largest_leq(12) == 5
    assert seq.largest_leq(13) == 6


def test_concurrent_growth_stays_consistent():
    seq = GHSequence(-7)
    errors = []

    def hammer():
        try:
            for i in range(1, 400):
                seq.term(i)
        except Exception as exc:  # pragma: no cover - only on a race
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    terms = seq.prefix(400)
    assert all(terms[i] == terms[i - 1] + terms[i - 2] for i in range(2, 400))


def test_fresh_sequence_answers_equal_the_grown_shared_one():
    # a fresh sequence holds only its two seed terms
    for a in (-2, -3, -7, -1000):
        shared = gh_sequence(a)
        shared.term(40)
        for i in range(1, 13):
            assert GHSequence(a).term(i) == shared.term(i)
            assert GHSequence(a).prefix(i) == shared.prefix(i)
        for n in range(1, shared.term(12) + 1):
            assert GHSequence(a).largest_remaining_leq(n) == shared.largest_remaining_leq(n)
    shared = fib_sequence()
    shared.term(40)
    for i in range(1, 13):
        assert FibSequence().term(i) == shared.term(i)
        assert FibSequence().prefix(i) == shared.prefix(i)
    for n in range(1, shared.term(12) + 1):
        assert FibSequence().largest_leq(n) == shared.largest_leq(n)
