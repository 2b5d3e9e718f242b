import pytest
from hypothesis import example, given, settings, strategies as st

from ghcodes.bits import (
    MalformedCodeError,
    from_codeword,
    is_zeckendorf,
    normalize,
    to_codeword,
    trim_trailing_zeros,
    validate_codeword,
    value,
)
from ghcodes.sequences import fib_sequence, gh_sequence

bitstrings = st.text(alphabet="01", max_size=30)
params = st.integers(min_value=-20, max_value=-2)


def test_value_examples():
    assert value(gh_sequence(-2), "0101") == 7
    assert value(gh_sequence(-13), "") == 0
    assert value(gh_sequence(-4), "10001") == 3
    assert value(fib_sequence(), "01001") == 10


def _value_by_zip(seq, bits):
    total = 0
    for t, b in zip(seq.prefix(len(bits)), bits):
        if b == "1":
            total += t
    return total


# digits, lookalikes of "1" (superscript, Arabic-Indic, fullwidth) and a lone surrogate
lookalikes = st.text(alphabet="0122 \u00b9\u0661\uff11\u00e9\ud800", max_size=40)


@given(bits=st.text(max_size=60) | lookalikes, a=params)
@settings(max_examples=300)
def test_value_equals_zip_loop_on_any_text(bits, a):
    for seq in (fib_sequence(), gh_sequence(a)):
        assert value(seq, bits) == _value_by_zip(seq, bits)


def test_normalize_examples():
    assert normalize("011") == "0001"
    assert normalize("0101") == "0101"
    assert normalize("") == ""
    assert normalize("1000110101") == "10000000001"


def test_normalize_preserves_the_example_chain_value():
    seq = gh_sequence(-4)
    assert value(seq, "1000110101") == 135
    assert value(seq, normalize("1000110101")) == 135


@given(bits=bitstrings, a=params)
def test_normalize_preserves_value(bits, a):
    seq = gh_sequence(a)
    assert value(seq, normalize(bits)) == value(seq, bits)


@given(bits=bitstrings)
def test_normalize_preserves_value_under_fib_too(bits):
    seq = fib_sequence()
    assert value(seq, normalize(bits)) == value(seq, bits)


@given(bits=bitstrings)
def test_normalize_normal_form_idempotence_and_length(bits):
    out = normalize(bits)
    assert "11" not in out
    assert normalize(out) == out
    assert len(out) - len(bits) in (0, 1)


def test_is_zeckendorf():
    assert is_zeckendorf("0101")
    assert is_zeckendorf("1")
    assert not is_zeckendorf("011")
    assert not is_zeckendorf("0100")
    assert not is_zeckendorf("")


def test_trim_trailing_zeros():
    assert trim_trailing_zeros("01010") == "0101"
    assert trim_trailing_zeros("001") == "001"
    assert trim_trailing_zeros("000") == ""


def test_codeword_examples():
    assert to_codeword("0101") == "01011"
    assert to_codeword("1") == "11"
    assert to_codeword("10000000001") == "100000000011"
    assert from_codeword("01011") == "0101"
    assert from_codeword("11") == "1"


def test_to_codeword_rejects_non_zeckendorf():
    with pytest.raises(ValueError):
        to_codeword("011")
    with pytest.raises(ValueError):
        to_codeword("0100")
    with pytest.raises(ValueError):
        to_codeword("")


def test_from_codeword_rejects_published_wrong_code():
    with pytest.raises(MalformedCodeError) as err:
        from_codeword("10000000110011")
    assert err.value.rule == "interior adjacent ones"
    assert err.value.offset == 8


def test_validate_codeword_errors():
    for bad in ("", "1", "10", "0110", "111", "0111", "01x1"):
        with pytest.raises(MalformedCodeError):
            validate_codeword(bad)
    validate_codeword("11")
    validate_codeword("011")
    validate_codeword("0100011")


def _validate_by_loop(code):
    # the character check as one loop over code, then the structural checks
    for i, ch in enumerate(code):
        if ch not in "01":
            return f"invalid character {ch!r}", i
    if len(code) < 2:
        return "codeword shorter than the closing pair", 0
    if not code.endswith("11"):
        return "missing closing 11", len(code) - 2
    first = code.find("11")
    if first != len(code) - 2:
        return "interior adjacent ones", first
    return None


def _validate_outcome(code):
    try:
        validate_codeword(code)
    except MalformedCodeError as exc:
        return exc.rule, exc.offset
    return None


@given(code=st.text(alphabet="01x2\u00b9\u00e9", max_size=20) | st.text(max_size=20))
@example(code="0101x1y11")
@example(code="\u00e911")
@example(code="011 ")
@settings(max_examples=300)
def test_validate_codeword_rule_and_offset(code):
    assert _validate_outcome(code) == _validate_by_loop(code)


@given(bits=bitstrings)
def test_round_trip_through_normal_form(bits):
    alpha = trim_trailing_zeros(normalize(bits))
    if not alpha:
        return
    assert is_zeckendorf(alpha)
    assert from_codeword(to_codeword(alpha)) == alpha
