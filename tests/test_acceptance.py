"""End-to-end acceptance checks, one verdict line per criterion.

Run `pytest -s tests/test_acceptance.py` to see the [PASS]/[FAIL] lines;
a plain `pytest` run still enforces every criterion.
"""

import random

from ghcodes.bits import MalformedCodeError, normalize, value
from ghcodes.fibcodec import fib_encode
from ghcodes.ghcodec import (
    _greedy_remaining,
    decode,
    encode_fast,
    encode_simple,
    exists,
    missing_runs,
    remainder_table,
)
from ghcodes.oracle import all_codes, oracle_exists
from ghcodes.sequences import gh_sequence
from ghcodes.stream import resync_decode, stream_decode, stream_encode


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, f"{name}: {detail or 'criterion failed'}"


FIB_GOLDEN = {
    1: "11", 2: "011", 3: "0011", 4: "1011", 5: "00011",
    6: "10011", 7: "01011", 8: "000011", 9: "100011", 10: "010011",
    11: "001011", 12: "101011", 13: "0000011", 14: "1000011", 15: "0100011",
}

GOLDEN_A2 = {
    0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "00010",
    5: "00001", 6: "00101", 7: "01010", 8: "01001",
}
GOLDEN_A3 = {
    0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "10101",
    5: "00010", 6: "00001", 7: "00101", 8: "10011", 9: "01010",
    10: "01001",
}
GOLDEN_A4 = {
    0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "10101",
    5: "01000", 6: "00010", 7: "00001", 8: "00101", 9: "10011",
    10: "10111", 11: "01010", 12: "01001",
}


def test_c01_fibonacci_golden_table():
    bad = [n for n, code in FIB_GOLDEN.items() if fib_encode(n) != code]
    _verdict("01 fibonacci codes match the golden 15-row table", not bad,
             f"mismatches at {bad}")


def test_c02_remainder_tables():
    ok, detail = True, ""
    for a, golden in ((-2, GOLDEN_A2), (-3, GOLDEN_A3), (-4, GOLDEN_A4)):
        for r in range(gh_sequence(a).term(6)):
            if remainder_table(a).entries.get(r) != golden[r]:
                ok, detail = False, f"a={a} r={r}"
    for k in range(1, 17):
        a = -(4 + k)
        seq = gh_sequence(a)
        table = remainder_table(a)
        expected = {
            0: "00000", 1: "00100", 2: "10010", 3: "10001", 4: "10101",
            k + 5: "01000", k + 6: "00010", k + 7: "00001", k + 8: "00101",
            k + 9: "10011", k + 10: "10111",
            2 * k + 11: "01010", 2 * k + 12: "01001",
        }
        if dict(table.entries) != expected:
            ok, detail = False, f"rows for k={k}"
        if table.gap_intervals != ((5, k + 4), (k + 11, 2 * k + 10)):
            ok, detail = False, f"gap intervals for k={k}"
        # exhaustive 5-bit search over the initial segment
        terms = seq.prefix(5)
        reachable = set()
        for mask in range(32):
            s = sum(t for j, t in enumerate(terms) if mask >> j & 1)
            if 0 <= s < seq.term(6):
                reachable.add(s)
        if reachable != set(expected):
            ok, detail = False, f"reachable set for k={k}"
        gap_values = {r for lo, hi in table.gap_intervals for r in range(lo, hi + 1)}
        if sorted(reachable | gap_values) != list(range(seq.term(6))):
            ok, detail = False, f"cover+gaps do not tile [0, term(6)) for k={k}"
    _verdict("02 remainder tables verbatim + parametric rows and gaps", ok, detail)


def test_c03_universality():
    ok, detail = True, ""
    for a in (-2, -3, -4):
        for n in range(1, 100_001):
            out = encode_fast(a, n)
            if out is None:
                ok, detail = False, f"a={a} n={n} has no code"
                break
            code = out.code
            if not code.endswith("11") or code.find("11") != len(code) - 2:
                ok, detail = False, f"a={a} n={n} structure broken: {code}"
                break
            if decode(a, code) != n:
                ok, detail = False, f"a={a} n={n} round trip broken"
                break
        if not ok:
            break
    _verdict("03 universality for a in {-2,-3,-4}, n up to 100000", ok, detail)
    # every n: the tail greedy stops only with a residual below term(6), and
    # for these a the five-bit table covers every residual below term(6)
    for a in (-2, -3, -4):
        bound = gh_sequence(a).term(6)
        table = remainder_table(a)
        if sorted(table.entries) != list(range(bound)) or table.gap_intervals:
            ok, detail = False, f"a={a} table misses a residual below {bound}"
        for n in (1, bound - 1, bound, 10**6, 10**30 + 7, 3**500):
            if _greedy_remaining(a, n)[2] >= bound:
                ok, detail = False, f"a={a} n={n} greedy residual not below {bound}"
    _verdict("03 universality for every n: table total on [0, term(6))", ok, detail)


def test_c04_nonexistence_and_nonuniqueness():
    ok = (
        not exists(-5, 5)
        and not exists(-5, 12)
        and all_codes(-2, 7) == {"01011", "1000011"}
    )
    _verdict("04 known non-existence at a=-5 and the two codes for 7", ok)


def test_c05_consecutive_gap_bound():
    ok, detail = True, ""
    for k in range(1, 17):
        max_run = max((length for _, length in missing_runs(-(4 + k), 1, 10_000)), default=0)
        if max_run > k:
            ok, detail = False, f"k={k} max_run={max_run}"
    for a in range(-20, -1):
        bound = gh_sequence(a).gap_parameter or 0
        max_run = max((length for _, length in missing_runs(a, 1, 100)), default=0)
        if max_run > bound:
            ok, detail = False, f"window a={a} max_run={max_run}"
    _verdict("05 at most k consecutive non-encodable integers", ok, detail)


def test_c06_oracle_equivalence():
    ok, detail = True, ""
    for a in range(-20, -1):
        for n in range(1, 2001):
            simple = encode_simple(a, n)
            fast = encode_fast(a, n)
            ground = oracle_exists(a, n)
            have = fast is not None
            if (simple is not None) != have or ground != have:
                ok, detail = False, (
                    f"a={a} n={n}: simple={simple is not None} "
                    f"fast={have} oracle={ground}"
                )
                break
            if have and (decode(a, fast.code) != n or decode(a, simple.code) != n):
                ok, detail = False, f"a={a} n={n} decode mismatch"
                break
        if not ok:
            break
    _verdict("06 oracle equals both encoders on a in [-20,-2], n in [1,2000]", ok, detail)


def test_c07_errata_regression():
    ok, detail = True, ""
    for a, wrong in ((-4, "10000000111"), (-6, "10000000110011")):
        try:
            decode(a, wrong)
            ok, detail = False, f"decode({a}, {wrong}) did not fail"
        except MalformedCodeError:
            pass
    for a, n, expected in ((-4, 135, "100000000011"), (-6, 649, "10000000001011")):
        out = encode_fast(a, n)
        if out is None or out.code != expected:
            ok, detail = False, f"encode_fast({a}, {n}) != {expected}"
        elif decode(a, out.code) != n:
            ok, detail = False, f"decode check failed for ({a}, {n})"
        elif out.code not in all_codes(a, n):
            ok, detail = False, f"oracle does not list the code for ({a}, {n})"
    _verdict("07 errata regressions for n=135 (a=-4) and n=649 (a=-6)", ok, detail)


def test_c08_partial_sum_identity():
    ok = all(
        sum(gh_sequence(a).term(i) for i in range(2, r + 1))
        == gh_sequence(a).term(r + 2) - 1
        for a in range(-20, -1)
        for r in range(2, 41)
    )
    _verdict("08 partial sums: term(2..r) total is term(r+2) - 1", ok)


def test_c09_stream_round_trip_and_resync():
    ok, detail = True, ""
    rng = random.Random(20260809)
    fib_values = [rng.randint(1, 10**6) for _ in range(10_000)]
    gh2_values = [rng.randint(1, 10**6) for _ in range(10_000)]
    gh7_values = []
    while len(gh7_values) < 10_000:
        n = rng.randint(1, 10**6)
        if exists(-7, n):
            gh7_values.append(n)
    for codec, a, values in (
        ("fib", 0, fib_values),
        ("gh", -2, gh2_values),
        ("gh", -7, gh7_values),
    ):
        blob = stream_encode(codec, a, values)
        if list(stream_decode(blob)) != values:
            ok, detail = False, f"round trip failed for {codec} a={a}"
        if stream_encode(codec, a, values) != blob:
            ok, detail = False, f"bytes not reproducible for {codec} a={a}"
    if ok:
        values = [rng.randint(1, 500) for _ in range(100)]
        blob = stream_encode("gh", -2, values)
        spans = []
        pos = 0
        for v in values:
            width = len(encode_fast(-2, v).code)
            spans.append((pos, pos + width))
            pos += width
        for _ in range(1000):
            p = rng.randrange(pos)
            frame = next(i for i, (lo, hi) in enumerate(spans) if lo <= p < hi)
            corrupted = bytearray(blob)
            corrupted[24 + p // 8] ^= 0x80 >> (p % 8)
            tokens = resync_decode(bytes(corrupted))
            got = [t.value if t.kind == "value" else None for t in tokens]
            if got[:frame] != values[:frame]:
                ok, detail = False, f"prefix lost for flip at bit {p}"
                break
            tail = len(values) - (frame + 2)
            if tail > 0 and got[-tail:] != values[frame + 2 :]:
                ok, detail = False, f"suffix lost for flip at bit {p}"
                break
    _verdict("09 stream round trips byte-exact and resynchronizes", ok, detail)


def test_c10_property_suite():
    ok, detail = True, ""
    rng = random.Random(1234)
    for _ in range(10_000):
        bits = "".join(rng.choice("01") for _ in range(rng.randint(0, 30)))
        a = rng.randint(-20, -2)
        seq = gh_sequence(a)
        out = normalize(bits)
        if value(seq, out) != value(seq, bits):
            ok, detail = False, f"value changed for {bits!r} a={a}"
            break
        if "11" in out or normalize(out) != out:
            ok, detail = False, f"not normal for {bits!r}"
            break
        if len(out) - len(bits) not in (0, 1):
            ok, detail = False, f"length jumped for {bits!r}"
            break
    if ok:
        codes = sorted(encode_fast(-7, n).code for n in range(1, 2001) if exists(-7, n))
        for prev, cur in zip(codes, codes[1:]):
            if cur.startswith(prev):
                ok, detail = False, f"{prev} is a prefix of {cur}"
                break
    if ok:
        for _ in range(2000):
            a = rng.randint(-20, -2)
            n = rng.randint(1, 10**5)
            picked, _, _ = _greedy_remaining(a, n)
            taken = set(picked)
            if any(i + 1 in taken for i in taken):
                ok, detail = False, f"adjacent picks for a={a} n={n}"
                break
    _verdict("10 properties: normalize, prefix-freeness, greedy spacing", ok, detail)
