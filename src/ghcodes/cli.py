"""Command line front end.

Subcommands: encode, decode, exists, table, gaps, bench, verify,
stream-pack, stream-unpack. Exit status: 0 success, 1 no code exists or
verification failed, 2 usage or malformed input, 3 gap bound violation.
"""

import argparse
import math
import random
import sys
import time
from dataclasses import dataclass

from ghcodes.fibcodec import fib_decode, fib_encode
from ghcodes.ghcodec import decode, encode_fast, encode_simple, missing_runs
from ghcodes.oracle import expand_runs, gap_scan, oracle_exists
from ghcodes.sequences import gh_sequence
from ghcodes.stream import (
    UnencodableValueError,
    resync_decode,
    stream_decode,
    stream_encode,
)

DEFAULT_SEED = 12345
# a scan holds every run it finds, and for small k those grow with --max-n:
# about 145 MiB peak RSS at a=-5 and this cap, 18 MiB at a=-1000
_MAX_SCAN_N = 10**7
# bench draws every value into one list before it encodes any
_MAX_BENCH_COUNT = 10**7


def _merge_negative_values(argv: list[str]) -> list[str]:
    # "--a -20:-2" would otherwise be read as flag + unknown option;
    # fold such values into the "--a=-20:-2" form argparse accepts
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--a", "--n") and i + 1 < len(argv):
            nxt = argv[i + 1]
            if len(nxt) > 1 and nxt[0] == "-" and nxt[1].isdigit():
                merged.append(f"{tok}={nxt}")
                i += 2
                continue
        merged.append(tok)
        i += 1
    return merged


def _parse_span(spec: str, what: str) -> tuple[int, int]:
    parts = spec.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"{what} must be an integer or an inclusive lo:hi range, got {spec!r}"
        ) from None
    if lo > hi:
        raise ValueError(f"{what} range must have lo <= hi, got {spec!r}")
    return lo, hi


def _parse_a_span(spec: str) -> tuple[int, int]:
    lo, hi = _parse_span(spec, "--a")
    gh_sequence(hi)  # validates a <= -2 for the whole span
    return lo, hi


def _require_a(args) -> int:
    if args.a is None:
        raise ValueError("--a is required for the gh code")
    gh_sequence(args.a)  # validates a <= -2
    return args.a


def _require_no_a(args) -> None:
    if args.a is not None:
        raise ValueError("--a only applies to the gh code")


def _cmd_encode(args) -> int:
    if args.code == "fib":
        _require_no_a(args)
        print(fib_encode(args.n))
        return 0
    a = _require_a(args)
    outcome = encode_fast(a, args.n)
    if outcome is None:
        print(f"no code exists for n={args.n} at a={a}", file=sys.stderr)
        return 1
    print(outcome.code)
    return 0


def _cmd_decode(args) -> int:
    if args.code == "fib":
        _require_no_a(args)
        print(fib_decode(args.bits))
    else:
        print(decode(_require_a(args), args.bits))
    return 0


def _cmd_exists(args) -> int:
    a = _require_a(args)
    lo, hi = _parse_span(args.n, "n")
    if lo < 1:
        raise ValueError(f"n must be >= 1, got {lo}")
    # a single n prints its verdict alone: "yes\n".format(n) is "yes\n"
    formats = ("yes\n", "no\n") if lo == hi else ("{} yes\n", "{} no\n")
    sys.stdout.writelines(expand_runs(missing_runs(a, lo, hi), lo, hi, *formats))
    # the rows streamed from that walk; a second one stops at the first run
    return 0 if next(missing_runs(a, lo, hi), None) is None else 1


def _cmd_table(args) -> int:
    a_lo, a_hi = _parse_a_span(args.a)
    n_lo, n_hi = _parse_span(args.n, "--n")
    if n_lo < 1:
        raise ValueError(f"n must be >= 1, got {n_lo}")
    if args.format == "csv":
        print("a,n,code")
    for a in range(a_lo, a_hi + 1):
        for n in range(n_lo, n_hi + 1):
            outcome = encode_fast(a, n)
            code = outcome.code if outcome is not None else "-"
            if args.format == "csv":
                print(f"{a},{n},{code}")
            else:
                print(f"{a:>4} {n:>8} {code}")
    return 0


def _cmd_gaps(args) -> int:
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.max_n > _MAX_SCAN_N:
        raise ValueError(f"--max-n must be <= {_MAX_SCAN_N}, got {args.max_n}")
    a_lo, a_hi = _parse_a_span(args.a)
    if args.format == "csv" and a_lo != a_hi:
        raise ValueError(f"--format csv takes a single --a, got {args.a!r}")
    status = 0
    for a in range(a_lo, a_hi + 1):
        report = gap_scan(a, args.max_n, mode=args.mode)
        if args.format == "csv":
            sys.stdout.writelines(f"{row}\n" for row in report.csv_rows())
        else:
            print(report.summary())
        if report.max_run > (gh_sequence(a).gap_parameter or 0):
            status = 3
    return status


@dataclass(frozen=True)
class BenchResult:
    label: str
    count: int
    encoded: int
    skipped: int
    total_bits: int
    seconds: float

    @property
    def bits_per_value(self) -> float:
        return self.total_bits / self.encoded if self.encoded else 0.0


def _gen_values(dist: str, count: int, seed: int) -> list[int]:
    kind, _, rest = dist.partition(":")
    try:
        nums = [float(f) if kind == "geometric" else int(f) for f in rest.split(":")]
    except ValueError:
        nums = []
    if len(nums) != {"constant": 1, "uniform": 2, "geometric": 1}.get(kind):
        raise ValueError(
            f"distribution must be constant:V, uniform:LO:HI or geometric:P, got {dist!r}"
        )
    rng = random.Random(seed)
    if kind == "constant":
        (v,) = nums
        if v < 1:
            raise ValueError(f"constant value must be >= 1, got {v}")
        return [v] * count
    if kind == "uniform":
        lo, hi = nums
        if lo < 1 or lo > hi:
            raise ValueError(f"uniform bounds must satisfy 1 <= lo <= hi, got {rest!r}")
        return [rng.randint(lo, hi) for _ in range(count)]
    (p,) = nums
    if not 0.0 < p < 1.0:
        raise ValueError(f"geometric p must be in (0, 1), got {p}")
    scale = math.log1p(-p)
    # 1 - random() >= 2**-53, so no draw exceeds this one; it must be a finite float
    if math.isinf(math.log(2.0**-53) / scale):
        raise ValueError(f"geometric p is too small to draw from, got {dist!r}")
    return [int(math.log(1.0 - rng.random()) / scale) + 1 for _ in range(count)]


def _bench_one(spec: str, values: list[int]) -> BenchResult:
    if spec == "fib":
        def encode_one(v: int) -> str | None:
            return fib_encode(v)
    elif spec.startswith("gh:"):
        a = int(spec[3:])
        gh_sequence(a)

        def encode_one(v: int) -> str | None:
            outcome = encode_fast(a, v)
            return outcome.code if outcome is not None else None
    else:
        raise ValueError(f"codec spec must be 'fib' or 'gh:A', got {spec!r}")
    start = time.perf_counter()
    total_bits = 0
    skipped = 0
    for v in values:
        code = encode_one(v)
        if code is None:
            skipped += 1
        else:
            total_bits += len(code)
    seconds = time.perf_counter() - start
    return BenchResult(spec, len(values), len(values) - skipped, skipped, total_bits, seconds)


def _cmd_bench(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    if args.count > _MAX_BENCH_COUNT:
        raise ValueError(f"--count must be <= {_MAX_BENCH_COUNT}, got {args.count}")
    values = _gen_values(args.dist, args.count, args.seed)
    results = [_bench_one(spec.strip(), values) for spec in args.codes.split(",") if spec.strip()]
    if not results:
        raise ValueError("--codes selected no codecs")
    if args.format == "csv":
        # no timing column so identical flags and seed give identical bytes
        print("codec,count,encoded,skipped,total_bits,bits_per_value")
        for r in results:
            print(f"{r.label},{r.count},{r.encoded},{r.skipped},{r.total_bits},{r.bits_per_value:.4f}")
    else:
        print(f"{'codec':<10} {'count':>9} {'skipped':>8} {'total_bits':>12} {'bits/value':>11} {'seconds':>8}")
        for r in results:
            print(f"{r.label:<10} {r.count:>9} {r.skipped:>8} {r.total_bits:>12} "
                  f"{r.bits_per_value:>11.4f} {r.seconds:>8.3f}")
    return 0


def _cmd_verify(args) -> int:
    a = _require_a(args)
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    problems: list[str] = []
    encodable = 0
    for n in range(1, args.max_n + 1):
        simple = encode_simple(a, n)
        fast = encode_fast(a, n)
        ground = oracle_exists(a, n)
        have = fast is not None
        if (simple is not None) != have or ground != have:
            problems.append(
                f"n={n}: simple={simple is not None} fast={have} oracle={ground}"
            )
            continue
        if have:
            encodable += 1
            if decode(a, fast.code) != n:
                problems.append(f"n={n}: fast code {fast.code} decodes wrong")
            if decode(a, simple.code) != n:
                problems.append(f"n={n}: simple code {simple.code} decodes wrong")
    for line in problems[:20]:
        print(line, file=sys.stderr)
    status = "pass" if not problems else "FAIL"
    print(
        f"verify a={a} n=1..{args.max_n}: {status} "
        f"(encodable {encodable}, missing {args.max_n - encodable}, "
        f"disagreements {len(problems)})"
    )
    return 0 if not problems else 1


def _cmd_stream_pack(args) -> int:
    if args.code == "gh":
        a = _require_a(args)
    else:
        _require_no_a(args)
        a = 0
    if args.values:
        values = list(args.values)
    else:
        values = [int(tok) for tok in sys.stdin.read().split()]
    try:
        blob = stream_encode(args.code, a, values)
    except UnencodableValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "wb") as fh:
        fh.write(blob)
    return 0


def _token_line(token) -> str:
    if token.kind == "value":
        return f"{token.value}\n"
    lo, hi = token.bit_span
    return f"# garbage bits [{lo}:{hi})\n"


def _cmd_stream_unpack(args) -> int:
    with open(args.file, "rb") as fh:
        blob = fh.read()
    if args.resync:
        lines = map(_token_line, resync_decode(blob))
    else:
        lines = (f"{v}\n" for v in stream_decode(blob))
    sys.stdout.writelines(lines)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghcodes",
        description="Universal integer codes: encode, decode, and analyze.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="print the codeword for one integer")
    enc.add_argument("--code", choices=("gh", "fib"), default="gh")
    enc.add_argument("--a", type=int, default=None, help="sequence parameter, <= -2 (gh only)")
    enc.add_argument("n", type=int)
    enc.set_defaults(func=_cmd_encode)

    dec = sub.add_parser("decode", help="print the integer for one codeword")
    dec.add_argument("--code", choices=("gh", "fib"), default="gh")
    dec.add_argument("--a", type=int, default=None, help="sequence parameter, <= -2 (gh only)")
    dec.add_argument("bits")
    dec.set_defaults(func=_cmd_decode)

    exi = sub.add_parser("exists", help="report code existence for n or a range lo:hi")
    exi.add_argument("--a", type=int, required=True)
    exi.add_argument("n", help="integer or inclusive lo:hi range")
    exi.set_defaults(func=_cmd_exists)

    tab = sub.add_parser("table", help="codes over ranges of a and n ('-' when none exists)")
    tab.add_argument("--a", required=True, help="integer or inclusive lo:hi range")
    tab.add_argument("--n", required=True, help="integer or inclusive lo:hi range")
    tab.add_argument("--format", choices=("text", "csv"), default="text")
    tab.set_defaults(func=_cmd_table)

    gap = sub.add_parser("gaps", help="scan for non-encodable integers and their runs")
    gap.add_argument("--a", required=True, help="integer or inclusive lo:hi range")
    gap.add_argument("--max-n", type=int, required=True)
    gap.add_argument("--mode", choices=("fast", "oracle"), default="fast")
    gap.add_argument("--format", choices=("text", "csv"), default="text")
    gap.set_defaults(func=_cmd_gaps)

    ben = sub.add_parser("bench", help="bits per value across codecs on synthetic data")
    ben.add_argument("--dist", required=True, help="constant:V, uniform:LO:HI or geometric:P")
    ben.add_argument("--count", type=int, default=10_000)
    ben.add_argument("--codes", default="fib,gh:-2,gh:-3,gh:-4",
                     help="comma list of 'fib' and 'gh:A' specs")
    ben.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"random seed (default {DEFAULT_SEED})")
    ben.add_argument("--format", choices=("text", "csv"), default="text")
    ben.set_defaults(func=_cmd_bench)

    ver = sub.add_parser("verify", help="cross-check both encoders against the oracle")
    ver.add_argument("--a", type=int, required=True)
    ver.add_argument("--max-n", type=int, required=True)
    ver.set_defaults(func=_cmd_verify)

    spk = sub.add_parser("stream-pack", help="pack integers into a GHC1 stream file")
    spk.add_argument("--code", choices=("gh", "fib"), default="gh")
    spk.add_argument("--a", type=int, default=None)
    spk.add_argument("--out", required=True)
    spk.add_argument("values", nargs="*", type=int, help="values; stdin when omitted")
    spk.set_defaults(func=_cmd_stream_pack)

    sup = sub.add_parser("stream-unpack", help="print the integers in a GHC1 stream file")
    sup.add_argument("file")
    sup.add_argument("--resync", action="store_true",
                     help="tolerate corruption; unvalidated spans print as comments")
    sup.set_defaults(func=_cmd_stream_unpack)

    return parser


def main(argv: list[str] | None = None) -> int:
    raw = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_merge_negative_values(raw))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
