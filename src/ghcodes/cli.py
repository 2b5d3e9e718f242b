"""Command line front end.

Subcommands: encode, decode, exists, table, gaps, bench, verify,
stream-pack, stream-unpack. Exit status: 0 success, 1 no code exists or
verification failed, 2 usage or malformed input, 3 gap bound violation,
141 (128 + SIGPIPE) when the reader of stdout stops reading, as `| head`
does; nothing is printed to stderr then.
"""

import argparse
import math
import os
import random
import re
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, compress, count, islice, repeat, starmap
from typing import NamedTuple, TextIO

from ghcodes.fibcodec import fib_decode
from ghcodes.ghcodec import _leaf_codes, decode, decode_many, missing_runs
# encode_fast, encode_simple and oracle_exists are unused here, but the
# benchmark tracer (perfbench/tracer.py) patches these names when it installs
from ghcodes.ghcodec import encode_fast, encode_simple  # noqa: F401
from ghcodes.oracle import oracle_exists, range_exists  # noqa: F401
from ghcodes.sequences import gh_sequence
from ghcodes.stream import (
    UnencodableValueError,
    codeword_encoder,
    resync_decode,
    stream_decode,
    stream_encode,
)

DEFAULT_SEED = 12345
# a scan holds every run it finds, and for small k those grow with --max-n:
# about 145 MiB peak RSS at a=-5 and this cap, 18 MiB at a=-1000
_MAX_SCAN_N = 10**7
# verify builds the one code both encoders give a leaf at a time, from one
# template per lowest pick, and decodes the codes in batches: 1.9 s at this
# cap for a=-7, median of 5 runs (2 vCPUs, on a loaded host)
_MAX_VERIFY_N = 10**6
# verify calls decode_many once this many codes are pending, at the end of
# the leaf that reaches it; 4096 ran no faster and held about 0.5 MB more
# under tracemalloc at --max-n 40000
_VERIFY_BATCH = 1024
# "1" where a leaf has a code for n, "0" where not, as the oracle's verdicts read
_BIT = ("0", "1").__getitem__
# characters per read of stream-pack's stdin; reading line by line was slower
_STDIN_CHUNK = 65536
# output lines joined into one write; with PYTHONUNBUFFERED set, each
# write is one system call
_WRITE_LINES = 8192


def _is_negative(tok: str) -> bool:
    return len(tok) > 1 and tok[0] == "-" and tok[1].isdigit()


def _merge_negative_values(argv: list[str]) -> list[str]:
    # "--a -20:-2" would otherwise be read as flag + unknown option;
    # fold such values into the "--a=-20:-2" form argparse accepts
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--a", "--n") and i + 1 < len(argv) and _is_negative(argv[i + 1]):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        merged.append(tok)
        i += 1
    # the same holds for the n of exists ("-5:-1"), which has no flag to
    # fold into, so it goes after "--"; argparse takes "-5" alone as a number
    spans = [tok for tok in merged if _is_negative(tok)]
    if merged[:1] == ["exists"] and spans and "--" not in merged:
        return [tok for tok in merged if not _is_negative(tok)] + ["--", *spans]
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


def _code_a(args) -> int:
    """The a that --code and --a name: 0 for fib, which takes no --a."""
    if args.code == "gh":
        return _require_a(args)
    if args.a is not None:
        raise ValueError("--a only applies to the gh code")
    return 0


def _cmd_encode(args) -> int:
    a = _code_a(args)
    code = codeword_encoder(args.code, a)(args.n)
    if code is None:
        print(f"no code exists for n={args.n} at a={a}", file=sys.stderr)
        return 1
    print(code)
    return 0


def _cmd_decode(args) -> int:
    a = _code_a(args)
    print(fib_decode(args.bits) if args.code == "fib" else decode(a, args.bits))
    return 0


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line and a newline to stdout, _WRITE_LINES lines per write."""
    lines = iter(lines)
    while batch := list(islice(lines, _WRITE_LINES)):
        batch.append("")  # the newline after the last line
        sys.stdout.write("\n".join(batch))


def _write_values(values: Iterable[int]) -> None:
    """Write each value in decimal and a newline to stdout, _WRITE_LINES values per write.

    One %-format per batch makes no string per value. No decoder yields
    a value past the interpreter's digit limit (bits._digit_limit), so
    strict decoding prints every value it checked; such a value would
    raise the same ValueError as str().
    """
    values = iter(values)
    while batch := tuple(islice(values, _WRITE_LINES)):
        sys.stdout.write("%d\n" * len(batch) % batch)


def _expand_runs(
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


def _cmd_exists(args) -> int:
    a = _require_a(args)
    lo, hi = _parse_span(args.n, "n")
    if lo < 1:
        raise ValueError(f"n must be >= 1, got {lo}")
    # a single n prints its verdict alone: "yes".format(n) is "yes"
    formats = ("yes", "no") if lo == hi else ("{} yes", "{} no")
    _write_lines(_expand_runs(missing_runs(a, lo, hi), lo, hi, *formats))
    # the rows streamed from that walk; a second one stops at the first run
    return 0 if next(missing_runs(a, lo, hi), None) is None else 1


def _cmd_table(args) -> int:
    a_lo, a_hi = _parse_a_span(args.a)
    n_lo, n_hi = _parse_span(args.n, "--n")
    if n_lo < 1:
        raise ValueError(f"n must be >= 1, got {n_lo}")
    row = "{},{},{}" if args.format == "csv" else "{:>4} {:>8} {}"

    def lines() -> Iterator[str]:
        if args.format == "csv":
            yield "a,n,code"
        for a in range(a_lo, a_hi + 1):
            for first, codes in _leaf_codes(a, n_lo, n_hi):
                yield from map(row.format, repeat(a), count(first), [c or "-" for c in codes])

    _write_lines(lines())
    return 0


def _oracle_verdicts(a: int, n_max: int) -> str:
    """Character n_max + 1 - n is "1" iff n in 1..n_max has a code, by the range oracle.

    Character 0 is a "1" put above the top verdict, so that format keeps
    the leading "0"s; the verdicts read from the end, n = 1 last.
    """
    return format(range_exists(a, n_max) | 1 << n_max, "b")


def gap_scan(a: int, n_max: int, mode: str) -> tuple[tuple[int, int], ...]:
    """Maximal runs (start, length) of n in 1..n_max with no code, ascending.

    The oracle mode reads them off the exhaustive range oracle's
    verdicts, the reference the fast walk over greedy residuals is
    tested against.
    """
    if mode == "fast":
        return tuple(missing_runs(a, 1, n_max))
    runs = re.finditer("0+", _oracle_verdicts(a, n_max))
    # a run of "0"s ending before character e starts at n = n_max + 2 - e
    return tuple((n_max + 2 - m.end(), m.end() - m.start()) for m in runs)[::-1]


def _cmd_gaps(args) -> int:
    import json  # this command's alone; the other children skip its import

    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    if args.max_n > _MAX_SCAN_N:
        raise ValueError(f"--max-n must be <= {_MAX_SCAN_N}, got {args.max_n}")
    a_lo, a_hi = _parse_a_span(args.a)
    if args.format == "csv" and a_lo != a_hi:
        raise ValueError(f"--format csv takes a single --a, got {args.a!r}")
    status = 0
    for a in range(a_lo, a_hi + 1):
        runs = gap_scan(a, args.max_n, args.mode)
        k = gh_sequence(a).gap_parameter
        max_run = max((length for _, length in runs), default=0)
        if args.format == "csv":
            rows = _expand_runs(runs, 1, args.max_n, "{},true", "{},false")
            _write_lines(chain(["n,exists"], rows))
        else:
            missing_count = sum(length for _, length in runs)
            print(json.dumps({"a": a, "k": k, "n_range": (1, args.max_n),
                              "missing_count": missing_count, "max_run": max_run, "runs": runs}))
        if max_run > (k or 0):
            status = 3
    return status


class BenchResult(NamedTuple):
    label: str
    count: int
    encoded: int
    skipped: int
    total_bits: int
    seconds: float

    @property
    def bits_per_value(self) -> float:
        return self.total_bits / self.encoded if self.encoded else 0.0


def _gen_values(dist: str, count: int, seed: int) -> Iterator[int]:
    """count seeded draws from dist, made as they are read.

    The spec is checked at the call, before any value is drawn; each
    call starts its own generator from seed, so calls with the same
    arguments give the same values.
    """
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
        return repeat(v, count)
    if kind == "uniform":
        lo, hi = nums
        if lo < 1 or lo > hi:
            raise ValueError(f"uniform bounds must satisfy 1 <= lo <= hi, got {rest!r}")
        return (rng.randint(lo, hi) for _ in range(count))
    (p,) = nums
    if not 0.0 < p < 1.0:
        raise ValueError(f"geometric p must be in (0, 1), got {p}")
    scale = math.log1p(-p)
    # 1 - random() >= 2**-53, so no draw exceeds this one; it must be a finite float
    if math.isinf(math.log(2.0**-53) / scale):
        raise ValueError(f"geometric p is too small to draw from, got {dist!r}")
    return (int(math.log(1.0 - rng.random()) / scale) + 1 for _ in range(count))


def _bench_encoder(spec: str) -> Callable[[int], str | None]:
    """The encoder a --codes spec names; it returns None for a value with no code."""
    if spec == "fib":
        return codeword_encoder("fib", 0)
    try:
        if not spec.startswith("gh:"):
            raise ValueError
        a = int(spec[3:])
    except ValueError:
        raise ValueError(f"codec spec must be 'fib' or 'gh:A', got {spec!r}") from None
    return codeword_encoder("gh", a)


def _bench_one(
    spec: str, encode_one: Callable[[int], str | None], values: Iterable[int]
) -> BenchResult:
    start = time.perf_counter()
    count = total_bits = skipped = 0
    for v in values:
        count += 1
        code = encode_one(v)
        if code is None:
            skipped += 1
        else:
            total_bits += len(code)
    seconds = time.perf_counter() - start
    return BenchResult(spec, count, count - skipped, skipped, total_bits, seconds)


def _cmd_bench(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    # every spec is checked before any value is drawn
    specs = filter(None, map(str.strip, args.codes.split(",")))
    encoders = [(spec, _bench_encoder(spec)) for spec in specs]
    if not encoders:
        raise ValueError("--codes selected no codecs")
    # each codec draws the same seeded values afresh, so none are held
    results = [_bench_one(spec, encode_one, _gen_values(args.dist, args.count, args.seed))
               for spec, encode_one in encoders]
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
    if args.max_n > _MAX_VERIFY_N:
        raise ValueError(f"--max-n must be <= {_MAX_VERIFY_N}, got {args.max_n}")
    shown: list[str] = []  # the first 20 problems; the rest are only counted
    problems = encodable = 0
    codes: list[str] = []  # each n's code, the one both encoders give
    wanted: list[int] = []  # the n each code must decode to

    def problem(line: str) -> None:
        nonlocal problems
        problems += 1
        if problems <= 20:
            shown.append(line)

    def check() -> None:
        """Decode the pending codes in one call and report each n whose code is wrong."""
        decoded = decode_many(a, codes)
        if decoded != wanted:
            for code, n, got in zip(codes, wanted, decoded):
                if got != n:
                    problem(f"n={n}: code {code} decodes to {got}")
        codes.clear()
        wanted.clear()

    verdicts = _oracle_verdicts(a, args.max_n)
    end = args.max_n + 2  # n's verdict is character end - 1 - n
    for n, leaf in _leaf_codes(a, 1, args.max_n):
        stop = n + len(leaf)
        ground = verdicts[end - stop : end - n][::-1]
        if "".join(map(_BIT, map(bool, leaf))) == ground:
            encodable += ground.count("1")
            codes += filter(None, leaf)
            wanted += compress(range(n, stop), leaf)
        else:  # n by n, for its lines
            for n, verdict, code in zip(range(n, stop), ground, leaf):
                have = code is not None
                if (verdict == "1") != have:
                    check()  # so that problems come out in the order of n
                    problem(f"n={n}: code={have} oracle={not have}")
                elif have:
                    encodable += 1
                    codes.append(code)
                    wanted.append(n)
        if len(codes) >= _VERIFY_BATCH:
            check()
    check()
    for line in shown:
        print(line, file=sys.stderr)
    status = "pass" if not problems else "FAIL"
    print(
        f"verify a={a} n=1..{args.max_n}: {status} "
        f"(encodable {encodable}, missing {args.max_n - encodable}, "
        f"disagreements {problems})"
    )
    return 0 if not problems else 1


def _stdin_chunks(stream: TextIO) -> Iterator[Iterable[int]]:
    """The integers in whitespace-separated text, per _STDIN_CHUNK characters read.

    A token that runs past the end of a chunk is kept as pieces until it
    ends, so reading it takes time linear in its length.
    """
    pieces: list[str] = []
    while chunk := stream.read(_STDIN_CHUNK):
        tokens = chunk.split()
        if pieces and not chunk[0].isspace():
            pieces.append(tokens.pop(0))
        if pieces and (tokens or chunk[-1].isspace()):
            tokens.insert(0, "".join(pieces))
            pieces = []
        if tokens and not chunk[-1].isspace():
            pieces.append(tokens.pop())
        yield map(int, tokens)
    if pieces:
        yield [int("".join(pieces))]


def _cmd_stream_pack(args) -> int:
    a = _code_a(args)
    # chained in C, so no Python frame resumes per value
    values = args.values or chain.from_iterable(_stdin_chunks(sys.stdin))
    try:
        blob = stream_encode(args.code, a, values)
    except UnencodableValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(args.out, "wb") as fh:
        fh.write(blob)
    return 0


def _resync_lines(values: list[int], garbage: list) -> list[str]:
    """The output lines of one chunk of a resync scan."""
    lines = list(map(str, values))
    for i, lo, hi in garbage:
        lines[i] = f"# garbage bits [{lo}:{hi})"
    return lines


def _cmd_stream_unpack(args) -> int:
    with open(args.file, "rb") as fh:
        blob = fh.read()
    if args.resync:
        # a Python call per chunk, none per value
        _write_lines(chain.from_iterable(starmap(_resync_lines, resync_decode(blob).chunks())))
    else:
        # stream_decode raises before it returns, so a bad file prints nothing
        _write_values(stream_decode(blob))
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

    ver = sub.add_parser("verify", help="check each n's code against the oracle, and decode it")
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
        status = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader went away: not bad input. Point stdout at the null
        # device, so the flush at exit finds no pipe and reports nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
