"""End-to-end and per-layer benchmark of the ghcodes CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from `src/`.
Workloads:

- stream-small: `stream-pack --code gh --a -2` of geometric(p=0.05)
  values from stdin, `stream-unpack`, then `stream-unpack --resync` on a
  copy with one payload bit flipped per 4096 bits.
- stream-wide: the same three steps with `--code fib` over uniform
  values in [1, 10^12].
- gap-scan: `gaps --a -7`, `gaps --a -12` (fast mode) and `verify --a -7`.

Load is a closed loop from this process: each CLI step is one child
process (`python -m ghcodes.cli ...`), one at a time, so every step
starts with cold caches and uses one core. A cycle runs the workload's
three steps, each after a run of `reference.py`; cycles repeat until
--seconds have passed. Each step's throughput is the median over cycles
of items / child wall time (printed in items/s). The end-to-end metric
`stepN_items_per_ref` multiplies it by the median wall time of the
reference runs: items handled per reference run, which a shared host's
changing speed moves far less than items/s. `os.wait4` gives each
child's peak RSS.

Every step's output is checked against the generated inputs: strict
unpack must give the values back, resync on the clean file must equal
strict unpack, the packed file must be byte-identical in every cycle,
bits per value must equal `ghcodes bench --format csv` for the same
seed, `gaps` must stay within its bound and `verify` must pass. A miss
counts as failed and makes the command exit 1.

set-up (`setup_s`) is the median wall time of cold CLI starts doing one
trivial command: interpreter start, import and argument parsing.

With --trace 1 each step runs twice in fresh processes through
`tracer.py`, which calls `ghcodes.cli.main` in-process: once plain and
once with the layer entry points wrapped. The per-layer metrics come
from the traced run; traced minus plain time is the tracing overhead.

The default seed 12345 is the one `ghcodes bench` uses and the one used
while writing changes; check a claim on the second seed 424242 as well.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it start with
"#" and carry the run record (machine, Python, commit, seed, workload
parameters) and every metric by name with its unit.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import checks
import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.py"
DEFAULT_SEED = 12345
HOLDOUT_SEED = 424242
BITS_PER_FLIP = 4096
SETUP_STARTS = 11

END_TO_END = {  # name -> unit; the module docstring says what each step is
    "setup_s": "s",
    "step1_items_per_ref": "items/ref",
    "step2_items_per_ref": "items/ref",
    "step3_items_per_ref": "items/ref",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "cli.stream_pack.self_s": "s",
    "cli.stream_unpack.self_s": "s",
    "cli.stream_unpack_resync.self_s": "s",
    "cli.gaps.self_s": "s",
    "cli.verify.self_s": "s",
    "stream.stream_encode.self_s": "s",
    "stream.stream_decode.self_s": "s",
    "stream.resync_decode.self_s": "s",
    "stream.payload_bits": "bits",
    "stream.garbage_spans": "count",
    "stream.garbage_bits": "bits",
    "stream.bits_per_value": "bits",
    "stream.resync_recovered_fraction": "fraction",
    "ghcodec.encode_fast.calls": "count",
    "ghcodec.encode_fast.self_s": "s",
    "ghcodec.encode_fast.p50_us": "us",
    "ghcodec.encode_fast.p99_us": "us",
    "ghcodec.second_attempt_fraction": "fraction",
    "ghcodec.tail_picks_per_value": "picks/value",
    "ghcodec.encode_simple.self_s": "s",
    "ghcodec.decode.self_s": "s",
    "fibcodec.fib_encode.self_s": "s",
    "bits.value.calls": "count",
    "bits.value.self_s": "s",
    "bits.value.bits_per_call": "bits/call",
    "bits.normalize.total_s": "s",
    "bits.normalize.rewrites": "count",
    "bits.framing.total_s": "s",
    "sequences.largest_remaining_leq.calls": "count",
    "sequences.largest_remaining_leq.total_s": "s",
    "sequences.largest_leq.total_s": "s",
    "sequences.prefix.total_s": "s",
    "sequences.prefix.terms_copied": "terms",
    "sequences.cache_terms": "terms",
    "oracle.oracle_exists.calls": "count",
    "oracle.oracle_exists.total_s": "s",
    "oracle.gap_scan.self_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_fraction": "fraction",
}

NOT_TRACED = (
    "tail greedy loop, _assemble list building and EncodeOutcome: private, "
    "inside ghcodec.encode_fast.self_s",
    "bit packing and unpacking (_pack_bits, _unpack_bits) and the find('11') "
    "scan: private or inline, inside stream.*.self_s",
    "sequence term() lookups: one per greedy step, wrapping them would "
    "cost more than the lookups",
)


class Runner:
    """Runs CLI children one at a time, through spawner.py, inside the work directory."""

    def __init__(self, work: Path):
        self.work = work
        self.empty = work / "empty.txt"
        self.empty.write_text("")
        self.stderr = work / "stderr.txt"
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()

    def spawn(self, args: list[str], stdin: Path | None, stdout: Path) -> "Child":
        request = {"argv": [sys.executable, *args], "stdin": str(stdin or self.empty),
                   "stdout": str(stdout), "stderr": str(self.stderr)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited early")
        reply = json.loads(line)
        if reply["rc"] != 0:
            print(f"# child exit {reply['rc']}: {' '.join(args)}\n"
                  f"# {self.stderr.read_text()[-500:]!r}")
        return Child(reply["rc"], reply["wall_s"], reply["cpu_s"], reply["maxrss_kib"] / 1024)

    def cli(self, argv: list[str], stdout: Path, stdin: Path | None = None):
        return self.spawn(["-m", "ghcodes.cli", *argv], stdin, stdout)

    def in_process(self, mode: str, step: "Step", stdout: Path) -> dict:
        result = self.work / f"{step.name}.{mode}.json"
        child = self.spawn(
            [str(TRACER), mode, step.name, str(result), str(step.stdin or self.empty),
             str(stdout), *step.argv], None, self.work / "tracer.out")
        if child.rc != 0:
            return {"rc": child.rc, "seconds": 0.0, "spans": [], "counts": {}, "cache_terms": 0,
                    "samples": None}
        return json.loads(result.read_text())


class Child(NamedTuple):
    rc: int
    wall_s: float
    cpu_s: float  # user + system
    rss_mib: float  # peak resident set


@dataclass
class Step:
    name: str  # the trace reports cli.<name>.self_s
    argv: list[str]
    items: int
    stdin: Path | None = None


@dataclass
class Outcome:
    attempted: int
    failed: int
    done: int  # items the step got right; the throughput counts these


class StreamWorkload:
    """stream-pack, stream-unpack, and stream-unpack --resync on a damaged copy."""

    def __init__(self, code: str, a: int | None, dist: str, count: int):
        self.code, self.a, self.dist, self.count = code, a, dist, count

    def params(self) -> dict:
        return {"code": self.code, "a": self.a, "dist": self.dist, "count": self.count,
                "bits_per_flip": BITS_PER_FLIP,
                "steps": ["stream-pack", "stream-unpack", "stream-unpack --resync (damaged)"]}

    def setup_argv(self) -> list[str]:
        if self.code == "gh":
            return ["encode", "--a", str(self.a), "1"]
        return ["encode", "--code", "fib", "1"]

    def _values(self, seed: int) -> list[int]:
        kind, _, rest = self.dist.partition(":")
        if kind == "geometric":
            return gen.geometric_values(float(rest), self.count, seed)
        lo, hi = rest.split(":")
        return gen.uniform_values(int(lo), int(hi), self.count, seed)

    def prepare(self, run: Runner, seed: int) -> int:
        """Write the inputs and pass the once-per-run gates; returns items attempted.

        Raises checks.OutputError when a gate fails.
        """
        n = self.count
        self.values = self._values(seed)
        values_file = run.work / "values.txt"
        values_file.write_text("\n".join(map(str, self.values)) + "\n")
        self.packed = run.work / "packed.ghc"
        damaged = run.work / "damaged.ghc"
        codec = ["--code", self.code] + (["--a", str(self.a)] if self.code == "gh" else [])
        self.steps = [
            Step("stream_pack", ["stream-pack", *codec, "--out", str(self.packed)], n, values_file),
            Step("stream_unpack", ["stream-unpack", str(self.packed)], n),
            Step("stream_unpack_resync", ["stream-unpack", "--resync", str(damaged)], n),
        ]
        out = run.work / "gate.out"

        if run.cli(self.steps[0].argv, out, values_file).rc != 0:
            raise checks.OutputError("stream-pack failed")
        blob = self.packed.read_bytes()
        self.sha256 = hashlib.sha256(blob).hexdigest()
        bits = checks.payload_bits(blob)
        self.spans = checks.codeword_spans(bits)
        if checks.read_header(blob)[0] != n or len(self.spans) != n:
            raise checks.OutputError(f"packed file holds {len(self.spans)} codewords, not {n}")
        self.bits_per_value = len(bits) / n

        spec = f"gh:{self.a}" if self.code == "gh" else "fib"
        csv = _run_text(run, ["bench", "--dist", self.dist, "--count", str(n), "--seed",
                              str(seed), "--codes", spec, "--format", "csv"], out)
        row = csv.strip().rpartition("\n")[2].split(",")  # codec,count,encoded,skipped,total_bits,..
        if row[1:5] != [str(n), str(n), "0", str(len(bits))]:
            raise checks.OutputError(f"payload has {len(bits)} bits; bench csv says {row}")

        clean = _run_text(run, ["stream-unpack", "--resync", str(self.packed)], out)
        tokens = checks.resync_value_tokens(bits, clean)
        if len(tokens) != n or checks.recovered(self.spans, self.values, tokens) != n:
            raise checks.OutputError("resync of the clean file differs from strict unpack")

        damaged.write_bytes(gen.flip_bits(blob, gen.flip_positions(len(bits), BITS_PER_FLIP, seed)))
        self.damaged_bits = checks.payload_bits(damaged.read_bytes())
        self.recovered = self._recovered(_run_text(run, self.steps[2].argv, out))
        return 3 * n

    def _recovered(self, text: str) -> int:
        tokens = checks.resync_value_tokens(self.damaged_bits, text)
        return checks.recovered(self.spans, self.values, tokens)

    def check(self, step: Step, out: Path) -> Outcome:
        """Outcome of one step that exited 0; raises ValueError on malformed output."""
        n = self.count
        if step.name == "stream_pack":
            same = hashlib.sha256(self.packed.read_bytes()).hexdigest() == self.sha256
            return Outcome(n, 0, n) if same else Outcome(n, n, 0)
        if step.name == "stream_unpack":
            bad = checks.mismatches(checks.parse_ints(out.read_text()), self.values)
            return Outcome(n, bad, n - bad)
        got = self._recovered(out.read_text())
        # damage is seeded, so every cycle must recover exactly the same codewords
        return Outcome(n, 0, got) if got == self.recovered else Outcome(n, n, 0)

    def exact(self) -> dict:
        return {"stream.bits_per_value": self.bits_per_value,
                "stream.resync_recovered_fraction": self.recovered / self.count}

    def report(self, rows: list[dict]) -> dict:
        return {
            "pack_values_per_s": (_median(rows, "step1_items_per_s"), "values/s"),
            "unpack_values_per_s": (_median(rows, "step2_items_per_s"), "values/s"),
            "resync_values_per_s": (_median(rows, "step3_items_per_s"), "recovered values/s"),
            "bits_per_value": (self.bits_per_value, "bits"),
            "resync_recovered_fraction": (self.recovered / self.count, "fraction"),
            "packed_sha256": (self.sha256, "hex"),
        }


class GapWorkload:
    """gaps at a = -7 and -12, then verify at a = -7, over seeded ranges 1..max_n."""

    SCANS = (-7, -12)
    VERIFY_A = -7
    _VERIFY = re.compile(r"verify a=(-?\d+) n=1\.\.(\d+): (pass|FAIL) "
                         r"\(encodable (\d+), missing (\d+), disagreements (\d+)\)")

    def __init__(self, scan_n: int, verify_n: int):
        self.base_scan, self.base_verify = scan_n, verify_n

    def params(self) -> dict:
        return {"scans": list(self.SCANS), "scan_max_n": self.scan_n, "mode": "fast",
                "verify_a": self.VERIFY_A, "verify_max_n": self.verify_n,
                "steps": [f"gaps --a {a}" for a in self.SCANS] + [f"verify --a {self.VERIFY_A}"]}

    def setup_argv(self) -> list[str]:
        return ["exists", "--a", str(self.VERIFY_A), "1"]

    def prepare(self, run: Runner, seed: int) -> int:
        self.scan_n = gen.jittered(self.base_scan, seed, "gaps")
        self.verify_n = gen.jittered(self.base_verify, seed, "verify")
        self.steps = [Step("gaps", ["gaps", "--a", str(a), "--max-n", str(self.scan_n)],
                           self.scan_n) for a in self.SCANS]
        self.steps.append(Step("verify", ["verify", "--a", str(self.VERIFY_A),
                                          "--max-n", str(self.verify_n)], self.verify_n))
        self.missing: dict[int, int] = {}  # a -> missing count, fixed by the first scan
        self.missing_below_verify = None
        return 0

    def check(self, step: Step, out: Path) -> Outcome:
        """Outcome of one step that exited 0; raises ValueError on malformed output."""
        n = step.items
        if step.name == "gaps":
            ok = self._check_scan(int(step.argv[2]), json.loads(out.read_text()))
            return Outcome(n, 0, n) if ok else Outcome(n, n, 0)
        match = self._VERIFY.fullmatch(out.read_text().strip())
        if not match:
            raise checks.OutputError(f"unexpected verify output {out.read_text()[:200]!r}")
        a, top, encodable, missing, disagreements = map(int, match.group(1, 2, 4, 5, 6))
        # the oracle-checked missing count must equal what gaps found below verify_n
        ok = (a, top) == (self.VERIFY_A, n) and encodable + missing == n \
            and missing == self.missing_below_verify
        failed = disagreements if ok else n
        return Outcome(n, failed, n - failed)

    def _check_scan(self, a: int, report: dict) -> bool:
        k = -(a + 4)  # runs of non-encodable n never exceed k
        lengths = [length for _, length in report["runs"]]
        ok = (report["a"] == a and report["k"] == k and report["n_range"] == [1, self.scan_n]
              and report["max_run"] == max(lengths, default=0) <= k
              and sum(lengths) == report["missing_count"]
              and self.missing.setdefault(a, report["missing_count"]) == report["missing_count"])
        if a == self.VERIFY_A:
            top = self.verify_n
            self.missing_below_verify = sum(
                max(0, min(start + length - 1, top) - start + 1) for start, length in report["runs"])
        return ok

    def exact(self) -> dict:
        return {"stream.bits_per_value": 0, "stream.resync_recovered_fraction": 0}

    def report(self, rows: list[dict]) -> dict:
        scan = [2 * self.scan_n / (r["step1_wall_s"] + r["step2_wall_s"]) for r in rows]
        return {
            "scan_n_per_s": (statistics.median(scan), "n/s"),
            "verify_n_per_s": (_median(rows, "step3_items_per_s"), "n/s"),
            "missing_count": (self.missing, "n per a"),
        }


WORKLOADS = {
    "stream-small": lambda s: StreamWorkload("gh", -2, "geometric:0.05", _scaled(150_000, s)),
    "stream-wide": lambda s: StreamWorkload("fib", None, "uniform:1:1000000000000",
                                            _scaled(100_000, s)),
    "gap-scan": lambda s: GapWorkload(_scaled(100_000, s), _scaled(20_000, s)),
}


def _scaled(base: int, scale: float) -> int:
    return max(1, int(base * scale))


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def _run_text(run: Runner, argv: list[str], out: Path) -> str:
    if run.cli(argv, out).rc != 0:
        raise checks.OutputError(f"ghcodes {' '.join(argv[:2])} failed")
    return out.read_text()


def _check(workload, step: Step, rc: int, out: Path) -> Outcome:
    """Every item of a step that exits non-zero or prints malformed output failed."""
    if rc == 0:
        try:
            return workload.check(step, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"# {step.name}: {exc!r}")
    return Outcome(step.items, step.items, 0)


def plain_cycle(run: Runner, workload) -> tuple[dict, int, int]:
    row = {"reference_s": [], "peak_rss_mb": 0.0}
    attempted = failed = 0
    for i, step in enumerate(workload.steps, 1):
        reference = run.spawn([str(REFERENCE)], None, run.work / "reference.out")
        if reference.rc != 0:
            raise RuntimeError("reference.py failed")
        row["reference_s"].append(reference.wall_s)
        out = run.work / f"step{i}.out"
        child = run.cli(step.argv, out, step.stdin)
        outcome = _check(workload, step, child.rc, out)
        attempted += outcome.attempted
        failed += outcome.failed
        row[f"step{i}_items_per_s"] = outcome.done / child.wall_s
        row[f"step{i}_wall_s"] = child.wall_s
        row[f"step{i}_cpu_s"] = child.cpu_s
        row["peak_rss_mb"] = max(row["peak_rss_mb"], child.rss_mib)
    return row, attempted, failed


def traced_cycle(run: Runner, workload) -> tuple[dict, int, int]:
    spans, counts, samples = [], Counter(), array("d")
    cache_terms, seconds = 0, Counter()
    attempted = failed = 0
    for i, step in enumerate(workload.steps, 1):
        out = run.work / f"step{i}.out"
        for mode in ("plain", "traced"):
            result = run.in_process(mode, step, out)
            outcome = _check(workload, step, result["rc"], out)
            attempted += outcome.attempted
            failed += outcome.failed
            seconds[mode] += result["seconds"]
        # result is now the traced run's
        spans += result["spans"]
        counts.update(result["counts"])
        cache_terms = max(cache_terms, result["cache_terms"])
        if result["samples"]:
            with open(result["samples"], "rb") as fh:
                samples.frombytes(fh.read())
    row = layer_metrics(spans, counts, samples, cache_terms)
    row.update(workload.exact())
    row["trace.traced_s"] = seconds["traced"]
    row["trace.untraced_s"] = seconds["plain"]
    row["trace.overhead_s"] = seconds["traced"] - seconds["plain"]
    row["trace.overhead_fraction"] = row["trace.overhead_s"] / seconds["plain"] if seconds["plain"] else 0.0
    return row, attempted, failed


def layer_metrics(spans: list, counts: Counter, samples: array, cache_terms: int) -> dict:
    calls, total, own = Counter(), Counter(), Counter()
    for name, _parent, n, seconds, child in spans:
        calls[name] += n
        total[name] += seconds
        own[name] += seconds - child
    row = {}
    for metric in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        row[metric] = {"self_s": own, "total_s": total, "calls": calls}.get(kind, Counter())[span]
    encodes = calls["ghcodec.encode_fast"]
    coded = counts["encode_fast.coded"]
    quantiles = statistics.quantiles(samples, n=100, method="inclusive") if len(samples) > 1 else [0.0] * 99
    row.update({
        "stream.payload_bits": counts["stream.payload_bits"],
        "stream.garbage_spans": counts["stream.garbage_spans"],
        "stream.garbage_bits": counts["stream.garbage_bits"],
        "ghcodec.encode_fast.p50_us": quantiles[49] * 1e6,
        "ghcodec.encode_fast.p99_us": quantiles[98] * 1e6,
        "ghcodec.second_attempt_fraction":
            (counts["encode_fast.none"] + counts["encode_fast.fallback"]) / encodes if encodes else 0.0,
        "ghcodec.tail_picks_per_value": counts["encode_fast.picks"] / coded if coded else 0.0,
        "bits.value.bits_per_call": counts["value.bits"] / calls["bits.value"] if calls["bits.value"] else 0.0,
        "bits.normalize.rewrites": counts["normalize.rewrites"],
        "bits.framing.total_s": sum(total[f"bits.{name}"] for name in (
            "to_codeword", "trim_trailing_zeros", "from_codeword")),
        "sequences.prefix.terms_copied": counts["prefix.terms"],
        "sequences.cache_terms": cache_terms,
    })
    return row


def run_record(args, workload) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "ghcodes").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "holdout_seed": HOLDOUT_SEED,
            "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
            "params": workload.params(), "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "commit": commit or None,
            "source_sha256": source.hexdigest()}


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))


def end_to_end(rows: list[dict], setup_s: float) -> dict:
    """Medians over cycles; step throughput is scaled to the reference's wall time.

    Child wall times on a shared host swing by a fifth from one minute to
    the next. Items per reference run (items/s times the median seconds
    reference.py took in the same run) cancel what the host does to both.
    """
    reference_s = _reference_s(rows)
    values = {"setup_s": setup_s, "peak_rss_mb": _median(rows, "peak_rss_mb")}
    for i in (1, 2, 3):
        values[f"step{i}_items_per_ref"] = _median(rows, f"step{i}_items_per_s") * reference_s
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _reference_s(rows: list[dict]) -> float:
    return statistics.median(s for row in rows for s in row["reference_s"])


def setup_seconds(run: Runner, workload) -> float:
    starts = [run.cli(workload.setup_argv(), run.work / "setup.out") for _ in range(SETUP_STARTS)]
    if any(child.rc != 0 for child in starts):
        raise checks.OutputError("set-up command failed")
    return statistics.median(child.wall_s for child in starts)


def benchmark(args, workload, run: Runner) -> int:
    try:
        attempted = workload.prepare(run, args.seed)
        setup_s = None if args.trace else setup_seconds(run, workload)
        gate_error = None
    except ValueError as exc:  # checks.OutputError, or output that does not parse
        gate_error = exc
    print(f"# record {json.dumps(run_record(args, workload))}")
    if gate_error:
        print(f"# gate failed: {gate_error!r}")
        emit(False, 1, 1, {})
        return 1

    cycle = traced_cycle if args.trace else plain_cycle
    rows, failed = [], 0
    start = time.perf_counter()
    while True:
        row, tried, missed = cycle(run, workload)
        rows.append(row)
        attempted += tried
        failed += missed
        if time.perf_counter() - start >= args.seconds:
            break
    print(f"# cycles {len(rows)} in {time.perf_counter() - start:.1f} s; "
          f"failed_fraction {failed / attempted} (failed {failed} of {attempted} items)")

    print(f"# samples {json.dumps({name: [row[name] for row in rows] for name in rows[0]})}")
    if args.trace:
        metrics = {name: (_median(rows, name), unit) for name, unit in PER_LAYER.items()}
        named = dict(metrics)
    else:
        metrics = end_to_end(rows, setup_s)
        named = {**workload.report(rows), "reference_s": (_reference_s(rows), "s"),
                 **metrics}
    named["failed_fraction"] = (failed / attempted, "fraction")
    for name, (value, unit) in named.items():
        print(f"# {name} = {value} {unit}")
    if args.trace:
        for line in NOT_TRACED:
            print(f"# not traced: {line}")
    correct = failed == 0
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies input sizes; the tests use a tiny scale")
    args = parser.parse_args(argv)
    if not (SRC / "ghcodes" / "cli.py").is_file():
        print(f"error: no ghcodes sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.scale)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Runner(work)
    try:
        return benchmark(args, workload, run)
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
