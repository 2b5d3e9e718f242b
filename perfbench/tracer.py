"""Run one ghcodes CLI step inside this process, plain or traced.

    python tracer.py (plain|traced) STEP RESULT_JSON STDIN STDOUT ARG...

Calls `ghcodes.cli.main(ARG...)` with stdin and stdout redirected to the
given files and writes RESULT_JSON: the exit code, the seconds spent in
`main`, and in traced mode the spans and counters below. Each step runs
in a fresh process so sequence and remainder caches start cold, as they
do for a user's invocation.

Tracing replaces public callables from outside the program, under the
names their callers look up (`ghcodes.cli.stream_encode`,
`ghcodes.stream.value`, `GHSequence.prefix`, ...). Spans are aggregated
per (name, parent) into calls, total seconds and seconds spent in traced
children; self time is the difference.
"""

import json
import struct
import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.stack = [[None, 0.0]]  # [span name, seconds in traced children]
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, total, child]
        self.counts: Counter = Counter()
        self.samples: dict[str, array] = {}
        self.sequences: dict[int, object] = {}

    def wrap(self, name, fn, count=None, sample=False):
        stack, spans, counts = self.stack, self.spans, self.counts
        samples = self.samples.setdefault(name, array("d")) if sample else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = spans.get((name, parent[0]))
                if rec is None:
                    spans[(name, parent[0])] = [1, elapsed, frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += elapsed
                    rec[2] += frame[1]
                if samples is not None:
                    samples.append(elapsed)
            if count is not None:
                count(counts, args, result)
            return result

        return traced


def _count_encode(counts, args, outcome):
    if outcome is None:
        counts["encode_fast.none"] += 1
    else:
        counts["encode_fast.fallback"] += outcome.used_fallback
        counts["encode_fast.coded"] += 1
        counts["encode_fast.picks"] += len(outcome.picked_indices)


def _count_normalize(counts, args, out):
    counts["normalize.rewrites"] += args[0].count("1") - out.count("1")


def _count_value(counts, args, out):
    counts["value.bits"] += len(args[1])


def _count_stream_encode(counts, args, blob):
    counts["stream.payload_bits"] += struct.unpack_from("<Q", blob, 16)[0]


def _count_resync(counts, args, tokens):
    for token in tokens:
        if token.kind != "value":
            lo, hi = token.bit_span
            counts["stream.garbage_spans"] += 1
            counts["stream.garbage_bits"] += hi - lo


def install(tracer: Tracer, step: str):
    """Wrap the layer entry points; returns the traced `cli.main`."""
    import ghcodes.cli as cli
    import ghcodes.ghcodec as ghcodec
    import ghcodes.oracle as oracle
    import ghcodes.stream as stream
    from ghcodes.sequences import FibSequence, GHSequence

    made = {}

    def patch(owner, attr, name, count=None, sample=False):
        fn = getattr(owner, attr)
        if id(fn) not in made:  # one wrapper per function, whatever its binding
            made[id(fn)] = tracer.wrap(name, fn, count, sample)
        setattr(owner, attr, made[id(fn)])

    patch(cli, "stream_encode", "stream.stream_encode", _count_stream_encode)
    patch(cli, "stream_decode", "stream.stream_decode")
    patch(cli, "resync_decode", "stream.resync_decode", _count_resync)
    patch(cli, "gap_scan", "oracle.gap_scan")
    patch(cli, "oracle_exists", "oracle.oracle_exists")
    patch(cli, "encode_simple", "ghcodec.encode_simple")
    patch(cli, "decode", "ghcodec.decode")
    for owner in (cli, stream, ghcodec):  # ghcodec.exists looks it up in its module
        patch(owner, "encode_fast", "ghcodec.encode_fast", _count_encode, sample=True)
    patch(oracle, "_codec_exists", "ghcodec.exists")
    patch(stream, "fib_encode", "fibcodec.fib_encode")
    for owner in (stream, ghcodec):
        patch(owner, "value", "bits.value", _count_value)
    patch(ghcodec, "normalize", "bits.normalize", _count_normalize)
    patch(ghcodec, "to_codeword", "bits.to_codeword")
    patch(ghcodec, "trim_trailing_zeros", "bits.trim_trailing_zeros")
    patch(ghcodec, "from_codeword", "bits.from_codeword")

    seen = tracer.sequences

    def count_terms(counts, args, out):
        seen[id(args[0])] = args[0]
        counts["prefix.terms"] += len(out)

    def note_sequence(counts, args, out):
        seen[id(args[0])] = args[0]

    patch(GHSequence, "largest_remaining_leq", "sequences.largest_remaining_leq", note_sequence)
    patch(FibSequence, "largest_leq", "sequences.largest_leq", note_sequence)
    for cls in (GHSequence, FibSequence):
        patch(cls, "prefix", "sequences.prefix", count_terms)
    return tracer.wrap(f"cli.{step}", cli.main)


def main(argv: list[str]) -> int:
    mode, step, result_path, stdin_path, stdout_path, *cli_args = argv
    import ghcodes.cli

    tracer = Tracer() if mode == "traced" else None
    entry = install(tracer, step) if tracer else ghcodes.cli.main
    saved = sys.stdin, sys.stdout
    with open(stdin_path) as fin, open(stdout_path, "w") as fout:
        sys.stdin, sys.stdout = fin, fout
        try:
            start = time.perf_counter()
            rc = entry(cli_args)
            seconds = time.perf_counter() - start
        finally:
            sys.stdin, sys.stdout = saved
    result = {"rc": rc, "seconds": seconds}
    if tracer:
        samples_path = result_path + ".samples"
        with open(samples_path, "wb") as fh:
            tracer.samples["ghcodec.encode_fast"].tofile(fh)
        result.update(
            spans=[[name, parent, *rec] for (name, parent), rec in tracer.spans.items()],
            counts=dict(tracer.counts),
            # the term list is private; there is no public accessor for its size
            cache_terms=sum(len(seq._terms) - 1 for seq in tracer.sequences.values()),
            samples=samples_path,
        )
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
