"""Seeded inputs for the benchmark workloads.

The value draws use the same formulas as `ghcodes bench` (geometric by
inverting one uniform draw per value, uniform by `randint`), so the bits
per value of a packed file can be checked against `ghcodes bench --format
csv` for the same distribution, count and seed.
"""

import math
import random

from checks import HEADER


def geometric_values(p: float, count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    scale = math.log1p(-p)
    return [int(math.log(1.0 - rng.random()) / scale) + 1 for _ in range(count)]


def uniform_values(lo: int, hi: int, count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(count)]


def flip_positions(payload_bits: int, bits_per_flip: int, seed: int) -> list[int]:
    """Sorted distinct payload bit offsets to flip, one per bits_per_flip bits."""
    # a string seed is hashed with SHA-512, so it is stable across processes
    rng = random.Random(f"flips-{seed}")
    count = max(1, payload_bits // bits_per_flip)
    return sorted(rng.sample(range(payload_bits), count))


def flip_bits(blob: bytes, positions: list[int]) -> bytes:
    """Copy of a stream file with the given payload bits inverted (MSB first)."""
    out = bytearray(blob)
    for pos in positions:
        out[HEADER.size + pos // 8] ^= 0x80 >> (pos % 8)
    return bytes(out)


def jittered(base: int, seed: int, label: str) -> int:
    """base plus a seeded offset below base/16, so each seed scans its own range."""
    return base + random.Random(f"{label}-{seed}").randrange(max(1, base // 16))
