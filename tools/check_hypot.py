"""Check the compiled library's hypot against this interpreter's math.hypot, bit for bit.

    PYTHONPATH=src python3 tools/check_hypot.py

The flow's initial step takes math.hypot's value from the library's port
of CPython's vector_norm, which must return every bit math.hypot does, on
each supported Python.  This script builds (or loads the cached) library,
compares the two on every pair of edge values (signed zeros, subnormals,
the smallest normal, DBL_MAX, infinities, NaN), on 10^5 pairs of random
bit patterns and on 10^4 pairs of random subnormals, and exits 1 naming
the first mismatches.  It loads no numpy, so it needs only the interpreter
and cc.
"""

from __future__ import annotations

import math
import random
import struct
import sys

from eightloop import native

EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, sys.float_info.min, -sys.float_info.min,
    math.nextafter(sys.float_info.min, 0.0), 1.0, -3.0, 1e-300, 1e300,
    sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _same(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))


def pairs(n: int, seed: int) -> list:
    """Every pair of EDGES, then n pairs of random 64-bit patterns and n // 10 pairs of random subnormals.

    The patterns reach every binade, NaNs and infinities; the subnormal
    pairs reach the branch CPython 3.12 changed.
    """
    rng = random.Random(seed)
    subnormal = lambda: _double(rng.getrandbits(52) | rng.getrandbits(1) << 63)  # noqa: E731
    return (
        [(a, b) for a in EDGES for b in EDGES]
        + [(_double(rng.getrandbits(64)), _double(rng.getrandbits(64))) for _ in range(n)]
        + [(subnormal(), subnormal()) for _ in range(n // 10)]
    )


def mismatches(candidates) -> list:
    """The (a, b, math.hypot, library) cases of candidates where the library's hypot differs from math.hypot."""
    hypot = native._kernel().kernel_hypot
    return [(a, b, math.hypot(a, b), hypot(a, b)) for a, b in candidates if not _same(math.hypot(a, b), hypot(a, b))]


def main() -> int:
    candidates = pairs(100_000, seed=0)
    bad = mismatches(candidates)
    numpy = sorted(name for name in sys.modules if name.partition(".")[0] == "numpy")
    python = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {python}: {len(candidates)} pairs, {len(bad)} mismatches, numpy modules loaded: {len(numpy)}")
    for a, b, want, got in bad[:5]:
        print(f"  hypot({a.hex()}, {b.hex()}): math {want.hex()}, library {got.hex()}")
    return 1 if bad or numpy else 0


if __name__ == "__main__":
    sys.exit(main())
