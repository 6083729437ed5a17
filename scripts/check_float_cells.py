#!/usr/bin/env python3
"""Check the CSV cell kernel against ``repr`` on random doubles.

    python3 scripts/check_float_cells.py N [--seed S]

Draws N uniformly random 64-bit patterns from NumPy's default generator
seeded with S (default 0), so every sign and exponent comes up, NaN,
infinities and subnormals included.  Chunk by chunk (2^18 values), it
compares the cells of ``twophoton.cli._float_cells`` with
``repr(float(x))``, byte for byte; the package is imported from this
checkout's ``src``.  Prints a line per mismatched value (at most 10), then
``<N> values, <M> mismatches, <T> s``, and exits 1 if any cell differs.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from twophoton.cli import _CELL, _float_cells  # noqa: E402

CHUNK = 1 << 18


def mismatches(x) -> np.ndarray:
    """Indices of the values whose kernel cell differs from ``repr(float(v))``."""
    want = np.array(list(map(repr, x.tolist())), dtype=f"S{_CELL}")
    return np.flatnonzero((_float_cells(x) != want.view(np.uint8).reshape(-1, _CELL)).any(axis=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("n", type=int, help="number of random doubles to check")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default: 0)")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    start, bad = time.perf_counter(), 0
    for lo in range(0, args.n, CHUNK):
        size = min(CHUNK, args.n - lo)
        x = rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64)
        for i in mismatches(x).tolist():
            if bad < 10:
                cell = _float_cells(x[i : i + 1]).tobytes().rstrip(b"\0").decode("ascii")
                print(f"{x[i].view(np.uint64):#018x}: repr {float(x[i])!r}, kernel {cell}")
            bad += 1
    print(f"{args.n} values, {bad} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
