#!/usr/bin/env python3
"""Run every bundled example config and collect the CSVs under out/.

Each config exercises one pipeline: the comb correlation, the dithered
delay scan with its half-round-trip dip revivals, the undithered scan on a
window shorter than the envelope support, phase fringes at full and half
round trips, single-peak excision, and three Monte Carlo detectors: ideal,
slow, and lossy with jitter and dark counts.

For each file it writes, the script prints ``<sha256>  <path under the
output root>``, so comparing the outputs of two checkouts is one ``diff`` of
the two runs' stdout.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from twophoton.cli import main

ROOT = Path(__file__).resolve().parent.parent

JOBS = [
    ("correlation", "comb_correlation.cfg"),
    ("homscan", "hom_delay_scan.cfg"),
    ("homscan", "hom_delay_scan_undithered.cfg"),
    ("fringe", "fringe_full_trip.cfg"),
    ("fringe", "fringe_half_trip.cfg"),
    ("engineer", "excise_peak.cfg"),
    ("mc", "mc_fast_detector.cfg"),
    ("mc", "mc_slow_detector.cfg"),
    ("mc", "mc_dark_counts.cfg"),
]


def run(out_root: Path) -> int:
    for command, config in JOBS:
        out_dir = out_root / config.removesuffix(".cfg")
        print(f"== {command} <- configs/{config}")
        written = io.StringIO()
        with contextlib.redirect_stdout(written):
            code = main(
                [command, "--config", str(ROOT / "configs" / config), "--out", str(out_dir)]
            )
        if code != 0:
            print(f"failed with exit code {code}", file=sys.stderr)
            return code
        for line in written.getvalue().splitlines():
            path = Path(line)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(out_root)}")
    return 0


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "out"
    raise SystemExit(run(target))
