"""Workload definitions: the config files each workload hands to the CLI.

The base configs are copies of the bundled examples, kept here so the
benchmark's inputs do not move when an example is edited.  The workload seed
only changes values that leave the amount of work unchanged (mode match,
pump phase, mode-phase draws, the Monte Carlo seed), so every seed costs the
same and the spread between seeds is measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("homscan", "figures", "mc")

_COMB = {
    "comb.n_side_modes": "10",
    "comb.round_trip_time": "1.0e-12",
    "comb.pump_frequency": "3.54e15",
    "comb.linewidth": "6.2832e10",
}

# configs/hom_delay_scan.cfg
HOM_DELAY_SCAN = {
    **_COMB,
    "comb.shape": "lorentzian",
    "detector.resolution_time": "1.0e-8",
    "scan.points": "261",
    "scan.delay_min_tr": "0.0",
    "scan.delay_max_tr": "1.3",
    "scan.dithered": "true",
    "output.delay_to_mm": "1.15e13",
}

# configs/comb_correlation.cfg
COMB_CORRELATION = {
    **_COMB,
    "comb.shape": "lorentzian",
    "scan.points": "4096",
    "scan.tau_min_tr": "-2.0",
    "scan.tau_max_tr": "2.0",
    "scan.include_coherence": "true",
}

# configs/fringe_full_trip.cfg
FRINGE_FULL_TRIP = {
    **_COMB,
    "detector.resolution_time": "1.0e-8",
    "scan.delay_tr": "1.0",
    "scan.phase_min": "0.0",
    "scan.phase_max": "12.566370614359172",
    "scan.points": "241",
}

# configs/fringe_half_trip.cfg
FRINGE_HALF_TRIP = {
    **_COMB,
    "comb.n_side_modes": "60",
    "comb.linewidth": "1.2566e11",
    "detector.resolution_time": "1.0e-8",
    "scan.delay_tr": "0.5",
    "scan.phase_min": "0.0",
    "scan.phase_max": "12.566370614359172",
    "scan.points": "241",
}

# configs/excise_peak.cfg
EXCISE_PEAK = {
    **_COMB,
    "engineering.target_peak": "1",
    "engineering.wideband_shape": "rectangular",
    "engineering.optimize_width": "true",
    "scan.points": "16384",
}

# configs/mc_fast_detector.cfg at 10x the events and 10x the duration, so the
# pair density per coincidence window (0.1) is the bundled one; efficiency
# below 1 and a dark rate above 0 make thinning and accidental matching run.
MC_EVENTS = 2_000_000
MC_FAST_DETECTOR = {
    **_COMB,
    "detector.resolution_time": "0.0",
    "detector.coincidence_window": "1.0e-8",
    "detector.efficiency": "0.8",
    "detector.dark_rate": "5.0e4",
    "scan.points": "131073",
    "scan.tau_min_tr": "-2.0",
    "scan.tau_max_tr": "2.0",
    "mc.n_events": str(MC_EVENTS),
    "mc.bin_width": "1.0e-14",
    "mc.duration": "2.0e-1",
}
MC_THREADS = 2


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``twophoton <command> --config <name>.cfg``."""

    command: str
    name: str
    config: dict
    threads: int = 1

    def config_text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.config.items())


def make_jobs(workload: str, seed: int) -> list:
    """The jobs of one workload; the same seed gives the same configs."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(WORKLOADS.index(workload),)))
    run_seed = str(int(rng.integers(0, 2**31)))
    if workload == "homscan":
        cfg = {
            **HOM_DELAY_SCAN,
            "interferometer.mode_match": repr(float(rng.uniform(0.9, 1.0))),
            "interferometer.pump_phase": repr(float(rng.uniform(0.0, 2.0 * math.pi))),
            "seed": run_seed,
        }
        return [Job("homscan", "homscan", cfg)]
    if workload == "figures":
        phase_a, phase_b = (str(int(p)) for p in rng.integers(0, 2**31, 2))
        return [
            Job("correlation", "correlation", {**COMB_CORRELATION, "seed": run_seed}),
            Job("correlation", "correlation_random",
                {**COMB_CORRELATION, "comb.phase_seed": phase_a, "seed": run_seed}),
            Job("fringe", "fringe_full", {**FRINGE_FULL_TRIP, "seed": run_seed}),
            Job("fringe", "fringe_full_random",
                {**FRINGE_FULL_TRIP, "comb.phase_seed": phase_b, "seed": run_seed}),
            Job("fringe", "fringe_half", {**FRINGE_HALF_TRIP, "seed": run_seed}),
            Job("engineer", "engineer", {**EXCISE_PEAK, "seed": run_seed}),
        ]
    if workload == "mc":
        return [Job("mc", "mc", {**MC_FAST_DETECTOR, "seed": run_seed}, threads=MC_THREADS)]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
