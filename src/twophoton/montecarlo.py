"""Discrete photon-pair detection sampled from the analytic correlations.

Pair delays are drawn by inverse-CDF over a sampled intensity trace, pushed
through a finite-resolution detector (rectangular timing jitter, efficiency
thinning, Poisson dark counts), and histogrammed.  A fast detector shows the
correlation comb directly; a slow one only its envelope.

Randomness is chunked: every block of draws gets its own generator derived
from (seed, chunk index), so the event stream is identical whether chunks
run serially or on a thread pool.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationTrace, TraceKind
from .errors import DegenerateDensity, NumericsError

CHUNK = 1 << 16
# the largest mc.n_events a config may ask for (at about 72 B per event, 2.5 GB),
# and the most dark counts a run may expect per detector
MAX_EVENTS = 1 << 25
# spawn-key namespaces keep sampling, detection, and dark streams uncorrelated
_DARK_KEY = 1 << 32
_DETECT_KEY = 1 << 33


@dataclass(frozen=True)
class DetectorModel:
    """Timing resolution, coincidence window, efficiency, dark rate."""

    resolution_time: float
    coincidence_window: float
    efficiency: float = 1.0
    dark_rate: float = 0.0

    def __post_init__(self):
        if self.resolution_time < 0:
            raise ValueError(f"resolution_time must be >= 0, got {self.resolution_time}")
        if not self.coincidence_window > 0:
            raise ValueError(f"coincidence_window must be > 0, got {self.coincidence_window}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.dark_rate < 0:
            raise ValueError(f"dark_rate must be >= 0, got {self.dark_rate}")


@dataclass(frozen=True, eq=False)
class Detections:
    """Detection times as columns, pair records first; ``dark`` marks the accidentals."""

    t1: np.ndarray
    t2: np.ndarray
    dark: np.ndarray

    def __len__(self) -> int:
        return self.t1.size


def _chunk_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _run_chunks(worker, n_chunks: int, threads: int):
    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(worker, range(n_chunks)))
    return [worker(k) for k in range(n_chunks)]


def sample_pair_delays(
    trace: CorrelationTrace, n: int, seed: int, threads: int = 1
) -> np.ndarray:
    """Draw n pair delays from a nonnegative intensity trace.

    Inverse-CDF over the trapezoid bin masses with the draw placed uniformly
    inside its bin.  Deterministic for a given seed, independent of threads.
    """
    if trace.kind is not TraceKind.INTENSITY:
        raise ValueError("sampling needs an intensity trace")
    if n < 0:
        raise ValueError("n must be >= 0")
    y = trace.samples
    dt = trace.grid.spacing
    mass = 0.5 * (y[1:] + y[:-1]) * dt
    total = float(mass.sum())
    if not total > 0:
        raise DegenerateDensity("trace integrates to zero; nothing to sample")
    cdf = np.concatenate([[0.0], np.cumsum(mass)]) / total
    cdf[-1] = 1.0
    t0 = trace.grid.t_min

    def draw(k: int) -> np.ndarray:
        m = min(CHUNK, n - k * CHUNK)
        u = _chunk_rng(seed, k).random(m)
        idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, mass.size - 1)
        width = cdf[idx + 1] - cdf[idx]
        frac = np.where(width > 0, (u - cdf[idx]) / np.where(width > 0, width, 1.0), 0.5)
        return t0 + (idx + frac) * dt

    chunks = _run_chunks(draw, max(1, math.ceil(n / CHUNK)), threads)
    return np.concatenate(chunks)


def _default_duration(delays: np.ndarray, det: DetectorModel) -> float:
    # sparse enough that accidentals stay rare amid the true pairs
    span = float(np.max(np.abs(delays), initial=0.0))
    pitch = 100.0 * det.coincidence_window + 10.0 * det.resolution_time + 4.0 * span
    return max(len(delays), 1) * pitch


def detect(
    pair_delays,
    det: DetectorModel,
    seed: int,
    duration: float | None = None,
    threads: int = 1,
) -> Detections:
    """Detect pair emissions: jitter, thinning, darks.

    Each photon timestamp gets independent uniform jitter of width equal to
    the resolution time and survives with the detector efficiency; a pair
    record needs both photons.  Dark counts arrive as a Poisson process on
    each detector over the run duration and are paired with whatever the
    opposite detector saw inside the coincidence window (marked ``dark``).
    """
    delays = np.asarray(pair_delays, dtype=float)
    n = delays.size
    if duration is None:
        duration = _default_duration(delays, det)
    if not duration > 0:
        raise ValueError("duration must be > 0")
    if det.dark_rate * duration > MAX_EVENTS:
        raise NumericsError(
            f"detector.dark_rate {det.dark_rate:.3e} over mc.duration {duration:.3e} s "
            f"expects more than {MAX_EVENTS} dark counts per detector"
        )
    # keep all timestamps positive regardless of jitter and delay signs
    offset = det.resolution_time + det.coincidence_window
    offset += float(np.max(np.abs(delays), initial=0.0))
    tr = det.resolution_time

    def pair_chunk(k: int):
        m = min(CHUNK, n - k * CHUNK)
        rng = _chunk_rng(seed, _DETECT_KEY + k)
        s = offset + rng.uniform(0.0, duration, m)
        j1 = rng.uniform(-tr / 2.0, tr / 2.0, m) if tr > 0 else np.zeros(m)
        j2 = rng.uniform(-tr / 2.0, tr / 2.0, m) if tr > 0 else np.zeros(m)
        keep1 = rng.random(m) < det.efficiency
        keep2 = rng.random(m) < det.efficiency
        sl = slice(k * CHUNK, k * CHUNK + m)
        t1 = s + j1
        t2 = s + delays[sl] + j2
        return t1, t2, keep1, keep2

    parts = _run_chunks(pair_chunk, max(1, math.ceil(n / CHUNK)), threads)
    t1, t2, keep1, keep2 = (np.concatenate(column) for column in zip(*parts))
    both = keep1 & keep2
    rec1, rec2 = t1[both], t2[both]
    n_pair = rec1.size

    if det.dark_rate > 0:
        dark_times = []
        for d in (0, 1):
            rng = _chunk_rng(seed, _DARK_KEY + d)
            count = rng.poisson(det.dark_rate * duration)
            dark_times.append(np.sort(offset + rng.uniform(0.0, duration, count)))
        dark1, dark2 = dark_times
        stream1 = np.sort(np.concatenate([t1[keep1], dark1]))
        stream2 = np.sort(np.concatenate([t2[keep2], dark2]))
        found = []  # rows of (detector-1 time, detector-2 time)
        for left, right, order in ((dark1, stream2, 1), (dark2, stream1, -1)):
            lo = np.searchsorted(right, left - det.coincidence_window, side="left")
            hi = np.searchsorted(right, left + det.coincidence_window, side="right")
            count = hi - lo
            # every right index in [lo, hi) of each left time, in order
            index = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
            found.append(np.column_stack([np.repeat(left, count), right[index]][::order]))
        # a dark1-dark2 pair is found from both sides as the same row; keep one
        accidental = np.unique(np.concatenate(found), axis=0)
        rec1 = np.concatenate([rec1, accidental[:, 0]])
        rec2 = np.concatenate([rec2, accidental[:, 1]])
    return Detections(rec1, rec2, np.repeat([False, True], [n_pair, rec1.size - n_pair]))


@dataclass(frozen=True)
class DelayHistogram:
    counts: np.ndarray
    edges: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def n_counted(self) -> int:
        return int(self.counts.sum())


def histogram_delays(records: Detections, bin_width: float, delay_range: tuple) -> DelayHistogram:
    """Histogram of the record delays t2 - t1."""
    if not bin_width > 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    lo, hi = delay_range
    if not hi > lo:
        raise ValueError(f"empty delay range {delay_range}")
    n_bins = max(1, int(math.ceil((hi - lo) / bin_width)))
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(records.t2 - records.t1, bins=edges)
    return DelayHistogram(counts=counts, edges=edges)


def comb_contrast(hist: DelayHistogram, round_trip_time: float, n_side_modes: int) -> float:
    """1 - (mean inter-peak bin) / (mean peak bin) for a comb-period histogram."""
    n_modes = 2 * n_side_modes + 1
    c = hist.centers
    phase = np.abs((c + round_trip_time / 2.0) % round_trip_time - round_trip_time / 2.0)
    peak = phase <= round_trip_time / (2.0 * n_modes)
    inter = np.abs(phase - round_trip_time / 2.0) <= round_trip_time / 8.0
    if not peak.any() or not inter.any():
        raise ValueError("histogram range too narrow to classify peak and inter-peak bins")
    peak_level = float(hist.counts[peak].mean())
    if peak_level == 0:
        return 0.0
    return 1.0 - float(hist.counts[inter].mean()) / peak_level


def summarize_records(records: Detections, det: DetectorModel) -> dict:
    """Counting summary: totals, in-window coincidences, accidentals."""
    n_dark = int(np.count_nonzero(records.dark))
    in_window = np.abs(records.t2 - records.t1) <= det.coincidence_window
    return {
        "n_records": len(records),
        "n_pair_records": len(records) - n_dark,
        "n_accidental_records": n_dark,
        "n_coincidences_in_window": int(np.count_nonzero(in_window)),
        "n_pair_coincidences_in_window": int(np.count_nonzero(in_window & ~records.dark)),
    }
