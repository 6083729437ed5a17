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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correlation import CorrelationTrace, TraceKind
from .errors import DegenerateDensity, NumericsError

CHUNK = 1 << 16
# the largest mc.n_events a config may ask for (an mc run grows by about 20 B
# per event, to near 0.7 GB there), and the most dark counts a run may expect
# per detector
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
    """Record delays t2 - t1, the pair records and the accidentals apart."""

    pairs: np.ndarray
    accidentals: np.ndarray

    def __len__(self) -> int:
        return self.pairs.size + self.accidentals.size


def _chunk_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _run_chunks(worker, n_chunks: int, threads: int):
    """Yield worker(k) for every chunk k, in order.

    With threads > 1 the chunks run on a pool, at most one more than
    ``threads`` ahead of the caller, so a caller that stores each result and
    lets it go holds a few chunks at a time, however many there are.
    """
    if threads <= 1 or n_chunks <= 1:
        yield from map(worker, range(n_chunks))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        running = deque()
        for k in range(n_chunks):
            running.append(pool.submit(worker, k))
            if len(running) > threads:
                yield running.popleft().result()
        while running:
            yield running.popleft().result()


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
    out = np.empty(n)

    def draw(k: int) -> None:
        lo = k * CHUNK
        u = _chunk_rng(seed, k).random(min(CHUNK, n - lo))
        # the CDF search walks sorted keys in one pass; each draw keeps its
        # own index, so the result is the unsorted search's, scattered back
        order = np.argsort(u)
        u = u[order]
        idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, mass.size - 1)
        width = cdf[idx + 1] - cdf[idx]
        frac = np.where(width > 0, (u - cdf[idx]) / np.where(width > 0, width, 1.0), 0.5)
        out[lo : lo + u.size][order] = t0 + (idx + frac) * dt

    for _ in _run_chunks(draw, max(1, math.ceil(n / CHUNK)), threads):
        pass
    return out


def _default_duration(delays: np.ndarray, det: DetectorModel) -> float:
    # sparse enough that accidentals stay rare amid the true pairs
    span = float(np.max(np.abs(delays), initial=0.0))
    pitch = 100.0 * det.coincidence_window + 10.0 * det.resolution_time + 4.0 * span
    return max(len(delays), 1) * pitch


def _window_pairs(left: np.ndarray, right: np.ndarray, w: float):
    """Every (left[i], right[j]) with fl(left[i] - w) <= right[j] <= fl(left[i] + w).

    Both arrays are sorted, and so are the rounded bounds ``left - w`` and
    ``left + w``.  The shorter array holds the search keys: each left time's
    bounds go into ``right``, or each right time goes into the bounds.
    Either way the pairs are the same set.
    """
    if left.size <= right.size:
        keys, found = left, right
        low_key, low_side, high_key, high_side = left - w, right, left + w, right
    else:
        keys, found = right, left
        low_key, low_side, high_key, high_side = right, left + w, right, left - w
    lo = np.searchsorted(low_side, low_key, side="left")
    # a key's range is empty unless it holds found[lo]; most are, so the
    # upper bound is searched only where it is not
    hi = lo.copy()
    hit = lo < found.size
    hit[hit] = high_side[lo[hit]] <= high_key[hit]
    hi[hit] = np.searchsorted(high_side, high_key[hit], side="right")
    count = hi - lo
    # every found index in [lo, hi) of each key, in order
    index = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
    pairs = np.repeat(keys, count), found[index]
    return pairs if keys is left else pairs[::-1]


def _dark_pairs(dark1: np.ndarray, dark2: np.ndarray, w: float) -> np.ndarray:
    """The (detector-1, detector-2) rows of two sorted dark lists, sorted, each once.

    A pair can lie inside one time's rounded window bounds but not the
    other's when the difference sits within an ulp of ``w``, so the pairs
    are searched from both sides and the two sets joined.
    """
    found = zip(_window_pairs(dark1, dark2, w), _window_pairs(dark2, dark1, w)[::-1])
    return np.unique(np.column_stack([np.concatenate(c) for c in found]), axis=0)


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
    opposite detector saw inside the coincidence window (the accidentals).

    Each chunk of pairs matches its kept photons against the whole dark list
    and hands back only its pair delays and accidental rows, so no full-length
    photon column is ever built.  Records leave as delays t2 - t1, pairs in
    draw order, accidentals sorted by (detector-1, detector-2 time), each once.
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
    # keep all timestamps positive regardless of jitter and delay signs; they
    # stay inside detect, but their magnitude sets the rounding of every delay
    offset = det.resolution_time + det.coincidence_window
    offset += float(np.max(np.abs(delays), initial=0.0))
    tr, w = det.resolution_time, det.coincidence_window
    darks = []
    if det.dark_rate > 0:
        for d in (0, 1):
            rng = _chunk_rng(seed, _DARK_KEY + d)
            count = rng.poisson(det.dark_rate * duration)
            darks.append(np.sort(offset + rng.uniform(0.0, duration, count)))

    def pair_chunk(k: int):
        m = min(CHUNK, n - k * CHUNK)
        rng = _chunk_rng(seed, _DETECT_KEY + k)
        s = offset + rng.uniform(0.0, duration, m)
        t1, t2 = s, s + delays[k * CHUNK : k * CHUNK + m]
        if tr > 0:
            t1 = s + rng.uniform(-tr / 2.0, tr / 2.0, m)
            t2 += rng.uniform(-tr / 2.0, tr / 2.0, m)
        keep1 = rng.random(m) < det.efficiency
        keep2 = rng.random(m) < det.efficiency
        found = []  # accidental (detector-1 times, detector-2 times)
        if darks:
            found.append(_window_pairs(darks[0], np.sort(t2[keep2]), w))
            found.append(_window_pairs(darks[1], np.sort(t1[keep1]), w)[::-1])
        both = keep1 & keep2
        return t2[both] - t1[both], found

    # the pair records fill the front of a buffer sized for every pair, so the
    # pages past the last record are never touched
    pairs = np.empty(n)
    n_pair, rows = 0, []
    for delay, found in _run_chunks(pair_chunk, max(1, math.ceil(n / CHUNK)), threads):
        pairs[n_pair : n_pair + delay.size] = delay
        n_pair += delay.size
        rows += found
    accidentals = np.empty(0)
    if darks:
        rows.append(tuple(_dark_pairs(*darks, w).T))
        t1, t2 = np.unique(np.column_stack([np.concatenate(c) for c in zip(*rows)]), axis=0).T
        accidentals = t2 - t1
    return Detections(pairs[:n_pair], accidentals)


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
    """Histogram of the record delays t2 - t1, pairs and accidentals together."""
    if not bin_width > 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    lo, hi = delay_range
    if not hi > lo:
        raise ValueError(f"empty delay range {delay_range}")
    n_bins = max(1, int(math.ceil((hi - lo) / bin_width)))
    edges = lo + bin_width * np.arange(n_bins + 1)
    counts = np.histogram(records.pairs, bins=edges)[0]
    counts += np.histogram(records.accidentals, bins=edges)[0]
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
    w = det.coincidence_window
    in_pair = int(np.count_nonzero(np.abs(records.pairs) <= w))
    in_accidental = int(np.count_nonzero(np.abs(records.accidentals) <= w))
    return {
        "n_records": len(records),
        "n_pair_records": records.pairs.size,
        "n_accidental_records": records.accidentals.size,
        "n_coincidences_in_window": in_pair + in_accidental,
        "n_pair_coincidences_in_window": in_pair,
    }
