"""Discrete photon-pair detection sampled from the analytic correlations.

Pair delays are drawn by inverse-CDF over a sampled intensity trace, pushed
through a finite-resolution detector (rectangular timing jitter, efficiency
thinning, Poisson dark counts), and histogrammed.  A fast detector shows the
correlation comb directly; a slow one only its envelope.

Randomness is chunked: every block of draws gets its own generator derived
from (seed, chunk index), so the event stream is identical whether chunks
run serially or on a thread pool.  ``stream_histogram`` runs every stage
chunk by chunk in one pass, in memory that does not grow with the number of
draws.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correlation import MAX_QUAD_POINTS, CorrelationTrace, TraceKind
from .errors import DegenerateDensity, GridError, NumericsError

CHUNK = 1 << 16
# the largest mc.n_events a config may ask for, and the most dark counts per
# detector and accidental rows a run may expect; an mc run keeps no per-event
# array (53 MB at 2e6 events; 61 MB and 6.4 s at the cap, 2 threads), so the
# cap bounds its run time, the dark lists and the accidental rows
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
        for name in ("resolution_time", "coincidence_window", "efficiency", "dark_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.resolution_time < 0:
            raise ValueError(f"resolution_time must be >= 0, got {self.resolution_time}")
        if not self.coincidence_window > 0:
            raise ValueError(f"coincidence_window must be > 0, got {self.coincidence_window}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.dark_rate < 0:
            raise ValueError(f"dark_rate must be >= 0, got {self.dark_rate}")


def _chunk_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def _run_chunks(worker, n: int, threads: int):
    """Yield worker(k) for every chunk k of n draws, in order; n = 0 is one empty chunk.

    With threads > 1 the chunks run on a pool, at most one more than
    ``threads`` ahead of the caller, so a caller that stores each result and
    lets it go holds a few chunks at a time, however many there are.
    """
    n_chunks = max(1, math.ceil(n / CHUNK))
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


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray, t0: float, dt: float) -> np.ndarray:
    """The delays at uniforms ``u``, each placed uniformly inside its CDF bin.

    Every step is monotone in ``u``, so a larger uniform never gives a
    smaller delay.
    """
    idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, cdf.size - 2)
    width = cdf[idx + 1] - cdf[idx]
    frac = np.where(width > 0, (u - cdf[idx]) / np.where(width > 0, width, 1.0), 0.5)
    return t0 + (idx + frac) * dt


@dataclass(frozen=True, eq=False)
class _Sampler:
    """n pair delays from an intensity trace, chunk k drawn from stream k."""

    cdf: np.ndarray
    t0: float
    dt: float
    n: int
    seed: int

    @classmethod
    def of(cls, trace: CorrelationTrace, n: int, seed: int) -> _Sampler:
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
        return cls(cdf, trace.grid.t_min, dt, n, seed)

    def _uniforms(self, k: int) -> np.ndarray:
        return _chunk_rng(self.seed, k).random(min(CHUNK, self.n - k * CHUNK))

    def chunk(self, k: int) -> np.ndarray:
        """The delays of chunk k, in draw order."""
        u = self._uniforms(k)
        # the CDF search walks sorted keys in one pass; each draw keeps its
        # own index, so the result is the unsorted search's, scattered back
        order = np.argsort(u)
        out = np.empty(u.size)
        out[order] = _inverse_cdf(self.cdf, u[order], self.t0, self.dt)
        return out

    def max_abs(self, threads: int) -> float:
        """max |delay| over all n draws, bit for bit, from each chunk's extreme uniforms."""

        def extreme(k: int) -> float:
            u = self._uniforms(k)
            if not u.size:
                return 0.0
            ends = _inverse_cdf(self.cdf, np.array([u.min(), u.max()]), self.t0, self.dt)
            return float(np.max(np.abs(ends)))

        return max(_run_chunks(extreme, self.n, threads))


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


def accidental_rows(det: DetectorModel, n: int, duration: float) -> float:
    """The expected accidental rows a detection of n pairs builds before its one np.unique.

    Each detector's dark counts meet the other's n * efficiency photons and
    dark counts within the window, the dark-dark pairs once from each side;
    two uniform times on [0, duration] lie within w of each other with
    probability x (2 - x), x = min(w / duration, 1).
    """
    darks = det.dark_rate * duration
    x = min(det.coincidence_window / duration, 1.0)
    return 2.0 * x * (2.0 - x) * darks * (n * det.efficiency + darks)


@dataclass(frozen=True, eq=False)
class _Detector:
    """One run's detection: its duration, timestamp offset and dark lists."""

    det: DetectorModel
    seed: int
    duration: float
    offset: float
    darks: tuple

    @classmethod
    def of(cls, det: DetectorModel, seed: int, n: int, max_abs, duration) -> _Detector:
        """Set up the detection of n pairs whose largest |delay| is ``max_abs()``.

        ``max_abs`` draws, so a given duration is checked before it is called:
        a refused run draws nothing.
        """
        max_abs = functools.cache(max_abs)
        if duration is None:
            # sparse enough that accidentals stay rare amid the true pairs
            pitch = 100.0 * det.coincidence_window + 10.0 * det.resolution_time + 4.0 * max_abs()
            duration = max(n, 1) * pitch
        if not 0 < duration < math.inf:
            raise ValueError(f"duration must be > 0 and finite, got {duration}")
        if det.dark_rate * duration > MAX_EVENTS:
            raise NumericsError(
                f"detector.dark_rate {det.dark_rate:.3e} over mc.duration {duration:.3e} s "
                f"expects more than {MAX_EVENTS} dark counts per detector"
            )
        rows = accidental_rows(det, n, duration)
        if rows > MAX_EVENTS:
            raise NumericsError(
                f"detector.dark_rate {det.dark_rate:.3e} with detector.coincidence_window "
                f"{det.coincidence_window:.3e} s over mc.duration {duration:.3e} s expects "
                f"{rows:.3e} accidental rows; cap is {MAX_EVENTS}"
            )
        # keep all timestamps positive regardless of jitter and delay signs; they
        # stay inside the detection, but their magnitude sets the rounding of
        # every delay
        offset = det.resolution_time + det.coincidence_window + max_abs()
        darks = []
        if det.dark_rate > 0:
            for d in (0, 1):
                rng = _chunk_rng(seed, _DARK_KEY + d)
                count = rng.poisson(det.dark_rate * duration)
                darks.append(np.sort(offset + rng.uniform(0.0, duration, count)))
        return cls(det, seed, duration, offset, tuple(darks))

    def chunk(self, k: int, delays: np.ndarray):
        """Chunk k's pair record delays and its accidental (t1, t2) rows."""
        m = delays.size
        tr, w = self.det.resolution_time, self.det.coincidence_window
        rng = _chunk_rng(self.seed, _DETECT_KEY + k)
        s = self.offset + rng.uniform(0.0, self.duration, m)
        t1, t2 = s, s + delays
        if tr > 0:
            t1 = s + rng.uniform(-tr / 2.0, tr / 2.0, m)
            t2 += rng.uniform(-tr / 2.0, tr / 2.0, m)
        keep1 = rng.random(m) < self.det.efficiency
        keep2 = rng.random(m) < self.det.efficiency
        found = []  # accidental (detector-1 times, detector-2 times)
        if self.darks:
            found.append(_window_pairs(self.darks[0], np.sort(t2[keep2]), w))
            found.append(_window_pairs(self.darks[1], np.sort(t1[keep1]), w)[::-1])
        both = keep1 & keep2
        return t2[both] - t1[both], found

    def accidentals(self, rows: list) -> np.ndarray:
        """The accidental delays from every chunk's rows and the dark-dark pairs, each once."""
        if not self.darks:
            return np.empty(0)
        # a dark pair within an ulp of the window can lie inside one time's
        # rounded bounds only, so both sides are searched; the one np.unique
        # orders every (detector-1, detector-2) row and keeps each once
        (dark1, dark2), w = self.darks, self.det.coincidence_window
        rows = rows + [_window_pairs(dark1, dark2, w), _window_pairs(dark2, dark1, w)[::-1]]
        t1, t2 = np.unique(np.column_stack([np.concatenate(c) for c in zip(*rows)]), axis=0).T
        return t2 - t1


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


def histogram_edge_count(bin_width: float, delay_range: tuple) -> float:
    """ceil(span / bin_width) + 1 edges over ``delay_range``, at least 2; inf past the floats."""
    return max(2.0, float(np.ceil((delay_range[1] - delay_range[0]) / bin_width)) + 1.0)


def _edges(bin_width: float, delay_range: tuple) -> np.ndarray:
    if not 0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be > 0 and finite, got {bin_width}")
    lo, hi = delay_range
    if not hi > lo:
        raise ValueError(f"empty delay range {delay_range}")
    n = histogram_edge_count(bin_width, delay_range)
    if n > MAX_QUAD_POINTS:
        raise GridError(f"{n:.0f} histogram edges over {delay_range}; cap is {MAX_QUAD_POINTS}")
    return lo + bin_width * np.arange(int(n))


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


def stream_histogram(
    trace: CorrelationTrace,
    n: int,
    det: DetectorModel,
    seed: int,
    bin_width: float,
    delay_range: tuple,
    duration: float | None = None,
    threads: int = 1,
) -> tuple[DelayHistogram, dict]:
    """Sample, detect, histogram and count n pairs in one chunked pass.

    Chunk k's pair delays are drawn from sampling stream k, detected with
    detection stream k, histogrammed and counted before the next chunk's are
    needed, so no full-length delay or record array is built; only the
    accidental rows, which are few, are kept whole and join at the end, each
    once.  Records are delays t2 - t1.  The largest |delay|, which sets the
    timestamp offset and the default duration, comes first from a pass that
    draws only each chunk's uniforms.
    """
    edges = _edges(bin_width, delay_range)
    sampler = _Sampler.of(trace, n, seed)
    run = _Detector.of(det, seed, n, lambda: sampler.max_abs(threads), duration)
    w = det.coincidence_window

    def pair_chunk(k: int):
        return run.chunk(k, sampler.chunk(k))

    counts = np.zeros(edges.size - 1, dtype=np.intp)
    n_pair = in_pair = 0
    rows = []
    for delay, found in _run_chunks(pair_chunk, n, threads):
        counts += np.histogram(delay, bins=edges)[0]
        n_pair += delay.size
        in_pair += int(np.count_nonzero(np.abs(delay) <= w))
        rows += found
    accidentals = run.accidentals(rows)
    counts += np.histogram(accidentals, bins=edges)[0]
    in_window = in_pair + int(np.count_nonzero(np.abs(accidentals) <= w))
    return DelayHistogram(counts=counts, edges=edges), {
        "n_records": n_pair + accidentals.size,
        "n_pair_records": n_pair,
        "n_accidental_records": accidentals.size,
        "n_coincidences_in_window": in_window,
        "n_pair_coincidences_in_window": in_pair,
    }
