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
# array (50 MB at 2e6 events; 58 MB and 2.6-2.8 s at the cap with 1.7e5 dark
# counts per detector, 2 threads), and its photon-dark rows stay in their
# chunk, so the cap bounds its run time, the dark lists and the dark-dark
# rows, which are built whole (about 26 B per expected row)
MAX_EVENTS = 1 << 25
# spawn-key namespaces keep sampling, detection, and dark streams uncorrelated
_DARK_KEY = 1 << 32
_DETECT_KEY = 1 << 33
# the most time cells per dark list in the detection prefilter (1 MB each)
_CELLS = 1 << 20


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


@dataclass(frozen=True, eq=False)
class _Sampler:
    """n pair delays from an intensity trace, chunk k drawn from stream k.

    The CDF search goes through a guide table: ``guide[j]`` is the CDF index
    of the bucket edge j / G, G the power of two above the number of CDF
    bins, so G <= 2 (K - 1) for K CDF points.  ``u * G`` is exact, so a
    draw's index is at least its bucket's guide entry, and ``cdf`` ends in
    +inf so that the two CDF points past it can always be read.
    """

    cdf: np.ndarray
    guide: np.ndarray
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
        cdf = np.concatenate([[0.0], np.cumsum(mass), [math.inf]])
        cdf[:-1] /= total
        cdf[-2] = 1.0
        buckets = 1 << mass.size.bit_length()
        edges = np.arange(buckets) / buckets
        guide = (np.searchsorted(cdf, edges, side="right") - 1).astype(np.int32)
        return cls(cdf, guide, trace.grid.t_min, dt, n, seed)

    def _index(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cdf, u, "right") - 1`` for uniforms in [0, 1), bit for bit."""
        cdf = self.cdf
        lo = self.guide[(u * self.guide.size).astype(np.intp)].astype(np.intp)
        # a draw below the second CDF point past its guide entry needs one
        # comparison; the rest, a few percent, are searched
        idx = lo + (cdf[lo + 1] <= u)
        far = cdf[lo + 2] <= u
        idx[far] = np.searchsorted(cdf, u[far], side="right") - 1
        return idx

    def _delays(self, u: np.ndarray) -> np.ndarray:
        """The delays at uniforms ``u``, each placed uniformly inside its CDF bin.

        Every step is monotone in ``u``, so a larger uniform never gives a
        smaller delay.
        """
        idx = self._index(u)
        low = self.cdf[idx]
        width = self.cdf[idx + 1] - low
        frac = np.divide(u - low, width, out=np.full(u.size, 0.5), where=width > 0)
        return self.t0 + (idx + frac) * self.dt

    def _uniforms(self, k: int) -> np.ndarray:
        return _chunk_rng(self.seed, k).random(min(CHUNK, self.n - k * CHUNK))

    def chunk(self, k: int) -> np.ndarray:
        """The delays of chunk k, in draw order."""
        return self._delays(self._uniforms(k))

    def max_abs(self, threads: int) -> float:
        """max |delay| over all n draws, bit for bit, from each chunk's extreme uniforms."""

        def extreme(k: int) -> float:
            u = self._uniforms(k)
            if not u.size:
                return 0.0
            return float(np.max(np.abs(self._delays(np.array([u.min(), u.max()])))))

        return max(_run_chunks(extreme, self.n, threads))


def _window_pairs(lo: np.ndarray, hi: np.ndarray, t: np.ndarray):
    """The index pairs (i, j) of every window i that holds time j: lo[i] <= t[j] <= hi[i].

    The windows are a dark list's rounded bounds, sorted as the list is; the
    times come in any order, and each is searched in the bounds.
    """
    first = np.searchsorted(hi, t, side="left")
    # a time's range is empty unless window first holds it; most are, so the
    # lower bounds are searched only where it does
    end = first.copy()
    hit = first < lo.size
    hit[hit] = lo[first[hit]] <= t[hit]
    end[hit] = np.searchsorted(lo, t[hit], side="right")
    count = end - first
    # every window in [first, end) of each time, in order
    window = np.repeat(first - np.cumsum(count) + count, count) + np.arange(count.sum())
    return window, np.repeat(np.arange(t.size), count)


def accidental_rows(det: DetectorModel, n: int, duration: float) -> float:
    """The expected accidental rows that a detection of n pairs finds in its window searches.

    Each detector's dark counts meet the other's n * efficiency photons and
    dark counts within the window, the dark-dark pairs once from each side;
    two uniform times on [0, duration] lie within w of each other with
    probability x (2 - x), x = min(w / duration, 1).
    """
    darks = det.dark_rate * duration
    x = min(det.coincidence_window / duration, 1.0)
    return 2.0 * x * (2.0 - x) * darks * (n * det.efficiency + darks)


@dataclass(frozen=True, eq=False)
class _DarkCells:
    """Time cells of width h >= 2w, marked where a dark count's window reaches.

    h = max(2w, span / cells) over the span of the dark windows, with 32
    cells per dark count of the longer list and at most 2^20.  A photon
    matches dark count d when fl(d - w) <= t <= fl(d + w), the window's
    rounded bounds.  The cell index is monotone in time, so such a photon's
    cell lies between the cells of the two bounds, which are marked; a
    photon in an unmarked cell matches no dark count and is never searched.
    Where the span or 1/h is not finite, every time falls in one cell,
    marked if there are dark counts.
    """

    origin: float
    scale: float
    marked: tuple  # one boolean table per detector's dark list

    @classmethod
    def of(cls, bounds: tuple, w: float) -> _DarkCells:
        one_cell = cls(0.0, 1.0, tuple(np.array([lo.size > 0]) for lo, _ in bounds))
        ends = [float(e) for lo, hi in bounds if lo.size for e in (lo[0], hi[-1])]
        if not ends:
            return one_cell
        span = max(ends) - min(ends)
        # about 32 cells per dark count, so that a few percent are marked
        scale = 1.0 / max(2.0 * w, span / min(_CELLS, 32 * max(lo.size for lo, _ in bounds)))
        if not (span < math.inf and 0.0 < scale < math.inf):
            return one_cell
        size = int(span * scale) + 1
        cells = cls(min(ends), scale, tuple(np.zeros(size, dtype=bool) for _ in bounds))
        for table, (lo, hi) in zip(cells.marked, bounds):
            first, last = cells.index(lo), cells.index(hi)
            # a window covers one or two cells, and more only by rounding
            for step in range(int(np.max(last - first, initial=-1)) + 1):
                table[np.minimum(first + step, last)] = True
        return cells

    def index(self, t: np.ndarray) -> np.ndarray:
        """The cells of times ``t``, clipped to the table."""
        top = self.marked[0].size - 1
        return np.clip((t - self.origin) * self.scale, 0.0, top).astype(np.intp)

    def near(self, d: int, t: np.ndarray) -> np.ndarray:
        """Which times ``t`` lie in a cell that dark list d marks."""
        return self.marked[d][self.index(t)]


@dataclass(frozen=True, eq=False)
class _Detector:
    """One run's detection: duration, timestamp offset, dark lists, their bounds and cells."""

    det: DetectorModel
    seed: int
    duration: float
    offset: float
    darks: tuple
    bounds: tuple
    cells: _DarkCells

    @classmethod
    def of(cls, det: DetectorModel, seed: int, n: int, max_abs, duration) -> _Detector:
        """Set up the detection of n pairs whose largest |delay| is ``max_abs()``.

        ``max_abs`` draws, so a given duration is checked before it is called:
        a refused run draws nothing.
        """
        max_abs = functools.cache(max_abs)
        if duration is None:
            # sparse enough that accidentals stay rare amid the true pairs
            pitch = 100.0 * det.coincidence_window + 10.0 * det.resolution_time
            duration = max(n, 1) * pitch
            if duration < math.inf:  # an overflow is refused before max_abs draws
                duration = max(n, 1) * (pitch + 4.0 * max_abs())
            if duration == math.inf:
                raise NumericsError(
                    f"detector.coincidence_window {det.coincidence_window:.3e} s and "
                    f"detector.resolution_time {det.resolution_time:.3e} s over {n} pairs "
                    "make the derived mc.duration overflow; set mc.duration"
                )
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
        return cls.with_darks(det, seed, duration, offset, tuple(darks))

    @classmethod
    def with_darks(cls, det, seed, duration, offset, darks: tuple) -> _Detector:
        """The detection with these sorted dark lists, their windows' bounds and the cells."""
        w = det.coincidence_window
        with np.errstate(over="ignore"):  # an infinite bound is still a window edge
            bounds = tuple((d - w, d + w) for d in darks)
        return cls(det, seed, duration, offset, darks, bounds, _DarkCells.of(bounds, w))

    def chunk(self, k: int, delays: np.ndarray):
        """Chunk k's pair record delays and its photon-dark accidental delays t2 - t1."""
        m = delays.size
        tr = self.det.resolution_time
        rng = _chunk_rng(self.seed, _DETECT_KEY + k)
        s = self.offset + rng.uniform(0.0, self.duration, m)
        t1, t2 = s, s + delays
        if tr > 0:
            t1 = s + rng.uniform(-tr / 2.0, tr / 2.0, m)
            t2 += rng.uniform(-tr / 2.0, tr / 2.0, m)
        keep1 = rng.random(m) < self.det.efficiency
        keep2 = rng.random(m) < self.det.efficiency
        accidentals = np.empty(0)
        if self.darks:
            # detector 1's dark counts meet detector 2's photons, and the other way round
            t = t2[keep2 & self.cells.near(0, t2)]
            i, j = _window_pairs(*self.bounds[0], t)
            from_1 = t[j] - self.darks[0][i]
            t = t1[keep1 & self.cells.near(1, t1)]
            i, j = _window_pairs(*self.bounds[1], t)
            accidentals = np.concatenate([from_1, self.darks[1][i] - t[j]])
        return (t2 - t1)[keep1 & keep2], accidentals

    def dark_pairs(self) -> np.ndarray:
        """The accidental delays t2 - t1 of the dark-dark pairs, each pair once.

        A pair within an ulp of the window can lie inside one side's rounded
        bounds only, so detector 2's bounds add the pairs that detector 1's miss.
        """
        if not self.darks:
            return np.empty(0)
        (dark1, dark2), ((lo1, hi1), bounds2) = self.darks, self.bounds
        i, j = _window_pairs(lo1, hi1, dark2)
        j2, i1 = _window_pairs(*bounds2, dark1)
        missed = (dark2[j2] < lo1[i1]) | (dark2[j2] > hi1[i1])
        return np.concatenate([dark2[j] - dark1[i], dark2[j2[missed]] - dark1[i1[missed]]])


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

    Records are delays t2 - t1.  Chunk k's pairs are drawn from sampling
    stream k and detected with detection stream k; the same worker tallies
    its pair delays and its photons' accidental delays with the dark counts,
    so no record leaves its chunk and the caller only adds counts.  The
    dark-dark pairs are tallied once, first.  The largest |delay|, which sets
    the timestamp offset and the default duration, comes from a pass that
    draws only each chunk's uniforms.
    """
    edges = _edges(bin_width, delay_range)
    sampler = _Sampler.of(trace, n, seed)
    run = _Detector.of(det, seed, n, lambda: sampler.max_abs(threads), duration)
    w = det.coincidence_window

    def tally(pairs: np.ndarray, accidentals: np.ndarray):
        """Histogram pair and accidental delays; count each kind, in all and in the window."""
        found = [(d.size, np.count_nonzero(np.abs(d) <= w)) for d in (pairs, accidentals)]
        return np.histogram(np.concatenate([pairs, accidentals]), bins=edges)[0], np.array(found)

    counts, found = tally(np.empty(0), run.dark_pairs())
    chunks = _run_chunks(lambda k: tally(*run.chunk(k, sampler.chunk(k))), n, threads)
    for chunk_counts, chunk_found in chunks:
        counts += chunk_counts
        found += chunk_found
    (n_pair, in_pair), (n_accidental, in_accidental) = found.tolist()
    return DelayHistogram(counts=counts, edges=edges), {
        "n_records": n_pair + n_accidental,
        "n_pair_records": n_pair,
        "n_accidental_records": n_accidental,
        "n_coincidences_in_window": in_pair + in_accidental,
        "n_pair_coincidences_in_window": in_pair,
    }
