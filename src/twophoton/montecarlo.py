"""Discrete photon-pair detection sampled from the analytic correlations.

Pair delays are drawn by inverse-CDF over a sampled intensity trace, pushed
through a finite-resolution detector (rectangular timing jitter, efficiency
thinning, Poisson dark counts), and histogrammed.  A fast detector shows the
correlation comb directly; a slow one only its envelope.

Randomness is chunked: every block of draws gets its own generator derived
from (seed, chunk index), so the event stream is identical whether chunks
run serially or on a thread pool.  ``stream_histogram`` runs every stage
chunk by chunk in one pass, in memory that grows with neither the number of
draws nor the number of accidental rows: each window search takes at most
CHUNK times and yields its rows in blocks of at most CHUNK.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correlation import MAX_QUAD_POINTS, CorrelationTrace, TraceKind
from .errors import DegenerateDensity, GridError, NumericsError

CHUNK = 1 << 16
# the largest mc.n_events a config may ask for, and the most accidental rows a
# run may expect.  An mc run keeps no per-event array and builds every
# accidental row, photon-dark or dark-dark, CHUNK rows at a time, so this cap
# bounds its run time, not its memory (a whole process at 2 threads: 47 MB at
# 2e6 events, 58 MB at this many; 45 MB darks-only at this many rows)
MAX_EVENTS = 1 << 25
# the most dark counts per detector a run may expect.  The dark lists and
# their bounds, 48 B per dark count of one detector, are what still grows:
# a darks-only run at this cap peaks at 208 MB (tracemalloc), 242 MB whole
MAX_DARKS = 1 << 22
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
    """Yield worker(k) for every chunk k of n items, CHUNK each, in order; n = 0 is one empty chunk.

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
        # the trapezoid masses and their running sum are formed in the CDF array
        cdf = np.empty(y.size + 1)
        cdf[0], cdf[-1] = 0.0, math.inf
        mass = cdf[1:-1]
        with np.errstate(over="ignore"):  # an overflow is refused below, with its cause
            np.add(y[1:], y[:-1], out=mass)
            mass *= 0.5
            mass *= dt
            total = float(mass.sum())
            np.cumsum(mass, out=mass)
        # the pairwise sum and the running sum round apart: both must be finite
        if not (math.isfinite(total) and math.isfinite(cdf[-2])):
            cause = "a sample is not finite" if not np.isfinite(y).all() else "its sum overflows"
            raise DegenerateDensity(f"trace mass is not finite: {cause}; nothing to sample")
        if not total > 0:
            raise DegenerateDensity("trace integrates to zero; nothing to sample")
        cdf[:-1] /= total
        cdf[-2] = 1.0
        buckets = 1 << mass.size.bit_length()
        # guide[j] counts the CDF points <= j / G, less one; G is a power of
        # two, so cdf[i] <= j / G exactly when ceil(cdf[i] G) <= j.  The
        # ceilings are cast as they are formed, and the table is allocated
        # after they are freed
        cells = np.empty(mass.size + 1, np.intp)
        np.ceil(cdf[:-1] * buckets, out=cells, casting="unsafe")
        count = np.bincount(cells, minlength=buckets + 1)
        del cells
        np.cumsum(count, out=count)  # at most the K CDF points: exact in int32
        guide = count[:buckets].astype(np.int32)
        guide -= 1
        return cls(cdf, guide, trace.grid.t_min, dt, n, seed)

    def _index(self, u: np.ndarray) -> np.ndarray:
        """``np.searchsorted(cdf, u, "right") - 1`` for uniforms in [0, 1), bit for bit."""
        cdf = self.cdf
        idx = self.guide[(u * self.guide.size).astype(np.intp)].astype(np.intp)
        # a draw below the second CDF point past its guide entry needs one
        # comparison; the rest, a few percent, are searched in sorted order
        far = np.flatnonzero(cdf[2:][idx] <= u)
        idx += cdf[1:][idx] <= u
        far = far[np.argsort(u[far])]
        idx[far] = np.searchsorted(cdf, u[far], side="right") - 1
        return idx

    def _delays(self, u: np.ndarray) -> np.ndarray:
        """The delays at uniforms ``u``, each placed uniformly inside its CDF bin.

        Every step is monotone in ``u``, so a larger uniform never gives a
        smaller delay.
        """
        idx = self._index(u)
        low = self.cdf[idx]
        # cdf[idx] <= u < cdf[idx + 1], both finite and distinct: the width is never 0
        width = self.cdf[1:][idx]
        width -= low
        # t0 + (idx + (u - low) / width) dt, formed inside the array of low
        delays = np.subtract(u, low, out=low)
        delays /= width
        delays += idx
        delays *= self.dt
        delays += self.t0
        return delays

    def chunk(self, k: int) -> np.ndarray:
        """The delays of chunk k, in draw order."""
        return self._delays(_chunk_rng(self.seed, k).random(min(CHUNK, self.n - k * CHUNK)))


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
class _Darks:
    """One detector's sorted dark counts, their windows' rounded bounds and time cells.

    A time t meets dark count d when fl(d - w) <= t <= fl(d + w).  The cells
    have width h = max(2w, span / cells) over the span of this list's
    windows, with 32 cells per dark count and at most 2^20, and each window
    marks the cells from that of its lower bound to that of its upper one.
    The cell index is monotone in time, so a time in an unmarked cell meets
    no dark count and is never searched.  Where the span or 1/h is not
    finite, every time falls in one cell, marked if there are dark counts.
    """

    times: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    origin: float
    scale: float
    marked: np.ndarray

    @classmethod
    def of(cls, times: np.ndarray, w: float) -> _Darks:
        with np.errstate(over="ignore"):  # an infinite bound is still a window edge
            lo, hi = times - w, times + w
        one_cell = cls(times, lo, hi, 0.0, 1.0, np.array([times.size > 0]))
        if not times.size:
            return one_cell
        span = float(hi[-1]) - float(lo[0])
        # about 32 cells per dark count, so that a few percent are marked
        scale = 1.0 / max(2.0 * w, span / min(_CELLS, 32 * times.size))
        if not (span < math.inf and 0.0 < scale < math.inf):
            return one_cell
        darks = cls(times, lo, hi, float(lo[0]), scale, np.zeros(int(span * scale) + 1, dtype=bool))
        # CHUNK windows at a time, so no index array is as long as the list
        for k in range(0, times.size, CHUNK):
            first, last = darks._cell(lo[k : k + CHUNK]), darks._cell(hi[k : k + CHUNK])
            # a window covers one or two cells, and more only by rounding
            for step in range(int(np.max(last - first)) + 1):
                darks.marked[np.minimum(first + step, last)] = True
        return darks

    def _cell(self, t: np.ndarray) -> np.ndarray:
        cell = np.empty(np.shape(t))
        with np.errstate(over="ignore"):  # past the floats is past the table's end
            np.subtract(t, self.origin, out=cell)
            cell *= self.scale
        return np.clip(cell, 0, self.marked.size - 1, out=cell).astype(np.intp)

    def rows(self, t: np.ndarray, keep=None):
        """Yield the rows (i, j), kept time j in dark count i's window, CHUNK rows at a time.

        The times come in any order; only the kept ones in marked cells are
        searched in the bounds.  The rows come in time order, each time's
        dark counts in order, and a time's rows may be split across blocks.
        A caller that lets each block go before it asks for the next (through
        ``map``, not a ``for`` loop) holds one block at a time.
        """
        hits = self.marked[self._cell(t)]
        if keep is not None:
            hits &= keep
        near = np.flatnonzero(hits)
        del hits
        # fl(d - w) <= fl(d + w), both sorted: the windows [first, end) hold each time
        first = np.searchsorted(self.hi, t[near], side="left")
        count = np.searchsorted(self.lo, t[near], side="right") - first
        met = count > 0
        who, first, count = near[met], first[met], count[met]
        del near, met
        start = np.zeros(count.size + 1, np.intp)
        np.cumsum(count, out=start[1:])
        size = int(start[-1])
        for r0 in range(0, size, CHUNK):
            r1 = min(r0 + CHUNK, size)
            # the times that make these rows, each making at least one
            a = int(np.searchsorted(start, r0, side="right")) - 1
            b = int(np.searchsorted(start, r1, side="left"))
            share = np.minimum(start[a + 1 : b + 1], r1) - np.maximum(start[a:b], r0)
            # row r of a time is its dark count first + (r - its start)
            yield (
                np.repeat(first[a:b] - start[a:b], share) + np.arange(r0, r1),
                np.repeat(who[a:b], share),
            )


@dataclass(frozen=True, eq=False)
class _Detector:
    """One run's detection: its duration and each detector's ``_Darks``, timed from 0."""

    det: DetectorModel
    seed: int
    duration: float
    darks: tuple  # empty without dark counts

    @classmethod
    def of(cls, det: DetectorModel, seed: int, n: int, bound: float, duration) -> _Detector:
        """Set up detecting n pairs with |delay| <= ``bound``; a refused run draws nothing."""
        if duration is None:
            # sparse enough that accidentals stay rare amid the true pairs; the
            # config alone sets it, so no draw is needed
            pitch = 100.0 * det.coincidence_window + 10.0 * det.resolution_time + 4.0 * bound
            duration = max(n, 1) * pitch
            if duration == math.inf:
                raise NumericsError(
                    f"detector.coincidence_window {det.coincidence_window:.3e} s, "
                    f"detector.resolution_time {det.resolution_time:.3e} s and delays up to "
                    f"{bound:.3e} s over {n} pairs make the derived mc.duration overflow; "
                    "set mc.duration"
                )
        if not 0 < duration < math.inf:
            raise ValueError(f"duration must be > 0 and finite, got {duration}")
        if det.dark_rate * duration > MAX_DARKS:
            raise NumericsError(
                f"detector.dark_rate {det.dark_rate:.3e} over mc.duration {duration:.3e} s "
                f"expects more than {MAX_DARKS} dark counts per detector"
            )
        rows = accidental_rows(det, n, duration)
        if rows > MAX_EVENTS:
            raise NumericsError(
                f"detector.dark_rate {det.dark_rate:.3e} with detector.coincidence_window "
                f"{det.coincidence_window:.3e} s over mc.duration {duration:.3e} s expects "
                f"{rows:.3e} accidental rows; cap is {MAX_EVENTS}"
            )
        darks = []
        if det.dark_rate > 0:
            for d in (0, 1):
                rng = _chunk_rng(seed, _DARK_KEY + d)
                count = rng.poisson(det.dark_rate * duration)
                times = rng.uniform(0.0, duration, count)
                times.sort()
                darks.append(_Darks.of(times, det.coincidence_window))
        return cls(det, seed, duration, tuple(darks))

    def chunk(self, k: int, delays: np.ndarray):
        """Yield (pairs, accidentals): chunk k's pair record delays, and t2 - t1 of its photon-dark rows.

        The rows come CHUNK at a time, detector 1's dark counts with detector
        2's photons first; the pair delays come with the first block only.
        """
        m = delays.size
        tr = self.det.resolution_time
        rng = _chunk_rng(self.seed, _DETECT_KEY + k)
        # pair starts and dark counts are uniform on [0, duration); a photon
        # time adds delay and jitter, so it may be negative
        s = rng.uniform(0.0, self.duration, m)
        t1, t2 = s, s + delays
        if tr > 0:
            t1 = s + rng.uniform(-tr / 2.0, tr / 2.0, m)
            t2 += rng.uniform(-tr / 2.0, tr / 2.0, m)
        keep1 = rng.random(m) < self.det.efficiency
        keep2 = rng.random(m) < self.det.efficiency
        pairs = (t2 - t1)[keep1 & keep2]
        blocks = iter(())
        if self.darks:
            # detector 1's dark counts meet detector 2's photons, and the other way round
            dark1, dark2 = self.darks
            blocks = itertools.chain(
                itertools.starmap(lambda i, j: t2[j] - dark1.times[i], dark1.rows(t2, keep2)),
                itertools.starmap(lambda i, j: dark2.times[i] - t1[j], dark2.rows(t1, keep1)),
            )
        yield pairs, next(blocks, np.empty(0))
        yield from map(lambda accidentals: (pairs[:0], accidentals), blocks)

    def dark_pairs(self, k: int):
        """The delays t2 - t1 of dark slice k's dark-dark rows, CHUNK rows at a time.

        Each pair comes out once.  The first slices are detector 2's times,
        CHUNK at a time, in detector 1's windows, the rest detector 1's times
        in detector 2's: a pair within an ulp of the window can lie inside
        one side's rounded bounds only, so the second side keeps the pairs
        that the first one missed.
        """
        dark1, dark2 = self.darks
        t1, t2 = dark1.times, dark2.times
        split = math.ceil(t2.size / CHUNK)
        if k < split:
            part = t2[k * CHUNK : (k + 1) * CHUNK]
            return itertools.starmap(lambda i, j: part[j] - t1[i], dark1.rows(part))
        cut = slice((k - split) * CHUNK, (k - split + 1) * CHUNK)
        part, lo, hi = t1[cut], dark1.lo[cut], dark1.hi[cut]

        def missed(j, i):
            out = (t2[j] < lo[i]) | (t2[j] > hi[i])
            return t2[j[out]] - part[i[out]]

        return itertools.starmap(missed, dark2.rows(part))


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
    CHUNK rows at a time, so no record leaves its chunk and the caller only
    adds counts.  The dark-dark pairs are tallied first, one slice of CHUNK
    dark counts per worker call on the same pool, so a run starts one pool.
    Every uniform is drawn once: the trace grid bounds the delays, so the
    default duration needs no pass over the draws.
    """
    edges = _edges(bin_width, delay_range)
    sampler = _Sampler.of(trace, n, seed)
    bound = max(abs(trace.grid.t_min), abs(trace.grid.t_max))
    del trace  # the sampler holds the CDF: a caller that keeps no name frees the samples
    run = _Detector.of(det, seed, n, bound, duration)
    w = det.coincidence_window

    def tally(pairs: np.ndarray, accidentals: np.ndarray):
        """Histogram pair and accidental delays; count each kind, in all and in the window."""
        found = [(d.size, np.count_nonzero(np.abs(d) <= w)) for d in (pairs, accidentals)]
        return np.histogram(np.concatenate([pairs, accidentals]), bins=edges)[0], np.array(found)

    def add(tallies):
        """The sum of the (counts, found) of any number of tallies."""
        counts, found = np.zeros(edges.size - 1, np.intp), np.zeros((2, 2), np.intp)
        for block_counts, block_found in tallies:
            counts += block_counts
            found += block_found
        return counts, found

    # the dark slices, then the pair chunks; n = 0 beside dark counts runs no
    # pair chunk, which would find nothing
    slices = sum(math.ceil(d.times.size / CHUNK) for d in run.darks)

    def work(k: int):
        if k < slices:
            return add(map(lambda block: tally(np.empty(0), block), run.dark_pairs(k)))
        k -= slices
        return add(itertools.starmap(tally, run.chunk(k, sampler.chunk(k))))

    counts, found = add(_run_chunks(work, slices * CHUNK + n, threads))
    (n_pair, in_pair), (n_accidental, in_accidental) = found.tolist()
    return DelayHistogram(counts=counts, edges=edges), {
        "n_records": n_pair + n_accidental,
        "n_pair_records": n_pair,
        "n_accidental_records": n_accidental,
        "n_coincidences_in_window": in_pair + in_accidental,
        "n_pair_coincidences_in_window": in_pair,
    }
