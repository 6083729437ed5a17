import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import twophoton.montecarlo as montecarlo
from twophoton import (
    CorrelationTrace,
    DegenerateDensity,
    DetectorModel,
    GridError,
    NumericsError,
    TimeGrid,
    TraceKind,
    comb_contrast,
    gamma2_mode_locked,
    stream_histogram,
)

from twophoton.correlation import MAX_QUAD_POINTS
from twophoton.montecarlo import (
    _DARK_KEY,
    _DETECT_KEY,
    CHUNK,
    MAX_EVENTS,
    DelayHistogram,
    _Darks,
    _Detector,
    _edges,
    _run_chunks,
    _Sampler,
    accidental_rows,
    histogram_edge_count,
)

from conftest import (
    detect_oracle,
    jitter_convolution_oracle,
    make_comb,
    sample_oracle,
    summary_oracle,
)

T_R = 1.0
FMAX = np.finfo(float).max


def comb_trace(n_side=10, linewidth_frac=0.01, span=20.0, points=2**18 + 1):
    comb = make_comb(n_side, linewidth_frac)
    grid = TimeGrid(-span * T_R, span * T_R, points)
    return comb, gamma2_mode_locked(comb, grid)


def flat_trace(lo=-1.0, hi=1.0, points=513, value=1.0):
    grid = TimeGrid(lo, hi, points)
    return CorrelationTrace(grid, np.full(points, value), TraceKind.INTENSITY)


def gapped_trace():
    """A comb with empty bins between the peaks: some CDF steps are flat."""
    grid = TimeGrid(-2.0, 2.0, 4097)
    y = np.maximum(comb_trace(points=4097, span=2.0)[1].samples - 2.0, 0.0)
    return CorrelationTrace(grid, y, TraceKind.INTENSITY)


def sample(trace, n, seed, threads=1):
    """The pair delays of every ``_Sampler`` chunk, in order."""
    return np.concatenate(list(_run_chunks(_Sampler.of(trace, n, seed).chunk, n, threads)))


def records(delays, det, seed, duration, threads=1):
    """(pair delays, sorted accidental delays) of ``delays`` from the ``_Detector`` chunks."""
    delays = np.asarray(delays, dtype=float)
    bound = float(np.max(np.abs(delays), initial=0.0))
    run = _Detector.of(det, seed, delays.size, bound, duration)

    def chunk(k):
        return run.chunk(k, delays[k * CHUNK : (k + 1) * CHUNK])

    chunks = list(_run_chunks(chunk, delays.size, threads))
    pairs = np.concatenate([pair for pair, _ in chunks])
    return pairs, np.sort(np.concatenate([run.dark_pairs()] + [found for _, found in chunks]))


def oracle_records(delays, det, seed, duration):
    """``detect_oracle``'s records, its accidental delays sorted as ``records`` sorts them."""
    pairs, accidentals = detect_oracle(delays, det, seed=seed, duration=duration)
    return pairs, np.sort(accidentals)


def hand_built(darks, w):
    """A detection over these sorted dark lists, window w; no pair is drawn from it."""
    det = DetectorModel(resolution_time=0.0, coincidence_window=w)
    darks = tuple(_Darks.of(np.asarray(d, dtype=float), w) for d in darks)
    return _Detector(det, 0, 1.0, darks)


def stream_range(trace=None, n=1, bin_width=0.1, delay_range=(-1.0, 1.0), duration=None):
    """``stream_histogram`` of n draws from ``trace`` (flat by default) on an ideal detector."""
    trace = flat_trace() if trace is None else trace
    det = DetectorModel(0.0, 1.0)
    return stream_histogram(trace, n, det, 1, bin_width, delay_range, duration=duration)


class TestSampler:
    def test_single_hot_bin_confines_the_samples(self):
        grid = TimeGrid(-1.0, 1.0, 201)
        y = np.zeros(201)
        y[120] = 1.0
        trace = CorrelationTrace(grid, y, TraceKind.INTENSITY)
        samples = sample(trace, 5000, seed=1)
        lo, hi = grid.values[119], grid.values[121]
        assert samples.min() >= lo and samples.max() <= hi

    def test_uniform_trace_passes_ks(self):
        trace = flat_trace()
        n = 40000
        samples = sample(trace, n, seed=2)
        stat = stats.kstest(samples, stats.uniform(loc=-1.0, scale=2.0).cdf).statistic
        assert stat < 1.36 / math.sqrt(n)

    def test_comb_concentrates_near_round_trips(self):
        comb, trace = comb_trace()
        n = 100_000
        samples = sample(trace, n, seed=3)
        peak_halfwidth = T_R / (2 * comb.n_side_modes + 1)
        phase = np.abs((samples + T_R / 2) % T_R - T_R / 2)
        frac = float(np.mean(phase < peak_halfwidth))
        # oracle: the same fraction from the trace's own bin masses
        tau = trace.grid.values
        mass = 0.5 * (trace.samples[1:] + trace.samples[:-1])
        centers = 0.5 * (tau[1:] + tau[:-1])
        cphase = np.abs((centers + T_R / 2) % T_R - T_R / 2)
        expected = float(mass[cphase < peak_halfwidth].sum() / mass.sum())
        assert frac > 0.9
        assert frac == pytest.approx(expected, abs=4.0 * math.sqrt(0.1 / n) + 2e-3)

    def test_deterministic_and_thread_invariant(self):
        trace = flat_trace()
        n = (1 << 16) + 7  # straddles a chunk boundary
        a = sample(trace, n, seed=11, threads=1)
        b = sample(trace, n, seed=11, threads=4)
        c = sample(trace, n, seed=11, threads=1)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
        assert not np.array_equal(a, sample(trace, n, seed=12))

    def test_zero_density_is_degenerate(self):
        with pytest.raises(DegenerateDensity):
            stream_range(flat_trace(value=0.0), n=10)

    def test_zero_draws(self):
        assert sample(flat_trace(), 0, seed=0).size == 0

    def test_chunks_stay_apart_under_frequent_thread_switches(self):
        # the chunks run on a pool and come back in order, each with its own streams
        trace = flat_trace()
        n = 5 * CHUNK + 11
        det = DetectorModel(
            resolution_time=0.3, coincidence_window=0.5, efficiency=0.8, dark_rate=0.002
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            delays = sample(trace, n, seed=27, threads=8)
            pooled = records(delays, det, seed=28, duration=1e5, threads=8)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(delays, sample(trace, n, seed=27))
        for got, want in zip(pooled, records(delays, det, seed=28, duration=1e5)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [0, 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_the_unsorted_search_oracle(self, n, threads):
        trace = gapped_trace()
        assert np.count_nonzero(trace.samples == 0) > 1000
        got = sample(trace, n, seed=23, threads=threads)
        np.testing.assert_array_equal(got, sample_oracle(trace, n, seed=23))


def two_point_trace():
    grid = TimeGrid(-1.0, 1.0, 2)
    return CorrelationTrace(grid, np.array([1.0, 3.0]), TraceKind.INTENSITY)


def spiky_trace():
    """Spikes on a floor 1e-9 as high: the floor's CDF points crowd into single buckets."""
    grid = TimeGrid(-1.0, 1.0, 4097)
    y = np.where(np.arange(4097) % 256 == 0, 1.0, 1e-9)
    return CorrelationTrace(grid, y, TraceKind.INTENSITY)


def zero_stretch_trace():
    """Zero mass at both ends and between two bumps: long runs of equal CDF points."""
    y = np.zeros(1025)
    y[300:400] = 1.0
    y[700:710] = 5.0
    return CorrelationTrace(TimeGrid(-1.0, 1.0, 1025), y, TraceKind.INTENSITY)


def oracle_cdf(trace):
    y, dt = trace.samples, trace.grid.spacing
    mass = 0.5 * (y[1:] + y[:-1]) * dt
    cdf = np.concatenate([[0.0], np.cumsum(mass)]) / float(mass.sum())
    cdf[-1] = 1.0
    return cdf


class TestGuideTable:
    """The guide-table index is the CDF search's, bit for bit."""

    TRACES = {"gapped": gapped_trace, "two_point": two_point_trace, "spiky": spiky_trace}

    @staticmethod
    def adversarial_uniforms(cdf, buckets):
        edges = np.arange(buckets) / buckets
        u = np.concatenate(
            [
                [0.0, 1.0 - 2.0**-53],
                cdf,
                np.nextafter(cdf, -np.inf),
                np.nextafter(cdf, np.inf),
                edges,
                np.nextafter(edges[1:], -np.inf),
            ]
        )
        return u[(u >= 0.0) & (u < 1.0)]

    @pytest.mark.parametrize("name", sorted(TRACES))
    def test_the_index_is_the_search(self, name):
        trace = self.TRACES[name]()
        sampler = _Sampler.of(trace, 1, 0)
        cdf = oracle_cdf(trace)
        np.testing.assert_array_equal(sampler.cdf[:-1], cdf)
        u = self.adversarial_uniforms(cdf, sampler.guide.size)
        want = np.searchsorted(cdf, u, side="right") - 1
        np.testing.assert_array_equal(sampler._index(u), want)
        # and the delays are the plain inverse CDF's at these uniforms
        width = cdf[want + 1] - cdf[want]
        frac = np.where(width > 0, (u - cdf[want]) / np.where(width > 0, width, 1.0), 0.5)
        want_delays = trace.grid.t_min + (want + frac) * trace.grid.spacing
        np.testing.assert_array_equal(sampler._delays(u), want_delays)

    def test_crowded_buckets_are_searched(self):
        trace = spiky_trace()
        sampler = _Sampler.of(trace, 1, 0)
        cdf = oracle_cdf(trace)
        assert np.bincount((cdf[:-1] * sampler.guide.size).astype(np.intp)).max() > 100
        u = self.adversarial_uniforms(cdf, sampler.guide.size)
        lo = sampler.guide[(u * sampler.guide.size).astype(np.intp)]
        assert np.count_nonzero(sampler.cdf[lo + 2] <= u) > 1000

    @pytest.mark.parametrize("name", sorted(TRACES) + ["zero_stretch"])
    def test_the_counted_guide_is_the_searched_guide(self, name):
        trace = {**self.TRACES, "zero_stretch": zero_stretch_trace}[name]()
        sampler = _Sampler.of(trace, 1, 0)
        buckets = sampler.guide.size
        want = np.searchsorted(sampler.cdf, np.arange(buckets) / buckets, side="right") - 1
        np.testing.assert_array_equal(sampler.guide, want)

    @pytest.mark.parametrize("points", [2, 3, 4, 5, 4097, 131073])
    def test_the_guide_is_no_larger_than_the_cdf(self, points):
        trace = flat_trace(points=points)
        sampler = _Sampler.of(trace, 1, 0)
        buckets = sampler.guide.size
        assert buckets & (buckets - 1) == 0 and points - 1 < buckets <= 2 * (points - 1)
        assert sampler.guide.nbytes <= sampler.cdf.nbytes
        assert sampler.guide.dtype == np.int32


class TestDetector:
    def test_identity_detector_preserves_delays(self):
        delays = np.linspace(-0.4, 0.4, 1001)
        det = DetectorModel(resolution_time=0.0, coincidence_window=1.0)
        pairs, accidentals = records(delays, det, seed=4, duration=1.0)
        assert pairs.size == delays.size
        np.testing.assert_allclose(pairs, delays, atol=1e-12)
        assert accidentals.size == 0

    def test_efficiency_thins_pairs_quadratically(self):
        delays = np.zeros(40000)
        det = DetectorModel(resolution_time=0.0, coincidence_window=1.0, efficiency=0.5)
        pairs, accidentals = records(delays, det, seed=5, duration=100.0)
        frac = (pairs.size + accidentals.size) / delays.size
        sigma = math.sqrt(0.25 * 0.75 / delays.size)
        assert abs(frac - 0.25) < 3.0 * sigma

    def test_slow_detector_washes_out_the_comb(self):
        comb, trace = comb_trace()
        det = DetectorModel(resolution_time=10.0 * T_R, coincidence_window=1e4)
        hist, summary = stream_histogram(trace, 200_000, det, 6, 0.5, (-32.0, 32.0), duration=1e6)
        probs = jitter_convolution_oracle(
            trace.grid.values, trace.samples, det.resolution_time, hist.edges
        )
        expected = probs * summary["n_records"]
        keep = expected > 10
        chi2 = float(np.sum((hist.counts[keep] - expected[keep]) ** 2 / expected[keep]))
        dof = int(keep.sum()) - 1
        assert chi2 < stats.chi2.ppf(0.95, dof)

    def test_dark_counts_appear_as_accidentals(self):
        det = DetectorModel(
            resolution_time=0.0, coincidence_window=1e-3, efficiency=1.0, dark_rate=0.05
        )
        pairs, accidentals = records(np.zeros(2000), det, seed=8, duration=2e4)
        n_dark = accidentals.size
        assert pairs.size == 2000
        assert n_dark > 0
        assert np.unique(accidentals).size == n_dark  # no double counting
        # the summary counts the same records: every pair delay lies in the window
        _, summary = stream_histogram(
            flat_trace(-1e-4, 1e-4), 2000, det, 8, 1e-4, (-1e-3, 1e-3), duration=2e4
        )
        assert summary["n_accidental_records"] > 0
        assert summary["n_pair_records"] == summary["n_pair_coincidences_in_window"] == 2000

    @pytest.mark.parametrize("n", [0, 1, 1000])
    @pytest.mark.parametrize("resolution_time, window", [(0.0, 1e-8), (1e-9, 2e-8), (0.3, 0.5)])
    def test_the_derived_duration_comes_from_the_config(self, n, resolution_time, window):
        # max(n, 1) (100 w + 10 T_R + 4 B), B the bound on |delay|; nothing is drawn
        det = DetectorModel(resolution_time=resolution_time, coincidence_window=window)
        run = _Detector.of(det, 1, n, 2.5, duration=None)
        assert run.duration == max(n, 1) * (100.0 * window + 10.0 * resolution_time + 4.0 * 2.5)

    def test_dark_counts_past_the_event_cap_are_refused(self):
        det = DetectorModel(resolution_time=0.0, coincidence_window=1e-3, dark_rate=1e15)
        with pytest.raises(NumericsError, match="detector.dark_rate"):
            stream_histogram(flat_trace(), 1000, det, 1, 0.1, (-1.0, 1.0), duration=1.0)

    def test_thread_invariance(self):
        delays = np.linspace(-0.2, 0.2, (1 << 16) + 100)
        det = DetectorModel(resolution_time=0.3, coincidence_window=1.0, efficiency=0.8)
        r1 = records(delays, det, seed=9, duration=50.0, threads=1)
        r2 = records(delays, det, seed=9, duration=50.0, threads=3)
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a, b)

    def test_darks_with_thinning_across_a_chunk_boundary(self):
        delays = np.linspace(-0.2, 0.2, (1 << 16) + 100)
        det = DetectorModel(
            resolution_time=0.3, coincidence_window=0.5, efficiency=0.8, dark_rate=0.02
        )
        d1 = records(delays, det, seed=20, duration=1e4, threads=1)
        d3 = records(delays, det, seed=20, duration=1e4, threads=3)
        for a, b in zip(d1, d3):
            np.testing.assert_array_equal(a, b)
        pairs, accidentals = d1
        assert 1000 < accidentals.size < pairs.size + accidentals.size

    def test_accidentals_keep_the_detector_order(self):
        # each record is (detector-1 time, detector-2 time), so a dark count
        # on either detector falls on either side of zero delay, evenly
        det = DetectorModel(
            resolution_time=0.0, coincidence_window=1.0, efficiency=0.8, dark_rate=0.05
        )
        _, deltas = records(np.zeros(20000), det, seed=3, duration=2e4)
        n = deltas.size
        positive = int(np.count_nonzero(deltas > 0))
        assert n > 1000
        assert np.count_nonzero(deltas < 0) == n - positive
        assert abs(positive - n / 2) < 5.0 * math.sqrt(n / 4)

    @pytest.mark.parametrize(
        "n, threads, efficiency, dark, resolution_time",
        list(itertools.product([0, 1, 2 * CHUNK + 3], [1, 3], [1.0, 0.8], [False, True], [0.0, 0.3])),
    )
    def test_matches_the_stream_wide_oracle(self, n, threads, efficiency, dark, resolution_time):
        duration = 20.0 * max(n, 50)
        det = DetectorModel(
            resolution_time=resolution_time,
            coincidence_window=0.5,
            efficiency=efficiency,
            dark_rate=400.0 / duration if dark else 0.0,
        )
        delays = np.random.default_rng(24).normal(0.0, 0.1, n)
        got = records(delays, det, seed=25, duration=duration, threads=threads)
        want = oracle_records(delays, det, seed=25, duration=duration)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        if dark:
            assert got[1].size > 0


def near(darks, t):
    """Which times ``t`` lie in a cell that ``darks`` marks."""
    return darks.marked[darks._cell(t)]


class TestDarkCells:
    """The prefilter keeps every time that a dark count's window reaches."""

    @staticmethod
    def adversarial_photons(times, w, darks):
        """Times on and beside the edges of the cells of ``darks`` and on the windows' bounds."""
        rng = np.random.default_rng(31)
        h = 1.0 / darks.scale
        size = darks.marked.size
        # cell edges around every dark count's cells, the first and the last
        around = np.concatenate([darks._cell(d) for d in times])
        k = np.concatenate([around - 1, around, around + 1, around + 2, [0, 1, size - 1, size]])
        edges = darks.origin + np.clip(k, 0, size) * h
        photons = [edges, np.nextafter(edges, -np.inf)]
        for d in times:
            for bound in (d - w, d + w):
                photons += [bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)]
        lo, hi = darks.origin, darks.origin + size * h
        photons.append(rng.uniform(lo - 3.0 * w, hi + 3.0 * w, 4000))
        photons.append([0.0, lo - 1e3, hi + 1e3, math.inf])
        return np.concatenate(photons)

    @pytest.mark.parametrize(
        "window",
        [1e-6, 0.05, 20.0],
        ids=["narrower_than_a_cell", "half_a_cell", "wider_than_the_run"],
    )
    def test_the_rows_are_the_unfiltered_rows(self, window):
        rng = np.random.default_rng(30)
        times = tuple(np.sort(5.0 + rng.uniform(0.0, 10.0, 200)) for _ in range(2))
        for darks in hand_built(times, window).darks:
            # 32 cells per dark count over this list's own span
            span = darks.times[-1] - darks.times[0] + 2.0 * window
            assert 1.0 / darks.scale == pytest.approx(max(2.0 * window, span / (32 * 200)))
            # the outermost dark counts reach the first and the last cell
            assert darks._cell(darks.lo).min() == 0
            assert darks._cell(darks.hi).max() == darks.marked.size - 1
            photons = self.adversarial_photons(times, window, darks)
            got = set(zip(*darks.pairs(photons)))
            # the unfiltered rows, by brute force over every (dark count, photon)
            inside = (darks.lo[:, None] <= photons) & (photons <= darks.hi[:, None])
            want = set(zip(*np.nonzero(inside)))
            assert got == want and len(want) > 400
            # the widest window marks every cell; the others drop some photons
            assert darks.marked.all() == (window == 20.0) == near(darks, photons).all()

    @pytest.mark.parametrize(
        "darks, window, tables",
        [
            # an infinite bound in list 0; list 1's span is finite, 2w: two cells
            ((np.array([1.0, FMAX]), np.array([2.0])), 1e300, [[True], [True, True]]),
            ((np.array([1.0, 2.0]), np.array([3.0])), 1e308, [[True], [True]]),  # infinite h
            ((np.array([1.0, 1.0]), np.array([1.0])), 5e-324, [[True], [True]]),  # infinite 1/h
            ((np.array([math.inf]), np.array([math.inf])), 1.0, [[True], [True]]),  # no finite span
            ((np.empty(0), np.empty(0)), 1.0, [[False], [False]]),  # no dark counts
        ],
        ids=["inf_bound", "inf_cell", "inf_scale", "inf_darks", "no_darks"],
    )
    def test_a_table_without_a_finite_span_is_one_cell(self, darks, window, tables):
        # fl(d + w) itself may overflow: an infinite bound, set up without a warning
        with np.errstate(all="raise"):
            run = hand_built(darks, window)
        assert [d.marked.tolist() for d in run.darks] == tables
        photons = np.array([0.0, 1.0, FMAX, math.inf])
        for d in run.darks:
            np.testing.assert_array_equal(near(d, photons), d.times.size > 0)

    def test_a_cell_index_past_the_floats_is_the_last_cell(self):
        # one dark count, window 1e-300: cells of 2e-300, so a photon 1e10 away
        # is 5e309 cells from the origin, which overflows without a warning
        darks = _Darks.of(np.array([0.0]), 1e-300)
        assert 1.0 / darks.scale == 2e-300
        i, j = darks.pairs(np.array([-1e10, -1.0, 0.0, 1.0, 1e10]))
        assert i.tolist() == [0] and j.tolist() == [2]

    def test_an_empty_dark_list_marks_nothing(self):
        dark1, dark2 = hand_built(([1.0, 4.0], []), 0.5).darks
        # cells of width 2w = 1 from 0.5: the windows [0.5, 1.5] and [3.5, 4.5] reach their edges
        assert dark1.marked.tolist() == [True, True, False, True, True]
        assert not dark2.marked.any()

    @pytest.mark.parametrize("threads", [1, 3])
    def test_whole_runs_narrower_than_a_cell_match_the_oracle(self, threads):
        # the window is a fifth of a cell: only the marked cells' photons are searched
        n, duration = CHUNK + 5, 1e4
        det = DetectorModel(
            resolution_time=1e-3, coincidence_window=2e-3, efficiency=0.8, dark_rate=4.0
        )
        delays = np.random.default_rng(32).normal(0.0, 1e-3, n)
        got = records(delays, det, seed=33, duration=duration, threads=threads)
        want = oracle_records(delays, det, seed=33, duration=duration)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert got[1].size > 1000
        run = _Detector.of(det, 33, n, float(np.max(np.abs(delays))), duration)
        for darks in run.darks:
            assert 1.0 / darks.scale > 4.0 * det.coincidence_window
            assert darks.marked.mean() < 0.1

    def test_an_infinite_bound_leaves_the_other_list_its_cells(self):
        # times up to 1.75e308: two of detector 1's 9 windows overflow, detector
        # 2's 3 windows end below the largest float and mark 4 of 6 cells
        n, seed, duration = 300, 13, 1.75e308
        det = DetectorModel(resolution_time=0.0, coincidence_window=1e307, dark_rate=6.0 / duration)
        delays = np.random.default_rng(36).normal(0.0, 1.0, n)
        run = _Detector.of(det, seed, n, float(np.max(np.abs(delays))), duration)
        dark1, dark2 = run.darks
        assert np.isinf(dark1.hi[-1]) and dark1.marked.size == 1
        assert np.isfinite(dark2.hi).all() and 0.0 < dark2.marked.mean() < 1.0
        photons = np.random.default_rng(37).uniform(0.0, duration, 1000)
        assert 0.0 < near(dark2, photons).mean() < 1.0
        got = records(delays, det, seed=seed, duration=duration)
        want = oracle_records(delays, det, seed=seed, duration=duration)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        assert got[1].size > 0


class TestAccidentalRowCap:
    """Runs that expect more than MAX_EVENTS accidental rows are refused before any draw."""

    @staticmethod
    def built_rows(det, n, duration, seed):
        """The accidental rows of n <= CHUNK zero delays, both dark-dark searches included."""
        run = _Detector.of(det, seed, n, 0.0, duration)
        dark1, dark2 = run.darks
        dark_rows = [dark1.pairs(dark2.times), dark2.pairs(dark1.times)]
        return run.chunk(0, np.zeros(n))[1].size + sum(i.size for i, _ in dark_rows)

    @pytest.mark.parametrize(
        "window", [3e-3, 0.3, 2.0], ids=["narrow", "comparable", "wider_than_the_run"]
    )
    def test_the_expectation_counts_the_rows_built(self, window):
        # the mean over seeds of the rows built, both dark-dark searches included
        n, duration = 300, 1.0
        det = DetectorModel(0.0, window, efficiency=0.5, dark_rate=200.0)
        got = [self.built_rows(det, n, duration, seed) for seed in range(32)]
        want = accidental_rows(det, n, duration)
        assert abs(np.mean(got) - want) < 5.0 * np.std(got) / math.sqrt(len(got))

    def test_the_overflowing_run_draws_nothing(self, monkeypatch):
        def no_draws(seed, key):
            raise AssertionError(f"stream {key} drawn")

        monkeypatch.setattr(montecarlo, "_chunk_rng", no_draws)
        # 41943 dark counts per detector, under their cap, all within one
        # window of each other: about 3.7e9 rows
        det = DetectorModel(1e-11, 2.0, dark_rate=2097152.0)
        assert det.dark_rate * 2e-2 < MAX_EVENTS < accidental_rows(det, 2000, 2e-2)
        tracemalloc.start()
        try:
            with pytest.raises(NumericsError, match="dark_rate .* detector.coincidence_window"):
                stream_histogram(flat_trace(), 2000, det, 1, 0.01, (-1.0, 1.0), duration=2e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_an_overflowing_derived_duration_draws_nothing(self, monkeypatch):
        def no_draws(seed, key):
            raise AssertionError(f"stream {key} drawn")

        monkeypatch.setattr(montecarlo, "_chunk_rng", no_draws)
        # 1000 pairs times a pitch of 100 windows: 1e311 s
        det = DetectorModel(1e-8, 1e306)
        with pytest.raises(NumericsError, match="detector.coincidence_window .* mc.duration"):
            stream_histogram(flat_trace(), 1000, det, 1, 0.01, (-1.0, 1.0))


class TestStreamHistogram:
    """The one-pass route gives the histogram and summary of the oracle records."""

    @pytest.mark.parametrize(
        "n, threads, efficiency, dark, resolution_time, derived_duration",
        list(
            itertools.product(
                [0, 1, 2 * CHUNK + 3], [1, 3], [1.0, 0.8], [False, True], [0.0, 0.3], [False, True]
            )
        ),
    )
    def test_matches_the_oracle_records(
        self, n, threads, efficiency, dark, resolution_time, derived_duration
    ):
        trace = gapped_trace()
        duration = 20.0 * max(n, 50)
        det = DetectorModel(
            resolution_time=resolution_time,
            coincidence_window=0.5,
            efficiency=efficiency,
            dark_rate=400.0 / duration if dark else 0.0,
        )
        delays = sample_oracle(trace, n, seed=25)
        if derived_duration:
            # the trace grid bounds the delays at 2
            duration = None
            run_duration = max(n, 1) * (100.0 * 0.5 + 10.0 * resolution_time + 4.0 * 2.0)
        else:
            run_duration = duration
        # the range cuts off part of the comb, and its top edge is not a bin edge
        hist, summary = stream_histogram(
            trace, n, det, 25, 0.01, (-1.5, 1.755), duration=duration, threads=threads
        )
        pairs, accidentals = detect_oracle(delays, det, seed=25, duration=run_duration)
        edges = -1.5 + 0.01 * np.arange(327)
        np.testing.assert_array_equal(hist.edges, edges)
        want = np.histogram(np.concatenate([pairs, accidentals]), bins=edges)[0]
        np.testing.assert_array_equal(hist.counts, want)
        assert summary == summary_oracle(pairs, accidentals, det.coincidence_window)
        if n > 1:
            assert 0 < hist.n_counted < summary["n_records"]
        if dark:
            assert summary["n_accidental_records"] > 0

    def test_times_that_round_to_one_value_are_distinct_events(self):
        # every delay is 2^60, drawn from one CDF bin a quarter of an ulp wide,
        # and a pair start in [0, 1) is below half an ulp of it: all of
        # detector 2's photon times round to 2^60.  The window covers the run,
        # so each (dark, photon) and (dark, dark) pair is one record
        big = 2.0**60
        samples = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        trace = CorrelationTrace(TimeGrid(big, big + 256.0, 5), samples, TraceKind.INTENSITY)
        det = DetectorModel(resolution_time=0.0, coincidence_window=1.7e308, dark_rate=2.0)
        hist, summary = stream_histogram(trace, 10, det, 1, 0.01, (-1.5, 1.755), duration=1.0)
        delays = sample_oracle(trace, 10, seed=1)
        assert (delays == big).all() and 1.0 < math.ulp(big) / 2.0
        pairs, accidentals = detect_oracle(delays, det, seed=1, duration=1.0)
        want = np.histogram(np.concatenate([pairs, accidentals]), bins=hist.edges)[0]
        np.testing.assert_array_equal(hist.counts, want)
        assert summary == summary_oracle(pairs, accidentals, det.coincidence_window)
        darks1, darks2 = (d.times.size for d in _Detector.of(det, 1, 10, big, 1.0).darks)
        assert darks1 > 0 and darks2 > 0
        rows = 10 * (darks1 + darks2) + darks1 * darks2
        assert summary["n_accidental_records"] == rows
        assert (accidentals == big).sum() == 10 * darks1

    @pytest.mark.parametrize(
        "trace",
        [gapped_trace(), flat_trace(-0.5, 3.0), flat_trace(-3.0, 0.5)],
        ids=["gapped", "positive", "negative"],
    )
    @pytest.mark.parametrize("n", [0, 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_the_derived_duration_takes_the_grid_bound(self, trace, n, threads):
        # the grid bounds every drawn delay, and a run without mc.duration is
        # the run at max(n, 1) (100 w + 10 T_R + 4 B), dark counts included
        bound = max(abs(trace.grid.t_min), abs(trace.grid.t_max))
        delays = sample(trace, n, seed=29, threads=threads)
        np.testing.assert_array_equal(delays, sample_oracle(trace, n, seed=29))
        assert ((trace.grid.t_min <= delays) & (delays <= trace.grid.t_max)).all()
        assert n < CHUNK or np.max(np.abs(delays)) > 0.9 * bound
        duration = max(n, 1) * (100.0 * 0.5 + 10.0 * 0.3 + 4.0 * bound)
        det = DetectorModel(resolution_time=0.3, coincidence_window=0.5, dark_rate=50.0 / duration)
        assert all(d.times.size > 0 for d in _Detector.of(det, 29, n, bound, None).darks)
        args = (trace, n, det, 29, 0.01, (-3.5, 3.5))
        derived = stream_histogram(*args, threads=threads)
        given = stream_histogram(*args, duration=duration, threads=threads)
        np.testing.assert_array_equal(derived[0].counts, given[0].counts)
        assert derived[1] == given[1]
        assert derived[1]["n_accidental_records"] > 0

    @pytest.mark.parametrize("threads", [1, 3])
    def test_every_stream_is_created_once(self, monkeypatch, threads):
        # three sampling and three detection chunks, and the two dark streams
        keys, make = [], montecarlo._chunk_rng

        def counted(seed, key):
            keys.append(key)
            return make(seed, key)

        monkeypatch.setattr(montecarlo, "_chunk_rng", counted)
        n = 2 * CHUNK + 3
        det = DetectorModel(resolution_time=0.3, coincidence_window=0.5, dark_rate=1e-3)
        _, summary = stream_histogram(
            gapped_trace(), n, det, 2, 0.01, (-1.5, 1.5), duration=20.0 * n, threads=threads
        )
        assert summary["n_accidental_records"] > 0
        chunks = [0, 1, 2]
        want = chunks + [_DETECT_KEY + k for k in chunks] + [_DARK_KEY, _DARK_KEY + 1]
        assert sorted(keys) == sorted(want)

    def test_counts_and_summary_do_not_depend_on_the_thread_count(self):
        # each worker histograms and counts its own chunks; the caller only adds
        trace = gapped_trace()
        n = 2 * CHUNK + 17
        dark_rate = 400.0 / (20.0 * n)
        det = DetectorModel(
            resolution_time=0.3, coincidence_window=0.5, efficiency=0.8, dark_rate=dark_rate
        )
        runs = [
            stream_histogram(trace, n, det, 34, 0.01, (-1.5, 1.755), duration=20.0 * n, threads=t)
            for t in (1, 2, 3)
        ]
        for hist, summary in runs[1:]:
            np.testing.assert_array_equal(hist.counts, runs[0][0].counts)
            assert summary == runs[0][1]
        assert runs[0][1]["n_accidental_records"] > 0

    def test_memory_does_not_grow_with_the_event_count(self):
        trace = flat_trace()
        det = DetectorModel(
            resolution_time=0.3, coincidence_window=0.5, efficiency=0.8, dark_rate=3e-5
        )

        def peak(n, threads):
            tracemalloc.start()
            try:
                _, summary = stream_histogram(trace, n, det, 30, 0.01, (-2.0, 2.0), threads=threads)
                assert summary["n_accidental_records"] > 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1 << 16, 2)  # warm-up
        # one thread holds one chunk at a time, whatever the event count
        small = peak(1 << 18, 1)
        assert peak(1 << 20, 1) - small <= 1 << 20
        # on a pool, each worker holds at most one chunk's temporaries, and the
        # finished chunks waiting for the caller hold only their pair delays;
        # how many wait at the peak depends on the scheduling
        assert peak(1 << 20, 2) <= 2 * small + (2 << 20)

    def test_memory_does_not_grow_with_the_accidental_rows(self):
        # about 2.1e6 accidental rows expected, 1.6e6 records: each chunk's
        # rows are tallied in the chunk, none is kept to the end
        n = 2 * CHUNK
        det = DetectorModel(resolution_time=0.0, coincidence_window=2e-3, dark_rate=2000.0)
        assert accidental_rows(det, n, 1.0) > 2e6
        tracemalloc.start()
        try:
            _, summary = stream_histogram(flat_trace(), n, det, 1, 0.01, (-1.0, 1.0), duration=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert summary["n_accidental_records"] > 1.5e6
        assert peak < 64 << 20



class TestWindowPairs:
    W = 0.25

    def brute_force(self, left, right):
        w = self.W
        return sorted((a, b) for a in left for b in right if a - w <= b <= a + w)

    def pairs(self, left, right):
        """The (left, right) values of the pairs found in the windows of dark counts ``left``."""
        i, j = _Darks.of(left, self.W).pairs(right)
        return sorted(zip(left[i], right[j]))

    def edge_case(self):
        w = self.W
        # photons exactly on the rounded bounds fl(d - w) and fl(d + w) of each
        # dark count d, and one ulp outside each; the windows of 3.3 and 3.4 overlap
        left = np.array([1.1, 3.3, 3.3 + 0.1, 7.7])
        right = []
        for d in left:
            lo, hi = d - w, d + w
            right += [lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)]
        right += [right[0], 5.0]  # a duplicated time and one far from every dark count
        return left, np.sort(np.array(right))

    @pytest.mark.parametrize("shorter", ["left", "right"])
    def test_window_edges_against_brute_force(self, shorter):
        left, right = self.edge_case()
        if shorter == "right":
            left = np.concatenate([left, 100.0 + np.arange(30.0)])  # dark counts far from all
        assert (left.size <= right.size) == (shorter == "left")
        got = self.pairs(left, right)
        want = self.brute_force(left, right)
        assert got == want
        assert len(want) > 4

    def test_the_times_may_come_in_any_order(self):
        left, right = self.edge_case()
        shuffled = np.random.default_rng(35).permutation(right)
        assert not np.array_equal(shuffled, right)
        i, j = _Darks.of(left, self.W).pairs(shuffled)
        # each time's windows come out together, in the times' order
        assert np.all(np.diff(j) >= 0)
        assert self.pairs(left, shuffled) == self.brute_force(left, right)

    def test_a_dark_count_matches_photons_from_two_chunks(self):
        left, right = self.edge_case()
        chunks = right[0::2], right[1::2]
        got = sorted(pair for chunk in chunks for pair in self.pairs(left, chunk))
        assert got == self.brute_force(left, right)
        for chunk in chunks:
            assert left[0] in [a for a, _ in self.pairs(left, chunk)]

    def test_empty_sides(self):
        empty = np.empty(0)
        for a, b in ((empty, np.array([1.0])), (np.array([1.0]), empty), (empty, empty)):
            got = _Darks.of(a, self.W).pairs(b)
            assert got[0].size == 0 and got[1].size == 0


class TestDarkPairs:
    """The dark-dark pairs among the accidentals, with no chunk rows beside them."""

    W = 3e-9
    # the window edge of D1 crosses 2^-5: D2 lies inside D1's rounded bounds
    # fl(D1 -+ W), but D1 lies outside D2's
    D1, D2 = 0.03124999719478273, 0.03125000019478273

    def accidentals(self, dark1, dark2):
        return np.sort(hand_built((dark1, dark2), self.W).dark_pairs())

    def test_the_rounded_bounds_differ_by_side(self):
        assert self.D1 - self.W <= self.D2 <= self.D1 + self.W
        assert not self.D2 - self.W <= self.D1 <= self.D2 + self.W

    @pytest.mark.parametrize("swap", [False, True])
    def test_a_pair_inside_one_side_bounds_is_kept(self, swap):
        dark1, dark2 = [self.D1], [self.D2]
        if swap:
            dark1, dark2 = dark2, dark1
        np.testing.assert_array_equal(self.accidentals(dark1, dark2), [dark2[0] - dark1[0]])

    def test_a_pair_inside_both_sides_bounds_comes_out_once(self):
        dark1 = [self.D1, 1.0]
        dark2 = [self.D2, 1.0 + 1e-9, 2.0]
        t1, t2 = np.array([[self.D1, self.D2], [1.0, 1.0 + 1e-9]]).T
        np.testing.assert_array_equal(self.accidentals(dark1, dark2), np.sort(t2 - t1))

    def test_repeated_times_are_distinct_events(self):
        # two dark counts at 1.0 on detector 1 and two at 1.2 on detector 2,
        # each pair inside both sides' bounds: each count meets both of the
        # other's, 4 records of one delay; 3.0 and 5.0 meet nothing
        got = hand_built(([1.0, 1.0, 3.0], [1.2, 1.2, 5.0]), 0.5).dark_pairs()
        np.testing.assert_array_equal(got, [1.2 - 1.0] * 4)


class TestHistogramAndContrast:
    def test_empty_input(self):
        hist, summary = stream_range(n=0)
        assert hist.counts.sum() == 0
        assert hist.counts.size == 20
        assert summary["n_records"] == 0

    def test_hand_built_records(self, monkeypatch):
        # pairs exactly at the window edges count as in the window; 2.0 lies
        # outside the window and the histogram range, -0.9 alone in its bin
        pairs, accidentals = np.array([-0.5, 0.5, 0.1, 0.15, 2.0]), np.array([0.05, 0.3, -0.9])
        # two accidentals come from the chunk, one from the dark-dark pairs
        monkeypatch.setattr(_Detector, "chunk", lambda self, k, delays: (pairs, accidentals[:2]))
        monkeypatch.setattr(_Detector, "dark_pairs", lambda self: accidentals[2:])
        det = DetectorModel(resolution_time=0.0, coincidence_window=0.5)
        hist, summary = stream_histogram(flat_trace(), 5, det, 0, 0.25, (-1.0, 1.0), duration=1.0)
        assert summary == {
            "n_records": 8,
            "n_pair_records": 5,
            "n_accidental_records": 3,
            "n_coincidences_in_window": 6,
            "n_pair_coincidences_in_window": 4,
        }
        np.testing.assert_array_equal(hist.counts, [1, 0, 1, 0, 3, 1, 1, 0])

    def test_counts_conserved_when_range_covers(self):
        det = DetectorModel(resolution_time=0.0, coincidence_window=10.0)
        hist, summary = stream_histogram(
            flat_trace(-0.9, 0.9), 777, det, 10, 0.05, (-1.0, 1.0), duration=5.0
        )
        assert hist.n_counted == summary["n_records"] == 777

    def test_fast_detector_shows_the_comb(self):
        comb, trace = comb_trace()
        det = DetectorModel(resolution_time=T_R / 100.0, coincidence_window=1e4)
        args = (T_R / 100.0, (-20.0, 20.0))
        hist, _ = stream_histogram(trace, 300_000, det, 12, *args, duration=1e6)
        contrast = comb_contrast(hist, T_R, comb.n_side_modes)
        assert contrast > 0.99

    def test_slow_detector_contrast_collapses(self):
        comb, trace = comb_trace()
        det = DetectorModel(resolution_time=10.0 * T_R, coincidence_window=1e4)
        args = (T_R / 100.0, (-20.0, 20.0))
        hist, _ = stream_histogram(trace, 300_000, det, 14, *args, duration=1e6)
        assert comb_contrast(hist, T_R, comb.n_side_modes) < 0.05

    def test_slow_detector_contour_is_smooth(self):
        comb, trace = comb_trace()
        det = DetectorModel(resolution_time=10.0 * T_R, coincidence_window=1e4)
        hist, _ = stream_histogram(trace, 1_000_000, det, 16, T_R / 4.0, (-5.0, 5.0), duration=1e6)
        mid = hist.counts[1:-1].astype(float)
        neighbors = 0.5 * (hist.counts[:-2] + hist.counts[2:])
        ripple = np.abs(mid - neighbors) / neighbors
        assert ripple.max() < 0.05

    def test_histogram_convergence_against_bin_masses(self):
        # with no jitter the per-bin counts follow the trace exactly
        comb, trace = comb_trace()
        n = 1_000_000
        bw = T_R / 50.0
        det = DetectorModel(0.0, 1.0)
        hist, _ = stream_histogram(trace, n, det, 18, bw, (-20.0, 20.0), duration=1.0)
        probs = jitter_convolution_oracle(trace.grid.values, trace.samples, 0.0, hist.edges)
        expected = probs * n
        dev = np.abs(hist.counts - expected) / np.maximum(np.sqrt(expected), 1.0)
        assert dev[expected > 1].max() < 5.0


class TestHistogramEdgeCap:
    """Past MAX_QUAD_POINTS edges a histogram is refused before any edge is made."""

    AT_CAP = 4.0 / (MAX_QUAD_POINTS - 1)  # a power of two: the edges over (-2, 2) land exactly
    OVER_CAP = [
        (math.nextafter(AT_CAP, 0.0), (-2.0, 2.0), MAX_QUAD_POINTS + 1),
        (2e-9, (-1.0, 1.0), 1e9 + 1),
        (0.1, (0.0, math.inf), math.inf),
    ]

    def refused(self, call) -> int:
        """The tracemalloc peak of ``call``, which must raise GridError."""
        tracemalloc.start()
        try:
            with pytest.raises(GridError, match=f"histogram edges .*; cap is {MAX_QUAD_POINTS}"):
                call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_the_count_at_the_cap(self):
        assert histogram_edge_count(self.AT_CAP, (-2.0, 2.0)) == MAX_QUAD_POINTS
        assert histogram_edge_count(1.0, (0.0, 0.5)) == 2

    @pytest.mark.parametrize("width, delay_range, edges", OVER_CAP)
    def test_edges(self, width, delay_range, edges):
        assert histogram_edge_count(width, delay_range) == edges
        # cap + 1 float64 edges alone would take 32 MB
        assert self.refused(lambda: _edges(width, delay_range)) < 1 << 20

    @pytest.mark.parametrize("width, delay_range, edges", OVER_CAP)
    def test_stream_histogram_draws_nothing(self, monkeypatch, width, delay_range, edges):
        def no_draws(seed, key):
            raise AssertionError(f"stream {key} drawn")

        monkeypatch.setattr(montecarlo, "_chunk_rng", no_draws)
        trace = flat_trace()
        det = DetectorModel(resolution_time=0.0, coincidence_window=0.5, dark_rate=1.0)
        peak = self.refused(
            lambda: stream_histogram(trace, MAX_EVENTS, det, 1, width, delay_range)
        )
        assert peak < 1 << 20


def test_an_infinite_bin_width_is_refused():
    # lo + inf * 0 would make the first edge NaN and leave every delay uncounted
    with pytest.raises(ValueError, match="bin_width must be > 0 and finite"):
        stream_histogram(flat_trace(), 1, DetectorModel(0.0, 1.0), 1, math.inf, (-1.0, 1.0))


def test_comb_contrast_of_empty_peak_bins_is_zero():
    # counts only between the peaks: no peak level to compare against
    edges = np.linspace(-1.0, 1.0, 201)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = (np.abs(np.abs(centers) - 0.5) <= 0.125).astype(int)
    assert comb_contrast(DelayHistogram(counts, edges), T_R, 10) == 0.0


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: DetectorModel(resolution_time=-1.0, coincidence_window=1.0), "resolution_time"),
        (lambda: DetectorModel(resolution_time=0.0, coincidence_window=0.0), "coincidence_window"),
        (
            lambda: DetectorModel(resolution_time=0.0, coincidence_window=1.0, efficiency=1.5),
            "efficiency",
        ),
        (
            lambda: DetectorModel(resolution_time=0.0, coincidence_window=1.0, dark_rate=-1.0),
            "dark_rate",
        ),
        (
            lambda: DetectorModel(resolution_time=math.nan, coincidence_window=1.0),
            "resolution_time must be finite",
        ),
        (
            lambda: DetectorModel(resolution_time=math.inf, coincidence_window=1.0),
            "resolution_time must be finite",
        ),
        (
            lambda: DetectorModel(resolution_time=0.0, coincidence_window=math.inf),
            "coincidence_window must be finite",
        ),
        (
            lambda: DetectorModel(resolution_time=0.0, coincidence_window=1.0, dark_rate=math.nan),
            "dark_rate must be finite",
        ),
        (
            lambda: DetectorModel(resolution_time=0.0, coincidence_window=1.0, dark_rate=math.inf),
            "dark_rate must be finite",
        ),
        (
            lambda: stream_range(
                CorrelationTrace(TimeGrid(-1.0, 1.0, 5), np.ones(5), TraceKind.AMPLITUDE), n=3
            ),
            "needs an intensity trace",
        ),
        (lambda: stream_range(n=-1), "n must be >= 0"),
        (lambda: stream_range(duration=0.0), "duration must be > 0"),
        (lambda: stream_range(duration=math.inf), "duration must be > 0 and finite"),
        (lambda: stream_range(duration=math.nan), "duration must be > 0 and finite"),
        (lambda: stream_range(bin_width=0.0), "bin_width must be > 0"),
        (lambda: stream_range(delay_range=(1.0, 1.0)), "empty delay range"),
    ],
    ids=[
        "resolution_time", "coincidence_window", "efficiency", "dark_rate",
        "resolution_time_nan", "resolution_time_inf", "coincidence_window_inf", "dark_rate_nan",
        "dark_rate_inf",
        "sample_amplitude_trace", "sample_negative_n", "detect_zero_duration",
        "detect_infinite_duration", "detect_nan_duration", "histogram_zero_bin",
        "histogram_empty_range",
    ],
)
def test_refused_input(call, fragment):
    with pytest.raises(ValueError, match=fragment):
        call()
