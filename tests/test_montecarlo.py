import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from twophoton import (
    CorrelationTrace,
    DegenerateDensity,
    DetectorModel,
    Detections,
    NumericsError,
    TimeGrid,
    TraceKind,
    comb_contrast,
    detect,
    gamma2_mode_locked,
    histogram_delays,
    sample_pair_delays,
    summarize_records,
)

from twophoton.montecarlo import CHUNK, _dark_pairs, _window_pairs

from conftest import detect_oracle, jitter_convolution_oracle, make_comb, sample_oracle

T_R = 1.0


def comb_trace(n_side=10, linewidth_frac=0.01, span=20.0, points=2**18 + 1):
    comb = make_comb(n_side, linewidth_frac)
    grid = TimeGrid(-span * T_R, span * T_R, points)
    return comb, gamma2_mode_locked(comb, grid)


def flat_trace(lo=-1.0, hi=1.0, points=513, value=1.0):
    grid = TimeGrid(lo, hi, points)
    return CorrelationTrace(grid, np.full(points, value), TraceKind.INTENSITY)


class TestSamplePairDelays:
    def test_single_hot_bin_confines_the_samples(self):
        grid = TimeGrid(-1.0, 1.0, 201)
        y = np.zeros(201)
        y[120] = 1.0
        trace = CorrelationTrace(grid, y, TraceKind.INTENSITY)
        samples = sample_pair_delays(trace, 5000, seed=1)
        lo, hi = grid.values[119], grid.values[121]
        assert samples.min() >= lo and samples.max() <= hi

    def test_uniform_trace_passes_ks(self):
        trace = flat_trace()
        n = 40000
        samples = sample_pair_delays(trace, n, seed=2)
        stat = stats.kstest(samples, stats.uniform(loc=-1.0, scale=2.0).cdf).statistic
        assert stat < 1.36 / math.sqrt(n)

    def test_comb_concentrates_near_round_trips(self):
        comb, trace = comb_trace()
        n = 100_000
        samples = sample_pair_delays(trace, n, seed=3)
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
        a = sample_pair_delays(trace, n, seed=11, threads=1)
        b = sample_pair_delays(trace, n, seed=11, threads=4)
        c = sample_pair_delays(trace, n, seed=11, threads=1)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
        assert not np.array_equal(a, sample_pair_delays(trace, n, seed=12))

    def test_zero_density_is_degenerate(self):
        with pytest.raises(DegenerateDensity):
            sample_pair_delays(flat_trace(value=0.0), 10, seed=0)

    def test_zero_draws(self):
        assert sample_pair_delays(flat_trace(), 0, seed=0).size == 0

    def test_chunks_stay_apart_under_frequent_thread_switches(self):
        # the sampling chunks write into one shared array, each into its own slice
        trace = flat_trace()
        n = 5 * CHUNK + 11
        det = DetectorModel(
            resolution_time=0.3, coincidence_window=0.5, efficiency=0.8, dark_rate=0.002
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            delays = sample_pair_delays(trace, n, seed=27, threads=8)
            records = detect(delays, det, seed=28, duration=1e5, threads=8)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(delays, sample_pair_delays(trace, n, seed=27))
        serial = detect(delays, det, seed=28, duration=1e5)
        for column in ("pairs", "accidentals"):
            np.testing.assert_array_equal(getattr(records, column), getattr(serial, column))

    @pytest.mark.parametrize("n", [0, 1, 2 * CHUNK + 3])
    @pytest.mark.parametrize("threads", [1, 3])
    def test_matches_the_unsorted_search_oracle(self, n, threads):
        # a comb with empty bins between the peaks: some CDF steps are flat
        grid = TimeGrid(-2.0, 2.0, 4097)
        y = np.maximum(comb_trace(points=4097, span=2.0)[1].samples - 2.0, 0.0)
        trace = CorrelationTrace(grid, y, TraceKind.INTENSITY)
        assert np.count_nonzero(y == 0) > 1000
        got = sample_pair_delays(trace, n, seed=23, threads=threads)
        np.testing.assert_array_equal(got, sample_oracle(trace, n, seed=23))


class TestDetect:
    def test_identity_detector_preserves_delays(self):
        delays = np.linspace(-0.4, 0.4, 1001)
        det = DetectorModel(resolution_time=0.0, coincidence_window=1.0)
        records = detect(delays, det, seed=4, duration=1.0)
        assert len(records) == delays.size
        np.testing.assert_allclose(records.pairs, delays, atol=1e-12)
        assert records.accidentals.size == 0

    def test_efficiency_thins_pairs_quadratically(self):
        delays = np.zeros(40000)
        det = DetectorModel(resolution_time=0.0, coincidence_window=1.0, efficiency=0.5)
        records = detect(delays, det, seed=5, duration=100.0)
        frac = len(records) / delays.size
        sigma = math.sqrt(0.25 * 0.75 / delays.size)
        assert abs(frac - 0.25) < 3.0 * sigma

    def test_slow_detector_washes_out_the_comb(self):
        comb, trace = comb_trace()
        delays = sample_pair_delays(trace, 200_000, seed=6)
        det = DetectorModel(resolution_time=10.0 * T_R, coincidence_window=1e4)
        records = detect(delays, det, seed=7, duration=1e6)
        hist = histogram_delays(records, bin_width=0.5, delay_range=(-32.0, 32.0))
        probs = jitter_convolution_oracle(
            trace.grid.values, trace.samples, det.resolution_time, hist.edges
        )
        expected = probs * len(records)
        keep = expected > 10
        chi2 = float(np.sum((hist.counts[keep] - expected[keep]) ** 2 / expected[keep]))
        dof = int(keep.sum()) - 1
        assert chi2 < stats.chi2.ppf(0.95, dof)

    def test_dark_counts_appear_as_accidentals(self):
        delays = np.zeros(2000)
        det = DetectorModel(
            resolution_time=0.0, coincidence_window=1e-3, efficiency=1.0, dark_rate=0.05
        )
        records = detect(delays, det, seed=8, duration=2e4)
        n_dark = records.accidentals.size
        assert len(records) - n_dark == 2000
        assert n_dark > 0
        assert np.unique(records.accidentals).size == n_dark  # no double counting
        summary = summarize_records(records, det)
        assert summary["n_accidental_records"] == n_dark
        assert summary["n_pair_coincidences_in_window"] == 2000

    def test_dark_counts_past_the_event_cap_are_refused(self):
        det = DetectorModel(resolution_time=0.0, coincidence_window=1e-3, dark_rate=1e15)
        with pytest.raises(NumericsError, match="detector.dark_rate"):
            detect(np.zeros(1000), det, seed=1, duration=1.0)

    def test_thread_invariance(self):
        delays = np.linspace(-0.2, 0.2, (1 << 16) + 100)
        det = DetectorModel(resolution_time=0.3, coincidence_window=1.0, efficiency=0.8)
        r1 = detect(delays, det, seed=9, duration=50.0, threads=1)
        r2 = detect(delays, det, seed=9, duration=50.0, threads=3)
        for column in ("pairs", "accidentals"):
            np.testing.assert_array_equal(getattr(r1, column), getattr(r2, column))

    def test_darks_with_thinning_across_a_chunk_boundary(self):
        delays = np.linspace(-0.2, 0.2, (1 << 16) + 100)
        det = DetectorModel(
            resolution_time=0.3, coincidence_window=0.5, efficiency=0.8, dark_rate=0.02
        )
        d1 = detect(delays, det, seed=20, duration=1e4, threads=1)
        d3 = detect(delays, det, seed=20, duration=1e4, threads=3)
        for column in ("pairs", "accidentals"):
            np.testing.assert_array_equal(getattr(d1, column), getattr(d3, column))
        assert 1000 < d1.accidentals.size < len(d1)

    def test_accidentals_keep_the_detector_order(self):
        # each record is (detector-1 time, detector-2 time), so a dark count
        # on either detector falls on either side of zero delay, evenly
        det = DetectorModel(
            resolution_time=0.0, coincidence_window=1.0, efficiency=0.8, dark_rate=0.05
        )
        dets = detect(np.zeros(20000), det, seed=3, duration=2e4)
        deltas = dets.accidentals
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
        got = detect(delays, det, seed=25, duration=duration, threads=threads)
        want = detect_oracle(delays, det, seed=25, duration=duration)
        for column in ("pairs", "accidentals"):
            np.testing.assert_array_equal(getattr(got, column), getattr(want, column))
        if dark:
            assert got.accidentals.size > 0

    def test_one_call_peaks_below_32_bytes_per_event(self):
        n = 1 << 18
        delays = np.linspace(-0.2, 0.2, n)
        det = DetectorModel(
            resolution_time=0.3, coincidence_window=0.5, efficiency=0.8, dark_rate=0.02
        )
        detect(delays[:1000], det, seed=26, duration=1e4, threads=2)  # warm-up
        tracemalloc.start()
        try:
            records = detect(delays, det, seed=26, duration=4e4, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert records.accidentals.size > 1000
        assert peak / n <= 32.0


class TestWindowPairs:
    W = 0.25

    def brute_force(self, left, right):
        w = self.W
        return sorted((a, b) for a in left for b in right if a - w <= b <= a + w)

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
        got = sorted(zip(*_window_pairs(left, right, self.W)))
        want = self.brute_force(left, right)
        assert got == want
        assert len(want) > 4

    def test_a_dark_count_matches_photons_from_two_chunks(self):
        left, right = self.edge_case()
        chunks = right[0::2], right[1::2]
        got = sorted(pair for chunk in chunks for pair in zip(*_window_pairs(left, chunk, self.W)))
        assert got == self.brute_force(left, right)
        for chunk in chunks:
            assert left[0] in _window_pairs(left, chunk, self.W)[0]

    def test_empty_sides(self):
        empty = np.empty(0)
        for a, b in ((empty, np.array([1.0])), (np.array([1.0]), empty), (empty, empty)):
            got = _window_pairs(a, b, self.W)
            assert got[0].size == 0 and got[1].size == 0


class TestDarkPairs:
    W = 3e-9
    # the window edge of D1 crosses 2^-5: D2 lies inside D1's rounded bounds
    # fl(D1 -+ W), but D1 lies outside D2's
    D1, D2 = 0.03124999719478273, 0.03125000019478273

    def test_the_rounded_bounds_differ_by_side(self):
        assert self.D1 - self.W <= self.D2 <= self.D1 + self.W
        assert not self.D2 - self.W <= self.D1 <= self.D2 + self.W

    @pytest.mark.parametrize("swap", [False, True])
    def test_a_pair_inside_one_side_bounds_is_kept(self, swap):
        dark1, dark2 = np.array([self.D1]), np.array([self.D2])
        if swap:
            dark1, dark2 = dark2, dark1
        np.testing.assert_array_equal(_dark_pairs(dark1, dark2, self.W), [[dark1[0], dark2[0]]])

    def test_a_pair_inside_both_sides_bounds_comes_out_once(self):
        dark1 = np.array([self.D1, 1.0])
        dark2 = np.array([self.D2, 1.0 + 1e-9, 2.0])
        want = [[self.D1, self.D2], [1.0, 1.0 + 1e-9]]
        np.testing.assert_array_equal(_dark_pairs(dark1, dark2, self.W), want)


class TestHistogramAndContrast:
    def test_empty_input(self):
        empty = Detections(np.empty(0), np.empty(0))
        hist = histogram_delays(empty, 0.1, (-1.0, 1.0))
        assert hist.counts.sum() == 0
        assert hist.counts.size == 20

    def test_hand_built_records(self):
        # pairs exactly at the window edges count as in the window; 2.0 lies
        # outside the window and the histogram range, -0.9 alone in its bin
        records = Detections(
            pairs=np.array([-0.5, 0.5, 0.1, 0.15, 2.0]), accidentals=np.array([0.05, 0.3, -0.9])
        )
        det = DetectorModel(resolution_time=0.0, coincidence_window=0.5)
        assert summarize_records(records, det) == {
            "n_records": 8,
            "n_pair_records": 5,
            "n_accidental_records": 3,
            "n_coincidences_in_window": 6,
            "n_pair_coincidences_in_window": 4,
        }
        hist = histogram_delays(records, 0.25, (-1.0, 1.0))
        np.testing.assert_array_equal(hist.counts, [1, 0, 1, 0, 3, 1, 1, 0])

    def test_counts_conserved_when_range_covers(self):
        delays = np.linspace(-0.9, 0.9, 777)
        det = DetectorModel(resolution_time=0.0, coincidence_window=10.0)
        records = detect(delays, det, seed=10, duration=5.0)
        hist = histogram_delays(records, 0.05, (-1.0, 1.0))
        assert hist.n_counted == len(records)

    def test_fast_detector_shows_the_comb(self):
        comb, trace = comb_trace()
        delays = sample_pair_delays(trace, 300_000, seed=12)
        det = DetectorModel(resolution_time=T_R / 100.0, coincidence_window=1e4)
        records = detect(delays, det, seed=13, duration=1e6)
        hist = histogram_delays(records, T_R / 100.0, (-20.0, 20.0))
        contrast = comb_contrast(hist, T_R, comb.n_side_modes)
        assert contrast > 0.99

    def test_slow_detector_contrast_collapses(self):
        comb, trace = comb_trace()
        delays = sample_pair_delays(trace, 300_000, seed=14)
        det = DetectorModel(resolution_time=10.0 * T_R, coincidence_window=1e4)
        records = detect(delays, det, seed=15, duration=1e6)
        hist = histogram_delays(records, T_R / 100.0, (-20.0, 20.0))
        assert comb_contrast(hist, T_R, comb.n_side_modes) < 0.05

    def test_slow_detector_contour_is_smooth(self):
        comb, trace = comb_trace()
        delays = sample_pair_delays(trace, 1_000_000, seed=16)
        det = DetectorModel(resolution_time=10.0 * T_R, coincidence_window=1e4)
        records = detect(delays, det, seed=17, duration=1e6)
        hist = histogram_delays(records, T_R / 4.0, (-5.0, 5.0))
        mid = hist.counts[1:-1].astype(float)
        neighbors = 0.5 * (hist.counts[:-2] + hist.counts[2:])
        ripple = np.abs(mid - neighbors) / neighbors
        assert ripple.max() < 0.05

    def test_histogram_convergence_against_bin_masses(self):
        # with no jitter the per-bin counts follow the trace exactly
        comb, trace = comb_trace()
        n = 1_000_000
        delays = sample_pair_delays(trace, n, seed=18)
        bw = T_R / 50.0
        records = detect(delays, DetectorModel(0.0, 1.0), seed=19, duration=1.0)
        hist = histogram_delays(records, bw, (-20.0, 20.0))
        probs = jitter_convolution_oracle(trace.grid.values, trace.samples, 0.0, hist.edges)
        expected = probs * n
        dev = np.abs(hist.counts - expected) / np.maximum(np.sqrt(expected), 1.0)
        assert dev[expected > 1].max() < 5.0
