import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twophoton.interferometer as interferometer
from twophoton import (
    InterferometerConfig,
    NumericsError,
    ResolutionError,
    ScanResult,
    Shape,
    bs_two_photon_state,
    coincidence_rate,
    delay_scan,
    dither_averaged_rate,
    find_dip_delays,
    gamma12,
    phase_fringe_scan,
    singles_fringe_visibility,
)
from twophoton.correlation import envelope_support, pair_overlap, simpson_rule
from conftest import TWO_PI, dirichlet_oracle, make_comb

T_R = 1.0


def make_cfg(comb=None, delay=0.0, **kw):
    if comb is None:
        comb = make_comb(10, 0.01)
    kw.setdefault("resolution_time", 1e4 * T_R)
    return InterferometerConfig(comb=comb, delay=delay, **kw)


def oracle_V(comb, delay, span=300.0, n=300_001):
    """Overlap visibility by direct trapezoid on the definition."""
    gamma = comb.single_mode.halfwidth
    tau = np.linspace(-span, span, n)
    x = np.exp(-gamma * np.abs(tau)) * dirichlet_oracle(tau, comb.n_side_modes, comb.mode_spacing)
    xp = np.exp(-gamma * np.abs(tau + delay)) * dirichlet_oracle(
        tau + delay, comb.n_side_modes, comb.mode_spacing
    )
    xm = np.exp(-gamma * np.abs(tau - delay)) * dirichlet_oracle(
        tau - delay, comb.n_side_modes, comb.mode_spacing
    )
    return np.trapezoid(xp * xm, tau) / np.trapezoid(x * x, tau)


class TestBeamSplitterState:
    def test_balanced_amplitudes(self):
        amps = bs_two_photon_state()
        np.testing.assert_allclose(amps, [0.5, 0.5, math.sqrt(2.0) / 2.0], atol=1e-12)

    def test_split_probability_is_half(self):
        amps = bs_two_photon_state()
        assert abs(amps[2]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_fully_transmitting_splitter(self):
        np.testing.assert_allclose(bs_two_photon_state(1.0), [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(bs_two_photon_state(0.0), [0.0, 1.0, 0.0], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.0, 1.0))
    def test_output_is_normalized(self, t):
        amps = bs_two_photon_state(t)
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestGamma12:
    def test_balanced_zero_delay_kills_all_coincidences(self):
        cfg = make_cfg(delay=0.0)
        tau = np.linspace(-3.0, 3.0, 301)
        np.testing.assert_allclose(gamma12(tau, cfg), 0.0, atol=1e-18)

    def test_pi_pump_phase_at_zero_tau(self):
        comb = make_comb(10, 0.01)
        cfg = make_cfg(comb, delay=0.3 * T_R, pump_phase=math.pi)
        val = gamma12(0.0, cfg)
        # term-by-term oracle from the three-route decomposition
        gamma = comb.single_mode.halfwidth
        def x(t):
            return math.exp(-gamma * abs(t)) * float(
                dirichlet_oracle(np.array([t]), 10, comb.mode_spacing)[0]
            )
        d = cfg.delay
        oracle = (
            0.5 * x(0.0) ** 2 * (1.0 - math.cos(math.pi))
            + 0.25 * (x(d) - x(-d)) ** 2
            + math.sin(math.pi / 2.0) * 0.0  # even envelope: the cross factor vanishes at tau=0
        )
        assert val == pytest.approx(oracle, rel=1e-10)
        assert val == pytest.approx(21.0**2, rel=1e-6)

    def test_distant_delay_separates_the_hom_term(self):
        # once the two shifted copies no longer overlap, the HOM term is the
        # plain sum of the displaced correlations; probe around one of them
        comb = make_comb(4, 0.05)
        gamma = comb.single_mode.halfwidth
        cfg = make_cfg(comb, delay=12.0 / gamma, pump_phase=0.0)
        tau = cfg.delay + np.linspace(-1.0, 1.0, 41)
        got = gamma12(tau, cfg)
        def x(t):
            return np.exp(-gamma * np.abs(t)) * dirichlet_oracle(t, 4, comb.mode_spacing)
        separated = 0.25 * (x(tau + cfg.delay) ** 2 + x(tau - cfg.delay) ** 2)
        np.testing.assert_allclose(got, separated, rtol=1e-6)


class TestCoincidenceRate:
    def test_zero_delay_is_the_dip_bottom(self):
        cfg = make_cfg(delay=0.0)
        res = coincidence_rate(cfg)
        assert res.rate == 0.0
        assert res.visibility == pytest.approx(1.0, abs=1e-15)

    def test_quarter_round_trip_overlap(self):
        # between revivals the overlap collapses to the kernel midpoint value
        comb = make_comb(10, 0.01)
        res = coincidence_rate(make_cfg(comb, delay=0.25 * T_R))
        assert res.visibility < 0.05
        assert res.visibility == pytest.approx(oracle_V(comb, 0.25 * T_R), abs=2e-4)
        assert res.visibility == pytest.approx(0.0476, abs=5e-4)

    def test_half_round_trip_is_a_revival(self):
        comb = make_comb(10, 0.01)
        res = coincidence_rate(make_cfg(comb, delay=0.5 * T_R))
        assert res.visibility > 0.95
        assert res.visibility == pytest.approx(oracle_V(comb, 0.5 * T_R), abs=2e-4)

    def test_overlap_is_even_in_the_delay(self):
        comb = make_comb(6, 0.02)
        for d in (0.2 * T_R, 0.5 * T_R):
            assert oracle_V(comb, d) == pytest.approx(oracle_V(comb, -d), rel=1e-9)
            res = coincidence_rate(make_cfg(comb, delay=d))
            assert res.visibility == pytest.approx(oracle_V(comb, d), abs=2e-4)

    def test_overlap_is_bounded_and_peaks_at_zero_delay(self):
        # Cauchy-Schwarz bounds |V| by 1; between revivals the kernel side
        # lobes push V slightly negative (an anti-dip above the baseline),
        # so the unit interval only holds for the magnitude
        comb = make_comb(8, 0.02)
        vals = []
        for d in np.linspace(0.0, 1.2, 13) * T_R:
            res = dither_averaged_rate(make_cfg(comb, delay=float(d)))
            vals.append(res.visibility)
            assert abs(res.visibility) <= 1.0 + 1e-9
        assert vals[0] == pytest.approx(1.0, abs=1e-12)
        assert min(vals) < 0.0
        assert min(vals) > -0.25

    def test_cross_term_integrates_away(self):
        comb = make_comb(6, 0.02)
        for d in (0.1, 0.5, 1.0):
            res = coincidence_rate(make_cfg(comb, delay=d * T_R, pump_phase=1.1))
            assert abs(res.cross_integral) < 1e-6 * res.r0

    def test_cross_term_vanishes_for_exchange_symmetric_random_phases(self):
        # phi_{-m} = phi_m makes X(-tau) = X(tau), so the integrand is odd in tau
        half = np.random.default_rng(5).uniform(0.0, TWO_PI, 11)
        comb = make_comb(10, 0.01, phases=tuple(np.concatenate([half[:0:-1], half])))
        for d in (0.3, 0.5, 0.7):
            res = coincidence_rate(make_cfg(comb, delay=d * T_R, pump_phase=1.1))
            assert abs(res.cross_integral) < 1e-12 * res.r0

    def test_resolution_must_cover_the_delay(self):
        cfg = make_cfg(delay=0.5 * T_R, resolution_time=0.2 * T_R)
        with pytest.raises(ResolutionError):
            coincidence_rate(cfg)
        with pytest.raises(ResolutionError):
            dither_averaged_rate(cfg)


class TestDitherAveraging:
    def test_full_overlap_hits_the_floor(self):
        res = dither_averaged_rate(make_cfg(delay=0.0))
        assert res.rate == pytest.approx(res.r0 / 2.0, rel=1e-12)

    def test_no_overlap_gives_the_baseline(self):
        comb = make_comb(10, 0.01)
        res = dither_averaged_rate(make_cfg(comb, delay=0.25 * T_R))
        assert res.rate == pytest.approx(res.r0, rel=0.03)

    def test_mode_match_scales_the_dip(self):
        comb = make_comb(10, 0.01)
        res = dither_averaged_rate(make_cfg(comb, delay=0.5 * T_R, mode_match=0.7))
        depth = (res.r0 - res.rate) / res.r0
        assert depth == pytest.approx(0.35, abs=0.01)

    def test_ceiling_is_half_the_baseline(self):
        comb = make_comb(8, 0.005)
        for d in np.linspace(0.0, 1.1, 12) * T_R:
            res = dither_averaged_rate(make_cfg(comb, delay=float(d)))
            depth = (res.r0 - res.rate) / res.r0
            assert depth <= 0.5 + 1e-9


class TestPhaseFringes:
    def test_full_round_trip_fringes(self):
        comb = make_comb(10, 0.01)
        cfg = make_cfg(comb, delay=T_R)
        phases = np.linspace(0.0, 4.0 * math.pi, 161)
        scan = phase_fringe_scan(cfg, phases)
        gamma = comb.single_mode.halfwidth
        expected = math.exp(-gamma * T_R)  # |G(t_r)|; the comb factor revives fully
        assert scan.metadata["fitted_visibility"]["singles_1"] == pytest.approx(expected, rel=1e-9)
        assert scan.metadata["fitted_visibility"]["singles_2"] == pytest.approx(expected, rel=1e-9)
        np.testing.assert_allclose(scan.singles_1 + scan.singles_2, 2.0, atol=1e-12)

    def test_half_round_trip_dichotomy(self):
        # singles fringes vanish while the coincidence fringe beats 50%
        comb = make_comb(60, 0.02)
        cfg = make_cfg(comb, delay=0.5 * T_R)
        scan = phase_fringe_scan(cfg, np.linspace(0.0, 4.0 * math.pi, 121))
        assert scan.metadata["singles_visibility"] < 1e-2
        coinc_vis = scan.metadata["fitted_visibility"]["coincidence"]
        assert coinc_vis > 0.5
        v = scan.metadata["visibility_v"]
        assert coinc_vis == pytest.approx(1.0 / (2.0 - v), rel=1e-9)

    def test_zero_delay_full_singles_coherence(self):
        comb = make_comb(10, 0.01)
        scan = phase_fringe_scan(make_cfg(comb, delay=0.0), np.linspace(0, TWO_PI, 41))
        assert scan.metadata["singles_visibility"] == pytest.approx(1.0, rel=1e-12)

    def test_between_revivals_franson_ceiling(self):
        # an odd mode count flips the kernel sign at the quarter round trip,
        # pushing the ideal fringe visibility just below one half
        comb = make_comb(11, 0.01)
        scan = phase_fringe_scan(
            make_cfg(comb, delay=0.25 * T_R), np.linspace(0, 4 * math.pi, 121)
        )
        assert scan.metadata["visibility_v"] < 0.0
        assert scan.metadata["fitted_visibility"]["coincidence"] <= 0.5

    def test_mode_match_reduces_singles_visibility(self):
        comb = make_comb(10, 0.01)
        full = singles_fringe_visibility(make_cfg(comb, delay=T_R))
        degraded = singles_fringe_visibility(make_cfg(comb, delay=T_R, mode_match=0.6))
        assert degraded == pytest.approx(0.6 * full, rel=1e-12)

    @pytest.mark.parametrize("window", [1e4, 3.0], ids=["covered", "simpson"])
    def test_fringe_is_the_coincidence_rate_at_each_phase(self, window):
        cfg = make_cfg(delay=0.5 * T_R, resolution_time=window * T_R)
        phases = np.linspace(0.0, 4.0 * math.pi, 33)
        scan = phase_fringe_scan(cfg, phases)
        direct = [coincidence_rate(replace(cfg, pump_phase=p)).rate for p in phases]
        assert scan.coincidence.tolist() == direct

    def test_fringe_of_an_asymmetric_amplitude_is_refused_like_the_rate(self):
        # the cross term is 0 at phase 0 and -1.16e-2 at 1.1, where R0 = 334
        comb = make_comb(10, 0.01, phases=tuple(np.random.default_rng(4).uniform(0, TWO_PI, 21)))
        cfg = make_cfg(comb, delay=0.3 * T_R, pump_phase=1.1)
        with pytest.raises(NumericsError, match="exchange-symmetric") as rate_error:
            coincidence_rate(cfg)
        with pytest.raises(NumericsError) as fringe_error:
            phase_fringe_scan(cfg, [0.0, 1.1])
        assert str(fringe_error.value) == str(rate_error.value)

    def test_singles_visibility_does_not_depend_on_mode_phases(self):
        # each photon of a pair is in a mixture of the modes, so random
        # phases leave its first-order coherence that of the locked comb
        rng = np.random.default_rng(4)
        locked = make_comb(10, 0.01)
        scrambled = make_comb(10, 0.01, phases=tuple(rng.uniform(0, TWO_PI, 21)))
        for d in (0.0, 0.1, 0.25, 0.5, 1.0):
            vis = singles_fringe_visibility(make_cfg(scrambled, delay=d * T_R))
            assert vis == singles_fringe_visibility(make_cfg(locked, delay=d * T_R))
            assert vis <= 1.0


class TestDelayScan:
    def test_locked_comb_revives_every_half_round_trip(self):
        comb = make_comb(10, 0.03)
        cfg = make_cfg(comb)
        delays = np.linspace(0.0, 1.3, 209) * T_R
        scan = delay_scan(cfg, delays, dithered=True)
        dips = find_dip_delays(scan, min_depth=0.10)
        np.testing.assert_allclose(dips / T_R, [0.0, 0.5, 1.0], atol=1.3 / 208 + 1e-12)
        # the wings mean sits within a percent of the analytic baseline, so
        # the normalized dip bottom lands near (not exactly on) one half
        assert scan.coincidence.min() >= 0.49
        assert scan.metadata["baseline"] == pytest.approx(
            scan.metadata["analytic_baseline"], rel=0.01
        )

    def test_shallow_kernel_side_dips_are_real_but_small(self):
        # the overlap comb has Dirichlet side lobes: a few-percent dip pair
        # flanks each revival, which a 1% floor must pick up
        comb = make_comb(10, 0.03)
        scan = delay_scan(make_cfg(comb), np.linspace(0.0, 1.3, 417) * T_R, dithered=True)
        loose = find_dip_delays(scan, min_depth=0.01)
        strict = find_dip_delays(scan, min_depth=0.10)
        assert len(strict) == 3
        assert len(loose) > 3

    def test_no_comb_means_single_dip(self):
        comb = make_comb(0, 0.05)
        gamma = comb.single_mode.halfwidth
        delays = np.linspace(0.0, 3.0 / gamma, 101)
        scan = delay_scan(make_cfg(comb), delays, dithered=True)
        dips = find_dip_delays(scan, min_depth=0.10)
        assert dips.size == 1 and dips[0] == 0.0

    def test_random_phases_keep_the_revivals(self):
        # the comb factor is exactly periodic whatever the phases, so the
        # half-round-trip overlap (and its dip) survives phase scrambling
        rng = np.random.default_rng(5)
        comb = make_comb(10, 0.03, phases=tuple(rng.uniform(0, TWO_PI, 21)))
        locked = make_comb(10, 0.03)
        d = dither_averaged_rate(make_cfg(comb, delay=0.5 * T_R))
        d_locked = dither_averaged_rate(make_cfg(locked, delay=0.5 * T_R))
        depth = (d.r0 - d.rate) / d.r0
        depth_locked = (d_locked.r0 - d_locked.rate) / d_locked.r0
        assert depth == pytest.approx(depth_locked, abs=0.02)
        assert depth > 0.4

    def test_undithered_zero_delay_normalized_dip(self):
        comb = make_comb(8, 0.02)
        delays = np.linspace(0.0, 0.3, 31) * T_R
        scan = delay_scan(make_cfg(comb, pump_phase=0.0), delays, dithered=False)
        assert scan.coincidence[0] <= 1e-9

    def test_undithered_singles_follow_the_fringe_visibility(self):
        comb = make_comb(8, 0.02)
        cfg = make_cfg(comb, pump_phase=0.7)
        delays = np.linspace(0.0, 1.1, 23) * T_R
        scan = delay_scan(cfg, delays, dithered=False)
        s_vis = np.array([singles_fringe_visibility(replace(cfg, delay=float(d))) for d in delays])
        np.testing.assert_allclose(scan.singles_1, 1.0 + s_vis * math.cos(0.7), rtol=1e-15)
        np.testing.assert_allclose(scan.singles_2, 1.0 - s_vis * math.cos(0.7), rtol=1e-15)

    def test_run_of_equal_minima_collapses_to_its_first_index(self):
        y = np.array([1.0, 0.5, 0.5, 0.5, 0.5, 1.0])
        scan = ScanResult(np.arange(6.0), y, np.ones(6), np.ones(6), {})
        np.testing.assert_array_equal(find_dip_delays(scan), [1.0])

    def test_empty_delay_points_are_refused(self):
        with pytest.raises(ValueError, match="delay_points"):
            delay_scan(make_cfg(), [])

    def test_singles_flat_when_dithered(self):
        comb = make_comb(5, 0.02)
        scan = delay_scan(make_cfg(comb), np.linspace(0, 1, 11) * T_R, dithered=True)
        np.testing.assert_array_equal(scan.singles_1, 1.0)
        np.testing.assert_array_equal(scan.singles_2, 1.0)


class TestConfigValidation:
    def test_rejects_bad_mode_match(self):
        with pytest.raises(ValueError, match="mode_match"):
            make_cfg(mode_match=0.0)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            make_cfg(delay=-1.0)

    @pytest.mark.parametrize(
        "call, fragment",
        [
            (lambda: make_cfg(resolution_time=0.0), "resolution_time must be > 0"),
            (lambda: ScanResult(np.zeros(2), np.ones(3), np.ones(2), np.ones(2), {}), "length"),
            (lambda: ScanResult(np.zeros(2), np.ones(2), -np.ones(2), np.ones(2), {}), "nonneg"),
            (lambda: bs_two_photon_state(1.5), "transmission must be in"),
            (lambda: make_cfg(delay=math.nan), "delay must be finite"),
            (lambda: make_cfg(delay=math.inf), "delay must be finite"),
            (lambda: make_cfg(pump_phase=math.nan), "pump_phase must be finite"),
            (lambda: make_cfg(pump_phase=-math.inf), "pump_phase must be finite"),
        ],
        ids=[
            "resolution_time", "scan_length", "scan_sign", "transmission",
            "delay_nan", "delay_inf", "pump_phase_nan", "pump_phase_inf",
        ],
    )
    def test_refused_input(self, call, fragment):
        with pytest.raises(ValueError, match=fragment):
            call()


class TestNonFiniteInput:
    """A NaN or infinite delay or pump phase is refused before any work."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def fake(*args):
            raise AssertionError("a window or pair sum was computed")

        monkeypatch.setattr(interferometer, "simpson_rule", fake)
        monkeypatch.setattr(interferometer, "pair_overlap", fake)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rates(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dither_averaged_rate(make_cfg(delay=bad))
        with pytest.raises(ValueError, match="finite"):
            coincidence_rate(make_cfg(delay=bad))
        with pytest.raises(ValueError, match="finite"):
            coincidence_rate(make_cfg(pump_phase=bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("dithered", [True, False], ids=["dithered", "undithered"])
    def test_delay_scan(self, bad, dithered):
        with pytest.raises(ValueError, match="finite"):
            delay_scan(make_cfg(), [0.0, bad], dithered=dithered)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_phase_fringe_scan(self, bad):
        with pytest.raises(ValueError, match="finite"):
            phase_fringe_scan(make_cfg(), [0.0, bad])
        with pytest.raises(ValueError, match="finite"):
            phase_fringe_scan(make_cfg(delay=math.nan), [0.0])


class TestRateSelfChecks:
    """The rates check their own window integrals with NumericsError, not assert."""

    def distort_window(self, monkeypatch, distort):
        real = interferometer._window_sums

        def fake(cfg, delays):
            return distort(*real(cfg, delays))

        monkeypatch.setattr(interferometer, "_window_sums", fake)

    def distort_pair_sums(self, monkeypatch, distort):
        # a covered window takes P(0), P(D) and, for the undithered rate only,
        # P(D/2) from one call
        real = interferometer.pair_overlap

        def fake(comb, delays):
            return np.array(distort(*real(comb, delays)))

        monkeypatch.setattr(interferometer, "pair_overlap", fake)

    def test_cross_term_that_does_not_integrate_away(self, monkeypatch):
        # P(D/2) -> i R0 gives C' = 2i Im P(D/2) = 2i R0: for a balanced splitter the
        # integrated cross term becomes -2 sin(phi/2) R0
        self.distort_pair_sums(monkeypatch, lambda p0, pd, ph: (p0, pd, 1j * p0))
        with pytest.raises(NumericsError, match="cross term"):
            coincidence_rate(make_cfg(delay=0.0, pump_phase=1.0))

    def test_cross_term_that_does_not_integrate_away_on_the_simpson_window(self, monkeypatch):
        # the same distortion where the window is truncated and Simpson runs:
        # X(tau+D) -> i X(tau), X(tau-D) -> 0 gives S = 1/2, V = 0 and C = i R0
        self.distort_window(monkeypatch, lambda r0, s, v, c: (r0, 0.5 + 0 * s, 0 * v, 1j * r0))
        with pytest.raises(NumericsError, match="cross term"):
            coincidence_rate(make_cfg(delay=0.0, pump_phase=1.0, resolution_time=0.6 * T_R))

    def test_negative_rate(self, monkeypatch):
        """An overlap of 4 R0 gives V = 4 and a dithered rate of -R0.

        No Simpson twin: on the Simpson window V <= S by Cauchy-Schwarz, so the
        check can fire only where S = 1 is assumed.
        """
        self.distort_pair_sums(monkeypatch, lambda p0, pd: (p0, 4.0 * p0))
        with pytest.raises(NumericsError, match="negative coincidence rate"):
            dither_averaged_rate(make_cfg(delay=0.0))

    def test_phase_scan_window_must_cover_the_delay(self):
        cfg = make_cfg(delay=0.5 * T_R, resolution_time=0.2 * T_R)
        with pytest.raises(ResolutionError):
            phase_fringe_scan(cfg, np.linspace(0.0, TWO_PI, 5))


class TestTruncatedWindow:
    """Windows shorter than the delay plus the envelope support cut off part
    of the delayed copies, so R+ + R- falls below 2 R0."""

    @pytest.mark.parametrize(
        "shape, window",
        [
            (shape, window)
            for shape in (Shape.LORENTZIAN, Shape.GAUSSIAN, Shape.RECTANGULAR)
            for window in (0.6, 3.0, 20.0)
        ]
        + [(Shape.LORENTZIAN, 1e4)],  # covers the delay plus the envelope support
    )
    def test_dithered_rate_is_the_pump_phase_mean(self, shape, window):
        cfg = make_cfg(make_comb(10, 0.01, shape=shape), 0.5 * T_R, resolution_time=window * T_R)
        phases = np.arange(8) * (TWO_PI / 8)
        mean = np.mean([coincidence_rate(replace(cfg, pump_phase=p)).rate for p in phases])
        assert dither_averaged_rate(cfg).rate == pytest.approx(mean, rel=1e-6)

    @pytest.mark.parametrize("window", [0.6, 3.0, 20.0])
    def test_dithered_rate_matches_a_trapezoid_of_the_definition(self, window):
        comb = make_comb(10, 0.01)
        gamma, delay = comb.single_mode.halfwidth, 0.5 * T_R
        tau = np.linspace(-window / 2.0, window / 2.0, 400_001)

        def x(t):
            return np.exp(-gamma * np.abs(t)) * dirichlet_oracle(t, 10, comb.mode_spacing)

        xp, xm = x(tau + delay), x(tau - delay)
        integrand = 0.5 * x(tau) ** 2 + 0.25 * (xp**2 + xm**2 - 2.0 * xp * xm)
        res = dither_averaged_rate(make_cfg(comb, delay, resolution_time=window * T_R))
        assert res.rate == pytest.approx(np.trapezoid(integrand, tau), rel=1e-4)

    def test_lorentzian_cusp_sits_on_a_panel_edge(self):
        # about 203 nodes cover 0.6 t_r; an odd panel count per half window
        # would put the envelope cusp at tau = 0 mid-panel, 7.8e-6 off here
        comb = make_comb(10, 0.01)
        gamma, delay, window = comb.single_mode.halfwidth, 0.5 * T_R, 0.6
        tau = np.linspace(-window / 2.0, window / 2.0, 400_001)

        def x(t):
            return np.exp(-gamma * np.abs(t)) * dirichlet_oracle(t, 10, comb.mode_spacing)

        xp, xm = x(tau + delay), x(tau - delay)
        integrand = 0.5 * x(tau) ** 2 + 0.25 * (xp**2 + xm**2 - 2.0 * xp * xm)
        res = dither_averaged_rate(make_cfg(comb, delay, resolution_time=window * T_R))
        assert res.rate == pytest.approx(np.trapezoid(integrand, tau), rel=1e-6)

    def test_phase_scan_follows_the_coincidence_rate(self):
        cfg = make_cfg(delay=0.5 * T_R, resolution_time=3.0 * T_R)
        phases = np.linspace(0.0, TWO_PI, 9)
        scan = phase_fringe_scan(cfg, phases)
        direct = [coincidence_rate(replace(cfg, pump_phase=p)).rate for p in phases]
        np.testing.assert_allclose(scan.coincidence, direct, rtol=1e-12)


SEEDED_PHASES = tuple(np.random.default_rng(3).uniform(0.0, TWO_PI, 21))


def phased_amplitude_oracle(comb, tau):
    """X(tau) by an explicit mode loop on the envelope written out per shape."""
    s = comb.single_mode
    if s.shape is Shape.LORENTZIAN:
        env = np.exp(-s.halfwidth * np.abs(tau))
    else:
        env = np.exp(-((s.halfwidth * tau) ** 2) / 2.0)
    total = np.zeros(tau.shape, dtype=complex)
    for m, phi in zip(range(-comb.n_side_modes, comb.n_side_modes + 1), comb.mode_phases):
        total += np.exp(1j * (phi - m * comb.mode_spacing * tau))
    return env * np.exp(-1j * s.center * tau) * total


def trapezoid_overlap(comb, d, span, per_unit=1000):
    """int X(tau + d) X*(tau - d) dtau by trapezoid, split at every envelope cusp."""
    breaks = sorted({-span, span, 0.0, d, -d})
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        tau = np.linspace(lo, hi, max(int((hi - lo) * per_unit), 2) + 1)
        total += np.trapezoid(
            phased_amplitude_oracle(comb, tau + d) * np.conj(phased_amplitude_oracle(comb, tau - d)), tau
        )
    return total


class TestClosedPairSums:
    """A window that covers the delay plus the envelope support is the whole
    line, where R0, the overlap and the cross integral are sums over mode pairs."""

    @pytest.mark.parametrize("center", [0.0, 0.3])
    @pytest.mark.parametrize("phases", [(), SEEDED_PHASES], ids=["locked", "seeded"])
    @pytest.mark.parametrize(
        "shape, r0_rel, v_abs, cross_abs",
        [(Shape.LORENTZIAN, 2e-9, 1.5e-8, 5e-9), (Shape.GAUSSIAN, 3e-12, 3e-12, 3e-12)],
    )
    def test_pair_sums_match_the_simpson_window(self, shape, r0_rel, v_abs, cross_abs, phases, center):
        comb = make_comb(10, 0.01, shape=shape, phases=phases, center=center)
        for d in (0.0, 0.3, 0.5, 1.0):
            cfg = make_cfg(comb, d * T_R)
            (r0,), (s,), (v,), (cross,) = interferometer._window_sums(cfg, np.array([cfg.delay]))
            p0, pd, p_half, m_half = pair_overlap(comb, [0.0, d, d / 2.0, -d / 2.0])
            assert p0.real == pytest.approx(r0, rel=r0_rel)
            assert pd.real / p0.real == pytest.approx(v, abs=v_abs)
            assert abs(p_half - m_half - cross) < cross_abs * r0

    @pytest.mark.parametrize(
        "shape, span, tol", [(Shape.LORENTZIAN, 185.0, 1e-8), (Shape.GAUSSIAN, 100.0, 1e-12)]
    )
    def test_pair_sums_match_a_trapezoid_of_the_definition(self, shape, span, tol):
        # the Lorentzian trapezoid is 4e-10 to 8e-10 R0 off: its step, not the sums
        comb = make_comb(10, 0.01, shape=shape, phases=SEEDED_PHASES, center=0.3)
        d = 0.3 * T_R
        p0, pd, p_half, m_half = pair_overlap(comb, [0.0, d, d / 2.0, -d / 2.0])
        oracle = [trapezoid_overlap(comb, x, span) for x in (0.0, d, d / 2.0, -d / 2.0)]
        assert p0.real == pytest.approx(oracle[0].real, rel=tol)
        assert abs(pd - oracle[1]) < tol * p0.real
        assert abs((p_half - m_half) - (oracle[2] - oracle[3])) < tol * p0.real


class TestRateRoute:
    """Covered Lorentzian and Gaussian windows take the pair sums; truncated
    windows and the rectangular line take the Simpson window."""

    class SimpsonWindowCalled(Exception):
        pass

    def refuse_simpson(self, monkeypatch):
        def fake(cfg, delays):
            raise self.SimpsonWindowCalled

        monkeypatch.setattr(interferometer, "_window_sums", fake)

    def record_pair_sums(self, monkeypatch):
        asked = []

        def recording_overlap(comb, delays):
            asked.append(len(delays))
            return pair_overlap(comb, delays)

        monkeypatch.setattr(interferometer, "pair_overlap", recording_overlap)
        return asked

    @pytest.mark.parametrize("shape", [Shape.LORENTZIAN, Shape.GAUSSIAN])
    def test_covered_window_needs_no_simpson_window(self, monkeypatch, shape):
        comb = make_comb(10, 0.01, shape=shape)
        cfg = make_cfg(comb, delay=0.5 * T_R)
        p0, pd = pair_overlap(comb, [0.0, cfg.delay])
        self.refuse_simpson(monkeypatch)
        res = dither_averaged_rate(cfg)
        assert (res.r0, res.visibility) == (p0.real, pd.real / p0.real)
        assert coincidence_rate(replace(cfg, pump_phase=1.1)).r0 == p0.real
        phase_fringe_scan(cfg, np.linspace(0.0, TWO_PI, 5))
        delay_scan(cfg, np.linspace(0.0, 1.0, 5) * T_R)

    @pytest.mark.parametrize(
        "shape, window",
        [(Shape.LORENTZIAN, 0.6), (Shape.GAUSSIAN, 0.6), (Shape.RECTANGULAR, 1e4)],
    )
    def test_truncated_window_and_rectangular_line_take_the_simpson_window(
        self, monkeypatch, shape, window
    ):
        cfg = make_cfg(make_comb(10, 0.01, shape=shape), 0.5 * T_R, resolution_time=window * T_R)
        self.refuse_simpson(monkeypatch)
        for rate in (dither_averaged_rate, coincidence_rate):
            with pytest.raises(self.SimpsonWindowCalled):
                rate(cfg)

    @pytest.mark.parametrize(
        "shape, window",
        [(Shape.LORENTZIAN, 1e4), (Shape.GAUSSIAN, 1e4), (Shape.LORENTZIAN, 3.0), (Shape.RECTANGULAR, 3.0)],
    )
    def test_only_the_undithered_rate_takes_the_cross_integral(self, monkeypatch, shape, window):
        cfg = make_cfg(make_comb(10, 0.01, shape=shape), 0.5 * T_R, resolution_time=window * T_R)
        with_cross = interferometer._rate(cfg, [cfg.delay], [cfg.pump_phase])
        asked = self.record_pair_sums(monkeypatch)
        without = interferometer._rate(cfg, [cfg.delay])
        # R0, S and V bit for bit
        assert [x.tobytes() for x in without[1:4]] == [x.tobytes() for x in with_cross[1:4]]
        assert without[4] is None and with_cross[4] is not None
        dither_averaged_rate(cfg)
        assert all(n == 2 for n in asked)
        phase_fringe_scan(cfg, np.linspace(0.0, TWO_PI, 5))
        coincidence_rate(cfg)
        covered = window > 1e3 and shape is not Shape.RECTANGULAR
        assert asked == ([2, 2, 3, 3] if covered else [])

    @pytest.mark.parametrize("dithered", [True, False], ids=["dithered", "undithered"])
    def test_a_covered_scan_asks_for_its_pair_sums_in_one_call(self, monkeypatch, dithered):
        cfg = make_cfg(pump_phase=1.1)
        delays = np.linspace(0.0, 1.3, 27) * T_R
        rate_at = dither_averaged_rate if dithered else coincidence_rate
        alone = [rate_at(replace(cfg, delay=float(d))) for d in delays]
        asked = self.record_pair_sums(monkeypatch)
        self.refuse_simpson(monkeypatch)
        scan = delay_scan(cfg, delays, dithered=dithered)
        # P(0) and P(D) at every delay, and P(D/2) when the cross term counts
        assert asked == [1 + (1 if dithered else 2) * delays.size]
        # one pass per delay: the scan keeps the bits of the single-delay rates
        assert scan.metadata["visibility"].tolist() == [res.visibility for res in alone]
        rates = np.array([res.rate for res in alone])
        np.testing.assert_array_equal(scan.coincidence, rates / scan.metadata["baseline"])

    @pytest.mark.parametrize("shape, v_abs", [(Shape.LORENTZIAN, 1.5e-8), (Shape.GAUSSIAN, 3e-12)])
    def test_a_mixed_scan_takes_the_simpson_window_at_every_delay(self, monkeypatch, shape, v_abs):
        # the window covers the first delay plus the envelope support, not the last;
        # the bounds are those of TestClosedPairSums
        comb = make_comb(10, 0.01, shape=shape)
        cfg = make_cfg(comb, resolution_time=2.0 * envelope_support(comb.single_mode) + T_R)
        delays = np.array([0.0, 0.3, 0.5, 1.0]) * T_R
        closed = [dither_averaged_rate(replace(cfg, delay=float(d))).visibility for d in delays]
        asked = self.record_pair_sums(monkeypatch)
        dither_averaged_rate(cfg)
        assert asked == [2]  # alone, the first delay takes the pair sums
        scan = delay_scan(cfg, delays)
        assert asked == [2]
        np.testing.assert_allclose(scan.metadata["visibility"], closed, rtol=0.0, atol=v_abs)
        self.refuse_simpson(monkeypatch)
        with pytest.raises(self.SimpsonWindowCalled):
            delay_scan(cfg, delays)

    def test_a_simpson_scan_takes_one_window(self, monkeypatch):
        windows = []

        def recording_rule(lo, hi, n_min):
            windows.append((lo, hi))
            return simpson_rule(lo, hi, n_min)

        monkeypatch.setattr(interferometer, "simpson_rule", recording_rule)
        cfg = make_cfg(resolution_time=3.0 * T_R)
        scan = delay_scan(cfg, np.linspace(0.0, 1.0, 5) * T_R, dithered=False)
        assert windows == [(-1.5 * T_R, 1.5 * T_R)]
        alone = [coincidence_rate(replace(cfg, delay=float(d))).visibility for d in scan.abscissa]
        assert scan.metadata["visibility"].tolist() == alone

    def test_a_scan_past_its_window_is_refused_before_any_work(self, monkeypatch):
        asked = self.record_pair_sums(monkeypatch)
        self.refuse_simpson(monkeypatch)
        cfg = make_cfg(resolution_time=0.6 * T_R)
        with pytest.raises(ResolutionError, match=r"delay 1\.000e\+00 s"):
            delay_scan(cfg, np.array([0.0, 0.5, 1.0, 0.2]) * T_R)
        assert asked == []
