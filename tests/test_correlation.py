import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from twophoton import (
    CorrelationTrace,
    GridError,
    NyquistError,
    Shape,
    SpectralAmplitude,
    TimeGrid,
    TraceKind,
    WindowError,
    coherence_envelope,
    dirichlet_F,
    envelope_G,
    envelope_g,
    gamma1_coherence,
    gamma2_detector_averaged,
    gamma2_mode_locked,
    generalized_F,
    pair_envelope,
)
from twophoton.correlation import (
    MAX_COMB_TERMS,
    PAIR_BLOCK_ELEMENTS,
    _fft_length,
    _lag_transform,
    comb_amplitude,
    pair_overlap,
)

from conftest import (
    TWO_PI,
    dirichlet_oracle,
    intensity_profile,
    lorentzian_lag_oracle,
    make_comb,
    moving_average_oracle,
    pair_overlap_oracle,
    pair_profile,
    transform_oracle,
)


class TestDirichletF:
    def test_zero_delay_gives_mode_count(self):
        for n in (0, 1, 7, 40):
            assert dirichlet_F(0.0, n, 3.0) == pytest.approx(2 * n + 1, rel=1e-14)

    def test_analytic_point(self):
        # N=1, spacing 1: sin(3*pi/2)/sin(pi/2) = -1
        assert dirichlet_F(math.pi, 1, 1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_first_zero(self):
        n = 3
        tau = TWO_PI / ((2 * n + 1) * 1.0)
        assert abs(dirichlet_F(tau, n, 1.0)) < 1e-12 * (2 * n + 1)

    def test_full_period_revival(self):
        for n in (1, 5, 12):
            spacing = 2.0
            t_r = TWO_PI / spacing
            assert dirichlet_F(t_r, n, spacing) == pytest.approx(2 * n + 1, rel=1e-12)

    def test_continuous_across_series_switchover(self):
        # the near-pole branch takes over within 1e-6 of the reduced angle
        spacing = 2.0
        t_r = TWO_PI / spacing
        eps_in = 0.99e-6 / (spacing / 2)
        eps_out = 1.01e-6 / (spacing / 2)
        inside = dirichlet_F(t_r + eps_in, 8, spacing)
        outside = dirichlet_F(t_r + eps_out, 8, spacing)
        assert inside == pytest.approx(outside, abs=1e-8 * 17)

    def test_matches_cosine_sum_oracle(self):
        tau = np.linspace(-3.3, 3.3, 257)
        np.testing.assert_allclose(
            dirichlet_F(tau, 6, TWO_PI), dirichlet_oracle(tau, 6, TWO_PI), atol=1e-9
        )

    def test_near_revivals_hundreds_of_round_trips_out(self):
        # 6.43e-7 t_r past a revival the full-angle sines are both ~2e-6 and
        # their rounded ratio is off by ~1e-6; the reduced angle is exact
        k = np.arange(1, 301)
        tau = np.concatenate([k + 6.43e-7, k - 6.43e-7])
        np.testing.assert_allclose(
            dirichlet_F(tau, 10, TWO_PI), dirichlet_oracle(tau, 10, TWO_PI), rtol=0, atol=1e-9 * 21
        )

    @settings(max_examples=80, deadline=None)
    @given(tau=st.floats(-10.0, 10.0), n=st.integers(0, 25))
    def test_periodicity(self, tau, n):
        spacing = 1.7
        t_r = TWO_PI / spacing
        a = abs(dirichlet_F(tau + t_r, n, spacing))
        b = abs(dirichlet_F(tau, n, spacing))
        assert abs(a - b) < 1e-9 * (2 * n + 1)


class TestGeneralizedF:
    def test_locked_reduces_exactly(self):
        comb = make_comb(4, 0.01)
        tau = np.linspace(-2, 2, 101)
        np.testing.assert_array_equal(
            generalized_F(tau, comb).real, dirichlet_F(tau, 4, comb.mode_spacing)
        )
        assert np.all(generalized_F(tau, comb).imag == 0)

    def test_three_mode_pi_phase_at_zero(self):
        comb = make_comb(1, 0.01, phases=(0.0, 0.0, math.pi))
        assert complex(generalized_F(0.0, comb)) == pytest.approx(1.0 + 0.0j, abs=1e-12)

    @pytest.mark.parametrize(
        "phases",
        [tuple(np.random.default_rng(17).uniform(0.0, TWO_PI, 21)), (0.0, 0.0, math.pi)],
        ids=["seeded-21-modes", "three-modes-0-0-pi"],
    )
    def test_phased_matches_the_mode_sum_far_out(self, phases):
        n_side = (len(phases) - 1) // 2
        comb = make_comb(n_side, 0.01, phases=phases)
        tau = np.linspace(-300.0, 300.0, 6001) + 1e-3
        expected = sum(
            np.exp(1j * (phi - m * comb.mode_spacing * tau))
            for m, phi in zip(range(-n_side, n_side + 1), phases)
        )
        np.testing.assert_allclose(
            generalized_F(tau, comb), expected, rtol=0, atol=1e-9 * len(phases)
        )

    @pytest.mark.parametrize(
        "q, a", [(q, a) for q in (3, 7, 21) for a in range(1, q) if math.gcd(a, q) == 1]
    )
    def test_fractional_talbot_comb_heights(self, q, a):
        # phi_m = 2 pi a m^2 / q with q dividing 2N + 1 = 21: the comb splits
        # into q peaks per round trip, each of height 21^2 / q (a Gauss sum)
        comb = make_comb(10, 0.01, phases=tuple(TWO_PI * a * m * m / q for m in range(-10, 11)))
        tau = np.arange(q) * comb.round_trip_time / q
        np.testing.assert_allclose(np.abs(generalized_F(tau, comb)) ** 2, 441.0 / q, rtol=1e-9)

    def test_quarter_quadratic_phases_double_the_comb_rate(self):
        # phi_m = pi m^2 / 2: the 11 even and 10 odd modes add in phase at 0
        # and at t_r / 2 alike, |F|^2 = 11^2 + 10^2
        comb = make_comb(10, 0.01, phases=tuple(math.pi * m * m / 2 for m in range(-10, 11)))
        tau = np.array([0.0, comb.round_trip_time / 2])
        np.testing.assert_allclose(np.abs(generalized_F(tau, comb)) ** 2, 221.0, rtol=1e-9)

    def test_the_term_cap_is_refused_before_the_sum(self, monkeypatch):
        class SumReached(Exception):
            pass

        def fake(*args, **kwargs):
            raise SumReached

        monkeypatch.setattr(np, "polyval", fake)
        comb = make_comb(65535, 0.01, phases=(0.5,) * 131071)
        points = MAX_COMB_TERMS // comb.n_modes
        with pytest.raises(SumReached):
            generalized_F(np.zeros(points), comb)
        with pytest.raises(GridError, match=f"{points + 1} delays and 131071 modes"):
            generalized_F(np.zeros(points + 1), comb)

    def test_random_phases_add_incoherently_at_revival(self):
        # coherent sum would give (2N+1)^2 = 121; phase-scrambled pairs add as power
        rng = np.random.default_rng(321)
        vals = []
        for _ in range(1000):
            comb = make_comb(5, 0.01, phases=tuple(rng.uniform(0, TWO_PI, 11)))
            vals.append(abs(complex(generalized_F(1.0, comb))) ** 2)
        mean = float(np.mean(vals))
        assert mean == pytest.approx(11.0, abs=1.2)
        assert mean < 30.0


class TestPairOverlap:
    # |FFT sum - direct sum| <= BOUND |P(0)|, the largest |P(d)|; at most 8.8e-16 measured
    BOUND = 1e-14

    class SumReached(Exception):
        pass

    def test_mode_cap_is_refused_before_the_sum(self, monkeypatch):
        def fake(*args, **kwargs):
            raise self.SumReached

        monkeypatch.setattr(np.fft, "fft", fake)
        with pytest.raises(GridError, match="65537 modes"):
            pair_overlap(make_comb(32768, 0.01), [0.0])
        with pytest.raises(self.SumReached):
            pair_overlap(make_comb(32767, 0.01), [0.0])

    def test_rectangular_line_has_no_closed_form(self):
        with pytest.raises(ValueError, match="rectangular"):
            pair_overlap(make_comb(4, 0.01, shape=Shape.RECTANGULAR), [0.0])

    @classmethod
    def assert_near_the_direct_sum(cls, comb, delays):
        got, want = pair_overlap(comb, delays), pair_overlap_oracle(comb, [0.0, *delays])
        assert got.shape == want[1:].shape
        np.testing.assert_allclose(got, want[1:], rtol=0.0, atol=cls.BOUND * abs(want[0]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        shape=st.sampled_from([Shape.LORENTZIAN, Shape.GAUSSIAN]),
        n_side=st.integers(0, 40),
        phase_seed=st.none() | st.integers(0, 2**32 - 1),
        center=st.sampled_from([0.0, 3.7, -211.0]),
        delays=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, -0.5])
            | st.floats(-4.0, 4.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
    )
    def test_fft_sum_is_within_the_bound_of_the_direct_sum(
        self, shape, n_side, phase_seed, center, delays
    ):
        phases = ()
        if phase_seed is not None:
            phases = tuple(np.random.default_rng(phase_seed).uniform(0.0, TWO_PI, 2 * n_side + 1))
        comb = make_comb(n_side, 0.01, shape, phases=phases, center=center)
        self.assert_near_the_direct_sum(comb, delays)

    @pytest.mark.parametrize("center", [0.0, 1.5])
    @pytest.mark.parametrize("shape", [Shape.LORENTZIAN, Shape.GAUSSIAN])
    def test_a_covered_hom_scan_is_within_the_bound(self, shape, center):
        # the delays one covered scan asks for: 0, the 261 scan delays and their halves
        d = np.linspace(0.0, 1.3, 261)
        comb = make_comb(10, 0.01, shape, center=center)
        self.assert_near_the_direct_sum(comb, [0.0, *d, *d / 2, *-d / 2])

    @pytest.mark.parametrize("shape", [Shape.LORENTZIAN, Shape.GAUSSIAN])
    def test_delays_past_one_block_are_within_the_bound(self, shape):
        # 4N + 1 = 4001 lags in 4050 bins: 16 delays a block, so 40 delays take three blocks
        comb = make_comb(1000, 0.01, shape, phases=tuple(np.linspace(0.0, 5.0, 2001)), center=1.5)
        assert PAIR_BLOCK_ELEMENTS // 4050 == 16
        self.assert_near_the_direct_sum(comb, np.linspace(-1.3, 1.3, 40))

    def test_a_wide_comb_is_within_the_bound(self):
        self.assert_near_the_direct_sum(make_comb(3000, 0.01), [0.0, 5e-324, 0.25, -0.5, 1.0])

    @pytest.mark.parametrize("phase_seed", [None, 11])
    @pytest.mark.parametrize("shape", [Shape.LORENTZIAN, Shape.GAUSSIAN])
    def test_a_comb_of_16385_modes_is_within_the_bound(self, shape, phase_seed):
        phases = ()
        if phase_seed is not None:
            phases = tuple(np.random.default_rng(phase_seed).uniform(0.0, TWO_PI, 16385))
        comb = make_comb(8192, 0.01, shape, phases=phases, center=1.5)
        self.assert_near_the_direct_sum(comb, [0.0, 0.5, -1.0])

    @pytest.mark.parametrize("linewidth_frac", [1e-4, 0.01, 0.1, 0.45])
    def test_the_lorentzian_lag_transform_matches_quadrature(self, linewidth_frac):
        # J(k, d), taken at lag k = j dOm from the ramps, serves the lags +-k: both against
        # quad of its definition, with k|d| up to 6e5; at most 8.4e-16 / h = 8.4e-16 J(0, 0)
        comb = make_comb(10, linewidth_frac)
        s, n_side, spacing = comb.single_mode, comb.n_side_modes, comb.mode_spacing
        hw = s.halfwidth
        m, k = np.arange(n_side + 1) * spacing, np.arange(2 * n_side + 1) * spacing
        d = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-3, -0.37, 1.0 / hw, -1.0 / hw, 3.0 / hw,
                      -1e3 / k[-1]])
        col = d[:, None]
        j = _lag_transform(s, k, col, np.exp(-1j * m * col))
        for sign in (1.0, -1.0):
            want = [[lorentzian_lag_oracle(hw, sign * kk, x) for kk in k] for x in d]
            np.testing.assert_allclose(j, want, rtol=0.0, atol=1e-14 / hw)

    def test_the_fft_length_is_the_least_5_smooth_length(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1

        lengths = [_fft_length(n) for n in range(1, 3001)]
        assert lengths == [next(x for x in itertools.count(n) if smooth(x)) for n in range(1, 3001)]
        assert [_fft_length(4 * n + 1) for n in (10, 8192, 32767)] == [45, 32805, 131072]

    def test_no_delays_give_an_empty_array(self):
        assert pair_overlap(make_comb(4, 0.01), []).shape == (0,)

    @pytest.mark.parametrize("center", [0.0, 0.3, 1.5e3])
    @pytest.mark.parametrize("phases", ["locked", "mirrored", "seeded"])
    @pytest.mark.parametrize("n_side", [0, 1, 10, 2000])
    @pytest.mark.parametrize("shape", [Shape.LORENTZIAN, Shape.GAUSSIAN])
    def test_a_negative_delay_gives_the_conjugate(self, shape, n_side, phases, center):
        # P(-d) = conj P(d) for any amplitude, so the cross integral P(D/2) - P(-D/2) of
        # an undithered rate is 2i Im P(D/2); at most 1.9e-16 |P(0)| measured
        rng = np.random.default_rng(17)
        half = rng.uniform(0.0, TWO_PI, n_side + 1)
        phases = {
            "locked": (),
            "mirrored": tuple(np.concatenate([half[:0:-1], half])),
            "seeded": tuple(rng.uniform(0.0, TWO_PI, 2 * n_side + 1)),
        }[phases]
        comb = make_comb(n_side, 0.01, shape, phases=phases, center=center)
        d = np.linspace(0.0, 2.0, 41) * comb.round_trip_time
        p = pair_overlap(comb, np.concatenate(([0.0], d, -d)))
        assert np.max(np.abs(p[42:] - np.conj(p[1:42]))) <= 1e-15 * abs(p[0])

    def test_the_blocks_bound_the_memory(self):
        # 64 delays at N = 3000: 13 blocks of 5 x 12150 bins, about 3.8 MB at the peak
        comb = make_comb(3000, 0.01)
        tracemalloc.start()
        try:
            pair_overlap(comb, np.linspace(0.0, 1.3, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 << 20


class TestEnvelopes:
    def test_zero_delay_normalization(self):
        for shape in Shape:
            s = SpectralAmplitude(shape, halfwidth=1.7)
            assert complex(pair_envelope(s, np.array([0.0]))[0]) == pytest.approx(1.0)
            assert complex(coherence_envelope(s, np.array([0.0]))[0]) == pytest.approx(1.0)

    def test_lorentzian_decay_point(self):
        s = SpectralAmplitude(Shape.LORENTZIAN, halfwidth=2.0)
        val = abs(pair_envelope(s, np.array([1.0 / 2.0]))[0])
        assert val == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_rectangular_sinc_zero(self):
        s = SpectralAmplitude(Shape.RECTANGULAR, halfwidth=3.0)
        tau = np.array([math.pi / 3.0])
        assert abs(pair_envelope(s, tau)[0]) < 1e-9
        assert abs(transform_oracle(pair_profile, s, tau)[0]) < 1e-9

    def test_off_center_line_carries_the_carrier(self):
        s = SpectralAmplitude(Shape.GAUSSIAN, halfwidth=1.0, center=4.0)
        tau = np.array([0.3])
        val = complex(pair_envelope(s, tau)[0])
        assert val == pytest.approx(math.exp(-0.3**2 / 2) * np.exp(-1j * 4.0 * 0.3), rel=1e-12)

    def test_coherence_lorentzian_matches_wide_oracle(self):
        # the squared line keeps the same halfwidth: |G| decays at the same rate as |g|
        s = SpectralAmplitude(Shape.LORENTZIAN, halfwidth=1.3)
        tau = np.linspace(0.0, 4.0 / 1.3, 9)
        oracle = transform_oracle(intensity_profile, s, tau)
        np.testing.assert_allclose(np.abs(coherence_envelope(s, tau)), oracle, atol=5e-4)
        np.testing.assert_allclose(oracle, np.exp(-1.3 * tau), atol=5e-4)

    def test_coherence_gaussian_one_over_e_point(self):
        # transform of exp(-u^2/hw^2) reaches 1/e at tau = 2/hw
        s = SpectralAmplitude(Shape.GAUSSIAN, halfwidth=0.8)
        tau = np.array([2.0 / 0.8])
        oracle = transform_oracle(intensity_profile, s, tau)[0]
        assert oracle == pytest.approx(math.exp(-1.0), rel=1e-9)
        assert abs(coherence_envelope(s, tau)[0]) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_closed_and_quadrature_routes_agree_tightly(self):
        for shape, hw in ((Shape.LORENTZIAN, 1.3), (Shape.GAUSSIAN, 0.9), (Shape.RECTANGULAR, 2.0)):
            s = SpectralAmplitude(shape, halfwidth=hw)
            tau = np.linspace(-5.0 / hw, 5.0 / hw, 21)
            for fn, profile in ((pair_envelope, pair_profile), (coherence_envelope, intensity_profile)):
                oracle = transform_oracle(profile, s, tau, 50.0, 100_001)
                dev = np.max(np.abs(fn(s, tau) - oracle))
                assert dev < 1e-8, f"{fn.__name__} {shape}: {dev}"

    def test_nyquist_guard(self):
        s = SpectralAmplitude(Shape.LORENTZIAN, halfwidth=100.0)
        coarse = TimeGrid(-1.0, 1.0, 16)
        with pytest.raises(NyquistError):
            envelope_g(s, coarse)
        with pytest.raises(NyquistError):
            envelope_G(s, coarse)

    def test_parseval_with_trace_normalization(self):
        # sum |g|^2 dtau == 2*pi * sum |psi_pair|^2 dOmega / normalization^2
        cases = {
            Shape.LORENTZIAN: dict(hw=1.3, t_span=9.0, t_n=180001, w_span=200.0, w_n=400001),
            Shape.GAUSSIAN: dict(hw=0.9, t_span=9.0, t_n=120001, w_span=13.0, w_n=120001),
            Shape.RECTANGULAR: dict(hw=2.0, t_span=1.0e6, t_n=10_186_105, w_span=1.0, w_n=20001),
        }
        for shape, p in cases.items():
            s = SpectralAmplitude(shape, halfwidth=p["hw"])
            grid = TimeGrid(-p["t_span"] / p["hw"], p["t_span"] / p["hw"], p["t_n"])
            trace = envelope_g(s, grid)
            lhs = np.trapezoid(np.abs(trace.samples) ** 2, grid.values)
            u = np.linspace(-p["w_span"] * p["hw"], p["w_span"] * p["hw"], p["w_n"])
            rhs = TWO_PI * np.trapezoid(pair_profile(s, u) ** 2, u) / trace.normalization**2
            assert lhs == pytest.approx(rhs, rel=1e-6), shape


class TestGamma2ModeLocked:
    def grid(self, comb, span=2.2, points=8193):
        t_r = comb.round_trip_time
        return TimeGrid(-span * t_r, span * t_r, points)

    def test_peak_value_locked(self, comb10):
        grid = self.grid(comb10)
        trace = gamma2_mode_locked(comb10, grid)
        i0 = np.argmin(np.abs(grid.values))
        assert trace.samples[i0] == pytest.approx(21.0**2, rel=1e-12)
        assert trace.kind is TraceKind.INTENSITY
        assert trace.round_trip_time == pytest.approx(comb10.round_trip_time)

    def test_revival_value_is_product_of_closed_forms(self, comb10):
        t_r = comb10.round_trip_time
        grid = TimeGrid(-2.2 * t_r, 2.2 * t_r, 8191)
        trace = gamma2_mode_locked(comb10, grid)
        i = np.argmin(np.abs(grid.values - t_r))
        gamma = comb10.single_mode.halfwidth
        tau = grid.values[i]
        expected = (math.exp(-gamma * tau) * dirichlet_F(tau, 10, comb10.mode_spacing)) ** 2
        assert trace.samples[i] == pytest.approx(expected, rel=1e-12)
        assert trace.samples[i] == pytest.approx(441.0 * math.exp(-2 * gamma * t_r), rel=1e-3)

    def test_midpoint_value_comes_from_the_unit_kernel(self, comb10):
        # |F| = 1 exactly at half period, so the midpoint sits at Gamma2(0)/(2N+1)^2
        t_r = comb10.round_trip_time
        trace = gamma2_mode_locked(comb10, TimeGrid(-t_r, t_r, 4097))
        i = np.argmin(np.abs(trace.grid.values - 0.5 * t_r))
        ratio = trace.samples[i] / trace.samples[2048]
        gamma = comb10.single_mode.halfwidth
        assert ratio == pytest.approx(math.exp(-gamma * t_r) / 441.0, rel=1e-4)
        assert ratio < 1e-2

    def test_single_mode_reduces_to_envelope_squared(self):
        comb = make_comb(0, 0.01)
        grid = self.grid(comb, points=2049)
        trace = gamma2_mode_locked(comb, grid)
        np.testing.assert_array_equal(
            trace.samples, np.abs(pair_envelope(comb.single_mode, grid.values)) ** 2
        )

    @pytest.mark.parametrize("shape", list(Shape))
    @pytest.mark.parametrize("n_side", [0, 10, 60])
    def test_a_locked_trace_is_the_squared_amplitude(self, shape, n_side):
        # the carrier of g has unit modulus: at center 0 it is 1 and a locked comb's
        # real product is |g F| bit for bit; off zero, or with phases, only the
        # rounding differs (at most 1.1e-15 relative measured with seeded phases)
        comb = make_comb(n_side, 0.01, shape=shape)
        grid = self.grid(comb)
        want = np.abs(comb_amplitude(grid.values, comb)) ** 2
        np.testing.assert_array_equal(gamma2_mode_locked(comb, grid).samples, want)
        seeded = tuple(np.random.default_rng(5).uniform(0.0, TWO_PI, 2 * n_side + 1))
        for phases, center in [((), 1.5), ((), 3.1e12), (seeded, 0.0), (seeded, 1.5)]:
            comb = make_comb(n_side, 0.01, shape=shape, phases=phases, center=center)
            want = np.abs(comb_amplitude(grid.values, comb)) ** 2
            got = gamma2_mode_locked(comb, grid).samples
            np.testing.assert_allclose(got, want, rtol=2e-15, atol=0)

    def test_grid_must_resolve_peaks(self, comb10):
        t_r = comb10.round_trip_time
        with pytest.raises(GridError):
            gamma2_mode_locked(comb10, TimeGrid(-2 * t_r, 2 * t_r, 64))

    def test_locked_comb_has_deep_gaps(self, comb10):
        t_r = comb10.round_trip_time
        grid = TimeGrid(0.2 * t_r, 0.8 * t_r, 4096)
        trace = gamma2_mode_locked(comb10, grid)
        assert trace.samples.min() < 1e-3 * 441.0

    def test_random_phases_destroy_the_comb_but_not_the_floor(self):
        # scrambled phases: revival peaks collapse toward the incoherent level
        # while the inter-peak floor rises to it; both in >= 95 of 100 seeds
        rng_master = np.random.default_rng(7)
        n = 10
        peak_killed = 0
        floor_raised = 0
        for _ in range(100):
            phases = tuple(rng_master.uniform(0, TWO_PI, 2 * n + 1))
            comb = make_comb(n, 0.01, phases=phases)
            t_r = comb.round_trip_time
            gamma = comb.single_mode.halfwidth
            tau = np.linspace(0.2 * t_r, 0.8 * t_r, 512)
            floor = np.mean(
                np.abs(
                    np.exp(-gamma * tau) * generalized_F(tau, comb)
                ) ** 2
            )
            peak0 = abs(complex(generalized_F(0.0, comb))) ** 2
            revival = abs(complex(generalized_F(t_r, comb))) ** 2
            if revival < 0.5 * (2 * n + 1) ** 2:
                peak_killed += 1
            if floor > 1e-2 * peak0:
                floor_raised += 1
        assert peak_killed >= 95
        assert floor_raised >= 95


class TestDetectorAveraging:
    def test_requires_window_of_several_round_trips(self, comb10):
        t_r = comb10.round_trip_time
        grid = TimeGrid(-10 * t_r, 10 * t_r, 8193)
        trace = gamma2_mode_locked(comb10, grid)
        with pytest.raises(WindowError):
            gamma2_detector_averaged(trace, 2.0 * t_r)

    def test_requires_round_trip_metadata(self):
        grid = TimeGrid(-1.0, 1.0, 101)
        bare = CorrelationTrace(grid, np.ones(101), TraceKind.INTENSITY)
        with pytest.raises(ValueError, match="round_trip_time"):
            gamma2_detector_averaged(bare, 1.0)

    def test_constant_trace_is_unchanged(self):
        grid = TimeGrid(-1.0, 1.0, 501)
        flat = CorrelationTrace(
            grid, np.full(501, 2.5), TraceKind.INTENSITY, round_trip_time=0.01
        )
        out = gamma2_detector_averaged(flat, 0.1)
        np.testing.assert_allclose(out.samples, 2.5, rtol=1e-14)

    def test_a_one_step_window_returns_the_samples(self):
        # 1.2 grid steps round to a one-tap window, which spans 4.8 round trips
        grid = TimeGrid(0.0, 8.0, 9)
        samples = np.array([0.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0, 2.5, 1e300, math.pi, 7.0])
        trace = CorrelationTrace(grid, samples, TraceKind.INTENSITY, round_trip_time=0.25)
        out = gamma2_detector_averaged(trace, 1.2)
        assert out.samples.tobytes() == samples.tobytes()
        assert (out.grid, out.kind, out.round_trip_time) == (grid, trace.kind, 0.25)

    def test_matches_windowed_mean_oracle(self):
        comb = make_comb(20, 0.01)
        t_r = comb.round_trip_time
        grid = TimeGrid(-40 * t_r, 40 * t_r, 40961)
        trace = gamma2_mode_locked(comb, grid)
        out = gamma2_detector_averaged(trace, 10.0 * t_r)
        w = int(round(10.0 * t_r / grid.spacing))
        oracle = moving_average_oracle(trace.samples, w)
        np.testing.assert_allclose(out.samples, oracle, rtol=1e-12)

    def test_smooth_envelope_survives_on_the_flanks(self):
        # away from the tau = 0 kink the averaged comb tracks (2N+1)|g|^2;
        # the narrow line keeps the spike-to-spike decay (the staircase the
        # window average inherits) well inside the 5% band
        comb = make_comb(20, 0.001)
        t_r = comb.round_trip_time
        gamma = comb.single_mode.halfwidth
        grid = TimeGrid(-40 * t_r, 40 * t_r, 40961)
        out = gamma2_detector_averaged(gamma2_mode_locked(comb, grid), 10.0 * t_r)
        tau = grid.values
        flank = (tau > 8.0 * t_r) & (tau < 32.0 * t_r)
        ratio = out.samples[flank] / np.exp(-2.0 * gamma * tau[flank])
        spread = (ratio.max() - ratio.min()) / ratio.mean()
        assert spread < 0.05

    def test_wide_line_breaks_the_envelope_proportionality(self):
        # with gamma = 0.01 spacing the comb decays 12% per round trip, so the
        # averaged staircase cannot track the smooth envelope to 5%
        comb = make_comb(20, 0.01)
        t_r = comb.round_trip_time
        gamma = comb.single_mode.halfwidth
        grid = TimeGrid(-40 * t_r, 40 * t_r, 40961)
        out = gamma2_detector_averaged(gamma2_mode_locked(comb, grid), 10.0 * t_r)
        tau = grid.values
        flank = (tau > 8.0 * t_r) & (tau < 32.0 * t_r)
        ratio = out.samples[flank] / np.exp(-2.0 * gamma * tau[flank])
        spread = (ratio.max() - ratio.min()) / ratio.mean()
        assert 0.05 < spread < 0.15

    def test_no_comb_input_passes_through(self):
        comb = make_comb(0, 0.001)
        t_r = comb.round_trip_time
        grid = TimeGrid(-200 * t_r, 200 * t_r, 16385)
        trace = gamma2_mode_locked(comb, grid)
        out = gamma2_detector_averaged(trace, 3.0 * t_r)
        inner = slice(2048, -2048)
        np.testing.assert_allclose(out.samples[inner], trace.samples[inner], rtol=0.02)


class TestGamma1Coherence:
    def test_unit_modulus_at_zero(self, comb10):
        grid = TimeGrid(-1.1, 1.1, 4097)
        trace = gamma1_coherence(comb10, grid)
        i0 = np.argmin(np.abs(grid.values))
        assert abs(trace.samples[i0]) == pytest.approx(1.0, rel=1e-12)

    def test_full_revival_at_one_round_trip(self, comb10):
        # span chosen so t_r lands on a grid node and the comb factor is full
        t_r = comb10.round_trip_time
        grid = TimeGrid(-1.28 * t_r, 1.28 * t_r, 4097)
        trace = gamma1_coherence(comb10, grid)
        i = np.argmin(np.abs(grid.values - t_r))
        expected = abs(coherence_envelope(comb10.single_mode, np.array([grid.values[i]]))[0])
        assert abs(trace.samples[i]) == pytest.approx(expected, rel=1e-10)

    def test_half_period_modulus_frozen_value(self, comb10):
        # |G(t_r/2)| / (2N+1): the comb factor is exactly 1 at half period
        t_r = comb10.round_trip_time
        grid = TimeGrid(-0.75 * t_r, 0.75 * t_r, 4097)
        trace = gamma1_coherence(comb10, grid)
        i = np.argmin(np.abs(grid.values - 0.5 * t_r))
        assert abs(trace.samples[i]) == pytest.approx(0.046146306, rel=1e-4)

    def test_tall_maxima_only_at_full_round_trips(self, comb10):
        # Dirichlet side lobes reach ~0.217 of the local peak, so any prominence
        # floor below that level picks them up; 0.3 isolates the revivals
        t_r = comb10.round_trip_time
        grid = TimeGrid(-2.2 * t_r, 2.2 * t_r, 16385)
        mod = np.abs(gamma1_coherence(comb10, grid).samples)
        peaks, _ = find_peaks(mod, prominence=0.3)
        locations = grid.values[peaks] / t_r
        np.testing.assert_allclose(locations, [-2, -1, 0, 1, 2], atol=2 * grid.spacing / t_r)
        # a 0.1 floor also finds the side lobes; the tallest of them sits at
        # the universal first-lobe level of the kernel
        lobes, _ = find_peaks(mod, prominence=0.1)
        assert len(lobes) > 5
        tallest_non_revival = np.sort(mod[lobes])[-6]
        assert tallest_non_revival == pytest.approx(0.217, abs=0.02)


GRID_5 = TimeGrid(-1.0, 1.0, 5)


def trace_5(samples, kind=TraceKind.INTENSITY):
    return CorrelationTrace(GRID_5, samples, kind, round_trip_time=0.1)


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        (lambda: trace_5(np.ones(4)), ValueError, "samples length"),
        (lambda: trace_5(np.ones(5) + 1j), ValueError, "imaginary part"),
        (lambda: trace_5(-np.ones(5)), ValueError, "negative samples"),
        (lambda: dirichlet_F(0.0, -1, 1.0), ValueError, "n_side_modes must be >= 0"),
        (lambda: dirichlet_F(0.0, 2, 0.0), ValueError, "mode_spacing must be > 0"),
        (lambda: dirichlet_F(0.0, 2, -1.0), ValueError, "mode_spacing must be > 0"),
        (
            lambda: gamma2_detector_averaged(trace_5(np.ones(5), TraceKind.AMPLITUDE), 1.0),
            ValueError,
            "applies to intensity traces",
        ),
        (
            lambda: gamma2_detector_averaged(trace_5(np.ones(5)), 2.5),
            WindowError,
            "exceeds the trace length",
        ),
        # inf once overflowed sizing the window, and NaN passed the round-trip check
        (
            lambda: gamma2_detector_averaged(trace_5(np.ones(5)), math.inf),
            ValueError,
            "resolution_time must be finite",
        ),
        (
            lambda: gamma2_detector_averaged(trace_5(np.ones(5)), math.nan),
            ValueError,
            "resolution_time must be finite",
        ),
    ],
    ids=[
        "trace_length", "trace_imaginary", "trace_negative", "dirichlet_negative_n",
        "dirichlet_zero_spacing", "dirichlet_negative_spacing", "averaging_amplitude",
        "averaging_window_as_long_as_the_trace", "averaging_infinite_resolution",
        "averaging_nan_resolution",
    ],
)
def test_refused_input(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()


def test_an_intensity_with_a_negligible_imaginary_part_keeps_real_samples():
    samples = np.linspace(1.0, 2.0, 5) + 1e-12j
    trace = trace_5(samples)
    assert not np.iscomplexobj(trace.samples)
    np.testing.assert_array_equal(trace.samples, samples.real)
