"""Acceptance gate: one test per criterion, printed as one PASS/FAIL line each.

Two criteria assert what the Dirichlet-comb model predicts, against an
independent analytic value, with the derivation in the test docstrings:

* criterion 1b: the comb factor equals +-1 (not ~0) at half period, so the
  zero-to-midpoint contrast is (2N+1)^2 * exp(gamma*t_r) ~ 4.7e2 for N = 10;
* criterion 6b: the comb factor is exactly t_r-periodic for every phase draw,
  so the half-round-trip overlap (and the dip it feeds) is phase-insensitive;
  scrambled phases destroy the correlation comb instead.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from scipy import stats

from twophoton import (
    InterferometerConfig,
    Shape,
    SpectralAmplitude,
    TimeGrid,
    WidebandState,
    bs_two_photon_state,
    coherence_envelope,
    coincidence_rate,
    combined_gamma2,
    delay_scan,
    dither_averaged_rate,
    detect,
    DetectorModel,
    find_dip_delays,
    gamma2_detector_averaged,
    gamma2_mode_locked,
    histogram_delays,
    matched_wideband,
    pair_envelope,
    phase_fringe_scan,
    sample_pair_delays,
    solve_excision,
)
from twophoton.cli import main
from twophoton.config import config_from_output_header

from conftest import (
    TWO_PI,
    dirichlet_oracle,
    excision_grid_search,
    intensity_profile,
    jitter_convolution_oracle,
    make_comb,
    pair_profile,
    transform_oracle,
)

T_R = 1.0


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def icfg(comb, delay, **kw):
    kw.setdefault("resolution_time", 1e4 * T_R)
    return InterferometerConfig(comb=comb, delay=delay, **kw)


def test_criterion_1a_comb_peaks_and_runtime():
    with criterion("1a comb peak locations and runtime"):
        comb = make_comb(10, 0.01)
        grid = TimeGrid(-2.0 * T_R, 2.0 * T_R, 2**14)
        start = time.perf_counter()
        trace = gamma2_mode_locked(comb, grid)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        tau = grid.values
        step = grid.spacing
        for k in (-2, -1, 0, 1, 2):
            window = np.abs(tau - k * T_R) <= 0.5 * T_R
            peak_at = tau[window][np.argmax(trace.samples[window])]
            assert abs(peak_at - k * T_R) <= step + 1e-15


def test_criterion_1b_midpoint_contrast():
    """At tau = t_r/2 the comb factor sin[(2N+1)x]/sin(x) is +-1, so the
    zero-to-midpoint contrast is (2N+1)^2 e^{gamma t_r} ~ 470 for N = 10,
    gamma = 0.01 spacing: above (2N+1)^2, far below the 1e4 that 2N+1 >= 100
    modes would need.  The oracle is the cosine-sum comb factor squared times
    the envelope e^{-2 gamma |tau|}, evaluated at the two sampled delays (the
    grid holds neither tau = 0 nor t_r/2 exactly)."""
    with criterion("1b zero-to-midpoint contrast = (2N+1)^2 e^{gamma t_r} oracle, > (2N+1)^2"):
        comb = make_comb(10, 0.01)
        grid = TimeGrid(-2.0 * T_R, 2.0 * T_R, 2**14)
        trace = gamma2_mode_locked(comb, grid)
        tau = grid.values
        sampled = np.array([np.argmin(np.abs(tau)), np.argmin(np.abs(tau - 0.5 * T_R))])
        at_zero, at_mid = trace.samples[sampled]
        gamma = comb.single_mode.halfwidth
        oracle = dirichlet_oracle(
            tau[sampled], comb.n_side_modes, comb.mode_spacing
        ) ** 2 * np.exp(-2.0 * gamma * np.abs(tau[sampled]))
        assert at_zero / at_mid == pytest.approx(oracle[0] / oracle[1], rel=1e-9)
        assert at_zero / at_mid > comb.n_modes**2


def test_criterion_2_detector_averaging_and_mc():
    with criterion("2 detector averaging: 5% contour, chi-square at 95%"):
        # averaging regime: line narrow enough that the staircase stays small
        comb = make_comb(20, 0.001)
        grid = TimeGrid(-40.0 * T_R, 40.0 * T_R, 40961)
        start = time.perf_counter()
        averaged = gamma2_detector_averaged(gamma2_mode_locked(comb, grid), 10.0 * T_R)
        tau = grid.values
        gamma = comb.single_mode.halfwidth
        central = np.abs(tau) <= 0.6 * 40.0 * T_R
        ratio = averaged.samples[central] / np.exp(-2.0 * gamma * np.abs(tau[central]))
        scale = ratio.mean()
        assert np.max(np.abs(ratio / scale - 1.0)) < 0.05

        # Monte Carlo side: slow detector reproduces the jitter-convolved contour
        mc_comb = make_comb(10, 0.01)
        mc_grid = TimeGrid(-20.0 * T_R, 20.0 * T_R, 2**18 + 1)
        mc_trace = gamma2_mode_locked(mc_comb, mc_grid)
        delays = sample_pair_delays(mc_trace, 10**6, seed=42)
        det = DetectorModel(resolution_time=10.0 * T_R, coincidence_window=1e5)
        records = detect(delays, det, seed=43, duration=1e6)
        hist = histogram_delays(records, 0.5 * T_R, (-32.0 * T_R, 32.0 * T_R))
        probs = jitter_convolution_oracle(
            mc_grid.values, mc_trace.samples, det.resolution_time, hist.edges
        )
        expected = probs * len(records)
        keep = expected > 10.0
        chi2 = float(np.sum((hist.counts[keep] - expected[keep]) ** 2 / expected[keep]))
        dof = int(keep.sum()) - 1
        assert chi2 < stats.chi2.ppf(0.95, dof)
        assert time.perf_counter() - start < 30.0


def test_criterion_3_beam_splitter_state():
    with criterion("3 beam-splitter amplitudes from the Fock transform"):
        amps = bs_two_photon_state(0.5)
        target = np.array([0.5, 0.5, math.sqrt(2.0) / 2.0])
        assert np.max(np.abs(amps - target)) < 1e-12


def test_criterion_4_hom_dip_and_revivals():
    with criterion("4 HOM dip, t_r/2 revivals, dither ceiling, cross term"):
        comb = make_comb(10, 0.01)
        # exact dip bottom, undithered
        res0 = coincidence_rate(icfg(comb, 0.0))
        assert abs(res0.rate) <= 1e-9
        # cross term integrates away
        for d in (0.3 * T_R, 0.5 * T_R):
            res = coincidence_rate(icfg(comb, d, pump_phase=0.7))
            assert abs(res.cross_integral) < 1e-6 * res.r0
        # dithered scan: exactly three dips, half-round-trip spacing
        delays = np.linspace(0.0, 1.3 * T_R, 209)
        scan = delay_scan(icfg(comb, 0.0), delays, dithered=True)
        dips = find_dip_delays(scan, min_depth=0.10)
        assert dips.size == 3
        np.testing.assert_allclose(dips, [0.0, 0.5 * T_R, 1.0 * T_R], atol=delays[1] + 1e-15)
        # ceiling: depth measured against the analytic dithered baseline
        # (the wings mean carries permil-level estimator bias)
        for d in dips:
            res = dither_averaged_rate(icfg(comb, float(d)))
            depth = (res.r0 - res.rate) / res.r0
            assert depth <= 0.5 + 1e-9


def test_criterion_5_fringe_dichotomy():
    with criterion("5 singles fringe at t_r vs flat singles at t_r/2"):
        comb = make_comb(60, 0.02)
        gamma = comb.single_mode.halfwidth
        phases = np.linspace(0.0, 4.0 * math.pi, 161)
        full = phase_fringe_scan(icfg(comb, T_R), phases)
        expected = abs(complex(coherence_envelope(comb.single_mode, np.array([T_R]))[0]))
        assert expected == pytest.approx(math.exp(-gamma * T_R), rel=1e-12)
        for channel in ("singles_1", "singles_2"):
            fitted = full.metadata["fitted_visibility"][channel]
            assert abs(fitted - expected) < 1e-6
        half = phase_fringe_scan(icfg(comb, 0.5 * T_R), phases)
        assert half.metadata["singles_visibility"] < 1e-2
        assert half.metadata["fitted_visibility"]["coincidence"] > 0.5


def test_criterion_6a_locked_revival_reaches_the_ceiling():
    with criterion("6a locked t_r/2 dip at the 50% dithered ceiling"):
        comb = make_comb(10, 0.01)
        res = dither_averaged_rate(icfg(comb, 0.5 * T_R))
        depth = (res.r0 - res.rate) / res.r0
        assert 0.45 <= depth <= 0.5 + 1e-9


def test_criterion_6b_random_phases_suppress_the_revival():
    """Random phases suppress the correlation comb, not the dip revival.

    Every term of the comb factor has period t_r exactly, so
    F(tau + t_r/2) = F(tau - t_r/2) and X(tau + t_r/2) X*(tau - t_r/2) is
    |F(tau + t_r/2)|^2 weighted by the envelopes for any phase draw: each draw
    keeps the t_r/2 dip in the band of criterion 6a.  What locking buys is the comb.  Over one round
    trip the locked |gF|^2 peaks at (2N+1)^2 on a mean of at most 2N+1
    (Parseval, |g| <= 1) and at least (2N+1) e^{-gamma t_r}, so its
    peak-to-mean ratio lies in [2N+1, (2N+1) e^{gamma t_r}]; every scrambled
    draw must fall below half of it.
    """
    with criterion("6b random phases keep the t_r/2 revival but lose the comb, 100/100 seeds"):
        # one full round trip; the last sample repeats the first
        window = TimeGrid(-0.5 * T_R, 0.5 * T_R, 4097)

        def peak_to_mean(comb):
            samples = gamma2_mode_locked(comb, window).samples[:-1]
            return samples.max() / samples.mean()

        locked = make_comb(10, 0.05)
        gamma = locked.single_mode.halfwidth
        locked_ratio = peak_to_mean(locked)
        assert locked.n_modes <= locked_ratio <= locked.n_modes * math.exp(gamma * T_R)
        rng = np.random.default_rng(2026)
        for _ in range(100):
            phases = tuple(rng.uniform(0.0, TWO_PI, 21))
            comb = make_comb(10, 0.05, phases=phases)
            res = dither_averaged_rate(icfg(comb, 0.5 * T_R))
            depth = (res.r0 - res.rate) / res.r0
            assert 0.45 <= depth <= 0.5 + 1e-9
            assert peak_to_mean(comb) < 0.5 * locked_ratio


@pytest.mark.slow
def test_criterion_7_peak_excision():
    with criterion("7 excision: residual, neighbors, oracle match, phase flip"):
        comb = make_comb(1, 0.02, shape=Shape.GAUSSIAN)
        grid = TimeGrid(-4.0 * T_R, 4.0 * T_R, 32769)
        template = matched_wideband(comb, Shape.GAUSSIAN)
        before = gamma2_mode_locked(comb, grid)
        tau = grid.values
        for m in (0, 1, 2):
            sol = solve_excision(comb, template, m, grid)
            assert sol.residual < 1e-3
            for kept in sol.neighbor_retention.values():
                assert kept >= 0.9
            zeta_gs, res_gs = excision_grid_search(
                comb, sol.wideband, m, grid, n_magnitude=2501, n_phase=360
            )
            assert res_gs >= sol.residual - 1e-15
            assert res_gs - sol.residual <= 0.01 * res_gs
            flipped = combined_gamma2(
                comb, WidebandState(sol.wideband, sol.delay), sol.eta, -sol.zeta, grid
            )
            window = np.abs(tau - m * T_R) <= 0.25 * T_R
            gain = np.trapezoid(flipped.samples[window], tau[window]) / np.trapezoid(
                before.samples[window], tau[window]
            )
            assert gain >= 3.0


def test_criterion_8_numerical_hygiene():
    with criterion("8 Parseval, quadrature cross-check, bit reproducibility"):
        # Parseval for all three shapes against the trace normalization
        from twophoton import envelope_g

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
            assert abs(lhs - rhs) / rhs < 1e-6

        # closed form vs the quadrature oracle for g and G, all shapes
        for shape, hw in ((Shape.LORENTZIAN, 1.3), (Shape.GAUSSIAN, 0.9), (Shape.RECTANGULAR, 2.0)):
            s = SpectralAmplitude(shape, halfwidth=hw)
            tau = np.linspace(-5.0 / hw, 5.0 / hw, 21)
            for fn, profile in ((pair_envelope, pair_profile), (coherence_envelope, intensity_profile)):
                dev = np.max(np.abs(fn(s, tau) - transform_oracle(profile, s, tau, 50.0, 100_001)))
                assert dev < 1e-8

        # seeded Monte Carlo is bit-identical across thread counts
        comb = make_comb(10, 0.01)
        grid = TimeGrid(-10.0 * T_R, 10.0 * T_R, 2**16 + 1)
        trace = gamma2_mode_locked(comb, grid)
        det = DetectorModel(resolution_time=0.5 * T_R, coincidence_window=10.0, efficiency=0.9)
        n = (1 << 17) + 11
        d1 = sample_pair_delays(trace, n, seed=7, threads=1)
        d3 = sample_pair_delays(trace, n, seed=7, threads=3)
        np.testing.assert_array_equal(d1, d3)
        r1 = detect(d1, det, seed=8, duration=1e4, threads=1)
        r3 = detect(d3, det, seed=8, duration=1e4, threads=3)
        for column in ("pairs", "accidentals"):
            np.testing.assert_array_equal(getattr(r1, column), getattr(r3, column))


def test_criterion_9_cli_round_trip(tmp_path):
    with criterion("9 CLI byte-identical round trip for all commands"):
        base = (
            "comb.n_side_modes = 5\ncomb.round_trip_time = 1.0\n"
            "comb.pump_frequency = 5000.0\ncomb.linewidth = 0.18849555921538758\n"
            "seed = 77\n"
        )
        jobs = {
            "correlation": (base + "scan.points = 1024\n", "correlation.csv"),
            "homscan": (
                base + "detector.resolution_time = 2000.0\nscan.points = 53\n",
                "homscan.csv",
            ),
            "fringe": (
                base + "detector.resolution_time = 2000.0\nscan.points = 61\nscan.delay_tr = 1.0\n",
                "fringe.csv",
            ),
            "engineer": (base + "scan.points = 16384\nengineering.target_peak = 1\n",
                         "engineer_solution.txt"),
            "mc": (
                base
                + "detector.resolution_time = 0.0\ndetector.coincidence_window = 100.0\n"
                + "scan.points = 16385\nmc.n_events = 20000\nmc.duration = 2000.0\n",
                "mc_histogram.csv",
            ),
        }
        for command, (body, filename) in jobs.items():
            cfg_path = tmp_path / f"{command}.cfg"
            cfg_path.write_text(body, encoding="utf-8")
            first = tmp_path / command / "first"
            second = tmp_path / command / "second"
            assert main([command, "--config", str(cfg_path), "--out", str(first)]) == 0
            header = config_from_output_header(first / filename)
            replay = tmp_path / f"{command}.replay.cfg"
            replay.write_text(
                "\n".join(f"{k} = {v}" for k, v in header.items()) + "\n", encoding="utf-8"
            )
            assert main([command, "--config", str(replay), "--out", str(second)]) == 0
            for out_file in sorted(p.name for p in first.iterdir()):
                assert (first / out_file).read_bytes() == (second / out_file).read_bytes(), (
                    f"{command}/{out_file} differs on replay"
                )
