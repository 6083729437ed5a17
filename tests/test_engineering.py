import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twophoton.engineering as engineering
from twophoton import (
    ExcisionSolution,
    GridError,
    PoorMatch,
    Shape,
    SpectralAmplitude,
    TimeGrid,
    UnreachablePeak,
    WidebandState,
    combined_gamma2,
    dirichlet_F,
    gamma2_mode_locked,
    matched_wideband,
    pair_envelope,
    solve_excision,
    wideband_gamma2,
)

from conftest import TWO_PI, excision_grid_search, make_comb, transform_oracle

T_R = 1.0


def window_energy(samples, tau, center, half):
    mask = np.abs(tau - center) <= half
    return float(np.trapezoid(samples[mask], tau[mask]))


class TestWidebandGamma2:
    def test_normalized_peak_at_zero(self):
        w = WidebandState(SpectralAmplitude(Shape.GAUSSIAN, halfwidth=30.0), delay=0.0)
        grid = TimeGrid(-1.0, 1.0, 2001)
        trace = wideband_gamma2(w, grid)
        assert trace.samples[1000] == pytest.approx(1.0, rel=1e-12)

    def test_delay_relocates_the_peak(self):
        w = WidebandState(SpectralAmplitude(Shape.GAUSSIAN, halfwidth=30.0), delay=3.0 * T_R)
        grid = TimeGrid(0.0, 4.0 * T_R, 4001)
        trace = wideband_gamma2(w, grid)
        assert grid.values[np.argmax(trace.samples)] == pytest.approx(3.0 * T_R, abs=grid.spacing)

    def test_gaussian_one_over_e_point(self):
        hw = 25.0
        s = SpectralAmplitude(Shape.GAUSSIAN, halfwidth=hw)
        w = WidebandState(s, delay=0.5)
        grid = TimeGrid(0.5 - 0.4, 0.5 + 0.4, 8193)
        trace = wideband_gamma2(w, grid)
        i = np.argmin(np.abs(grid.values - (0.5 + 1.0 / hw)))
        # |f|^2 = exp(-hw^2 s^2): 1/e sits at s = 1/hw; cross-check by quadrature
        oracle = transform_oracle(
            lambda spec, u: np.exp(-(u**2) / (2 * spec.halfwidth**2)), s, np.array([1.0 / hw])
        )[0]
        assert oracle**2 == pytest.approx(math.exp(-1.0), rel=1e-9)
        offset = grid.values[i] - 0.5
        assert trace.samples[i] == pytest.approx(math.exp(-(hw * offset) ** 2), rel=1e-9)
        assert trace.samples[i] == pytest.approx(math.exp(-1.0), rel=5e-3)

    def test_grid_must_resolve_the_pulse(self):
        w = WidebandState(SpectralAmplitude(Shape.RECTANGULAR, halfwidth=1000.0), delay=0.0)
        with pytest.raises(GridError):
            wideband_gamma2(w, TimeGrid(-1.0, 1.0, 101))


class TestCombinedGamma2:
    def grid(self):
        return TimeGrid(-2.0 * T_R, 2.0 * T_R, 16385)

    def test_zero_wideband_reduces_to_the_comb(self):
        comb = make_comb(5, 0.01)
        w = WidebandState(matched_wideband(comb), delay=0.0)
        grid = self.grid()
        eta = 0.6 * cmath.exp(0.3j)
        combined = combined_gamma2(comb, w, eta, 0.0, grid)
        np.testing.assert_allclose(
            combined.samples, abs(eta) ** 2 * gamma2_mode_locked(comb, grid).samples, rtol=1e-12
        )

    def test_zero_comb_reduces_to_the_wideband(self):
        comb = make_comb(5, 0.01)
        w = WidebandState(matched_wideband(comb), delay=0.3 * T_R)
        grid = self.grid()
        combined = combined_gamma2(comb, w, 0.0, 2.0j, grid)
        np.testing.assert_allclose(
            combined.samples, 4.0 * wideband_gamma2(w, grid).samples, rtol=1e-12, atol=1e-30
        )

    def test_constructed_null_at_the_peak_center(self):
        comb = make_comb(5, 0.01)
        m = 1
        w = WidebandState(matched_wideband(comb), delay=m * T_R)
        grid = TimeGrid(-2.0 * T_R, 2.0 * T_R, 16385)  # t_r on-node
        a_peak = complex(
            pair_envelope(comb.single_mode, np.array([m * T_R]))[0]
        ) * dirichlet_F(m * T_R, 5, comb.mode_spacing)
        combined = combined_gamma2(comb, w, 1.0, -a_peak, grid)
        i = np.argmin(np.abs(grid.values - m * T_R))
        assert combined.samples[i] == 0.0

    def test_rejects_narrow_wideband(self):
        comb = make_comb(5, 0.01)
        w = WidebandState(SpectralAmplitude(Shape.GAUSSIAN, halfwidth=0.5 * comb.single_mode.halfwidth))
        with pytest.raises(ValueError, match="wider"):
            combined_gamma2(comb, w, 1.0, 1.0, self.grid())

    @settings(max_examples=25, deadline=None)
    @given(
        mag=st.floats(0.1, 3.0),
        phase=st.floats(0.0, TWO_PI),
    )
    def test_common_rescaling_is_quadratic(self, mag, phase):
        comb = make_comb(2, 0.02)
        w = WidebandState(matched_wideband(comb), delay=T_R)
        grid = TimeGrid(-1.5 * T_R, 1.5 * T_R, 2049)
        c = mag * cmath.exp(1j * phase)
        eta, zeta = 1.0, -0.8 + 0.2j
        base = combined_gamma2(comb, w, eta, zeta, grid)
        scaled = combined_gamma2(comb, w, c * eta, c * zeta, grid)
        np.testing.assert_allclose(
            scaled.samples, abs(c) ** 2 * base.samples, rtol=1e-12, atol=1e-250
        )


class TestSolveExcision:
    def grid(self, span=4.0, points=32769):
        return TimeGrid(-span * T_R, span * T_R, points)

    def test_rectangular_wideband_cleans_any_peak(self):
        comb = make_comb(10, 0.01)
        grid = self.grid()
        for m in (0, 1, 2):
            sol = solve_excision(comb, matched_wideband(comb), m, grid)
            assert sol.residual < 1e-3
            assert sol.delay == pytest.approx(m * T_R)
            for kept in sol.neighbor_retention.values():
                assert kept >= 0.9

    def test_solution_nulls_the_window_in_the_full_trace(self):
        comb = make_comb(10, 0.01)
        grid = self.grid()
        sol = solve_excision(comb, matched_wideband(comb), 1, grid)
        before = gamma2_mode_locked(comb, grid)
        after = combined_gamma2(
            comb, WidebandState(sol.wideband, sol.delay), sol.eta, sol.zeta, grid
        )
        tau = grid.values
        e_before = window_energy(before.samples, tau, T_R, T_R / 4)
        e_after = window_energy(after.samples, tau, T_R, T_R / 4)
        assert e_after / e_before < 1e-3
        # locality: every other peak window moves by less than 10%
        for k in (-2, -1, 0, 2):
            b = window_energy(before.samples, tau, k * T_R, T_R / 4)
            a = window_energy(after.samples, tau, k * T_R, T_R / 4)
            assert abs(a / b - 1.0) < 0.10

    def test_phase_flip_turns_the_null_into_a_spike(self):
        comb = make_comb(10, 0.01)
        grid = self.grid()
        sol = solve_excision(comb, matched_wideband(comb), 1, grid)
        flipped = combined_gamma2(
            comb,
            WidebandState(sol.wideband, sol.delay),
            sol.eta,
            sol.zeta * cmath.exp(1j * math.pi),
            grid,
        )
        before = gamma2_mode_locked(comb, grid)
        tau = grid.values
        gain = window_energy(flipped.samples, tau, T_R, T_R / 4) / window_energy(
            before.samples, tau, T_R, T_R / 4
        )
        assert gain >= 3.0

    @pytest.mark.slow
    def test_least_squares_matches_the_grid_search(self):
        comb = make_comb(10, 0.01)
        grid = self.grid()
        m = 2
        sol = solve_excision(comb, matched_wideband(comb), m, grid)
        zeta_gs, res_gs = excision_grid_search(
            comb, sol.wideband, m, grid, n_magnitude=3001, n_phase=360
        )
        assert res_gs >= sol.residual - 1e-15
        assert res_gs - sol.residual <= 0.01 * max(res_gs, 1e-12)
        assert abs(zeta_gs - sol.zeta) / abs(sol.zeta) < 0.02
        # the weight tracks the envelope decay at the target peak
        gamma = comb.single_mode.halfwidth
        expected_mag = 21.0 * math.exp(-gamma * m * T_R)
        assert abs(sol.zeta) == pytest.approx(expected_mag, rel=0.08)

    def test_gaussian_on_gaussian_needs_a_small_comb(self):
        # a Gaussian pulse has no side lobes to cancel the kernel's, so the
        # tight residual only survives at N = 1 where the window holds a
        # single smooth bump
        comb = make_comb(1, 0.02, shape=Shape.GAUSSIAN)
        grid = self.grid()
        sol = solve_excision(
            comb, matched_wideband(comb, Shape.GAUSSIAN), 1, grid
        )
        assert sol.residual < 1e-3

    def test_decayed_peak_is_unreachable(self):
        comb = make_comb(10, 0.01)
        with pytest.raises(UnreachablePeak):
            solve_excision(comb, matched_wideband(comb), 120, self.grid())

    def test_width_mismatch_is_reported(self):
        comb = make_comb(10, 0.01)
        narrow = SpectralAmplitude(Shape.GAUSSIAN, halfwidth=3.0 * comb.single_mode.halfwidth)
        with pytest.raises(PoorMatch):
            solve_excision(comb, narrow, 0, self.grid(), optimize_width=False)

    def test_a_neighbor_that_loses_its_peak_is_named(self, monkeypatch):
        # the solution itself is clean (see above); only peak 2's energy is cut
        real = engineering._window_energies

        def fake(comb, wideband, delay, zeta, peak, grid):
            before, after = real(comb, wideband, delay, zeta, peak, grid)
            return before, 0.5 * before if peak == 2 else after

        monkeypatch.setattr(engineering, "_window_energies", fake)
        comb = make_comb(10, 0.01)
        with pytest.raises(PoorMatch, match="neighbor peak 2 retains only 0.500"):
            solve_excision(comb, matched_wideband(comb), 1, self.grid())


@pytest.mark.parametrize(
    "changed, fragment",
    [
        ({"eta": 0.0}, "amplitudes must be nonzero"),
        ({"zeta": 0j}, "amplitudes must be nonzero"),
        ({"residual": -1e-3}, "residual must be >= 0"),
    ],
)
def test_excision_solution_refuses_a_bad_field(changed, fragment):
    fields = {
        "eta": 1.0, "zeta": 0.5j, "delay": 0.0, "target_peak": 1, "residual": 0.0,
        "wideband": SpectralAmplitude(Shape.RECTANGULAR, halfwidth=30.0),
        "neighbor_retention": {}, **changed,
    }
    with pytest.raises(ValueError, match=fragment):
        ExcisionSolution(**fields)
