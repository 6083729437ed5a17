import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twophoton import (
    ModeComb,
    Shape,
    SpectralAmplitude,
    TimeGrid,
    comb_joint_amplitude,
    eval_spectrum,
    pair_spectrum,
)

from conftest import TWO_PI, brute_force_comb_sum, make_comb

SHAPES = [Shape.LORENTZIAN, Shape.GAUSSIAN, Shape.RECTANGULAR]


class TestSpectralAmplitude:
    def test_lorentzian_peak_is_unity(self):
        s = SpectralAmplitude(Shape.LORENTZIAN, halfwidth=2.0, center=5.0)
        assert eval_spectrum(s, 5.0) == pytest.approx(1.0 + 0.0j)

    def test_lorentzian_halfwidth_point(self):
        s = SpectralAmplitude(Shape.LORENTZIAN, halfwidth=3.0)
        assert abs(eval_spectrum(s, 3.0)) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_gaussian_halfwidth_point(self):
        s = SpectralAmplitude(Shape.GAUSSIAN, halfwidth=0.7)
        assert abs(eval_spectrum(s, 0.7)) == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_rectangular_support(self):
        s = SpectralAmplitude(Shape.RECTANGULAR, halfwidth=1.5)
        assert eval_spectrum(s, 1.5) == pytest.approx(1.0)
        assert eval_spectrum(s, 1.5000001) == 0.0

    def test_rejects_nonpositive_halfwidth(self):
        with pytest.raises(ValueError, match="halfwidth"):
            SpectralAmplitude(Shape.LORENTZIAN, halfwidth=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("halfwidth", math.inf), ("halfwidth", math.nan), ("center", math.nan),
         ("center", math.inf), ("center", -math.inf)],
    )
    def test_rejects_a_line_parameter_that_is_not_finite(self, field, value):
        # a NaN center once gave solve_excision a NaN residual and zeta, with no error
        with pytest.raises(ValueError, match=f"{field} must be"):
            SpectralAmplitude(Shape.LORENTZIAN, **{"halfwidth": 10.0, field: value})

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        hw=st.floats(0.1, 10.0),
        center=st.floats(-5.0, 5.0),
        offset=st.floats(0.0, 20.0),
    )
    @example(shape=Shape.RECTANGULAR, hw=0.5, center=0.0, offset=0.5)
    @example(shape=Shape.RECTANGULAR, hw=0.5, center=1.0, offset=0.5)
    def test_modulus_even_and_peaked_at_center(self, shape, hw, center, offset):
        # fl(c - o) and fl(c + o) need not mirror about c (1.0 - 0.1 lies 0.09999999999999998
        # below 1.0, 1.0 + 0.1 lies 0.10000000000000009 above), so no edge rule keeps a
        # discontinuous line even within a few ulp of its edge.  Near the rectangle's edge
        # only points whose detunings are exact are checked; the examples pin the closed
        # edge at such points.
        exact = (center + offset) - center == offset == center - (center - offset)
        near_edge = shape is Shape.RECTANGULAR and abs(offset - hw) <= 1e-12 * hw
        assume(exact or not near_edge)
        s = SpectralAmplitude(shape, halfwidth=hw, center=center)
        left = abs(eval_spectrum(s, center - offset))
        right = abs(eval_spectrum(s, center + offset))
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)
        if shape is Shape.RECTANGULAR and exact:
            assert left == (1.0 if offset <= hw else 0.0)
        assert left <= 1.0 + 1e-12

    def test_pair_spectrum_symmetrizes_the_lorentzian(self):
        s = SpectralAmplitude(Shape.LORENTZIAN, halfwidth=2.0, center=1.0)
        u = np.linspace(-10, 10, 101)
        direct = 0.5 * (eval_spectrum(s, 1.0 + u) + eval_spectrum(s, 1.0 - u))
        np.testing.assert_allclose(pair_spectrum(s, 1.0 + u), direct, atol=1e-15)
        # even shapes are untouched
        g = SpectralAmplitude(Shape.GAUSSIAN, halfwidth=2.0)
        np.testing.assert_allclose(pair_spectrum(g, u), eval_spectrum(g, u), atol=0)


class TestModeComb:
    def test_round_trip_time_is_derived(self):
        comb = make_comb(round_trip=2.5e-12)
        assert comb.round_trip_time == pytest.approx(2.5e-12, rel=1e-15)
        assert comb.round_trip_time == pytest.approx(TWO_PI / comb.mode_spacing, rel=1e-15)

    def test_rejects_unresolved_modes(self):
        with pytest.raises(ValueError, match="resolved"):
            ModeComb(
                n_side_modes=2,
                mode_spacing=1.0,
                pump_frequency=100.0,
                single_mode=SpectralAmplitude(Shape.LORENTZIAN, halfwidth=0.5),
            )

    def test_rejects_wrong_phase_count(self):
        with pytest.raises(ValueError, match="2N\\+1"):
            make_comb(n_side_modes=2, phases=(0.0, 0.0))

    def test_default_phases_are_locked(self, comb10):
        assert comb10.is_locked
        assert len(comb10.mode_phases) == 21


class TestCombJointAmplitude:
    def test_single_mode_reduces_to_line(self):
        comb = make_comb(n_side_modes=0)
        omega = np.linspace(-3, 3, 7) * comb.mode_spacing / 10
        np.testing.assert_allclose(
            comb_joint_amplitude(comb, omega),
            eval_spectrum(comb.single_mode, omega),
            rtol=0,
            atol=0,
        )

    def test_locked_five_mode_sum_matches_brute_force(self):
        comb = make_comb(n_side_modes=2, linewidth_frac=0.01)
        val = complex(comb_joint_amplitude(comb, 0.0))
        assert val == pytest.approx(brute_force_comb_sum(comb, 0.0), rel=1e-14)
        # center line dominates; four side tails add a touch of real part
        assert abs(val) == pytest.approx(1.0, abs=5e-3)
        assert abs(val) > 1.0

    def test_pi_phased_line_dominates_at_its_center(self):
        # phases are ordered m = -1, 0, +1; the m = +1 line peaks at Omega = -spacing
        comb = make_comb(n_side_modes=1, linewidth_frac=0.01, phases=(0.0, 0.0, math.pi))
        val = complex(comb_joint_amplitude(comb, -comb.mode_spacing))
        assert val == pytest.approx(brute_force_comb_sum(comb, -comb.mode_spacing), rel=1e-14)
        assert val.real == pytest.approx(-1.0, abs=5e-3)

    def test_locked_amplitude_even_for_real_even_lines(self):
        for shape in (Shape.GAUSSIAN, Shape.RECTANGULAR):
            comb = make_comb(n_side_modes=3, linewidth_frac=0.05, shape=shape)
            omega = np.linspace(0.0, 2.0, 41) * comb.mode_spacing
            plus = comb_joint_amplitude(comb, omega)
            minus = comb_joint_amplitude(comb, -omega)
            np.testing.assert_allclose(plus, minus, rtol=1e-12, atol=1e-300)

    def test_lorentzian_modulus_is_even(self):
        comb = make_comb(n_side_modes=3, linewidth_frac=0.02)
        omega = np.linspace(0.1, 1.7, 17) * comb.mode_spacing
        np.testing.assert_allclose(
            np.abs(comb_joint_amplitude(comb, omega)),
            np.abs(comb_joint_amplitude(comb, -omega)),
            rtol=1e-12,
        )

    def test_translation_by_one_spacing_within_truncation_bound(self):
        comb = make_comb(n_side_modes=10, linewidth_frac=0.01)
        spacing = comb.mode_spacing
        bound = 10.0 * abs(
            eval_spectrum(comb.single_mode, comb.n_side_modes * spacing)
        )
        omega = np.linspace(-(comb.n_side_modes - 1) / 2, (comb.n_side_modes - 1) / 2, 25) * spacing
        shift = np.abs(
            comb_joint_amplitude(comb, omega + spacing) - comb_joint_amplitude(comb, omega)
        )
        assert shift.max() < bound


class TestTimeGrid:
    def test_spacing_and_values(self):
        grid = TimeGrid(-1.0, 1.0, 5)
        assert grid.spacing == pytest.approx(0.5)
        np.testing.assert_allclose(grid.values, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_rejects_degenerate_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 8)


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("n_side_modes", -1, "n_side_modes must be >= 0"),
        ("mode_spacing", 0.0, "mode_spacing must be > 0"),
        ("pump_frequency", 0.0, "pump_frequency must be > 0"),
    ],
)
def test_mode_comb_refuses_a_bad_field(field, value, fragment):
    fields = {"n_side_modes": 2, "mode_spacing": 1.0, "pump_frequency": 100.0, field: value}
    with pytest.raises(ValueError, match=fragment):
        ModeComb(**fields)
