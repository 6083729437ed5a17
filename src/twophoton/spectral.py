"""Spectral building blocks of the cavity-filtered photon-pair source.

A single cavity mode is described by a normalized spectral amplitude
``psi(Omega)`` (Lorentzian by default, since a Fabry-Perot longitudinal mode
has a Lorentzian line).  A frequency comb of 2N+1 such modes spaced by the
free spectral range carries the pair correlations; all time-domain structure
downstream derives from these two objects.

Angular units throughout: detunings and widths in rad/s, times in seconds.
The cavity round-trip time is ``2*pi / mode_spacing``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


class Shape(str, enum.Enum):
    LORENTZIAN = "lorentzian"
    GAUSSIAN = "gaussian"
    RECTANGULAR = "rectangular"


@dataclass(frozen=True)
class SpectralAmplitude:
    """Normalized single-line spectral amplitude.

    ``halfwidth`` is the HWHM of the Lorentzian modulus-squared, the standard
    deviation of the Gaussian (modulus e^{-1/2} at one halfwidth), or the
    half-support of the rectangle.
    """

    shape: Shape = Shape.LORENTZIAN
    halfwidth: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "shape", Shape(self.shape))
        if not 0 < self.halfwidth < math.inf:
            raise ValueError(f"halfwidth must be > 0 and finite, got {self.halfwidth}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")


def eval_spectrum(s: SpectralAmplitude, omega):
    """Evaluate psi(omega); peak modulus 1 at the line center.

    Lorentzian uses the single-pole cavity form 1/(1 - i(omega-c)/hw), so the
    modulus is 1/sqrt(2) one halfwidth off center.
    """
    u = np.asarray(omega, dtype=float) - s.center
    if s.shape is Shape.LORENTZIAN:
        val = 1.0 / (1.0 - 1j * u / s.halfwidth)
    elif s.shape is Shape.GAUSSIAN:
        val = np.exp(-(u**2) / (2.0 * s.halfwidth**2)) + 0.0j
    else:
        val = np.where(np.abs(u) <= s.halfwidth, 1.0 + 0.0j, 0.0 + 0.0j)
    return val


def pair_spectrum(s: SpectralAmplitude, omega):
    """Spectral amplitude seen by a photon pair: psi symmetrized about its center.

    The pair creation operators commute, so only the even part of the line
    shape (about its center) enters the two-photon amplitude.  Gaussian and
    rectangular lines are already even; the single-pole Lorentzian symmetrizes
    to the real Lorentzian 1/(1 + u^2/hw^2).
    """
    u = np.asarray(omega, dtype=float) - s.center
    if s.shape is Shape.LORENTZIAN:
        return 1.0 / (1.0 + (u / s.halfwidth) ** 2) + 0.0j
    return eval_spectrum(s, omega)


@dataclass(frozen=True)
class ModeComb:
    """2N+1 phase-locked cavity modes spaced by the free spectral range.

    ``mode_phases`` holds one phase per mode, ordered m = -N..N; all zeros
    (the default) is the locked comb.  The single-mode linewidth must stay
    below half the spacing so the modes are spectrally resolved.
    """

    n_side_modes: int
    mode_spacing: float
    pump_frequency: float
    single_mode: SpectralAmplitude = field(default_factory=SpectralAmplitude)
    mode_phases: tuple = ()

    def __post_init__(self):
        if self.n_side_modes < 0:
            raise ValueError(f"n_side_modes must be >= 0, got {self.n_side_modes}")
        if not self.mode_spacing > 0:
            raise ValueError(f"mode_spacing must be > 0, got {self.mode_spacing}")
        if not self.pump_frequency > 0:
            raise ValueError(f"pump_frequency must be > 0, got {self.pump_frequency}")
        n_modes = 2 * self.n_side_modes + 1
        phases = self.mode_phases
        if len(phases) == 0:
            phases = (0.0,) * n_modes
        if len(phases) != n_modes:
            raise ValueError(
                f"mode_phases must have 2N+1 = {n_modes} entries, got {len(phases)}"
            )
        object.__setattr__(self, "mode_phases", tuple(float(p) for p in phases))
        if not self.single_mode.halfwidth < self.mode_spacing / 2:
            raise ValueError(
                "single_mode.halfwidth must be < mode_spacing/2 "
                f"({self.single_mode.halfwidth} >= {self.mode_spacing / 2}); "
                "modes are not spectrally resolved"
            )

    @property
    def round_trip_time(self) -> float:
        # derived, never stored: t_r = 2*pi / spacing (angular convention)
        return 2.0 * math.pi / self.mode_spacing

    @property
    def n_modes(self) -> int:
        return 2 * self.n_side_modes + 1

    @property
    def is_locked(self) -> bool:
        return all(p == 0.0 for p in self.mode_phases)

    @property
    def mode_indices(self) -> np.ndarray:
        return np.arange(-self.n_side_modes, self.n_side_modes + 1)


def comb_joint_amplitude(comb: ModeComb, omega):
    """Joint spectral amplitude of the comb: sum of phased, shifted single lines."""
    omega = np.asarray(omega, dtype=float)
    out = np.zeros(omega.shape, dtype=complex)
    for m, phi in zip(comb.mode_indices, comb.mode_phases):
        out = out + np.exp(1j * phi) * eval_spectrum(
            comb.single_mode, omega + m * comb.mode_spacing
        )
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform delay grid."""

    t_min: float
    t_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not self.t_max > self.t_min:
            raise ValueError(f"t_max must exceed t_min ({self.t_max} <= {self.t_min})")

    @property
    def spacing(self) -> float:
        return (self.t_max - self.t_min) / (self.n_points - 1)

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_points)
