"""Excision of single comb peaks by destructive two-photon interference.

A wideband pair amplitude, delayed to sit on one peak of the comb
correlation, is added coherently to the mode-locked amplitude.  With the
right complex weight the chosen peak cancels while its neighbors survive.
The solver picks the wideband bandwidth so the short pulse matches the comb
peak, then solves a one-parameter complex least-squares for the weight
ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .correlation import (
    CorrelationTrace,
    TraceKind,
    comb_amplitude,
    pair_envelope,
    simpson_rule,
)
from .errors import GridError, PoorMatch, UnreachablePeak
from .spectral import ModeComb, Shape, SpectralAmplitude, TimeGrid


@dataclass(frozen=True)
class WidebandState:
    """Broadband pair amplitude with a relative delay between the photons."""

    spectrum: SpectralAmplitude
    delay: float = 0.0


@dataclass(frozen=True)
class ExcisionSolution:
    eta: complex
    zeta: complex
    delay: float
    target_peak: int
    residual: float            # window energy after / before excision
    wideband: SpectralAmplitude
    neighbor_retention: dict

    def __post_init__(self):
        if abs(self.eta) == 0 or abs(self.zeta) == 0:
            raise ValueError("excision amplitudes must be nonzero")
        if self.residual < 0:
            raise ValueError("residual must be >= 0")


def matched_wideband(comb: ModeComb, shape: Shape = Shape.RECTANGULAR) -> SpectralAmplitude:
    """Wideband template whose pulse width matches the comb peak width."""
    return SpectralAmplitude(shape=shape, halfwidth=comb.n_modes * comb.mode_spacing / 2.0)


def _check_wideband_resolves(w: WidebandState, grid: TimeGrid):
    limit = 1.0 / (8.0 * w.spectrum.halfwidth)
    if grid.spacing > limit:
        raise GridError(
            f"grid spacing {grid.spacing:.3e} s cannot resolve the wideband pulse "
            f"(need <= {limit:.3e} s for halfwidth {w.spectrum.halfwidth:.3e} rad/s)"
        )


def wideband_gamma2(w: WidebandState, grid: TimeGrid) -> CorrelationTrace:
    """Correlation of the wideband pair alone: a single pulse centered at its delay."""
    _check_wideband_resolves(w, grid)
    f = pair_envelope(w.spectrum, grid.values - w.delay)
    return CorrelationTrace(grid, np.abs(f) ** 2, TraceKind.INTENSITY)


def combined_gamma2(
    comb: ModeComb,
    w: WidebandState,
    eta: complex,
    zeta: complex,
    grid: TimeGrid,
) -> CorrelationTrace:
    """Correlation of the superposed sources: coherent amplitude sum, then modulus squared.

    Either amplitude may be zero, which reduces the output to the other
    source's correlation alone.
    """
    if not w.spectrum.halfwidth > comb.single_mode.halfwidth:
        raise ValueError(
            "wideband spectrum must be wider than the comb line "
            f"({w.spectrum.halfwidth} <= {comb.single_mode.halfwidth})"
        )
    _check_wideband_resolves(w, grid)
    tau = grid.values
    locked_amp = comb_amplitude(tau, comb)
    wide_amp = pair_envelope(w.spectrum, tau - w.delay)
    samples = np.abs(eta * locked_amp + zeta * wide_amp) ** 2
    return CorrelationTrace(
        grid, samples, TraceKind.INTENSITY, round_trip_time=comb.round_trip_time
    )


def _peak_window(comb: ModeComb, peak: int, grid: TimeGrid):
    """Simpson nodes and weights over the half-spacing window owning one peak."""
    t_r = comb.round_trip_time
    center = peak * t_r
    spacing = min(grid.spacing, t_r / (32.0 * comb.n_modes))
    n = int(math.ceil((t_r / 2.0) / spacing)) + 1
    return simpson_rule(center - t_r / 4.0, center + t_r / 4.0, n)


def _window_energies(comb, wideband, delay, zeta, peak, grid):
    tau, w = _peak_window(comb, peak, grid)
    a = comb_amplitude(tau, comb)
    f = pair_envelope(wideband, tau - delay)
    before = float(np.sum(w * np.abs(a) ** 2))
    after = float(np.sum(w * np.abs(a + zeta * f) ** 2))
    return before, after


def solve_excision(
    comb: ModeComb,
    wideband_template: SpectralAmplitude,
    target_peak: int,
    grid: TimeGrid,
    optimize_width: bool = True,
) -> ExcisionSolution:
    """Null the comb peak at target_peak round trips.

    The wideband delay is pinned to the peak center.  Width matching scans 49
    geometrically spaced halfwidths from 1/4 to 4 times the template's and
    keeps the one whose least-squares residual is smallest (the template
    width is used as-is when ``optimize_width`` is off).  Residual above
    0.25, or a neighbor peak losing more than 10% of its window energy,
    reports PoorMatch rather than silently accepting a bad cancellation.
    """
    t_r = comb.round_trip_time
    delay = target_peak * t_r
    g_at_peak = abs(complex(pair_envelope(comb.single_mode, np.array([delay]))[0]))
    if g_at_peak <= 1e-3:
        raise UnreachablePeak(
            f"envelope at peak {target_peak} has decayed to |g| = {g_at_peak:.3e} <= 1e-3"
        )

    tau, w = _peak_window(comb, target_peak, grid)
    a = comb_amplitude(tau, comb)
    pre = float(np.sum(w * np.abs(a) ** 2))

    if optimize_width:
        widths = wideband_template.halfwidth * np.geomspace(0.25, 4.0, 49)
    else:
        widths = np.array([wideband_template.halfwidth])

    best = None
    for hw in widths:
        if hw <= comb.single_mode.halfwidth:
            continue
        candidate = replace(wideband_template, halfwidth=float(hw))
        f = pair_envelope(candidate, tau - delay)
        overlap = complex(np.sum(w * np.conj(f) * a))
        power = float(np.sum(w * np.abs(f) ** 2))
        zeta = -overlap / power
        post = float(np.sum(w * np.abs(a + zeta * f) ** 2))
        residual = post / pre
        if best is None or residual < best[0] - 1e-15:
            best = (residual, zeta, candidate)
    if best is None:
        raise PoorMatch("no candidate width is broader than the comb line")
    residual, zeta, wideband = best

    if residual > 0.25:
        raise PoorMatch(
            f"windowed residual {residual:.3f} > 0.25; wideband shape "
            f"{wideband.shape.value} cannot cancel the comb peak"
        )

    retention = {}
    for neighbor in (target_peak - 1, target_peak + 1):
        before, after = _window_energies(comb, wideband, delay, zeta, neighbor, grid)
        kept = after / before if before > 0 else 1.0
        retention[neighbor] = kept
        if kept < 0.9:
            raise PoorMatch(
                f"neighbor peak {neighbor} retains only {kept:.3f} of its window energy"
            )

    return ExcisionSolution(
        eta=1.0 + 0.0j,
        zeta=zeta,
        delay=delay,
        target_peak=target_peak,
        residual=residual,
        wideband=wideband,
        neighbor_retention=retention,
    )
