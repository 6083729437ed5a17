"""Unbalanced Mach-Zehnder / Hong-Ou-Mandel interferometer model.

The pair enters one port, splits, recombines after an arm imbalance Delta
(both splitters 50:50), and is detected in coincidence.  Three amplitudes
interfere: both photons short, both long (pump-phase sensitive), and
one-each (the HOM route).  For a comb source the HOM route revives whenever
the two delayed copies of the comb correlation overlap, i.e. every half
round trip.  Every window-integrated rate is the one expression ``_rate``.

The pump phase ``w_p * Delta`` is carried as an explicit config field,
reduced mod 2pi, so phase scans decouple from the coarse delay (an optical
period is ~1e-15 s while the delay grid moves in picoseconds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlation import (
    coherence_envelope,
    comb_amplitude,
    dirichlet_F,
    envelope_support,
    pair_overlap,
    simpson_rule,
)
from .errors import NumericsError, ResolutionError
from .spectral import ModeComb, Shape

#: Simpson nodes per comb-peak width in the resolving-window integrals
SAMPLES_PER_PEAK = 16


@dataclass(frozen=True)
class InterferometerConfig:
    comb: ModeComb
    delay: float                      # arm imbalance Delta, seconds
    resolution_time: float            # detector resolving time T_R, seconds
    pump_phase: float = 0.0           # w_p*Delta mod 2pi, radians
    mode_match: float = 1.0           # scales all cross-delay interference

    def __post_init__(self):
        if not self.resolution_time > 0:
            raise ValueError(f"resolution_time must be > 0, got {self.resolution_time}")
        for name in ("delay", "pump_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if not 0.0 < self.mode_match <= 1.0:
            raise ValueError(f"mode_match must be in (0, 1], got {self.mode_match}")


@dataclass
class ScanResult:
    abscissa: np.ndarray
    coincidence: np.ndarray
    singles_1: np.ndarray
    singles_2: np.ndarray
    metadata: dict

    def __post_init__(self):
        n = len(self.abscissa)
        for name in ("coincidence", "singles_1", "singles_2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} length {arr.shape} != abscissa length {n}")
            if arr.size and arr.min() < 0:
                raise ValueError(f"{name} must be nonnegative")
            setattr(self, name, arr)
        self.abscissa = np.asarray(self.abscissa, dtype=float)


@dataclass(frozen=True)
class CoincidenceResult:
    rate: float
    r0: float            # integrated pair correlation over the resolving window
    visibility: float    # overlap V(Delta), mode-match included
    cross_integral: float


def bs_two_photon_state(transmission: float = 0.5) -> np.ndarray:
    """Amplitudes over {|2,0>, |0,2>, |1,1>} after a pair hits one splitter port.

    Built by applying the transformed creation operator twice to vacuum in the
    two-mode Fock space (not hard-coded): a+ -> sqrt(T) a+ + sqrt(1-T) b+.
    A 50:50 splitter gives (1/2, 1/2, sqrt(2)/2).
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError(f"transmission must be in [0, 1], got {transmission}")
    basis = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    index = {s: i for i, s in enumerate(basis)}
    dim = len(basis)
    a_dag = np.zeros((dim, dim))
    b_dag = np.zeros((dim, dim))
    for (na, nb), i in index.items():
        if (na + 1, nb) in index:
            a_dag[index[(na + 1, nb)], i] = math.sqrt(na + 1)
        if (na, nb + 1) in index:
            b_dag[index[(na, nb + 1)], i] = math.sqrt(nb + 1)
    out_op = math.sqrt(transmission) * a_dag + math.sqrt(1.0 - transmission) * b_dag
    vac = np.zeros(dim)
    vac[index[(0, 0)]] = 1.0
    state = out_op @ (out_op @ vac)
    state = state / np.linalg.norm(state)
    return np.array([state[index[(2, 0)]], state[index[(0, 2)]], state[index[(1, 1)]]])


def gamma12(tau, cfg: InterferometerConfig):
    """Two-detector correlation at delay tau between the detections.

    All three interference terms are evaluated pointwise, including the cross
    term that vanishes once integrated over the resolving window.  mode_match
    scales every product of amplitudes taken at different delays.
    """
    a = 0.5 - 0.5 * np.exp(1j * cfg.pump_phase)  # short-short minus long-long
    b = 0.5 * np.exp(1j * cfg.pump_phase / 2.0)  # HOM route
    m = cfg.mode_match
    tau = np.asarray(tau, dtype=float)
    x0 = comb_amplitude(tau, cfg.comb)
    xp = comb_amplitude(tau + cfg.delay, cfg.comb)
    xm = comb_amplitude(tau - cfg.delay, cfg.comb)
    term_ss_ll = np.abs(a) ** 2 * np.abs(x0) ** 2
    term_hom = 0.25 * (
        np.abs(xp) ** 2 + np.abs(xm) ** 2 - 2.0 * m * np.real(xp * np.conj(xm))
    )
    term_cross = 2.0 * m * np.real(np.conj(a) * b * np.conj(x0) * (xp - xm))
    out = term_ss_ll + term_hom + term_cross
    return out if np.ndim(out) else float(out)


def _window_sums(cfg: InterferometerConfig, delays):
    """Simpson sums over one window, the largest delay plus the envelope support at most:
    R0 = int |X|^2 and, at each delay D, S = (R+ + R-)/(2 R0) with R+- = int |X(tau +- D)|^2,
    the visibility V (mode match included) and C = int X*(tau) [X(tau+D) - X(tau-D)]."""
    comb = cfg.comb
    half = min(cfg.resolution_time / 2.0, delays.max() + envelope_support(comb.single_mode))
    dt_target = comb.round_trip_time / (comb.n_modes * SAMPLES_PER_PEAK)
    # an even number of Simpson panels puts tau = 0, the cusp of the Lorentzian
    # envelope, on a panel edge; mid-panel it costs the rule two orders.  An
    # infinite quotient would overflow ``int``: one past 2^62 is taken as 2^62,
    # far past the node cap, so ``simpson_rule`` refuses it with a lower bound
    panels = min(half / (2.0 * dt_target), 2.0**62)
    tau, w = simpson_rule(-half, half, 4 * int(math.ceil(panels)) + 1)
    x0 = comb_amplitude(tau, comb)
    r0 = float(np.sum(w * np.abs(x0) ** 2))
    s, v, c = np.empty(delays.size), np.empty(delays.size), np.empty(delays.size, complex)
    for i, d in enumerate(delays):
        xp, xm = comb_amplitude(tau + d, comb), comb_amplitude(tau - d, comb)
        s[i] = float(np.sum(w * np.abs(xp) ** 2) + np.sum(w * np.abs(xm) ** 2)) / (2.0 * r0)
        v[i] = cfg.mode_match * float(np.sum(w * np.real(xp * np.conj(xm)))) / r0
        c[i] = complex(np.sum(w * np.conj(x0) * (xp - xm)))
    return np.full(delays.size, r0), s, v, c


def _rate(cfg: InterferometerConfig, delays, phases=None):
    """Coincidence rates |a|^2 R0 + (R0/2)(S - V) + C over delays and pump phases,
    clamped at 0, with R0, S, the overlap visibility V and the cross term C.

    One delay takes many phases, or many delays one phase.  At pump phase phi,
    |a|^2 = (1 - cos phi)/2 and C = 2 m Re[a* b C'] = -m sin(phi/2) Im C', m the mode
    match, as a* b = (i/2) sin(phi/2); ``phases`` None is the dithered mean, |a|^2 = 1/2,
    C None.  A window covering the largest delay plus the envelope support is the whole
    line: S = 1 and, with P = ``pair_overlap``, R0 = P(0), V = m Re P(D)/R0 and C' =
    P(D/2) - P(-D/2) = 2i Im P(D/2), as P(-d) = conj P(d); else ``_window_sums``.  A
    cross term of 1e-6 R0 or more, or a rate below -1e-9 R0, is a NumericsError.
    """
    delays, cross = np.asarray(delays, dtype=float), phases is not None
    if not (np.isfinite(delays).all() and np.isfinite(phases if cross else 0.0).all()):
        raise ValueError("delays and pump phases must be finite")
    d = float(delays.max())
    if cfg.resolution_time < d:
        raise ResolutionError(
            f"resolution_time {cfg.resolution_time:.3e} s is shorter than the "
            f"delay {d:.3e} s; the integrated-rate model does not apply"
        )
    # a covered rectangular line (sinc envelope) would need over 1e8 Simpson
    # nodes, so its window is always truncated or refused by the node cap
    covered = cfg.resolution_time / 2.0 >= d + envelope_support(cfg.comb.single_mode)
    if covered and cfg.comb.single_mode.shape is not Shape.RECTANGULAR:
        # one mode-pair pass over every delay, one FFT correlation per block of delays
        n, halves = delays.size, delays / 2.0 if cross else []
        p = pair_overlap(cfg.comb, np.concatenate(([0.0], delays, halves)))
        r0, s = np.full(n, p[0].real), np.ones(n)
        v, c = cfg.mode_match * p[1 : n + 1].real / r0, 2j * p[n + 1 :].imag
    else:
        r0, s, v, c = _window_sums(cfg, delays)
    a_abs_sq, cross_int = 0.5, None
    if cross:
        phases = np.asarray(phases, dtype=float)
        a_abs_sq = 0.5 - 0.5 * np.cos(phases)
        cross_int = -cfg.mode_match * np.sin(phases / 2.0) * c.imag
        cross_int, r0_at = np.broadcast_arrays(cross_int, r0)
        bad = np.flatnonzero(~(np.abs(cross_int) < 1e-6 * r0_at))
        if bad.size:
            raise NumericsError(
                f"cross term {cross_int[bad[0]]:.3e} did not integrate away (R0 = "
                f"{r0_at[bad[0]]:.3e}); it vanishes only for an exchange-symmetric pair "
                "amplitude or at a pump phase that is a multiple of 2 pi; a delay scan "
                "can take scan.dithered = true")
    rate = a_abs_sq * r0 + 0.5 * r0 * (s - v) + (0.0 if cross_int is None else cross_int)
    if np.any(rate < -1e-9 * r0):
        raise NumericsError(f"negative coincidence rate {np.min(rate):.3e}; "
                            "quadrature inconsistent")
    return np.maximum(rate, 0.0), r0, s, v, cross_int


def coincidence_rate(cfg: InterferometerConfig) -> CoincidenceResult:
    """Coincidence rate integrated over the detector resolving window.

    Returns the rate together with the baseline R0 and the overlap visibility
    V(Delta).  The pointwise cross term must integrate away to within 1e-6 R0,
    as it does for exchange-symmetric X(-tau) = X(tau); else NumericsError.
    """
    (rate,), (r0,), _, (v,), (cross_int,) = _rate(cfg, [cfg.delay], [cfg.pump_phase])
    return CoincidenceResult(float(rate), float(r0), float(v), float(cross_int))


def dither_averaged_rate(cfg: InterferometerConfig) -> CoincidenceResult:
    """Coincidence rate with the pump phase dithered uniformly.

    The mean of ``coincidence_rate`` over the pump phase: |a|^2 averages to 1/2.
    Once the window covers both copies (S = 1) the deepest possible dip is
    half the far-from-dip rate: the 50% visibility ceiling.
    """
    (rate,), (r0,), _, (v,), _ = _rate(cfg, [cfg.delay])
    return CoincidenceResult(float(rate), float(r0), float(v), 0.0)


def _singles_visibilities(cfg: InterferometerConfig, delays) -> np.ndarray:
    """|gamma(Delta)| at each delay, mode match included.

    Each photon of a pair is in a mixture of the comb modes, so its coherence
    is the locked-comb one whatever the mode phases.
    """
    comb = cfg.comb
    g1 = coherence_envelope(comb.single_mode, delays)
    f_d = dirichlet_F(delays, comb.n_side_modes, comb.mode_spacing)
    return cfg.mode_match * np.abs(g1 * f_d) / comb.n_modes


def singles_fringe_visibility(cfg: InterferometerConfig) -> float:
    """Single-detector fringe visibility |gamma(Delta)|, mode match included."""
    return float(_singles_visibilities(cfg, np.array([cfg.delay]))[0])


def _singles(cfg: InterferometerConfig, delays, phases):
    """Delay-scan singles 1 +- |gamma(Delta)| cos(phase); flat when dithered (``phases`` None)."""
    if phases is None:
        return np.ones(len(delays)), np.ones(len(delays))
    fringe = _singles_visibilities(cfg, np.asarray(delays)) * np.cos(phases)
    return 1.0 + fringe, 1.0 - fringe


def phase_fringe_scan(cfg: InterferometerConfig, phase_points) -> ScanResult:
    """Scan the pump phase at fixed arm delay.

    Single-detector counts fringe in anti-phase with visibility |gamma(Delta)|;
    the coincidence is ``coincidence_rate`` at each phase, cross term and its
    check included.  The fitted visibilities are the closed forms of these
    sinusoids without the cross term: amplitude over offset, 1/(1 + S - V) for
    the coincidence.
    """
    phase = np.asarray(phase_points, dtype=float)
    coincidence, (r0,), (s,), (v,), _ = _rate(cfg, [cfg.delay], phase)
    s_vis = singles_fringe_visibility(cfg)
    fringe = s_vis * np.cos(phase)
    coinc_vis = 0.5 / (0.5 + 0.5 * (s - v))
    fits = {"coincidence": coinc_vis, "singles_1": s_vis, "singles_2": s_vis}
    return ScanResult(
        abscissa=phase,
        coincidence=coincidence,
        singles_1=1.0 + fringe,
        singles_2=1.0 - fringe,
        metadata={
            "kind": "phase_fringe",
            "delay": cfg.delay,
            "r0": r0,
            "visibility_v": v,
            "singles_visibility": s_vis,
            "fitted_visibility": fits,
        },
    )


def delay_scan(cfg: InterferometerConfig, delay_points, dithered: bool = True) -> ScanResult:
    """Scan the arm imbalance and normalize to the wings.

    Normalization emulates stitching separate runs together: the baseline is
    the mean rate over points with negligible overlap (|V| < 0.01); if the
    scan has no such wings the analytic far-from-dip rate is used: the last
    point's rate with its overlap and cross terms taken out.
    """
    delays = np.asarray(delay_points, dtype=float)
    if delays.size == 0 or delays.min() < 0:
        raise ValueError("delay_points must hold at least one delay, and no delay below 0")
    phases = None if dithered else [cfg.pump_phase]
    rates, r0, _, vis, cross_int = _rate(cfg, delays, phases)
    last_cross = 0.0 if dithered else cross_int[-1]
    analytic_baseline = float(rates[-1] + 0.5 * r0[-1] * vis[-1] - last_cross)
    wings = np.abs(vis) < 0.01
    # the wings mean emulates stitching runs together; the overlap's side
    # lobes leave it a few permil off the analytic far-from-dip rate
    baseline = float(rates[wings].mean()) if wings.any() else analytic_baseline
    singles_1, singles_2 = _singles(cfg, delays, phases)
    return ScanResult(
        abscissa=delays,
        coincidence=rates / baseline,
        singles_1=singles_1,
        singles_2=singles_2,
        metadata={
            "kind": "delay_scan",
            "dithered": dithered,
            "baseline": baseline,
            "analytic_baseline": analytic_baseline,
            "n_wing_points": int(wings.sum()),
            "visibility": vis,
        },
    )


def find_dip_delays(scan: ScanResult, min_depth: float = 0.10) -> np.ndarray:
    """Locations of coincidence dips in a normalized delay scan.

    A dip is a local minimum (endpoints included) at least ``min_depth`` below
    the unit baseline.  The depth floor matters: the comb-overlap visibility
    has Dirichlet-kernel side lobes a few percent deep on the flanks of every
    revival, which are real local minima of the model but not revivals.
    Runs of equal values collapse to their first index.
    """
    y = scan.coincidence
    padded = np.concatenate(([np.inf], y, [np.inf]))
    dip = (y <= padded[:-2]) & (y <= padded[2:]) & (1.0 - y >= min_depth)
    repeat = np.zeros_like(dip)
    repeat[1:] = dip[:-1] & (y[1:] == y[:-1])
    return scan.abscissa[dip & ~repeat]
