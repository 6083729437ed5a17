"""Time-domain correlation functions of the mode-locked pair source.

The two-photon correlation factorizes into a slow pair envelope (Fourier
transform of the single-line pair spectrum) and a fast comb factor (the
Dirichlet kernel of 2N+1 equally spaced modes, period one cavity round
trip).  First-order coherence carries the same comb factor on top of the
transform of the line intensity.

Every envelope is computed from its closed form; the tests check those forms
against an independent transform by quadrature.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.fft  # loaded with the package, not inside the first scan

from .errors import GridError, NumericsError, NyquistError, WindowError
from .spectral import ModeComb, Shape, SpectralAmplitude, TimeGrid

#: spectral content, in halfwidths, that a sampled envelope must resolve
QUAD_SPAN_HALFWIDTHS = 50.0
#: node cap of every Simpson rule, and the largest scan a config may request
MAX_QUAD_POINTS = 4_194_305
#: envelope intensity below which a delay counts as outside the envelope support
SUPPORT_INTENSITY_EPS = 1e-14
#: (delay, FFT bin) entries of one block of ``pair_overlap``: 1 MiB per complex array
PAIR_BLOCK_ELEMENTS = 1 << 16
#: (delay, mode) terms of one phased comb factor: about 8 s of Horner at 1.9 ns a term
MAX_COMB_TERMS = 1 << 32


class TraceKind(str, enum.Enum):
    AMPLITUDE = "amplitude"
    INTENSITY = "intensity"


@dataclass(frozen=True)
class CorrelationTrace:
    """Sampled correlation function on a uniform delay grid.

    ``normalization`` records the scale divided out of the raw transform;
    ``round_trip_time`` travels with comb-derived traces so detector
    averaging can check its window against the comb period.
    """

    grid: TimeGrid
    samples: np.ndarray
    kind: TraceKind
    normalization: float = 1.0
    round_trip_time: float | None = None

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.shape != (self.grid.n_points,):
            raise ValueError(
                f"samples length {samples.shape} != grid n_points {self.grid.n_points}"
            )
        if self.kind is TraceKind.INTENSITY:
            if np.iscomplexobj(samples):
                scale = float(np.max(np.abs(samples))) or 1.0
                if float(np.max(np.abs(samples.imag))) > 1e-10 * scale:
                    raise ValueError("intensity trace has non-negligible imaginary part")
                samples = samples.real
            if samples.size and float(samples.min()) < 0.0:
                raise ValueError("intensity trace has negative samples")
        object.__setattr__(self, "samples", samples)


def _half_phase(tau, frequency: float, name: str) -> np.ndarray:
    """The phase frequency*tau/2.  Past the largest double it is undefined, and so is
    every factor it sets: a GridError naming ``name``, the key that sets ``frequency``."""
    with np.errstate(over="ignore"):
        x = np.asarray(tau, dtype=float) * (frequency / 2.0)
    if np.isinf(x).any():
        raise GridError(f"the phase {name} x tau/2 overflows at |tau| up to "
                        f"{np.max(np.abs(tau)):.3e} s")
    return x


def _reduced_angle(tau, mode_spacing: float) -> np.ndarray:
    """x = mode_spacing*tau/2 reduced by whole multiples of pi to |u| <= pi/2, a new array."""
    u = np.asarray(_half_phase(tau, mode_spacing, "comb.mode_spacing"))
    k = np.divide(u, math.pi, out=np.empty_like(u))  # an array also where tau is a scalar
    np.rint(k, out=k)
    k *= math.pi
    u -= k
    return u


def dirichlet_F(tau, n_side_modes: int, mode_spacing: float):
    """Comb factor sin[(2N+1)x]/sin(x) with x = mode_spacing*tau/2.

    Evaluated as sin[(2N+1)u]/sin(u) on the reduced angle u = x - k*pi, an exact
    identity, and as 2N+1 where sin(u) = 0: at every multiple of the round trip.
    """
    if n_side_modes < 0:
        raise ValueError("n_side_modes must be >= 0")
    if not mode_spacing > 0:
        raise ValueError("mode_spacing must be > 0")
    n_modes = 2 * n_side_modes + 1
    # the kernel is formed inside the reduced-angle array, which it returns
    u = _reduced_angle(tau, mode_spacing)
    den = np.sin(u)
    pole = den == 0.0
    u *= n_modes
    np.sin(u, out=u)
    np.divide(u, den, out=u, where=~pole)
    u[pole] = n_modes
    return u if u.ndim else float(u)


def generalized_F(tau, comb: ModeComb):
    """Phase-resolved comb factor: sum over m = -N..N of e^{i phi_m} e^{-i m dOm tau}.

    Summed by Horner as e^{2iNu} P(e^{-2iu}) on the reduced angle u; locked: the real dirichlet_F.
    """
    if comb.is_locked:
        return dirichlet_F(tau, comb.n_side_modes, comb.mode_spacing)
    if np.size(tau) * comb.n_modes > MAX_COMB_TERMS:
        raise GridError(
            f"phased comb factor over {np.size(tau)} delays and {comb.n_modes} modes; "
            f"cap is {MAX_COMB_TERMS} terms"
        )
    u = _reduced_angle(tau, comb.mode_spacing)
    coeffs = np.exp(1j * np.array(comb.mode_phases))[::-1]
    out = np.exp(2j * comb.n_side_modes * u) * np.polyval(coeffs, np.exp(-2j * u))
    return out if out.ndim else complex(out)


def envelope_support(s: SpectralAmplitude) -> float:
    """Delay beyond which the envelope intensity stays below SUPPORT_INTENSITY_EPS."""
    hw = s.halfwidth
    if s.shape is Shape.LORENTZIAN:
        return -math.log(SUPPORT_INTENSITY_EPS) / (2.0 * hw)
    if s.shape is Shape.GAUSSIAN:
        return math.sqrt(-math.log(SUPPORT_INTENSITY_EPS)) / hw
    # sinc envelope: |g| <= 1/(hw*tau)
    return 1.0 / (hw * math.sqrt(SUPPORT_INTENSITY_EPS))


def simpson_rule(lo: float, hi: float, n_min: int):
    """Composite Simpson nodes and weights on [lo, hi].

    Uses the smallest odd node count >= max(n_min, 3); more than
    MAX_QUAD_POINTS nodes is a GridError, raised before anything is allocated.
    """
    n = max(n_min + 1 - n_min % 2, 3)
    if n > MAX_QUAD_POINTS:
        raise GridError(
            f"quadrature over [{lo:.3e}, {hi:.3e}] needs {n} nodes; cap is {MAX_QUAD_POINTS}"
        )
    x = np.linspace(lo, hi, n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return x, w * ((x[1] - x[0]) / 3.0)


def pair_overlap(comb: ModeComb, delays) -> np.ndarray:
    """P(d) = int X(tau + d) X*(tau - d) dtau over the whole line, at each delay d.

    A sum over mode pairs, e^{-2i center d} sum_j A_j J(j dOm, d): A correlates
    p_m = e^{i phi_m - i m dOm d} with q_m = e^{i phi_m + i m dOm d}, and J is the
    transform of the carrier-free envelope product g(tau + d) g(tau - d).  J is
    even in the lag, so the sum runs over j >= 0 with A_j + A_{-j}.
    Lorentzian and Gaussian lines; more than 65536 modes is a GridError.
    Delays go in blocks of at most PAIR_BLOCK_ELEMENTS (delay, FFT bin) entries.
    """
    s, n_side = comb.single_mode, comb.n_side_modes
    if s.shape is Shape.RECTANGULAR:
        raise ValueError("the pair overlap has no closed form for a rectangular line")
    # at the cap one delay is a 131072-bin block: 2 MiB per array, 15-17 ms
    if comb.n_modes > 65_536:
        raise GridError(f"mode-pair sum over {comb.n_modes} modes; cap is 65536 modes")
    phase = np.exp(1j * np.array(comb.mode_phases))
    m = np.arange(n_side + 1) * comb.mode_spacing
    k = np.arange(2 * n_side + 1) * comb.mode_spacing
    delays = np.atleast_1d(np.asarray(delays, dtype=float))
    # past |d| = 373/h (Lorentzian) or 28/h (Gaussian) the envelope product has
    # underflowed to 0 (e^-745.2 = 0 in double), and so has P(d); the mode ramps
    # m dOm d of such delays could overflow, so they are summed at d = 0 and zeroed
    live = np.abs(delays) < (373.0 if s.shape is Shape.LORENTZIAN else 28.0) / float(s.halfwidth)
    delays = np.where(live, delays, 0.0)
    bins = _fft_length(4 * n_side + 1)
    rows = max(1, PAIR_BLOCK_ELEMENTS // bins)
    out = np.empty(delays.size, dtype=complex)
    for lo in range(0, delays.size, rows):
        out[lo : lo + rows] = _pair_block(s, phase, m, k, bins, delays[lo : lo + rows])
    out[~live] = 0.0
    return out


def _fft_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n, a length the FFT takes in radix-2, 3 and 5 passes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p = p5
        while p < best:
            best = min(best, p << (-(-n // p) - 1).bit_length())
            p *= 3
        p5 *= 5
    return best


def _pair_block(s, phase, m, k, bins, d):
    """``pair_overlap`` at a block of delays d, each factor one (delays x bins) array.

    ``m`` and ``k`` are the mode offsets 0..N and lags 0..2N times dOm.  One
    exponential gives the ramp e^{-i m dOm d} of m >= 0; its conjugates give
    the negative modes and q.  A is one zero-padded FFT correlation,
    ifft(fft(p) conj(fft(q))), its lag -j read from bin ``bins - j``.
    """
    col = d[:, None]
    ramp = np.exp(-1j * m * col)
    full = np.concatenate((ramp[:, :0:-1].conj(), ramp), axis=1)
    a = np.fft.fft(phase * full, bins)
    a *= np.fft.fft(phase * full.conj(), bins).conj()
    a = np.fft.ifft(a, out=a)
    a[:, 1 : k.size] += a[:, bins - 1 : bins - k.size : -1]
    j = _lag_transform(s, k, col, ramp)
    # center * d first: -2j * center overflows once |center| passes 8.99e307
    return np.exp(-2j * (s.center * d)) * np.sum(a[:, : k.size] * j, axis=1)


def _lag_transform(s, k, col, ramp):
    """J(k, d), the transform of g(tau + d) g(tau - d), at lags k = 0..2N dOm.

    ``ramp`` holds e^{-i m dOm d} for m = 0..N; e^{-i k d} past N dOm is the
    product of its last entry and one other.  For the Lorentzian line the
    envelope product is e^{-2h|d|} inside |tau| <= |d| and e^{-2h|tau|} outside, so
    J = e^{-2h|d|} [beta cos(k|d|) + alpha sin(k|d|)] + 2|d| e^{-2h|d|} [k = 0],
    beta = 4h/(4h^2 + k^2), alpha = 8h^2/(k (4h^2 + k^2)), alpha_0 = 0.
    """
    hw = s.halfwidth
    if s.shape is Shape.GAUSSIAN:
        return math.sqrt(math.pi) / hw * np.exp(-((hw * col) ** 2)) * np.exp(-(k / hw) ** 2 / 4.0)
    r = np.hypot(2.0 * hw, k)  # 4h^2 + k^2 = r^2 without overflow
    beta = 4.0 * hw / r / r
    alpha = np.zeros_like(k)
    alpha[1:] = 2.0 * hw / k[1:] * beta[1:]
    e = np.concatenate((ramp, ramp[:, -1:] * ramp[:, 1:]), axis=1)  # e^{-i k d}
    decay = np.exp(-2.0 * hw * np.abs(col))
    j = e.real * beta
    j *= decay
    # sin(k|d|) = -sign(d) Im e^{-i k d}
    sine = e.imag * alpha
    sine *= np.sign(col) * decay
    j -= sine
    j[:, 0] += 2.0 * np.abs(col[:, 0]) * decay[:, 0]
    return j


def _line_profile(s, tau, power):
    """Real transform of the line profile to the ``power``, normalized to 1 at tau = 0,
    and the scale divided out: its closed-form cosine transform at tau = 0.
    """
    hw = s.halfwidth
    if s.shape is Shape.RECTANGULAR:
        scale = 2.0 * hw
        return scale * np.sinc(hw * np.abs(tau) / math.pi) / scale, scale
    # a smooth profile is formed inside the array of |tau| that it returns
    core = np.abs(tau, out=np.empty(np.shape(tau)))
    if s.shape is Shape.LORENTZIAN:
        scale = math.pi * hw
        with np.errstate(over="ignore"):  # hw |tau| past the largest double: g = 0
            core *= -hw
    else:
        sigma = hw / math.sqrt(power)
        scale = math.sqrt(2.0 * math.pi) * sigma
        with np.errstate(over="ignore"):  # sigma |tau| past 1.3e154 squares to inf: g = 0
            core *= sigma
            np.square(core, out=core)
        np.negative(core, out=core)
        core /= 2.0
    np.exp(core, out=core)
    # times the scale, then over it: the rounding the outputs were written with
    core *= scale
    core /= scale
    return core, scale


def _line_transform(s, tau, power):
    """``_line_profile`` times its carrier, and the scale.

    The pair envelope (power 1) carries e^{-i*center*tau} and the coherence
    envelope (power 2) e^{+i*center*tau}.
    """
    tau = np.asarray(tau, dtype=float)
    profile, scale = _line_profile(s, tau, power)
    carrier = -1j if power == 1 else 1j
    return profile * np.exp(carrier * s.center * tau), scale


def pair_envelope(s: SpectralAmplitude, tau):
    """Normalized pair envelope g(tau): transform of the pair spectrum, g(0)=1.

    A line centered off zero contributes the carrier e^{-i*center*tau}.
    """
    return _line_transform(s, tau, 1)[0]


def coherence_envelope(s: SpectralAmplitude, tau):
    """Normalized field-coherence envelope G(tau): transform of the line intensity."""
    return _line_transform(s, tau, 2)[0]


def comb_amplitude(tau, comb: ModeComb):
    """Pair time amplitude X(tau) = g(tau) F(tau)."""
    return pair_envelope(comb.single_mode, tau) * generalized_F(tau, comb)


def _envelope_trace(s, grid, power) -> CorrelationTrace:
    # the spectral content to resolve: the rectangle ends at its halfwidth
    span = s.halfwidth * (1.0 if s.shape is Shape.RECTANGULAR else QUAD_SPAN_HALFWIDTHS)
    limit = math.pi / (10.0 * span)
    if grid.spacing >= limit:
        raise NyquistError(
            f"grid spacing {grid.spacing:.3e} s undersamples the spectrum: "
            f"needs < {limit:.3e} s for spectral content out to {span:.3e} rad/s"
        )
    vals, scale = _line_transform(s, grid.values, power)
    return CorrelationTrace(grid, vals, TraceKind.AMPLITUDE, normalization=scale)


def envelope_g(s: SpectralAmplitude, grid: TimeGrid) -> CorrelationTrace:
    """Pair envelope sampled on a grid, normalized to g(0) = 1."""
    return _envelope_trace(s, grid, 1)


def envelope_G(s: SpectralAmplitude, grid: TimeGrid) -> CorrelationTrace:
    """Field-coherence envelope sampled on a grid, normalized to G(0) = 1."""
    return _envelope_trace(s, grid, 2)


def _check_peak_resolution(comb: ModeComb, grid: TimeGrid):
    peak_width = comb.round_trip_time / comb.n_modes
    if grid.spacing > peak_width / 8:
        raise GridError(
            f"grid spacing {grid.spacing:.3e} s cannot resolve comb peaks of width "
            f"{peak_width:.3e} s (need >= 8 samples per peak)"
        )


def gamma2_mode_locked(comb: ModeComb, grid: TimeGrid) -> CorrelationTrace:
    """Two-photon correlation |g(tau) F(tau)|^2.

    Peak-normalized: a locked comb gives (2N+1)^2 at tau = 0 and full revivals
    at every round trip, with the envelope decay on top.  The carrier of g has
    unit modulus, so for every comb the trace is the square of the real product
    of the line profile and |F|; a locked comb's real F is squared with its sign,
    which the square drops.
    """
    _check_peak_resolution(comb, grid)
    tau = grid.values
    samples = generalized_F(tau, comb)  # a fresh array: dirichlet_F's or the phased sum's
    if np.iscomplexobj(samples):
        samples = np.abs(samples)
    samples *= _line_profile(comb.single_mode, tau, 1)[0]
    samples *= samples
    return CorrelationTrace(grid, samples, TraceKind.INTENSITY,
                            round_trip_time=comb.round_trip_time)


def gamma2_detector_averaged(trace: CorrelationTrace, resolution_time: float) -> CorrelationTrace:
    """Moving average of an intensity trace over the detector resolving time.

    Models a slow detector: with the window spanning several round trips, the
    comb washes out and only the envelope contour A|g(tau)|^2 survives.
    Reflective padding avoids spurious decay at the grid edges.
    """
    if trace.kind is not TraceKind.INTENSITY:
        raise ValueError("detector averaging applies to intensity traces")
    t_r = trace.round_trip_time
    if t_r is None:
        raise ValueError("trace carries no round_trip_time; cannot check the averaging regime")
    if not math.isfinite(resolution_time):
        raise ValueError(f"resolution_time must be finite, got {resolution_time}")
    if resolution_time < 3.0 * t_r:
        raise WindowError(
            f"resolution_time {resolution_time:.3e} s < 3 round trips "
            f"({3.0 * t_r:.3e} s); the averaging regime does not apply"
        )
    dt = trace.grid.spacing
    w = max(1, int(round(resolution_time / dt)))
    if w >= trace.grid.n_points:
        raise WindowError("averaging window exceeds the trace length")
    pad_left = (w - 1) // 2
    pad_right = w - 1 - pad_left
    padded = np.pad(trace.samples, (pad_left, pad_right), mode="reflect")
    averaged = np.convolve(padded, np.full(w, 1.0 / w), mode="valid")
    return replace(trace, samples=averaged)


def gamma1_coherence(comb: ModeComb, grid: TimeGrid) -> CorrelationTrace:
    """First-order coherence e^{i w_p tau/2} G(tau) F(tau), unit modulus at tau = 0.

    Its modulus sets the single-detector fringe visibility; for a locked comb
    it revives at full round trips only.
    """
    _check_peak_resolution(comb, grid)
    tau = grid.values
    G = coherence_envelope(comb.single_mode, tau)
    F = generalized_F(tau, comb)
    f0 = abs(complex(generalized_F(0.0, comb)))
    if f0 < 1e-12 * comb.n_modes:
        raise NumericsError("comb phases make the zero-delay coherence vanish; cannot normalize")
    carrier = np.exp(1j * _half_phase(tau, comb.pump_frequency, "comb.pump_frequency"))
    samples = carrier * G * F / f0
    return CorrelationTrace(
        grid,
        samples,
        TraceKind.AMPLITUDE,
        normalization=f0,
        round_trip_time=comb.round_trip_time,
    )
