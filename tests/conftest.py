"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own transform code paths:
brute-force mode sums, trapezoid/Simpson integrals written from the
definitions, and a double-convolution model of detector jitter.  Tests
compare the package against these, never against itself.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from twophoton import ModeComb, Shape, SpectralAmplitude, pair_envelope
from twophoton.correlation import comb_amplitude
from twophoton.engineering import _peak_window
from twophoton.montecarlo import _DARK_KEY, _DETECT_KEY, CHUNK

TWO_PI = 2.0 * math.pi


def make_comb(
    n_side_modes=10,
    linewidth_frac=0.01,
    shape=Shape.LORENTZIAN,
    round_trip=1.0,
    phases=(),
    pump_frequency=None,
    center=0.0,
):
    spacing = TWO_PI / round_trip
    return ModeComb(
        n_side_modes=n_side_modes,
        mode_spacing=spacing,
        pump_frequency=pump_frequency if pump_frequency is not None else 800.0 * spacing,
        single_mode=SpectralAmplitude(
            shape=shape, halfwidth=linewidth_frac * spacing, center=center
        ),
        mode_phases=phases,
    )


@pytest.fixture
def comb10():
    return make_comb(10, 0.01)


def brute_force_comb_sum(comb, omega):
    """Joint spectral amplitude by an explicit per-mode loop (no vectorized path)."""
    total = 0.0 + 0.0j
    for k, m in enumerate(range(-comb.n_side_modes, comb.n_side_modes + 1)):
        u = omega + m * comb.mode_spacing - comb.single_mode.center
        hw = comb.single_mode.halfwidth
        if comb.single_mode.shape is Shape.LORENTZIAN:
            line = 1.0 / (1.0 - 1j * u / hw)
        elif comb.single_mode.shape is Shape.GAUSSIAN:
            line = math.exp(-(u**2) / (2.0 * hw**2))
        else:
            line = 1.0 if abs(u) <= hw else 0.0
        total += np.exp(1j * comb.mode_phases[k]) * line
    return total


def pair_overlap_oracle(comb, delays):
    """``pair_overlap`` one delay at a time, its mode-pair correlation summed directly."""
    s = comb.single_mode
    phase = np.exp(1j * np.array(comb.mode_phases))
    m = np.arange(-comb.n_side_modes, comb.n_side_modes + 1) * comb.mode_spacing
    k = np.arange(-2 * comb.n_side_modes, 2 * comb.n_side_modes + 1) * comb.mode_spacing
    hw, out = s.halfwidth, []
    for d in np.atleast_1d(np.asarray(delays, dtype=float)):
        a = np.correlate(phase * np.exp(-1j * m * d), phase * np.exp(1j * m * d), "full")
        if s.shape is Shape.LORENTZIAN:
            z, ad = 2.0 * hw + 1j * k, abs(d)
            j = 2.0 * ad * math.exp(-2.0 * hw * ad) * np.sinc(k * ad / math.pi)
            j = j + 2.0 * np.real(np.exp(-z * ad) / z)
        else:
            j = math.sqrt(math.pi) / hw * math.exp(-((hw * d) ** 2)) * np.exp(-(k / hw) ** 2 / 4.0)
        out.append(np.exp(-2j * s.center * d) * np.sum(a * j))
    return np.array(out)


def lorentzian_lag_oracle(hw, k, d):
    """int e^{-hw (|tau + d| + |tau - d|)} cos(k tau) dtau over the real line, by ``quad``.

    The integrand is even in tau and has a kink at |d|: [0, |d|] and [|d|, |d| + 40/hw]
    are integrated apart, with the cosine as quad's oscillatory weight where k != 0.
    Past |d| + 40/hw the integrand is below e^{-80} and is left out.  The absolute
    tolerance is 1e-15 of the largest value, J(0, 0) = 1/hw.
    """
    a = abs(d)
    opts = dict(epsabs=1e-15 / hw, epsrel=1e-13, limit=2000)
    if k != 0:
        opts.update(weight="cos", wvar=k)

    def product(tau):
        return math.exp(-hw * (abs(tau + d) + abs(tau - d)))

    inner = quad(product, 0.0, a, **opts)[0] if a else 0.0
    return 2.0 * (inner + quad(product, a, a + 40.0 / hw, **opts)[0])


def pair_profile(s, u):
    """Exchange-symmetrized line profile, written out per shape."""
    if s.shape is Shape.LORENTZIAN:
        return 1.0 / (1.0 + (u / s.halfwidth) ** 2)
    if s.shape is Shape.GAUSSIAN:
        return np.exp(-(u**2) / (2.0 * s.halfwidth**2))
    return np.where(np.abs(u) <= s.halfwidth, 1.0, 0.0)


def intensity_profile(s, u):
    if s.shape is Shape.LORENTZIAN:
        return 1.0 / (1.0 + (u / s.halfwidth) ** 2)
    if s.shape is Shape.GAUSSIAN:
        return np.exp(-(u**2) / (s.halfwidth**2))
    return np.where(np.abs(u) <= s.halfwidth, 1.0, 0.0)


def lorentzian_tail(hw, a, tau):
    """2 * int_a^inf hw^2/(hw^2+u^2) cos(u tau) du, by asymptotic series.

    Two terms of the large-u expansion; relative error ~(hw/a)^6 of the tail.
    """
    t = np.abs(np.asarray(tau, dtype=float))
    out = np.empty_like(t)
    zero = t == 0.0
    out[zero] = 2.0 * (hw**2 / a - hw**4 / (3.0 * a**3))
    tz = t[~zero]
    si, _ = sici(a * tz)
    rest = math.pi / 2.0 - si
    i2 = np.cos(a * tz) / a - tz * rest
    i4 = (
        np.cos(a * tz) / (3.0 * a**3)
        - tz * np.sin(a * tz) / (6.0 * a**2)
        - tz**2 * np.cos(a * tz) / (6.0 * a)
        + tz**3 * rest / 6.0
    )
    out[~zero] = 2.0 * (hw**2 * i2 - hw**4 * i4)
    return out


def transform_oracle(profile, s, tau, span_halfwidths=2000.0, n=2_000_001):
    """Normalized cosine transform by trapezoid on a very wide, fine grid.

    The Lorentzian profile's heavy tail beyond the grid is added back by
    ``lorentzian_tail``, in the transform and in its tau = 0 normalization.
    """
    if s.shape is Shape.RECTANGULAR:
        span = s.halfwidth
    else:
        span = span_halfwidths * s.halfwidth
    u = np.linspace(-span, span, n)
    f = profile(s, u)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    vals = np.empty(tau.shape)
    for i, t in enumerate(tau):
        vals[i] = np.trapezoid(f * np.cos(u * t), u)
    norm = np.trapezoid(f, u)
    if s.shape is Shape.LORENTZIAN:
        vals = vals + lorentzian_tail(s.halfwidth, span, tau)
        norm = norm + lorentzian_tail(s.halfwidth, span, 0.0)
    return vals / norm


def dirichlet_oracle(tau, n_side, spacing):
    """Comb factor by the explicit cosine sum."""
    tau = np.asarray(tau, dtype=float)
    total = np.ones_like(tau)
    for m in range(1, n_side + 1):
        total = total + 2.0 * np.cos(m * spacing * tau)
    return total


def moving_average_oracle(samples, window):
    """Reflective-pad windowed mean by direct slicing."""
    n = samples.size
    pad_l = (window - 1) // 2
    pad_r = window - 1 - pad_l
    padded = np.concatenate([samples[1 : pad_l + 1][::-1], samples, samples[n - pad_r - 1 : n - 1][::-1]])
    out = np.empty(n)
    for i in range(n):
        out[i] = padded[i : i + window].mean()
    return out


def boxcar_mean(x, k):
    """``np.convolve(x, np.full(k, 1/k), "same")`` for odd k <= x.size, by running sums.

    Sample i is the sum of x[i - k//2 .. i + k//2], zero beyond the ends,
    divided by k: a difference of two prefix sums instead of k products.
    """
    half = k // 2
    cs = np.concatenate([[0.0], np.cumsum(x)])
    i = np.arange(x.size)
    return (cs[np.minimum(i + half + 1, x.size)] - cs[np.maximum(i - half, 0)]) / k


def jitter_convolution_oracle(trace_tau, trace_dens, resolution_time, edges):
    """Expected bin probabilities after two independent rectangular jitters.

    Zero-pads the density, convolves twice with a unit-area rectangle of the
    resolution width (``boxcar_mean``), and integrates the result over the
    histogram bins.
    """
    dt = trace_tau[1] - trace_tau[0]
    pad = int(round((resolution_time + abs(edges).max() * 0.1) / dt)) + 4
    dens = np.concatenate([np.zeros(pad), trace_dens, np.zeros(pad)])
    tau = np.concatenate(
        [
            trace_tau[0] - dt * np.arange(pad, 0, -1),
            trace_tau,
            trace_tau[-1] + dt * np.arange(1, pad + 1),
        ]
    )
    if resolution_time > 0:
        k = int(round(resolution_time / dt))
        k = k + 1 if k % 2 == 0 else k
        dens = boxcar_mean(boxcar_mean(dens, k), k)
    mass = 0.5 * (dens[1:] + dens[:-1]) * dt
    cdf = np.concatenate([[0.0], np.cumsum(mass)])
    cdf = cdf / cdf[-1]
    probs = np.interp(edges[1:], tau, cdf) - np.interp(edges[:-1], tau, cdf)
    return probs


def excision_grid_search(comb, wideband, target_peak, grid, n_magnitude=160, n_phase=180):
    """Dense-mesh check of ``solve_excision``'s least-squares optimum.

    Evaluates the windowed post/pre energy ratio directly (no normal-equation
    shortcut) on a magnitude-by-phase mesh of the weight ratio.  Ties resolve
    to the lowest magnitude, then the lowest phase.  Returns (zeta, residual).
    """
    t_r = comb.round_trip_time
    delay = target_peak * t_r
    tau, w = _peak_window(comb, target_peak, grid)
    a = comb_amplitude(tau, comb)
    f = pair_envelope(wideband, tau - delay)
    pre = float(np.sum(w * np.abs(a) ** 2))
    mag_max = 2.0 * float(np.max(np.abs(a))) / float(np.max(np.abs(f)))
    mags = np.linspace(0.0, mag_max, n_magnitude)
    phases = np.linspace(0.0, 2.0 * math.pi, n_phase, endpoint=False)
    best = (math.inf, 0.0 + 0.0j)
    for mag in mags:
        zetas = mag * np.exp(1j * phases)
        trial = a[None, :] + zetas[:, None] * f[None, :]
        post = np.sum(w[None, :] * np.abs(trial) ** 2, axis=1)
        j = int(np.argmin(post))
        if post[j] / pre < best[0] - 1e-15:
            best = (float(post[j] / pre), complex(zetas[j]))
    return best[1], best[0]


def csv_oracle(columns, series):
    """CSV lines formatted cell by cell: ``repr(float(v))`` for every value of every row."""
    return [",".join(columns)] + [",".join(repr(float(v)) for v in row) for row in zip(*series)]


def _chunk_rng(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def sample_oracle(trace, n, seed):
    """Pair delays by the plain inverse-CDF formula: unsorted CDF search, chunk by chunk."""
    y, dt = trace.samples, trace.grid.spacing
    mass = 0.5 * (y[1:] + y[:-1]) * dt
    cdf = np.concatenate([[0.0], np.cumsum(mass)]) / float(mass.sum())
    cdf[-1] = 1.0
    chunks = []
    for k in range(max(1, math.ceil(n / CHUNK))):
        u = _chunk_rng(seed, k).random(min(CHUNK, n - k * CHUNK))
        idx = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, mass.size - 1)
        width = cdf[idx + 1] - cdf[idx]
        frac = np.where(width > 0, (u - cdf[idx]) / np.where(width > 0, width, 1.0), 0.5)
        chunks.append(trace.grid.t_min + (idx + frac) * dt)
    return np.concatenate(chunks)


def detect_oracle(pair_delays, det, seed, duration):
    """Detection records built stream-wide, on one thread: (pair delays, accidental delays).

    Draws the same chunked streams as the package's detection but keeps every
    photon column whole: the kept photons and dark counts of each detector
    are sorted into one stream, and each dark count is matched against the
    whole opposite stream.  Every match is an event; only a dark-dark pair
    that both detectors' dark counts find is dropped the second time, by
    index, so repeated times stay distinct events.  Pair start times and dark
    counts are uniform on [0, duration).
    """
    delays = np.asarray(pair_delays, dtype=float)
    n = delays.size
    tr = det.resolution_time
    parts = []
    for k in range(max(1, math.ceil(n / CHUNK))):
        m = min(CHUNK, n - k * CHUNK)
        rng = _chunk_rng(seed, _DETECT_KEY + k)
        s = rng.uniform(0.0, duration, m)
        j1 = rng.uniform(-tr / 2.0, tr / 2.0, m) if tr > 0 else np.zeros(m)
        j2 = rng.uniform(-tr / 2.0, tr / 2.0, m) if tr > 0 else np.zeros(m)
        keep1 = rng.random(m) < det.efficiency
        keep2 = rng.random(m) < det.efficiency
        parts.append((s + j1, s + delays[k * CHUNK : k * CHUNK + m] + j2, keep1, keep2))
    t1, t2, keep1, keep2 = (np.concatenate(column) for column in zip(*parts))
    both = keep1 & keep2
    found = []
    if det.dark_rate > 0:
        dark_times = []
        for d in (0, 1):
            rng = _chunk_rng(seed, _DARK_KEY + d)
            count = rng.poisson(det.dark_rate * duration)
            dark_times.append(np.sort(rng.uniform(0.0, duration, count)))
        dark1, dark2 = dark_times
        w, seen = det.coincidence_window, set()
        sides = ((dark1, t2[keep2], dark2, 1), (dark2, t1[keep1], dark1, -1))
        for left, photons, darks, order in sides:
            # the opposite stream, each time tagged with its dark index, -1 for a photon
            right = np.concatenate([photons, darks])
            tag = np.concatenate([np.full(photons.size, -1), np.arange(darks.size)])
            rank = np.argsort(right, kind="stable")
            right, tag = right[rank], tag[rank]
            with np.errstate(over="ignore"):  # fl(d + w) may be infinite
                lo = np.searchsorted(right, left - w, side="left")
                hi = np.searchsorted(right, left + w, side="right")
            for i in range(left.size):
                for j in range(lo[i], hi[i]):
                    if tag[j] >= 0:  # a dark-dark pair: (dark 1, dark 2) by index
                        pair = (i, int(tag[j]))[::order]
                        if pair in seen:
                            continue
                        seen.add(pair)
                    found.append((left[i], right[j])[::order])
    accidental = np.array(found).reshape(-1, 2)
    return t2[both] - t1[both], accidental[:, 1] - accidental[:, 0]


def summary_oracle(pairs, accidentals, window):
    """The Monte Carlo counting summary, counted from the record delays."""
    in_pair = int(np.sum(np.abs(pairs) <= window))
    return {
        "n_records": pairs.size + accidentals.size,
        "n_pair_records": pairs.size,
        "n_accidental_records": accidentals.size,
        "n_coincidences_in_window": in_pair + int(np.sum(np.abs(accidentals) <= window)),
        "n_pair_coincidences_in_window": in_pair,
    }
