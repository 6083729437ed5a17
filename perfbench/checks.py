"""Checks of the CLI outputs against computations made apart from the package.

Nothing here imports ``twophoton``.  The model parameters come from the
config the benchmark generated, never from the output's own header (except
the mode phases, which the program draws from ``comb.phase_seed``), so an
output made with a wrong parameter fails even though its header is
self-consistent.  Every check returns a list of failure messages; an empty
list means the outputs are correct.

The comb amplitude is X(tau) = e^{-h|tau|} F(tau) with the explicit mode sum
F(tau) = sum_m e^{i phi_m} e^{-i m Omega tau}, m = -N..N.  Interferometer
integrals use the closed mode-pair sum

    int X(tau+D) X*(tau-D) dtau = sum_{m,n} e^{i(phi_m-phi_n)} e^{-i(m+n) Omega D}
        [e^{-2hD} 2 sin(kD)/k + 2 Re(e^{-(2h+ik)D} / (2h+ik))],  k = (m-n) Omega,

in place of the program's Simpson quadrature.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
OUTPUTS = {
    "correlation": ("correlation.csv",),
    "homscan": ("homscan.csv",),
    "fringe": ("fringe.csv",),
    "engineer": ("engineer_before.csv", "engineer_after.csv", "engineer_solution.txt"),
    "mc": ("mc_histogram.csv", "mc_summary.txt"),
}


class _Model:
    """Lorentzian comb of a generated config, with phases from an output header."""

    def __init__(self, cfg: dict, header: dict):
        self.n_side = int(cfg["comb.n_side_modes"])
        self.t_r = float(cfg["comb.round_trip_time"])
        self.omega = TWO_PI / self.t_r
        self.h = float(cfg["comb.linewidth"])
        self.modes = np.arange(-self.n_side, self.n_side + 1)
        self.phases = np.zeros(self.modes.size)
        if "comb.mode_phases" in header:
            self.phases = np.array([float(p) for p in header["comb.mode_phases"].split(",")])

    def comb_factor(self, tau) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        out = np.zeros(tau.shape, dtype=complex)
        for m, phi in zip(self.modes, self.phases):
            out += np.exp(1j * (phi - m * self.omega * tau))
        return out

    def amplitude(self, tau) -> np.ndarray:
        return np.exp(-self.h * np.abs(tau)) * self.comb_factor(tau)

    def overlap(self, delays) -> np.ndarray:
        """Complex int X(tau+D) X*(tau-D) dtau over all tau, per delay D >= 0."""
        d = np.asarray(delays, dtype=float)[:, None]
        m, n = np.meshgrid(self.modes, self.modes, indexing="ij")
        k = ((m - n) * self.omega).ravel()[None, :]
        weight = np.exp(1j * (self.phases[:, None] - self.phases[None, :])).ravel()[None, :]
        carrier = np.exp(-1j * ((m + n) * self.omega).ravel()[None, :] * d)
        safe_k = np.where(k == 0.0, 1.0, k)
        inner = np.where(k == 0.0, 2.0 * d, 2.0 * np.sin(k * d) / safe_k)
        outer = np.exp(-(2.0 * self.h + 1j * k) * d) / (2.0 * self.h + 1j * k)
        terms = np.exp(-2.0 * self.h * d) * inner + 2.0 * outer.real
        return np.sum(weight * carrier * terms, axis=1)


def read_output(path: Path):
    """Header as {key: value} and the data lines after it."""
    header, body = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# ") and " = " in line and not body:
                key, value = line[2:].split(" = ", 1)
                header[key] = value
            elif not line.startswith("#"):
                body.append(line)
    return header, body


def read_csv(path: Path):
    header, body = read_output(path)
    columns = body[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in body[1:] if row])
    return header, {c: data[:, i] for i, c in enumerate(columns)}


def read_pairs(path: Path) -> dict:
    _, body = read_output(path)
    return dict(line.split(" = ", 1) for line in body if " = " in line)


def _close(name: str, got, want, tol: float, errors: list) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errors.append(f"{name}: shape {got.shape} != expected {want.shape}")
        return
    worst = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not worst <= tol:
        errors.append(f"{name}: off by {worst:.3e} (tolerance {tol:.1e})")


def _tr(cfg: dict, key: str, default: float) -> float:
    return float(cfg.get(key, default)) * float(cfg["comb.round_trip_time"])


def _check_phases(cfg: dict, header: dict, model: _Model, errors: list) -> None:
    random = "comb.phase_seed" in cfg
    if random != ("comb.mode_phases" in header):
        errors.append("header mode phases do not match the configured locking")
    if model.phases.size != 2 * int(cfg["comb.n_side_modes"]) + 1:
        errors.append(f"header holds {model.phases.size} mode phases for N = {cfg['comb.n_side_modes']}")
    elif random and not np.all((model.phases >= 0.0) & (model.phases < TWO_PI)):
        errors.append("header mode phases lie outside [0, 2 pi)")


def _dips(x, y, depth: float = 0.1):
    """Local minima of y at least ``depth`` below 1."""
    out = []
    for i in range(y.size):
        left = y[i - 1] if i > 0 else np.inf
        right = y[i + 1] if i < y.size - 1 else np.inf
        if y[i] <= left and y[i] < right and y[i] <= 1.0 - depth:
            out.append(x[i])
    return np.array(out)


def check_homscan(cfg: dict, out: Path) -> list:
    errors: list = []
    header, col = read_csv(out / "homscan.csv")
    model = _Model(cfg, header)
    points = int(cfg["scan.points"])
    delays = np.linspace(_tr(cfg, "scan.delay_min_tr", 0.0), _tr(cfg, "scan.delay_max_tr", 1.3), points)
    _close("delay_s", col["delay_s"], delays, 1e-9 * model.t_r, errors)
    if errors:
        return errors
    mode_match = float(cfg.get("interferometer.mode_match", 1.0))
    r0 = model.overlap(np.zeros(1))[0].real
    vis = mode_match * model.overlap(delays).real / r0
    rate = 1.0 - vis / 2.0  # dithered 50:50 splitter, in units of R0
    wings = np.abs(vis) < 0.01
    baseline = float(rate[wings].mean()) if wings.any() else 1.0
    coincidence = col["coincidence"]
    _close("homscan coincidence", coincidence, rate / baseline, 1e-6, errors)
    if float(rate.min()) < 0.5 or float((coincidence * baseline).min()) < 0.5 - 1e-6:
        errors.append(f"dip below the 50% dither floor: {float((coincidence * baseline).min()):.6f}")
    for name in ("singles_1", "singles_2"):
        _close(f"homscan {name}", col[name], np.ones(points), 0.0, errors)
    if "output.delay_to_mm" in cfg:
        _close("position_mm", col["position_mm"], delays * float(cfg["output.delay_to_mm"]),
               1e-9 * float(np.max(np.abs(col["position_mm"]))), errors)
    half = model.t_r / 2.0
    step = delays[1] - delays[0]
    dips = _dips(delays, coincidence)
    expected = half * np.arange(math.ceil(delays[0] / half - 1e-9), math.floor(delays[-1] / half + 1e-9) + 1)
    if dips.size != expected.size or np.any(np.abs(dips - expected) > 0.5 * step):
        errors.append(f"dips at {dips / model.t_r} t_r, expected {expected / model.t_r} t_r")
    return errors


def check_correlation(cfg: dict, out: Path) -> list:
    errors: list = []
    header, col = read_csv(out / "correlation.csv")
    model = _Model(cfg, header)
    _check_phases(cfg, header, model, errors)
    if errors:
        return errors
    tau = np.linspace(_tr(cfg, "scan.tau_min_tr", -2.0), _tr(cfg, "scan.tau_max_tr", 2.0), int(cfg["scan.points"]))
    _close("tau_s", col["tau_s"], tau, 1e-9 * model.t_r, errors)
    amp = model.amplitude(tau)
    gamma2 = np.abs(amp) ** 2
    _close("gamma2", col["gamma2"], gamma2, 1e-9 * gamma2.max(), errors)
    coherence = np.abs(amp) / abs(model.comb_factor(np.zeros(1))[0])
    _close("coherence_abs", col["coherence_abs"], coherence, 1e-9 * coherence.max(), errors)
    return errors


def check_fringe(cfg: dict, out: Path) -> list:
    errors: list = []
    header, col = read_csv(out / "fringe.csv")
    model = _Model(cfg, header)
    _check_phases(cfg, header, model, errors)
    if errors:
        return errors
    delay = _tr(cfg, "scan.delay_tr", 1.0)
    phase = np.linspace(float(cfg["scan.phase_min"]), float(cfg["scan.phase_max"]), int(cfg["scan.points"]))
    _close("phase_rad", col["phase_rad"], phase, 1e-12 * phase.max(), errors)
    f0 = abs(model.comb_factor(np.zeros(1))[0])
    singles_vis = math.exp(-model.h * delay) * abs(model.comb_factor(np.array([delay]))[0]) / f0
    r0 = model.overlap(np.zeros(1))[0].real
    vis = model.overlap(np.array([delay]))[0].real / r0
    results = {k[len("result."):]: float(v) for k, v in header.items() if k.startswith("result.")}
    _close("singles_visibility", results.get("singles_visibility", np.nan), singles_vis, 1e-9, errors)
    for name in ("singles_1", "singles_2"):
        _close(f"fit_visibility_{name}", results.get(f"fit_visibility_{name}", np.nan), singles_vis, 1e-9, errors)
    _close("overlap_visibility", results.get("overlap_visibility", np.nan), vis, 1e-6, errors)
    # 50:50 splitter: |a|^2 = (1 - cos phase)/2, HOM route weight 1/4
    coincidence = (0.5 - 0.5 * np.cos(phase)) * r0 + 0.5 * r0 * (1.0 - vis)
    _close("fringe coincidence", col["coincidence"], coincidence, 1e-6 * r0, errors)
    _close("fit_visibility_coincidence", results.get("fit_visibility_coincidence", np.nan),
           0.5 / (1.0 - vis / 2.0), 1e-6, errors)
    _close("fringe singles_1", col["singles_1"], 1.0 + singles_vis * np.cos(phase), 1e-9, errors)
    _close("fringe singles_2", col["singles_2"], 1.0 - singles_vis * np.cos(phase), 1e-9, errors)
    return errors


def _trapezoid(y, x) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def _window_ratio(tau, num, den, lo, hi) -> float:
    inside = (tau >= lo) & (tau <= hi)
    return float(_trapezoid(num[inside], tau[inside]) / _trapezoid(den[inside], tau[inside]))


def check_engineer(cfg: dict, out: Path) -> list:
    errors: list = []
    header, before = read_csv(out / "engineer_before.csv")
    _, after = read_csv(out / "engineer_after.csv")
    sol = read_pairs(out / "engineer_solution.txt")
    model = _Model(cfg, header)
    peak = int(cfg["engineering.target_peak"])
    span = abs(peak) + 1.5
    tau = np.linspace(-span * model.t_r, span * model.t_r, int(cfg["scan.points"]))
    _close("tau_s", before["tau_s"], tau, 1e-9 * model.t_r, errors)
    if errors:
        return errors
    eta = complex(float(sol["eta_real"]), float(sol["eta_imag"]))
    zeta = complex(float(sol["zeta_real"]), float(sol["zeta_imag"]))
    delay = float(sol["delay_s"])
    halfwidth = float(sol["wideband_halfwidth"])
    if sol["wideband_shape"] != cfg["engineering.wideband_shape"] or int(sol["target_peak"]) != peak:
        errors.append("solution names another wideband shape or target peak than configured")
        return errors
    _close("wideband delay", delay, peak * model.t_r, 1e-9 * model.t_r, errors)

    def wideband(t):  # rectangular line: sinc pair envelope, 1 at its delay
        return np.sinc(halfwidth * (t - delay) / math.pi)

    amp = model.amplitude(tau)
    _close("gamma2 before", before["gamma2"], np.abs(amp) ** 2, 1e-9 * float(np.max(np.abs(amp) ** 2)), errors)
    _close("gamma2 after", after["gamma2"], np.abs(eta * amp + zeta * wideband(tau)) ** 2,
           1e-9 * float(np.max(np.abs(amp) ** 2)), errors)

    quarter = model.t_r / 4.0
    centre = peak * model.t_r
    residual = _window_ratio(tau, after["gamma2"], before["gamma2"], centre - quarter, centre + quarter)
    if not residual <= 0.25:
        errors.append(f"window residual {residual:.4f} > 0.25")
    _close("residual vs solution file", residual, float(sol["residual"]), 1e-2 * max(residual, 1e-3), errors)
    for k in (peak - 1, peak + 1):
        kept = _window_ratio(tau, after["gamma2"], before["gamma2"], k * model.t_r - quarter, k * model.t_r + quarter)
        if not kept >= 0.9:
            errors.append(f"neighbour peak {k} keeps {kept:.4f} < 0.9 of its window energy")

    fine = np.linspace(centre - quarter, centre + quarter, 20001)
    a_fine, f_fine = eta * model.amplitude(fine), wideband(fine)
    pre = _trapezoid(np.abs(a_fine) ** 2, fine)

    def resid(z):
        return float(_trapezoid(np.abs(a_fine + z * f_fine) ** 2, fine) / pre)

    best = resid(zeta)
    for label, z in (("magnitude +1%", zeta * 1.01), ("magnitude -1%", zeta * 0.99),
                     ("phase +0.01", zeta * np.exp(0.01j)), ("phase -0.01", zeta * np.exp(-0.01j))):
        if resid(z) < best:
            errors.append(f"zeta perturbed in {label} lowers the residual {best:.3e} to {resid(z):.3e}")
    return errors


def _accidental_expectation(cfg: dict) -> float:
    n = int(cfg["mc.n_events"])
    eff = float(cfg.get("detector.efficiency", 1.0))
    dark = float(cfg.get("detector.dark_rate", 0.0))
    window = float(cfg["detector.coincidence_window"])
    duration = float(cfg["mc.duration"])
    # each detector's darks meet the other's n*eff photons and darks within
    # +-window; dark-dark pairs are found twice and kept once
    return 2.0 * window * dark * (2.0 * n * eff + dark * duration)


def check_mc(cfg: dict, out: Path) -> list:
    errors: list = []
    header, hist = read_csv(out / "mc_histogram.csv")
    summary = read_pairs(out / "mc_summary.txt")
    model = _Model(cfg, header)
    n = int(cfg["mc.n_events"])
    eff = float(cfg.get("detector.efficiency", 1.0))
    n_pair = int(summary["n_pair_records"])
    n_acc = int(summary["n_accidental_records"])
    mean, sd = n * eff**2, math.sqrt(n * eff**2 * (1.0 - eff**2))
    if abs(n_pair - mean) > 5.0 * sd:
        errors.append(f"n_pair_records {n_pair} is not within 5 sigma of Binomial(n, eff^2) = {mean:.0f} +- {sd:.0f}")
    expected_acc = _accidental_expectation(cfg)
    if abs(n_acc - expected_acc) > 5.0 * math.sqrt(max(expected_acc, 1.0)):
        errors.append(f"n_accidental_records {n_acc} is not within 5 sigma of Poisson({expected_acc:.1f})")
    if int(summary["n_records"]) != n_pair + n_acc:
        errors.append("n_records != n_pair_records + n_accidental_records")

    bin_width = float(cfg["mc.bin_width"])
    lo, hi = _tr(cfg, "scan.tau_min_tr", -2.0), _tr(cfg, "scan.tau_max_tr", 2.0)
    n_bins = math.ceil((hi - lo) / bin_width)
    centers = lo + bin_width * (np.arange(n_bins) + 0.5)
    _close("bin_center_s", hist["bin_center_s"], centers, 1e-6 * bin_width, errors)
    if errors:
        return errors
    counts = hist["count"]
    if int(summary["n_histogrammed"]) != int(counts.sum()):
        errors.append("n_histogrammed != sum of the histogram counts")

    # bin probabilities of the sampled density |X|^2 on [lo, hi], by Simpson
    sub = 64
    nodes = lo + bin_width * np.arange(n_bins * sub + 1) / sub
    density = np.abs(model.amplitude(nodes)) ** 2
    w = np.ones(sub + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    per_bin = np.lib.stride_tricks.sliding_window_view(density, sub + 1)[::sub] @ w
    prob = per_bin / per_bin.sum()
    window = float(cfg["detector.coincidence_window"])
    left, right = centers - bin_width / 2.0, centers + bin_width / 2.0
    acc_share = np.clip(np.minimum(right, window) - np.maximum(left, 0.0), 0.0, None) / window
    expected = n_pair * prob + n_acc * acc_share
    used = expected >= 5.0
    chi2 = float(np.sum((counts[used] - expected[used]) ** 2 / expected[used]))
    dof = int(used.sum())
    limit = dof + 5.0 * math.sqrt(2.0 * dof)
    if not chi2 <= limit:
        errors.append(f"histogram chi^2 {chi2:.1f} over {dof} bins exceeds {limit:.1f}")
    low_obs, low_exp = float(counts[~used].sum()), float(expected[~used].sum())
    if abs(low_obs - low_exp) > 5.0 * math.sqrt(max(low_exp, 1.0)):
        errors.append(f"sparse bins hold {low_obs:.0f} counts, expected {low_exp:.1f}")
    return errors


CHECKS = {
    "homscan": check_homscan,
    "correlation": check_correlation,
    "fringe": check_fringe,
    "engineer": check_engineer,
    "mc": check_mc,
}


def check_job(command: str, cfg: dict, out: Path) -> list:
    """Failure messages for one job's outputs; a missing file is one failure."""
    missing = [name for name in OUTPUTS[command] if not (Path(out) / name).is_file()]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    return CHECKS[command](cfg, Path(out))
