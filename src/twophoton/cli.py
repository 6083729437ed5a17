"""Command-line front end emitting figure-ready scan data.

    twophoton <correlation|homscan|fringe|engineer|mc>
              --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]

Each ``cmd_<name>(cfg, threads)`` computes its result and returns it as
``{file name: body lines}`` in write order, touching no file; ``main`` alone
writes them.  Every output file starts with ``# twophoton <command>`` and
the resolved configuration as ``# key = value`` lines, so a run can be
reproduced from its own output (strip the leading ``# `` or use
``config_from_output_header``).  All files of a run are written to a
staging directory inside ``--out`` and renamed into place only once every
one is written.  Exit codes: 0 success, 2 bad configuration or an
unusable ``--out``, 3 numerical precondition failure.
"""

from __future__ import annotations

import argparse
import errno
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import COMMANDS, RunConfig, parse_config_file, resolve_config, value_lines
from .correlation import gamma1_coherence, gamma2_mode_locked
from .engineering import (
    WidebandState,
    combined_gamma2,
    matched_wideband,
    solve_excision,
)
from .errors import ConfigError, NumericsError
from .interferometer import InterferometerConfig, delay_scan, phase_fringe_scan
from .montecarlo import DetectorModel, comb_contrast, stream_histogram
from .spectral import SpectralAmplitude, TimeGrid


def _write_atomic(path: Path, lines) -> None:
    """Create ``path`` as ``open`` does (0o666 less the umask) and write ``lines``."""
    with open(path, "x", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


_BLOCK_ROWS = 4096


def _csv(columns, *tables) -> list:
    """Lines of one CSV file per table, each headed by ``columns``.

    A table is a list of equal-length columns.  Rows are formatted
    ``_BLOCK_ROWS`` at a time, column by column: ``float64.tolist()`` gives
    the doubles ``float(x)`` gives, so each cell is ``repr(float(x))`` as in
    every ``name = value`` line.  A shared column is formatted once per block.
    """
    files = [[",".join(columns)] for _ in tables]
    for lo in range(0, len(tables[0][0]), _BLOCK_ROWS):
        cells = {}
        for table, lines in zip(tables, files):
            for col in table:
                if id(col) not in cells:
                    block = np.asarray(col[lo : lo + _BLOCK_ROWS], dtype=float).tolist()
                    cells[id(col)] = list(map(repr, block))
            lines.extend(map(",".join, zip(*(cells[id(col)] for col in table))))
    return files


def cmd_correlation(cfg: RunConfig, threads: int) -> dict:
    grid = TimeGrid(cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.points"])
    trace = gamma2_mode_locked(cfg.comb, grid)
    columns = ["tau_s", "gamma2"]
    series = [grid.values, trace.samples]
    if cfg["scan.include_coherence"]:
        columns.append("coherence_abs")
        series.append(np.abs(gamma1_coherence(cfg.comb, grid).samples))
    return {"correlation.csv": _csv(columns, series)[0]}


def cmd_homscan(cfg: RunConfig, threads: int) -> dict:
    delays = np.linspace(cfg["scan.delay_min"], cfg["scan.delay_max"], cfg["scan.points"])
    icfg = InterferometerConfig(
        comb=cfg.comb,
        delay=cfg["scan.delay_min"],
        resolution_time=cfg["detector.resolution_time"],
        pump_phase=cfg["interferometer.pump_phase"],
        mode_match=cfg["interferometer.mode_match"],
    )
    scan = delay_scan(icfg, delays, dithered=cfg["scan.dithered"])
    columns = ["delay_s"]
    series = [scan.abscissa]
    if cfg["output.delay_to_mm"] != 0.0:
        columns.append("position_mm")
        series.append(scan.abscissa * cfg["output.delay_to_mm"])
    columns += ["coincidence", "singles_1", "singles_2"]
    series += [scan.coincidence, scan.singles_1, scan.singles_2]
    return {"homscan.csv": _csv(columns, series)[0]}


def cmd_fringe(cfg: RunConfig, threads: int) -> dict:
    phases = np.linspace(cfg["scan.phase_min"], cfg["scan.phase_max"], cfg["scan.points"])
    icfg = InterferometerConfig(
        comb=cfg.comb,
        delay=cfg["scan.delay"],
        resolution_time=cfg["detector.resolution_time"],
        mode_match=cfg["interferometer.mode_match"],
    )
    scan = phase_fringe_scan(icfg, phases)
    results = {
        "singles_visibility": scan.metadata["singles_visibility"],
        "overlap_visibility": scan.metadata["visibility_v"],
        **{f"fit_visibility_{c}": v for c, v in scan.metadata["fitted_visibility"].items()},
    }
    columns = ["phase_rad", "coincidence", "singles_1", "singles_2"]
    series = [scan.abscissa, scan.coincidence, scan.singles_1, scan.singles_2]
    return {"fringe.csv": value_lines(results, "# result.") + _csv(columns, series)[0]}


def cmd_engineer(cfg: RunConfig, threads: int) -> dict:
    shape, halfwidth = cfg["engineering.wideband_shape"], cfg["engineering.wideband_halfwidth"]
    if halfwidth > 0.0:
        template = SpectralAmplitude(shape=shape, halfwidth=halfwidth)
    else:
        template = matched_wideband(cfg.comb, shape)
    grid = TimeGrid(cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.points"])
    solution = solve_excision(
        cfg.comb,
        template,
        cfg["engineering.target_peak"],
        grid,
        optimize_width=cfg["engineering.optimize_width"],
    )
    before = gamma2_mode_locked(cfg.comb, grid)
    after = combined_gamma2(
        cfg.comb,
        WidebandState(solution.wideband, solution.delay),
        solution.eta,
        solution.zeta,
        grid,
    )
    results = {
        "eta_real": solution.eta.real,
        "eta_imag": solution.eta.imag,
        "zeta_real": solution.zeta.real,
        "zeta_imag": solution.zeta.imag,
        "delay_s": solution.delay,
        "target_peak": solution.target_peak,
        "residual": solution.residual,
        "wideband_shape": solution.wideband.shape,
        "wideband_halfwidth": solution.wideband.halfwidth,
        **{f"neighbor_retention_{k}": v for k, v in sorted(solution.neighbor_retention.items())},
    }
    before_lines, after_lines = _csv(
        ["tau_s", "gamma2"], [grid.values, before.samples], [grid.values, after.samples]
    )
    return {
        "engineer_before.csv": before_lines,
        "engineer_after.csv": after_lines,
        "engineer_solution.txt": [""] + value_lines(results),
    }


def cmd_mc(cfg: RunConfig, threads: int) -> dict:
    grid = TimeGrid(cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.points"])
    trace = gamma2_mode_locked(cfg.comb, grid)
    det = DetectorModel(
        resolution_time=cfg["detector.resolution_time"],
        coincidence_window=cfg["detector.coincidence_window"],
        efficiency=cfg["detector.efficiency"],
        dark_rate=cfg["detector.dark_rate"],
    )
    hist, summary = stream_histogram(
        trace,
        cfg["mc.n_events"],
        det,
        cfg["seed"],
        cfg["mc.bin_width"],
        (cfg["mc.range_min"], cfg["mc.range_max"]),
        duration=cfg["mc.duration"] if cfg["mc.duration"] > 0 else None,
        threads=threads,
    )
    try:
        contrast = comb_contrast(hist, cfg.comb.round_trip_time, cfg.comb.n_side_modes)
    except ValueError:
        contrast = float("nan")
    counts = {"n_events_requested": cfg["mc.n_events"], **summary}
    counts.update(n_histogrammed=hist.n_counted, comb_contrast=contrast)
    return {
        "mc_histogram.csv": _csv(["bin_center_s", "count"], [hist.centers, hist.counts])[0],
        "mc_summary.txt": [""] + value_lines(counts),
    }


_DISPATCH = {
    "correlation": cmd_correlation,
    "homscan": cmd_homscan,
    "fringe": cmd_fringe,
    "engineer": cmd_engineer,
    "mc": cmd_mc,
}


def _write_run(out: Path, header: list, files: dict) -> None:
    """Write every file of a run, ``header`` then body, under ``out``, or none.

    Files are staged in a directory inside ``out`` and renamed into place
    only once all are written and no target is a directory.
    """
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".twophoton-", dir=out))
    try:
        for name, body in files.items():
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
            _write_atomic(stage / name, header + body)
        for name in files:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twophoton",
        description="Mode-locked two-photon correlation and interferometry scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="worker threads for Monte Carlo chunks (default: 1; results do not depend on it)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = parse_config_file(args.config)
        cfg = resolve_config(raw, args.command, seed_override=args.seed)
    except ConfigError as exc:
        print(f"twophoton: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"twophoton: cannot read config: {exc}", file=sys.stderr)
        return 2
    if args.threads < 1:
        print("twophoton: --threads must be an integer >= 1", file=sys.stderr)
        return 2
    try:
        files = _DISPATCH[args.command](cfg, args.threads)
    except NumericsError as exc:
        print(f"twophoton: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    header = [f"# twophoton {cfg.command}"] + cfg.echo_lines()
    out = Path(args.out)
    try:
        _write_run(out, header, files)
    except OSError as exc:
        print(f"twophoton: cannot write --out {args.out}: {exc}", file=sys.stderr)
        return 2
    for name in files:
        print(out / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
