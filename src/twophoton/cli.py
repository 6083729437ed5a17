"""Command-line front end emitting figure-ready scan data.

    usage: twophoton <correlation|homscan|fringe|engineer|mc>
                     --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]
           twophoton -h | --help
      --config   the run's configuration file (required)
      --out      directory the files are written to (default .)
      --seed     overrides the config's seed
      --threads  Monte Carlo threads (default 1, at most one per CPU); never changes the output

Each ``cmd_<name>(cfg, threads)`` returns its files as ``{file name: body}``
in write order, a body being a list of ``bytes`` chunks, touching no file;
``main`` alone writes them.  Every output file starts with ``# twophoton
<command>`` and the resolved configuration as ``# key = value`` lines, so a
run can be reproduced from its own output (strip the leading ``# `` or use
``config_from_output_header``).  All files of a run are written to a staging
directory inside ``--out`` and renamed into place once every one is written.
Long options may be abbreviated to a unique prefix and given as ``--name
value`` or ``--name=value``, before or after the command, whatever the
environment holds; ``--`` ends the options.  ``-h``/``--help`` prints the
usage above.  Exit codes: 0 success (or help), 2 a malformed command line
(the usage and the reason go to stderr), bad configuration or an unusable
``--out``, 3 numerical precondition failure.
"""

from __future__ import annotations

import errno
import functools
import getopt
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


def _write_atomic(path: Path, chunks) -> None:
    """Create ``path`` as ``open`` does (0o666 less the umask); write ``chunks`` as they are."""
    with open(path, "xb") as fh:
        fh.writelines(chunks)


def _text(lines) -> bytes:
    """``lines`` encoded as one chunk, each line ended by ``\\n``."""
    return "".join(line + "\n" for line in lines).encode()


# Shortest round-trip digits by Schubfach (R. Giulietti, "The Schubfach way to
# render doubles", 2020), vectorized over uint64 arrays.  A double v = c 2^q
# reads back from every decimal in its rounding interval (c -+ 1/2) 2^q, whose
# lower half is 1/4 at c = 2^52 and whose ends belong to it when c is even.
# With 10^k the largest power of ten no wider than the interval, 4 v 10^-k and
# the ends scaled alike come from one 64 x 128-bit product each with
# g(k) ~ 10^-k 2^(125 - floor(-k log2 10)), rounded to odd: exact enough to
# pick the one multiple of 10^(k+1) inside the interval, if any, else the
# multiple of 10^k inside it nearest v, the even one on a tie.
_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_K_MIN = -324  # k of the smallest normal; the largest is 292
# g1, and the 32-bit halves of g1 and g0, of each k: a cache of a function of k
# alone, each entry computed when its k first occurs
_G = np.zeros((5, 617), _U)
_G_SET = np.zeros(617, bool)
#: bytes of a cell: '-2.2250738585072014e-308' is the longest repr of a double
_CELL = 24
# what each byte of a value's 32-byte source row holds: its seventeen digits a
# (the first) to q, the constant bytes '0', '.', '-' and a NUL (' ', which pads
# a cell), and its exponent tail 'e', sign and two or three digits (vwxyz,
# NUL-padded); no layout takes the bytes marked '_'
_ROW = "bcdefghijklmnopqa0.- ___vwxyz___"


def _layouts() -> np.ndarray:
    """Each of ``repr``'s layouts as the source-row bytes it takes, one column each."""
    # column (21 neg + notation) 17 + nsig - 1 for nsig significant digits, where
    # notation is decpt + 3 in fixed notation, v = 0.(digits) 10^decpt with
    # -3 <= decpt <= 16, and 20 in scientific notation
    cells = []
    for sign in ("", "-"):
        for decpt in [*range(-3, 17), None]:
            for nsig in range(1, 18):
                d = "abcdefghijklmnopq"[:nsig]
                if decpt is None:  # d.ddde+XX, with no point after a lone digit
                    text = d[0] + ("." + d[1:] if nsig > 1 else "") + "vwxyz"
                elif decpt <= 0:  # 0.000ddd
                    text = "0." + "0" * -decpt + d
                elif decpt < nsig:  # ddd.ddd
                    text = d[:decpt] + "." + d[decpt:]
                else:  # ddd00.0
                    text = d + "0" * (decpt - nsig) + ".0"
                cells.append((sign + text).ljust(_CELL))
    # each symbol to its byte's position, all cells in one pass
    where = str.maketrans({c: chr(i) for i, c in enumerate(_ROW)})
    at = np.frombuffer("".join(cells).translate(where).encode("latin-1"), np.uint8)
    return at.reshape(-1, _CELL).T.astype(np.intp)


_LAYOUT = _layouts()
# cells per ``_cell_bytes`` call: a larger chunk spends less per NumPy call but
# holds more temporaries
_FLOAT_CHUNK = 4096


def _fill_g(ks) -> None:
    """g(k) = g1 2^63 + g0 = floor(10^-k 2^r) + 1 in [2^125, 2^126], r = 125 - floor(-k log2 10)."""
    for k in ks:
        r = 125 - ((-k * 913_124_641_741) >> 38)
        g = 1 + ((10**-k << r if r >= 0 else 10**-k >> -r) if k <= 0 else (1 << r) // 10**k)
        g1, g0 = g >> 63, g & (2**63 - 1)
        _G[:, k - _K_MIN] = g1, g1 & (2**32 - 1), g1 >> 32, g0 & (2**32 - 1), g0 >> 32
        _G_SET[k - _K_MIN] = True


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """Top 64 bits of the 128-bit product of a_hi 2^32 + a_lo and b_hi 2^32 + b_lo."""
    mid = a_lo * b_hi + ((a_lo * b_lo) >> _U(32))
    low = (mid & _M32) + a_hi * b_lo
    return a_hi * b_hi + (mid >> _U(32)) + (low >> _U(32))


def _rop(g, cp):
    """g cp 2^-127 rounded to odd (g given as its ``_G`` rows), computed as in the
    paper's reference implementation."""
    g1, g1_lo, g1_hi, g0_lo, g0_hi = g
    cp_lo, cp_hi = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_lo, g0_hi, cp_lo, cp_hi)
    return (_mulhi(g1_lo, g1_hi, cp_lo, cp_hi) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest_digits(bits):
    """Digits d and exponent k of the shortest decimal d 10^k nearest each finite
    normal double (given by its bits, sign ignored) among those reading back to it.

    d may end in zeros and has 16 or 17 digits: c <= d 10^k / 2^q < 10 c.
    """
    bq = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    t = bits & _U(2**52 - 1)
    c = t | _U(2**52)
    q = bq - 1075
    irregular = (t == 0) & (bq != 1)
    # floor(log10(2^q)), or floor(log10(3/4 2^q)) when the lower half-interval is 1/4
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(_U)
    col = k - _K_MIN
    missing = ~_G_SET[col]
    if missing.any():
        _fill_g(set(k[missing].tolist()))
    # v and the interval's ends, times 4 and scaled by 10^-k, all three in one pass
    cb = c << _U(2)
    cp = np.empty((3, bits.size), _U)
    cp[0], cp[1], cp[2] = cb, cb - _U(2) + irregular, cb + _U(2)
    cp <<= h
    vb, vbl, vbr = _rop(np.take(_G, col, axis=1), cp)
    odd = c & _U(1)  # an odd c does not read back from the interval's ends
    vbl += odd
    vbr -= odd
    # the one multiple of 10^(k+1) inside the interval, if any, is the shortest;
    # else s or s + 1 (times 10^k): the one inside it or, if both are, the one
    # nearer v, the even one on a tie
    s = vb >> _U(2)
    s10 = s // _U(10) * _U(10)
    s4, s40 = s << _U(2), s10 << _U(2)
    upin, wpin = vbl <= s40, s40 + _U(40) <= vbr
    uin, win = vbl <= s4, s4 + _U(4) <= vbr
    up = win & (~uin | (vb + (s & _U(1)) > s4 + _U(2)))
    d = np.where(upin != wpin, s10 + _U(10) * wpin, s + up)
    return d, k


def _ascii8(v):
    """Each v < 10^8 as eight ASCII digits in one word, the first in the low byte,
    and the number of bytes up to its last non-zero digit."""
    hi = (v * _U(109_951_163)) >> _U(40)  # v // 10^4
    v = hi | ((v - hi * _U(10_000)) << _U(32))  # two 4-digit lanes
    hi = ((v * _U(10_486)) >> _U(20)) & _U(0x7F_0000_007F)  # // 100 in each lane
    v = hi | ((v - hi * _U(100)) << _U(16))  # four 2-digit lanes
    hi = ((v * _U(103)) >> _U(10)) & _U(0x000F_000F_000F_000F)  # // 10 in each lane
    v = hi | ((v - hi * _U(10)) << _U(8))  # eight digits
    nonzero = (v + _U(0x7F7F_7F7F_7F7F_7F7F)) & _U(0x8080_8080_8080_8080)
    return v | _U(0x3030_3030_3030_3030), np.frexp(nonzero.astype(float))[1] >> 3


def _cell_bytes(bits):
    """``repr`` of each finite non-zero normal double, given by its bits, as NUL-padded
    ``_CELL``-byte rows: one gather from each value's source row through its layout."""
    d, k = _shortest_digits(bits)
    short = d < _U(10**16)
    decpt = k + 17 - short  # v = 0.(digits) 10^decpt
    d *= _U(1) + _U(9) * short  # seventeen digits, the first non-zero
    (lo, hi), nbytes = _ascii8(np.stack((d // _U(10**8), d)) % _U(10**8))  # digits 2-17
    nsig = np.where(nbytes[1] > 0, 9 + nbytes[1], 1 + nbytes[0])
    tail = np.take(_exponent_words(), decpt - _DECPT_MIN)
    row = np.stack((lo, hi, d // _U(10**16) | _U(0x2D_2E_30_30), tail), axis=1)  # see _ROW
    notation = np.where((decpt < -3) | (decpt > 16), 20, decpt + 3)
    at = _LAYOUT[:, ((bits >> _U(63)).astype(np.intp) * 21 + notation) * 17 + nsig - 1]
    at += 32 * np.arange(bits.size)  # in place: a second index array doubles the cost
    return row.view(np.uint8).reshape(-1)[at].T


_DECPT_MIN = -307  # 0.(digits) 10^decpt of a normal double has -307 <= decpt <= 309


@functools.cache
def _exponent_words() -> np.ndarray:
    """'e', the sign and two or three digits of decpt - 1, for each decpt from _DECPT_MIN."""
    e = np.arange(_DECPT_MIN - 1, 309)
    size = np.abs(e).astype(_U)
    tens = size // _U(10)
    digits = (size // _U(100)) | ((tens % _U(10)) << _U(8)) | ((size % _U(10)) << _U(16))
    digits = (digits | _U(0x30_3030)) >> (_U(8) * (size < _U(100)))
    words = (_U(0x2B65) + _U(0x200) * (e < 0)) | (digits << _U(16))
    words.flags.writeable = False
    return words


def _float_cells(x) -> np.ndarray:
    """``repr(float(v))`` of each value of ``x`` as a NUL-padded row of ``_CELL`` bytes.

    The digits are Schubfach's (see ``_shortest_digits``) and the layout is
    ``repr``'s: fixed notation for 1e-4 <= |v| < 1e16, else d.ddde+XX with at
    least two exponent digits.  Zeros are written whole; NaN, infinities and
    subnormals take ``repr``.  Rows go through ``_cell_bytes`` ``_FLOAT_CHUNK``
    at a time, which bounds the temporaries.
    """
    x = np.asarray(x, dtype=float).ravel()
    bits = x.view(_U)
    exponent = (bits >> _U(52)) & _U(0x7FF)
    zero = (bits << _U(1)) == _U(0)
    odd = (exponent == _U(0x7FF)) | ((exponent == _U(0)) & ~zero)
    normal = np.where(odd | zero, _U(0x3FF0_0000_0000_0000), bits)  # 1.0 in their place
    words = np.empty((x.size, 3), "<u8")
    cells = words.view(np.uint8)
    for lo in range(0, x.size, _FLOAT_CHUNK):
        cells[lo : lo + _FLOAT_CHUNK] = _cell_bytes(normal[lo : lo + _FLOAT_CHUNK])
    words[zero] = [int.from_bytes(b"0.0", "little"), 0, 0]
    words[zero & (bits >= _U(2**63))] = [int.from_bytes(b"-0.0", "little"), 0, 0]
    for i in np.flatnonzero(odd).tolist():
        text = repr(float(x[i])).encode()
        cells[i] = 0
        cells[i, : len(text)] = np.frombuffer(text, np.uint8)
    return cells


_BLOCK_ROWS = 4096


def _csv(table) -> list:
    """One CSV body of ``table``, ``{name: values}`` with equal-length values:
    the line of names, then one chunk per block of rows.

    Rows go ``_BLOCK_ROWS`` at a time: one ``_float_cells`` call formats the
    block of every column, each cell ``repr(float(x))``.  The block is joined
    with ``,`` and ``\\n`` and its NUL padding dropped in one pass over its
    bytes, the chunk that goes to the file as it is.
    """
    columns = list(table.values())
    body = [_text([",".join(table)])]
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        blocks = np.concatenate([col[lo : lo + _BLOCK_ROWS] for col in columns])
        cells = _float_cells(blocks).reshape(len(columns), -1, _CELL)
        text = np.empty((cells.shape[1], len(columns), _CELL + 1), np.uint8)
        for j, col in enumerate(cells):
            text[:, j, :_CELL] = col
        text[:, :, _CELL] = ord(",")
        text[:, -1, _CELL] = ord("\n")
        body.append(text.tobytes().translate(None, b"\0"))
    return body


def _interferometer(cfg: RunConfig, delay: float, pump_phase: float = 0.0) -> InterferometerConfig:
    """The run's interferometer at ``delay`` and ``pump_phase``."""
    return InterferometerConfig(
        comb=cfg.comb,
        delay=delay,
        resolution_time=cfg["detector.resolution_time"],
        pump_phase=pump_phase,
        mode_match=cfg["interferometer.mode_match"],
    )


def cmd_correlation(cfg: RunConfig, threads: int) -> dict:
    grid = TimeGrid(cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.points"])
    table = {"tau_s": grid.values, "gamma2": gamma2_mode_locked(cfg.comb, grid).samples}
    if cfg["scan.include_coherence"]:
        table["coherence_abs"] = np.abs(gamma1_coherence(cfg.comb, grid).samples)
    return {"correlation.csv": _csv(table)}


def cmd_homscan(cfg: RunConfig, threads: int) -> dict:
    delays = np.linspace(cfg["scan.delay_min"], cfg["scan.delay_max"], cfg["scan.points"])
    icfg = _interferometer(cfg, cfg["scan.delay_min"], cfg["interferometer.pump_phase"])
    scan = delay_scan(icfg, delays, dithered=cfg["scan.dithered"])
    table = {"delay_s": scan.abscissa}
    if cfg["output.delay_to_mm"] != 0.0:
        table["position_mm"] = scan.abscissa * cfg["output.delay_to_mm"]
    table.update(coincidence=scan.coincidence, singles_1=scan.singles_1, singles_2=scan.singles_2)
    return {"homscan.csv": _csv(table)}


def cmd_fringe(cfg: RunConfig, threads: int) -> dict:
    phases = np.linspace(cfg["scan.phase_min"], cfg["scan.phase_max"], cfg["scan.points"])
    scan = phase_fringe_scan(_interferometer(cfg, cfg["scan.delay"]), phases)
    results = {
        "singles_visibility": scan.metadata["singles_visibility"],
        "overlap_visibility": scan.metadata["visibility_v"],
        **{f"fit_visibility_{c}": v for c, v in scan.metadata["fitted_visibility"].items()},
    }
    table = {"phase_rad": scan.abscissa, "coincidence": scan.coincidence}
    table.update(singles_1=scan.singles_1, singles_2=scan.singles_2)
    return {"fringe.csv": [_text(value_lines(results, "# result.")), *_csv(table)]}


def cmd_engineer(cfg: RunConfig, threads: int) -> dict:
    shape, halfwidth = cfg["engineering.wideband_shape"], cfg["engineering.wideband_halfwidth"]
    if halfwidth > 0.0:
        template = SpectralAmplitude(shape=shape, halfwidth=halfwidth)
    else:
        template = matched_wideband(cfg.comb, shape)
    grid = TimeGrid(cfg["scan.tau_min"], cfg["scan.tau_max"], cfg["scan.points"])
    target, optimize = cfg["engineering.target_peak"], cfg["engineering.optimize_width"]
    solution = solve_excision(cfg.comb, template, target, grid, optimize_width=optimize)
    before = gamma2_mode_locked(cfg.comb, grid)
    wideband = WidebandState(solution.wideband, solution.delay)
    after = combined_gamma2(cfg.comb, wideband, solution.eta, solution.zeta, grid)
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
    return {
        "engineer_before.csv": _csv({"tau_s": grid.values, "gamma2": before.samples}),
        "engineer_after.csv": _csv({"tau_s": grid.values, "gamma2": after.samples}),
        "engineer_solution.txt": [_text([""] + value_lines(results))],
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
        "mc_histogram.csv": _csv({"bin_center_s": hist.centers, "count": hist.counts}),
        "mc_summary.txt": [_text([""] + value_lines(counts))],
    }


_DISPATCH = {
    "correlation": cmd_correlation,
    "homscan": cmd_homscan,
    "fringe": cmd_fringe,
    "engineer": cmd_engineer,
    "mc": cmd_mc,
}


def _write_run(out: Path, header: bytes, files: dict) -> None:
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
            _write_atomic(stage / name, [header, *body])
        for name in files:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


_USAGE = (
    f"usage: twophoton <{'|'.join(COMMANDS)}>\n"
    "                 --config <path> [--out <dir>] [--seed <u64>] [--threads <n>]\n"
    "       twophoton -h | --help\n"
    "  --config   the run's configuration file (required)\n"
    "  --out      directory the files are written to (default .)\n"
    "  --seed     overrides the config's seed\n"
    "  --threads  Monte Carlo threads (default 1, at most one per CPU); never changes the output"
)
_LONGS = ["config=", "out=", "seed=", "threads=", "help"]


def _getopt(argv) -> tuple:
    """``getopt.gnu_getopt(argv, "h", _LONGS)``, whatever the environment holds.

    ``gnu_getopt`` stops at the command when ``POSIXLY_CORRECT`` is set;
    here options may always follow it.  ``--`` ends the options, so it is
    never an option's separate value (as with argparse).
    """
    argv = list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    opts, args, rest = [], [], argv[:cut]
    while rest:  # getopt.getopt stops at each operand: take it and go on
        found, rest = getopt.getopt(rest, "h", _LONGS)
        opts += found
        args, rest = args + rest[:1], rest[1:]
    return opts, args + argv[cut + 1 :]


def _parse_args(argv) -> tuple | None:
    """(command, config, out, seed, threads) from ``argv``, or None for ``-h``/``--help``.

    A malformed command line raises ``getopt.GetoptError`` saying what is
    wrong.  A repeated option takes its last value.  ``--threads`` above the
    CPU count is lowered to it: threads past one per CPU add memory, not speed.
    """
    opts, args = _getopt(argv)
    given = dict(opts)
    if "-h" in given or "--help" in given:
        return None
    if len(args) != 1 or args[0] not in COMMANDS:
        got = " ".join(args) or "none"
        raise getopt.GetoptError(f"expected one command of {', '.join(COMMANDS)}, got {got}")
    if "--config" not in given:
        raise getopt.GetoptError("--config is required")
    numbers = {}
    for name in ("--seed", "--threads"):
        if name in given:
            try:
                numbers[name] = int(given[name])
            except ValueError:
                raise getopt.GetoptError(f"{name} takes an integer, got {given[name]!r}") from None
    threads = numbers.get("--threads", 1)
    if threads < 1:
        raise getopt.GetoptError("--threads must be an integer >= 1")
    threads = min(threads, os.cpu_count() or 1)
    return args[0], given["--config"], given.get("--out", "."), numbers.get("--seed"), threads


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except getopt.GetoptError as exc:
        print(f"{_USAGE}\ntwophoton: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(_USAGE)
        return 0
    command, config, out_arg, seed, threads = args
    try:
        cfg = resolve_config(parse_config_file(config), command, seed_override=seed)
    except ConfigError as exc:
        print(f"twophoton: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"twophoton: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        files = _DISPATCH[command](cfg, threads)
    except NumericsError as exc:
        print(f"twophoton: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    header = _text([f"# twophoton {cfg.command}"] + cfg.echo_lines())
    out = Path(out_arg)
    try:
        _write_run(out, header, files)
    except OSError as exc:
        print(f"twophoton: cannot write --out {out_arg}: {exc}", file=sys.stderr)
        return 2
    for name in files:
        print(out / name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
