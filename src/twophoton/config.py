"""Run configuration: flat ``key = value`` files with dotted section keys.

The format is deliberately diff-friendly: one key per line, ``#`` comments,
no nesting.  Frequencies are angular (rad/s) and times are seconds unless
``units.frequency = ordinary`` is set, in which case every frequency-like
input is multiplied by 2*pi on ingestion.  Scan bounds may be given in
seconds or in units of the cavity round trip (``*_tr`` keys).

Every output file starts with the fully resolved configuration echoed as
``# key = value`` lines; feeding those lines back reproduces the run
byte for byte (same seed).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .correlation import MAX_QUAD_POINTS
from .errors import ConfigError
from .montecarlo import MAX_EVENTS, histogram_edge_count
from .spectral import ModeComb, Shape, SpectralAmplitude

_TWO_PI = 2.0 * math.pi

# echo rules: every resolved value, only values off their default, or none
ALWAYS, CHANGED, NEVER = "always", "changed", "never"


@dataclass(frozen=True)
class _Type:
    expected: str                  # what the error message says a value must be
    parse: Callable[[str], Any]    # raises ValueError on text it cannot read


@dataclass(frozen=True)
class _Rule:
    text: str
    holds: Callable[[Any], bool]


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _units(text: str) -> str:
    if text not in ("angular", "ordinary"):
        raise ValueError(text)
    return text


INT = _Type("an integer", int)
FLOAT = _Type("a finite number", float)
FLOATS = _Type(
    "comma-separated finite numbers",
    lambda text: tuple(float(p) for p in text.split(",") if p.strip() != ""),
)
BOOL = _Type("true or false", _bool)
SHAPE = _Type("one of " + ", ".join(s.value for s in Shape), Shape)
UNITS = _Type("angular or ordinary", _units)

NONNEGATIVE = _Rule(">= 0", lambda v: v >= 0)
POSITIVE = _Rule("> 0", lambda v: v > 0)
UNIT_INTERVAL = _Rule("in (0, 1]", lambda v: 0.0 < v <= 1.0)
SCAN_POINTS = _Rule(f"in [2, {MAX_QUAD_POINTS}]", lambda v: 2 <= v <= MAX_QUAD_POINTS)
N_EVENTS = _Rule(f"in [0, {MAX_EVENTS}]", lambda v: 0 <= v <= MAX_EVENTS)
# 2N+1 <= MAX_QUAD_POINTS: no more modes than the largest scan has points
N_SIDE_MODES = _Rule(f"in [0, {MAX_QUAD_POINTS // 2}]", lambda v: 0 <= v <= MAX_QUAD_POINTS // 2)


@dataclass(frozen=True)
class Key:
    """One config key: how it is read, checked and echoed.

    A ``None`` default means the key is optional or derived from other keys
    by ``resolve_config``.  ``rule`` is checked on the value as read, before
    any other key is derived from it.
    """

    name: str
    type: _Type
    default: Any = None
    frequency: bool = False     # angular; x 2*pi under units.frequency = ordinary
    echo: str = ALWAYS
    rule: _Rule | None = None

    def read(self, text: str | None, ordinary: bool):
        if text is None:
            return self.default
        try:
            value = self.type.parse(text)
            if self.frequency and ordinary:
                value *= _TWO_PI
            if isinstance(value, (float, tuple)) and not np.all(np.isfinite(value)):
                raise ValueError(text)
        except ValueError:
            raise ConfigError(f"{self.name}: expected {self.type.expected}, got {text!r}") from None
        if self.rule is not None and not self.rule.holds(value):
            raise ConfigError(f"{self.name}: must be {self.rule.text}, got {_fmt(value)}")
        return value


_COMMON = (
    Key("seed", INT, 0, rule=NONNEGATIVE),
    Key("units.frequency", UNITS, "angular"),
    Key("comb.n_side_modes", INT, 10, rule=N_SIDE_MODES),
    Key("comb.round_trip_time", FLOAT, 1e-12, echo=NEVER, rule=POSITIVE),
    Key("comb.mode_spacing", FLOAT, frequency=True, rule=POSITIVE),
    Key("comb.pump_frequency", FLOAT, 3.54e15, frequency=True, rule=POSITIVE),
    Key("comb.linewidth", FLOAT, frequency=True, rule=POSITIVE),
    Key("comb.shape", SHAPE, Shape.LORENTZIAN),
    Key("comb.center", FLOAT, 0.0, frequency=True, echo=CHANGED),
    Key("comb.mode_phases", FLOATS, (), echo=CHANGED),
    Key("comb.phase_seed", INT, echo=NEVER, rule=NONNEGATIVE),
)


def _table(*rows: Key) -> dict:
    return {key.name: key for key in _COMMON + rows}


def _tau_keys(default_min_tr, default_max_tr):
    return (
        Key("scan.tau_min_tr", FLOAT, default_min_tr, echo=NEVER),
        Key("scan.tau_min", FLOAT),
        Key("scan.tau_max_tr", FLOAT, default_max_tr, echo=NEVER),
        Key("scan.tau_max", FLOAT),
    )


def _scan_points(default: int) -> Key:
    return Key("scan.points", INT, default, rule=SCAN_POINTS)


_RESOLUTION_TIME = Key("detector.resolution_time", FLOAT, 1e-8, rule=POSITIVE)
_MODE_MATCH = Key("interferometer.mode_match", FLOAT, 1.0, rule=UNIT_INTERVAL)

#: per command, every key it accepts, in the order of the header echo
KEY_TABLES = {
    "correlation": _table(
        _scan_points(4096),
        *_tau_keys(-2.0, 2.0),
        Key("scan.include_coherence", BOOL, True),
    ),
    "homscan": _table(
        _RESOLUTION_TIME,
        _MODE_MATCH,
        Key("interferometer.pump_phase", FLOAT, 0.0),
        _scan_points(261),
        Key("scan.delay_min_tr", FLOAT, 0.0, echo=NEVER, rule=NONNEGATIVE),
        Key("scan.delay_min", FLOAT, rule=NONNEGATIVE),
        Key("scan.delay_max_tr", FLOAT, 1.3, echo=NEVER),
        Key("scan.delay_max", FLOAT),
        Key("scan.dithered", BOOL, True),
        Key("output.delay_to_mm", FLOAT, 0.0, echo=CHANGED),
    ),
    "fringe": _table(
        _RESOLUTION_TIME,
        _MODE_MATCH,
        _scan_points(181),
        Key("scan.delay_tr", FLOAT, 1.0, echo=NEVER, rule=NONNEGATIVE),
        Key("scan.delay", FLOAT, rule=NONNEGATIVE),
        Key("scan.phase_min", FLOAT, 0.0),
        Key("scan.phase_max", FLOAT, 4.0 * math.pi),
    ),
    "engineer": _table(
        Key("engineering.target_peak", INT, 1),
        Key("engineering.wideband_shape", SHAPE, Shape.RECTANGULAR),
        # 0: width-matched to the comb
        Key("engineering.wideband_halfwidth", FLOAT, 0.0, frequency=True, rule=NONNEGATIVE),
        Key("engineering.optimize_width", BOOL, True),
        _scan_points(16384),
        *_tau_keys(None, None),  # default: 1.5 round trips beyond the target peak
    ),
    "mc": _table(
        replace(_RESOLUTION_TIME, rule=NONNEGATIVE),  # 0 is an ideal detector
        Key("detector.coincidence_window", FLOAT, 1e-8, rule=POSITIVE),
        Key("detector.efficiency", FLOAT, 1.0, rule=UNIT_INTERVAL),
        Key("detector.dark_rate", FLOAT, 0.0, rule=NONNEGATIVE),
        _scan_points(131073),
        *_tau_keys(-2.0, 2.0),
        Key("mc.n_events", INT, 100000, rule=N_EVENTS),
        Key("mc.bin_width", FLOAT, rule=POSITIVE),
        Key("mc.range_min", FLOAT),
        Key("mc.range_max", FLOAT),
        Key("mc.duration", FLOAT, 0.0, rule=NONNEGATIVE),  # 0: derived from the event count
    ),
}

COMMANDS = tuple(KEY_TABLES)

_KEY_RE = re.compile(r"^[a-z][a-z0-9_.]*$")


def parse_config_text(text: str) -> dict:
    """Parse the flat grammar into {key: value-string}; duplicates are errors."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: malformed key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_config_text(text)


def config_from_output_header(path) -> dict:
    """Recover the resolved configuration echoed at the top of an output file."""
    pattern = re.compile(r"^# ([a-z][a-z0-9_.]*) = (.*)$")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            m = pattern.match(line.rstrip("\n"))
            if m and not m.group(1).startswith("result."):
                out[m.group(1)] = m.group(2)
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(map(_fmt, value))
    if isinstance(value, Shape):
        return value.value
    return str(value)


def value_lines(values: dict, prefix: str = "") -> list:
    """One ``<prefix>name = value`` line per entry, in order; a float as ``repr(float(x))``."""
    return [f"{prefix}{name} = {_fmt(value)}" for name, value in values.items()]


@dataclass
class RunConfig:
    """Fully resolved run parameters for one CLI invocation.

    ``values`` holds every key of the command's table that is not folded
    into another one, in table order; ``cfg["scan.points"]`` reads one.
    """

    command: str
    comb: ModeComb
    values: dict

    def __getitem__(self, name: str):
        return self.values[name]

    def echo_lines(self) -> list:
        table = KEY_TABLES[self.command]
        echoed = {
            name: value
            for name, value in self.values.items()
            if table[name].echo == ALWAYS or value != table[name].default
        }
        return value_lines({"run.command": self.command, **echoed}, "# ")


def _finite(value: float, what: str) -> float:
    """``value``, which the run derives as ``what``; an overflow is a ConfigError naming it."""
    if not math.isfinite(value):
        raise ConfigError(f"{what} overflows to {value!r}")
    return value


def _one_of(raw: dict, key: str, alternative: str) -> None:
    if key in raw and alternative in raw:
        raise ConfigError(f"give {key} or {alternative}, not both")


def resolve_config(raw: dict, command: str, seed_override: int | None = None) -> RunConfig:
    """Validate and resolve a parsed configuration for one command."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    table = KEY_TABLES[command]
    for key in raw:
        if key not in table and key != "run.command":
            raise ConfigError(f"key {key!r} is not valid for command {command!r}")
    claimed_command = raw.get("run.command", command)
    if claimed_command != command:
        raise ConfigError(f"config was written for command {claimed_command!r}, not {command!r}")
    values = {}
    for name, key in table.items():
        values[name] = key.read(raw.get(name), values.get("units.frequency") == "ordinary")
    if seed_override is not None:
        values["seed"] = table["seed"].read(str(seed_override), False)
    values["units.frequency"] = "angular"  # every frequency is now angular

    _one_of(raw, "comb.mode_spacing", "comb.round_trip_time")
    if values["comb.mode_spacing"] is None:
        values["comb.mode_spacing"] = _TWO_PI / values["comb.round_trip_time"]
    spacing = values["comb.mode_spacing"]
    if not (math.isfinite(spacing) and math.isfinite(_TWO_PI / spacing)):
        raise ConfigError(
            "comb.mode_spacing and comb.round_trip_time = 2 pi/comb.mode_spacing"
            f" must both be finite, got comb.mode_spacing = {spacing!r}"
        )
    if values["comb.linewidth"] is None:
        values["comb.linewidth"] = 0.01 * spacing
    if not 0.0 < values["comb.linewidth"] < spacing / 2:
        raise ConfigError("comb.linewidth must lie in (0, comb.mode_spacing/2): modes not resolved")
    _one_of(raw, "comb.mode_phases", "comb.phase_seed")
    n_modes = 2 * values["comb.n_side_modes"] + 1
    if len(values["comb.mode_phases"]) not in (0, n_modes):
        raise ConfigError(f"comb.mode_phases takes 2 comb.n_side_modes + 1 = {n_modes} phases")
    if values["comb.phase_seed"] is not None:
        rng = np.random.default_rng(values["comb.phase_seed"])
        values["comb.mode_phases"] = tuple(float(p) for p in rng.uniform(0.0, _TWO_PI, n_modes))
    try:
        comb = ModeComb(
            n_side_modes=values["comb.n_side_modes"],
            mode_spacing=values["comb.mode_spacing"],
            pump_frequency=values["comb.pump_frequency"],
            single_mode=SpectralAmplitude(
                shape=values["comb.shape"],
                halfwidth=values["comb.linewidth"],
                center=values["comb.center"],
            ),
            mode_phases=values["comb.mode_phases"],
        )
    except ValueError as exc:
        raise ConfigError(f"comb: {exc}") from None
    values["comb.mode_phases"] = () if comb.is_locked else comb.mode_phases
    t_r = comb.round_trip_time

    if command == "engineer":
        span = abs(values["engineering.target_peak"]) + 1.5
        for name, sign in (("scan.tau_min_tr", -1.0), ("scan.tau_max_tr", 1.0)):
            if values[name] is None:
                values[name] = sign * span
    for name in [name for name in table if name + "_tr" in table]:
        _one_of(raw, name, name + "_tr")
        if values[name] is None:
            values[name] = _finite(values[name + "_tr"] * t_r, f"{name}_tr x comb.round_trip_time")
    if command == "mc":
        if values["mc.bin_width"] is None:
            values["mc.bin_width"] = t_r / 100.0
        pad = values["detector.resolution_time"]
        if values["mc.range_min"] is None:
            values["mc.range_min"] = values["scan.tau_min"] - pad
        if values["mc.range_max"] is None:
            values["mc.range_max"] = values["scan.tau_max"] + pad
        width, span = values["mc.bin_width"], (values["mc.range_min"], values["mc.range_max"])
        if histogram_edge_count(width, span) > MAX_QUAD_POINTS:
            raise ConfigError(f"mc.bin_width {width!r}: over {MAX_QUAD_POINTS} histogram edges")
    for low in [name for name in table if name.endswith("_min")]:
        high = low.removesuffix("_min") + "_max"
        if not values[high] > values[low]:
            raise ConfigError(f"{high} must exceed {low}, got {values[low]} .. {values[high]}")
        _finite(values[high] - values[low], f"{high} - {low}")
    if command == "homscan":
        _finite(values["scan.delay_max"] * values["output.delay_to_mm"],
                "position_mm = scan.delay_max x output.delay_to_mm")
    if command == "engineer" and values["engineering.optimize_width"]:
        _finite(4.0 * values["engineering.wideband_halfwidth"],
                "4 x engineering.wideband_halfwidth (the widest width tried)")

    return RunConfig(
        command=command,
        comb=comb,
        values={name: values[name] for name, key in table.items() if key.echo != NEVER},
    )
