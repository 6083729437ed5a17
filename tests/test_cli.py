import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twophoton.cli import main
from twophoton.config import (
    COMMANDS,
    config_from_output_header,
    parse_config_file,
    parse_config_text,
    resolve_config,
)
from twophoton.correlation import MAX_QUAD_POINTS
from twophoton.errors import ConfigError
from twophoton.montecarlo import MAX_EVENTS, Detections, histogram_delays

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

BASE = """
# small comb, synthetic units (round trip = 1 s)
comb.n_side_modes = 5
comb.round_trip_time = 1.0
comb.pump_frequency = 5000.0
comb.linewidth = {linewidth}
seed = 42
"""

# resolved headers of the bundled configs; every output file starts with these
BUNDLED_ECHO = {
    "comb_correlation.cfg": (
        "correlation",
        [
            "# run.command = correlation",
            "# seed = 1",
            "# units.frequency = angular",
            "# comb.n_side_modes = 10",
            "# comb.mode_spacing = 6283185307179.586",
            "# comb.pump_frequency = 3540000000000000.0",
            "# comb.linewidth = 62832000000.0",
            "# comb.shape = lorentzian",
            "# scan.points = 4096",
            "# scan.tau_min = -2e-12",
            "# scan.tau_max = 2e-12",
            "# scan.include_coherence = true",
        ],
    ),
    "excise_peak.cfg": (
        "engineer",
        [
            "# run.command = engineer",
            "# seed = 1",
            "# units.frequency = angular",
            "# comb.n_side_modes = 10",
            "# comb.mode_spacing = 6283185307179.586",
            "# comb.pump_frequency = 3540000000000000.0",
            "# comb.linewidth = 62832000000.0",
            "# comb.shape = lorentzian",
            "# engineering.target_peak = 1",
            "# engineering.wideband_shape = rectangular",
            "# engineering.wideband_halfwidth = 0.0",
            "# engineering.optimize_width = true",
            "# scan.points = 16384",
            "# scan.tau_min = -2.5e-12",
            "# scan.tau_max = 2.5e-12",
        ],
    ),
    "fringe_full_trip.cfg": (
        "fringe",
        [
            "# run.command = fringe",
            "# seed = 1",
            "# units.frequency = angular",
            "# comb.n_side_modes = 10",
            "# comb.mode_spacing = 6283185307179.586",
            "# comb.pump_frequency = 3540000000000000.0",
            "# comb.linewidth = 62832000000.0",
            "# comb.shape = lorentzian",
            "# detector.resolution_time = 1e-08",
            "# interferometer.mode_match = 1.0",
            "# scan.points = 241",
            "# scan.delay = 1e-12",
            "# scan.phase_min = 0.0",
            "# scan.phase_max = 12.566370614359172",
        ],
    ),
    "fringe_half_trip.cfg": (
        "fringe",
        [
            "# run.command = fringe",
            "# seed = 1",
            "# units.frequency = angular",
            "# comb.n_side_modes = 60",
            "# comb.mode_spacing = 6283185307179.586",
            "# comb.pump_frequency = 3540000000000000.0",
            "# comb.linewidth = 125660000000.0",
            "# comb.shape = lorentzian",
            "# detector.resolution_time = 1e-08",
            "# interferometer.mode_match = 1.0",
            "# scan.points = 241",
            "# scan.delay = 5e-13",
            "# scan.phase_min = 0.0",
            "# scan.phase_max = 12.566370614359172",
        ],
    ),
    "hom_delay_scan.cfg": (
        "homscan",
        [
            "# run.command = homscan",
            "# seed = 1",
            "# units.frequency = angular",
            "# comb.n_side_modes = 10",
            "# comb.mode_spacing = 6283185307179.586",
            "# comb.pump_frequency = 3540000000000000.0",
            "# comb.linewidth = 62832000000.0",
            "# comb.shape = lorentzian",
            "# detector.resolution_time = 1e-08",
            "# interferometer.mode_match = 1.0",
            "# interferometer.pump_phase = 0.0",
            "# scan.points = 261",
            "# scan.delay_min = 0.0",
            "# scan.delay_max = 1.3000000000000001e-12",
            "# scan.dithered = true",
            "# output.delay_to_mm = 11500000000000.0",
        ],
    ),
    "mc_fast_detector.cfg": (
        "mc",
        [
            "# run.command = mc",
            "# seed = 1",
            "# units.frequency = angular",
            "# comb.n_side_modes = 10",
            "# comb.mode_spacing = 6283185307179.586",
            "# comb.pump_frequency = 3540000000000000.0",
            "# comb.linewidth = 62832000000.0",
            "# comb.shape = lorentzian",
            "# detector.resolution_time = 0.0",
            "# detector.coincidence_window = 1e-08",
            "# detector.efficiency = 1.0",
            "# detector.dark_rate = 0.0",
            "# scan.points = 131073",
            "# scan.tau_min = -2e-12",
            "# scan.tau_max = 2e-12",
            "# mc.n_events = 200000",
            "# mc.bin_width = 1e-14",
            "# mc.range_min = -2e-12",
            "# mc.range_max = 2e-12",
            "# mc.duration = 0.02",
        ],
    ),
    "mc_slow_detector.cfg": (
        "mc",
        [
            "# run.command = mc",
            "# seed = 1",
            "# units.frequency = angular",
            "# comb.n_side_modes = 10",
            "# comb.mode_spacing = 6283185307179.586",
            "# comb.pump_frequency = 3540000000000000.0",
            "# comb.linewidth = 62832000000.0",
            "# comb.shape = lorentzian",
            "# detector.resolution_time = 1e-11",
            "# detector.coincidence_window = 1e-08",
            "# detector.efficiency = 1.0",
            "# detector.dark_rate = 0.0",
            "# scan.points = 131073",
            "# scan.tau_min = -2e-11",
            "# scan.tau_max = 2e-11",
            "# mc.n_events = 200000",
            "# mc.bin_width = 5e-13",
            "# mc.range_min = -3.2e-11",
            "# mc.range_max = 3.2e-11",
            "# mc.duration = 0.02",
        ],
    ),
}

# values the key table refuses (command, config body); the first key is the culprit
REJECTED = [
    ("fringe", "units.frequency = hertz"),
    ("fringe", "detector.resolution_time = inf"),
    ("fringe", "detector.resolution_time = nan"),
    ("fringe", "detector.resolution_time = 0.0"),
    ("homscan", "detector.resolution_time = 0.0"),
    ("mc", "detector.resolution_time = inf"),
    ("correlation", "comb.mode_phases = " + "0.0," * 20 + "nan"),
    ("correlation", "comb.mode_phases = -inf" + ",0.0" * 20),
    ("correlation", "comb.round_trip_time = 0.0"),
    ("correlation", "comb.phase_seed = -1"),
    ("correlation", "comb.n_side_modes = -1\ncomb.phase_seed = 1"),
    ("correlation", "comb.n_side_modes = 2097153"),
    ("correlation", "comb.mode_spacing = 0.0"),
    ("correlation", "comb.pump_frequency = -1.0"),
    ("correlation", "comb.mode_phases = 0,0,0"),
    ("correlation", "comb.linewidth = 3.15\ncomb.round_trip_time = 1.0"),
    ("homscan", "comb.linewidth = 0.0"),
    ("mc", "detector.coincidence_window = 0.0"),
    ("mc", "detector.efficiency = 0.0"),
    ("mc", "detector.efficiency = 1.5"),
    ("mc", "detector.dark_rate = -1.0"),
]


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def read_rows(path):
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.strip().split(","))
    header, data = rows[0], rows[1:]
    cols = {name: np.array([float(r[i]) for r in data]) for i, name in enumerate(header)}
    return cols


class TestCorrelationCommand:
    def test_comb_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.format(linewidth="0.0628")
            + "scan.points = 4096\nscan.tau_min_tr = -2.0\nscan.tau_max_tr = 2.0\n",
        )
        assert main(["correlation", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "correlation.csv")
        assert set(cols) == {"tau_s", "gamma2", "coherence_abs"}
        peak = cols["gamma2"].max()
        i0 = np.argmin(np.abs(cols["tau_s"]))
        # 4096 points straddle tau = 0 by half a step
        assert cols["gamma2"][i0] == pytest.approx(121.0, rel=2e-3)
        # revivals at +-t_r within a grid step
        step = cols["tau_s"][1] - cols["tau_s"][0]
        for target in (-1.0, 1.0):
            window = np.abs(cols["tau_s"] - target) < 0.1
            arg = cols["tau_s"][window][np.argmax(cols["gamma2"][window])]
            assert abs(arg - target) <= step + 1e-12
        assert peak < 122.0

    def test_single_mode_single_peak(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "comb.n_side_modes = 0\ncomb.round_trip_time = 1.0\n"
            "comb.pump_frequency = 5000.0\ncomb.linewidth = 0.0628\n"
            "scan.points = 1024\n",
        )
        assert main(["correlation", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "correlation.csv")
        # one global maximum at zero, monotone decay outward
        assert abs(cols["tau_s"][np.argmax(cols["gamma2"])]) < 2e-3

    def test_unresolved_comb_is_a_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.format(linewidth="3.15"))
        assert main(["correlation", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "resolved" in capsys.readouterr().err

    def test_unknown_key_is_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.format(linewidth="0.0628") + "comb.bogus = 1\n")
        assert main(["correlation", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "comb.bogus" in capsys.readouterr().err

    def test_nyquist_violation_exits_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE.format(linewidth="0.0628") + "scan.points = 16\n")
        assert main(["correlation", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "GridError" in capsys.readouterr().err

    def test_vanishing_zero_delay_coherence_exits_3(self, tmp_path, capsys):
        # three modes with phases 0, 2pi/3, 4pi/3: the phased comb factor F(0) is zero
        cfg = write_cfg(
            tmp_path,
            "comb.n_side_modes = 1\ncomb.round_trip_time = 1.0\n"
            "comb.pump_frequency = 5000.0\ncomb.linewidth = 0.0628\n"
            "comb.mode_phases = 0.0, 2.0943951023931953, 4.1887902047863905\n"
            "scan.points = 1024\nscan.include_coherence = true\n",
        )
        out = tmp_path / "out"
        assert main(["correlation", "--config", str(cfg), "--out", str(out)]) == 3
        assert "zero-delay coherence vanish" in capsys.readouterr().err
        assert not (out / "correlation.csv").exists()


class TestHomscanCommand:
    def test_dithered_dips(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.format(linewidth="0.1885")
            + "detector.resolution_time = 2000.0\nscan.points = 105\n"
            + "scan.delay_min_tr = 0.0\nscan.delay_max_tr = 1.3\n"
            + "output.delay_to_mm = 149.9\n",
        )
        assert main(["homscan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "homscan.csv")
        assert "position_mm" in cols
        np.testing.assert_allclose(cols["position_mm"], cols["delay_s"] * 149.9, rtol=1e-12)
        coinc = cols["coincidence"]
        assert coinc.min() >= 0.49  # wings-normalized; the mean carries permil bias
        dip_delays = cols["delay_s"][coinc < 0.75]
        # revivals cluster at 0, t_r/2, t_r
        assert np.all(
            np.min(np.abs(dip_delays[:, None] - np.array([0.0, 0.5, 1.0])[None, :]), axis=1) < 0.05
        )

    def test_random_phase_comb_runs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.format(linewidth="0.1885")
            + "comb.phase_seed = 9\ndetector.resolution_time = 2000.0\nscan.points = 33\n",
        )
        assert main(["homscan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header = config_from_output_header(tmp_path / "homscan.csv")
        assert "comb.mode_phases" in header  # resolved phases echoed explicitly

    def test_undithered_random_phase_comb_runs(self, tmp_path):
        body = (CONFIGS / "hom_delay_scan.cfg").read_text(encoding="utf-8")
        body = body.replace("scan.points = 261", "scan.points = 14")
        body = body.replace("scan.dithered = true", "scan.dithered = false")
        cfg = write_cfg(tmp_path, body + "comb.phase_seed = 4\n")
        assert main(["homscan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "homscan.csv")
        assert cols["singles_1"].min() >= 0.0 and cols["singles_2"].min() >= 0.0


    @pytest.mark.parametrize("asymmetry", ["comb.phase_seed = 4", "comb.center = 1.0e11"])
    def test_undithered_cross_term_of_an_asymmetric_amplitude_exits_3(
        self, tmp_path, capsys, asymmetry
    ):
        # a pump phase off 2 pi Z weighs the cross term, which integrates away
        # only for an exchange-symmetric amplitude; the message names the remedies
        body = (CONFIGS / "hom_delay_scan.cfg").read_text(encoding="utf-8")
        body = body.replace("scan.points = 261", "scan.points = 5")
        body = body.replace("scan.delay_max_tr = 1.3", "scan.delay_max_tr = 0.5")
        body = body.replace("scan.dithered = true", "scan.dithered = false")
        cfg = write_cfg(tmp_path, body + f"interferometer.pump_phase = 1.1\n{asymmetry}\n")
        out = tmp_path / "out"
        assert main(["homscan", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cross term" in err and "exchange" in err and "scan.dithered = true" in err
        assert not (out / "homscan.csv").exists()


    def test_many_modes_at_a_covered_window(self, tmp_path):
        # 601 modes would need 4.9e6 Simpson nodes over the envelope support,
        # beyond the node cap; the closed mode-pair sums need no nodes
        body = (CONFIGS / "hom_delay_scan.cfg").read_text(encoding="utf-8")
        body = body.replace("comb.n_side_modes = 10", "comb.n_side_modes = 300")
        body = body.replace("scan.points = 261", "scan.points = 27")
        cfg = write_cfg(tmp_path, body)
        assert main(["homscan", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "homscan.csv")
        dips = cols["delay_s"][cols["coincidence"] < 0.75]
        np.testing.assert_allclose(dips / 1.0e-12, [0.0, 0.5, 1.0], atol=1e-9)


class TestFringeCommand:
    def test_full_round_trip_fringes(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.format(linewidth="0.0628")
            + "detector.resolution_time = 2000.0\nscan.delay_tr = 1.0\nscan.points = 81\n",
        )
        assert main(["fringe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "fringe.csv")
        np.testing.assert_allclose(cols["singles_1"] + cols["singles_2"], 2.0, atol=1e-12)
        header_results = {}
        with open(tmp_path / "fringe.csv") as fh:
            for line in fh:
                if line.startswith("# result."):
                    key, val = line[2:].split(" = ")
                    header_results[key] = float(val)
        assert header_results["result.fit_visibility_singles_1"] == pytest.approx(
            math.exp(-0.0628), rel=1e-6
        )

    def test_half_round_trip_flat_singles(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.format(linewidth="0.0628")
            + "detector.resolution_time = 2000.0\nscan.delay_tr = 0.5\nscan.points = 81\n",
        )
        assert main(["fringe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "fringe.csv")
        singles_spread = cols["singles_1"].max() - cols["singles_1"].min()
        assert singles_spread < 0.2  # small for N=5; vanishes as the comb grows
        coinc = cols["coincidence"]
        vis = (coinc.max() - coinc.min()) / (coinc.max() + coinc.min())
        assert vis > 0.5


    @pytest.mark.parametrize("phase_seed", [1, 2, 4, 5])
    def test_random_phase_comb_runs(self, tmp_path, phase_seed):
        # single-photon coherence ignores the mode phases, so the singles
        # visibility stays within [0, 1] and both singles stay nonnegative
        body = (CONFIGS / "fringe_half_trip.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, body + f"comb.phase_seed = {phase_seed}\n")
        assert main(["fringe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "fringe.csv")
        assert cols["singles_1"].min() >= 0.0 and cols["singles_2"].min() >= 0.0


class TestEngineerCommand:
    def test_solution_and_traces(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.format(linewidth="0.0628")
            + "engineering.target_peak = 1\nscan.points = 16384\n",
        )
        assert main(["engineer", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        solution = {}
        with open(tmp_path / "engineer_solution.txt") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, val = line.split(" = ")
                solution[key] = val
        assert float(solution["residual"]) < 1e-3
        assert float(solution["neighbor_retention_0"]) >= 0.9
        assert float(solution["neighbor_retention_2"]) >= 0.9
        before = read_rows(tmp_path / "engineer_before.csv")
        after = read_rows(tmp_path / "engineer_after.csv")
        near_peak = np.abs(before["tau_s"] - 1.0) < 0.25
        assert after["gamma2"][near_peak].max() < 1e-3 * before["gamma2"][near_peak].max()


class TestMcCommand:
    def mc_cfg(self, tmp_path, extra=""):
        return write_cfg(
            tmp_path,
            BASE.format(linewidth="0.0628")
            + "detector.resolution_time = 0.0\ndetector.coincidence_window = 100.0\n"
            + "scan.points = 65537\nmc.n_events = 20000\nmc.bin_width = 0.01\n"
            + "mc.range_min = -2.5\nmc.range_max = 2.5\nmc.duration = 1000.0\n"
            + extra,
        )

    def test_histogram_and_summary(self, tmp_path):
        cfg = self.mc_cfg(tmp_path)
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "mc_histogram.csv")
        assert cols["count"].sum() == 20000
        summary = (tmp_path / "mc_summary.txt").read_text()
        assert "n_pair_records = 20000" in summary
        assert "comb_contrast" in summary
        contrast = float(
            [l for l in summary.splitlines() if l.startswith("comb_contrast")][0].split(" = ")[1]
        )
        assert contrast > 0.95

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg = self.mc_cfg(tmp_path)
        out1 = tmp_path / "t1"
        out4 = tmp_path / "t4"
        assert main(["mc", "--config", str(cfg), "--out", str(out1), "--threads", "1"]) == 0
        assert main(["mc", "--config", str(cfg), "--out", str(out4), "--threads", "4"]) == 0
        assert (out1 / "mc_histogram.csv").read_bytes() == (out4 / "mc_histogram.csv").read_bytes()
        assert (out1 / "mc_summary.txt").read_bytes() == (out4 / "mc_summary.txt").read_bytes()

    def test_seed_changes_the_stream(self, tmp_path):
        cfg = self.mc_cfg(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["mc", "--config", str(cfg), "--out", str(out_a), "--seed", "1"]) == 0
        assert main(["mc", "--config", str(cfg), "--out", str(out_b), "--seed", "2"]) == 0
        assert (out_a / "mc_histogram.csv").read_bytes() != (out_b / "mc_histogram.csv").read_bytes()


class TestRoundTrip:
    def roundtrip(self, tmp_path, command, cfg_path, filename):
        first = tmp_path / "first"
        second = tmp_path / "second"
        assert main([command, "--config", str(cfg_path), "--out", str(first)]) == 0
        header = config_from_output_header(first / filename)
        replay = tmp_path / "replay.cfg"
        replay.write_text(
            "\n".join(f"{k} = {v}" for k, v in header.items()) + "\n", encoding="utf-8"
        )
        assert main([command, "--config", str(replay), "--out", str(second)]) == 0
        assert (first / filename).read_bytes() == (second / filename).read_bytes()

    def test_correlation_roundtrip(self, tmp_path):
        cfg = write_cfg(
            tmp_path, BASE.format(linewidth="0.0628") + "scan.points = 512\n"
        )
        self.roundtrip(tmp_path, "correlation", cfg, "correlation.csv")

    def test_mc_roundtrip(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE.format(linewidth="0.0628")
            + "detector.resolution_time = 0.0\ndetector.coincidence_window = 100.0\n"
            + "scan.points = 16385\nmc.n_events = 5000\nmc.duration = 500.0\n",
        )
        self.roundtrip(tmp_path, "mc", cfg, "mc_histogram.csv")


class TestConfigParsing:
    def test_ordinary_frequency_convention(self):
        raw = parse_config_text(
            "units.frequency = ordinary\ncomb.mode_spacing = 1.0e12\n"
            "comb.pump_frequency = 5.0e14\ncomb.linewidth = 1.0e10\n"
        )
        cfg = resolve_config(raw, "correlation")
        assert cfg.comb.mode_spacing == pytest.approx(2 * math.pi * 1e12)
        assert cfg.comb.round_trip_time == pytest.approx(1e-12)

    def test_round_trip_time_alternative(self):
        cfg = resolve_config(parse_config_text("comb.round_trip_time = 2.0e-12\n"), "correlation")
        assert cfg.comb.mode_spacing == pytest.approx(math.pi * 1e12)

    def test_conflicting_spacing_inputs(self):
        raw = parse_config_text("comb.mode_spacing = 1.0\ncomb.round_trip_time = 1.0\n")
        with pytest.raises(ConfigError, match="not both"):
            resolve_config(raw, "correlation")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_malformed_line_has_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("seed = 1\nnot a config line\n")

    def test_keys_from_other_commands_rejected(self):
        raw = parse_config_text("mc.n_events = 10\n")
        with pytest.raises(ConfigError, match="not valid"):
            resolve_config(raw, "correlation")

    def test_phase_seed_conflicts_with_phases(self):
        raw = parse_config_text("comb.mode_phases = 0,0,0\ncomb.phase_seed = 1\n")
        with pytest.raises(ConfigError, match="not both"):
            resolve_config(raw, "correlation")

    @pytest.mark.parametrize(
        "command, body", REJECTED, ids=[f"{c}:{b.splitlines()[0][:48]}" for c, b in REJECTED]
    )
    def test_rejected_value_exits_2_naming_the_key(self, tmp_path, capsys, command, body):
        cfg = write_cfg(tmp_path, body + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert body.split(" = ")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_scan_points_are_capped_before_allocation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"scan.points = {MAX_QUAD_POINTS + 1}\n")
        out = tmp_path / "out"
        assert main(["correlation", "--config", str(cfg), "--out", str(out)]) == 2
        assert "scan.points" in capsys.readouterr().err
        assert not out.exists()
        at_cap = resolve_config(parse_config_text(f"scan.points = {MAX_QUAD_POINTS}\n"), "correlation")
        assert at_cap["scan.points"] == MAX_QUAD_POINTS


class TestMcBounds:
    def test_n_events_are_capped_before_sampling(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, f"mc.n_events = {MAX_EVENTS + 1}\n")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 2
        assert "mc.n_events" in capsys.readouterr().err
        assert not out.exists()
        at_cap = resolve_config(parse_config_text(f"mc.n_events = {MAX_EVENTS}\n"), "mc")
        assert at_cap["mc.n_events"] == MAX_EVENTS

    @pytest.mark.parametrize("width", ["1.0e-30", "1.0e-19"])
    def test_oversized_histogram_exits_2_naming_the_bin_width(self, tmp_path, capsys, width):
        text = (CONFIGS / "mc_fast_detector.cfg").read_text(encoding="utf-8")
        assert "mc.bin_width = 1.0e-14\n" in text
        cfg = write_cfg(tmp_path, text.replace("1.0e-14", width))
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 2
        assert "mc.bin_width" in capsys.readouterr().err
        assert not out.exists()

    def test_dark_counts_past_the_event_cap_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "mc.n_events = 1000\ndetector.dark_rate = 1e15\n")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "detector.dark_rate" in err and "mc.duration" in err
        assert not out.exists()

    def test_histogram_edges_at_the_cap(self):
        body = "mc.range_min = -2.0\nmc.range_max = 2.0\nmc.bin_width = {!r}\n"
        width = 4.0 / (MAX_QUAD_POINTS - 1)  # a power of two: the edges land exactly
        at_cap = resolve_config(parse_config_text(body.format(width)), "mc")
        empty = Detections(np.empty(0), np.empty(0))
        delay_range = (at_cap["mc.range_min"], at_cap["mc.range_max"])
        edges = histogram_delays(empty, at_cap["mc.bin_width"], delay_range).edges
        assert edges.size == MAX_QUAD_POINTS
        with pytest.raises(ConfigError, match="mc.bin_width"):
            resolve_config(parse_config_text(body.format(math.nextafter(width, 0.0))), "mc")


class TestThreads:
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_thread_count_below_one_exits_2(self, tmp_path, capsys, value):
        cfg = write_cfg(tmp_path, BASE.format(linewidth="0.0628") + "scan.points = 512\n")
        out = tmp_path / "out"
        argv = ["correlation", "--config", str(cfg), "--out", str(out), "--threads", value]
        assert main(argv) == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()


class TestHeaderEcho:
    @pytest.mark.parametrize("name", sorted(BUNDLED_ECHO))
    def test_bundled_config_echo_is_pinned(self, name):
        command, lines = BUNDLED_ECHO[name]
        assert resolve_config(parse_config_file(CONFIGS / name), command).echo_lines() == lines

    @pytest.mark.parametrize("command", COMMANDS)
    def test_echo_resolves_to_itself(self, command):
        # a bundled config plus the keys whose echo is conditional or rewritten
        name = next(n for n, (c, _) in BUNDLED_ECHO.items() if c == command)
        text = (CONFIGS / name).read_text(encoding="utf-8")
        text += "units.frequency = ordinary\ncomb.center = 1.0e9\ncomb.phase_seed = 3\n"
        first = resolve_config(parse_config_text(text), command)
        echo = first.echo_lines()
        assert "# units.frequency = angular" in echo
        assert any(line.startswith("# comb.center = ") for line in echo)
        assert any(line.startswith("# comb.mode_phases = ") for line in echo)
        replay = parse_config_text("\n".join(line[2:] for line in echo))
        again = resolve_config(replay, command)
        assert again.echo_lines() == echo
        assert again == first


def test_cli_import_leaves_scipy_out():
    code = "import sys, twophoton.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
