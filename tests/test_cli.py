import importlib.util
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twophoton import cli
from twophoton.cli import main
from twophoton.config import (
    COMMANDS,
    config_from_output_header,
    parse_config_file,
    parse_config_text,
    resolve_config,
)
from twophoton.correlation import MAX_QUAD_POINTS
from twophoton.engineering import matched_wideband
from twophoton.errors import ConfigError
from twophoton.montecarlo import MAX_EVENTS, _edges

from conftest import csv_oracle

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
    "hom_delay_scan_undithered.cfg": (
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
            "# detector.resolution_time = 3e-12",
            "# interferometer.mode_match = 1.0",
            "# interferometer.pump_phase = 1.0",
            "# scan.points = 261",
            "# scan.delay_min = 0.0",
            "# scan.delay_max = 1.3000000000000001e-12",
            "# scan.dithered = false",
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

# the files each command returns and main writes, in write order (README's table)
FILES = {
    "correlation": ["correlation.csv"],
    "homscan": ["homscan.csv"],
    "fringe": ["fringe.csv"],
    "engineer": ["engineer_before.csv", "engineer_after.csv", "engineer_solution.txt"],
    "mc": ["mc_histogram.csv", "mc_summary.txt"],
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
    ("correlation", "comb.mode_spacing = 1e-322\ncomb.linewidth = 5e-324"),
    ("correlation", "comb.mode_spacing = 1e-322"),
    ("correlation", "comb.round_trip_time = 1e-320\ncomb.linewidth = 1e300"),
    ("homscan", "comb.linewidth = 0.0"),
    ("mc", "detector.coincidence_window = 0.0"),
    ("mc", "detector.efficiency = 0.0"),
    ("mc", "detector.efficiency = 1.5"),
    ("mc", "detector.dark_rate = -1.0"),
]


# config bodies main refuses: id -> (command, body, message); no other test reaches them
REFUSED = {
    "tau_range": ("correlation", BASE.format(linewidth="0.0628")
                  + "scan.tau_min_tr = 2.0\nscan.tau_max_tr = -2.0",
                  "scan.tau_max must exceed scan.tau_min"),
    "mc_range": ("mc", BASE.format(linewidth="0.0628") + "mc.range_min = 1.0\nmc.range_max = -1.0",
                 "mc.range_max must exceed mc.range_min"),
    "replay_guard": ("correlation", "run.command = mc\n" + BASE.format(linewidth="0.0628"),
                     "config was written for command 'mc', not 'correlation'"),
    "malformed_key": ("correlation", "seed = 1\nScan.points = 3", "line 2: malformed key"),
    "bool_value": ("homscan", "scan.dithered = yes", "expected true or false"),
}


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


    def test_simpson_node_cap_exits_3_before_writing(self, tmp_path, capsys):
        # the rectangular line always takes the Simpson window; 4001 modes over
        # a 1 ns window need 64016005 nodes at 16 per comb peak
        body = (CONFIGS / "hom_delay_scan.cfg").read_text(encoding="utf-8")
        body = body.replace("comb.n_side_modes = 10", "comb.n_side_modes = 2000")
        body = body.replace("resolution_time = 1.0e-8", "resolution_time = 1.0e-9")
        body = body.replace("scan.points = 261", "scan.points = 3")
        cfg = write_cfg(tmp_path, body + "comb.shape = rectangular\n")
        out = tmp_path / "out"
        assert main(["homscan", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"needs 64016005 nodes; cap is {MAX_QUAD_POINTS}" in capsys.readouterr().err
        assert not out.exists()

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
    def test_random_phase_comb_runs(self, tmp_path, capsys, phase_seed):
        # at a full round trip F has period t_r, so the cross term of independent
        # mode phases is 0 up to rounding; single-photon coherence ignores the
        # mode phases, so the singles visibility stays within [0, 1]
        body = (CONFIGS / "fringe_full_trip.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, body + f"comb.phase_seed = {phase_seed}\n")
        assert main(["fringe", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        cols = read_rows(tmp_path / "fringe.csv")
        for name in ("singles_1", "singles_2"):
            assert 0.0 <= cols[name].min() and cols[name].max() <= 2.0
        vis = (cols["singles_1"].max() - cols["singles_1"].min()) / 2.0
        assert 0.0 <= vis <= 1.0
        # at half a round trip the cross term of such phases is 1.0e-6 to 1.6e-6 R0
        body = (CONFIGS / "fringe_half_trip.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, body + f"comb.phase_seed = {phase_seed}\n")
        out = tmp_path / "half"
        capsys.readouterr()
        assert main(["fringe", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cross term" in err and "exchange-symmetric" in err
        assert not out.exists()


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

    def test_wideband_narrower_than_the_comb_line_exits_3(self, tmp_path, capsys):
        # a fixed Lorentzian of halfwidth 1e9 rad/s is narrower than the comb line
        body = (CONFIGS / "excise_peak.cfg").read_text(encoding="utf-8")
        body = body.replace("wideband_shape = rectangular", "wideband_shape = lorentzian")
        body = body.replace("optimize_width = true", "optimize_width = false")
        cfg = write_cfg(tmp_path, body + "engineering.wideband_halfwidth = 1.0e9\n")
        out = tmp_path / "out"
        assert main(["engineer", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "PoorMatch" in err and "no candidate width is broader than the comb line" in err
        assert not out.exists()

    def test_explicit_matched_halfwidth_changes_only_its_echo(self, tmp_path):
        # a wideband halfwidth given as the matched width solves the same excision
        text = (CONFIGS / "excise_peak.cfg").read_text(encoding="utf-8")
        cfg = resolve_config(parse_config_text(text), "engineer")
        width = matched_wideband(cfg.comb, cfg["engineering.wideband_shape"]).halfwidth
        explicit = write_cfg(tmp_path, text + f"engineering.wideband_halfwidth = {width!r}\n")
        default_out, explicit_out = tmp_path / "default", tmp_path / "explicit"
        config = str(CONFIGS / "excise_peak.cfg")
        assert main(["engineer", "--config", config, "--out", str(default_out)]) == 0
        assert main(["engineer", "--config", str(explicit), "--out", str(explicit_out)]) == 0
        echoed = ("# engineering.wideband_halfwidth = 0.0",
                  f"# engineering.wideband_halfwidth = {width!r}")
        for name in FILES["engineer"]:
            default_lines = (default_out / name).read_text(encoding="utf-8").splitlines()
            explicit_lines = (explicit_out / name).read_text(encoding="utf-8").splitlines()
            assert len(default_lines) == len(explicit_lines)
            differing = [pair for pair in zip(default_lines, explicit_lines) if pair[0] != pair[1]]
            assert differing == [echoed]


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

    def test_range_inside_one_round_trip_has_no_contrast(self, tmp_path):
        # no histogram bin lies on a comb peak, so there is no contrast to report
        text = (CONFIGS / "mc_fast_detector.cfg").read_text(encoding="utf-8")
        cfg = write_cfg(tmp_path, text + "mc.range_min = 0.1e-12\nmc.range_max = 0.2e-12\n")
        assert main(["mc", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "mc_summary.txt").read_text(encoding="utf-8").splitlines()
        assert summary[-1] == "comb_contrast = nan"


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

    def test_unknown_command_is_refused(self):
        with pytest.raises(ConfigError, match="unknown command 'nope'"):
            resolve_config(parse_config_text("seed = 1\n"), "nope")

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

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_config_exits_2_with_its_message(self, tmp_path, capsys, case):
        command, body, message = REFUSED[case]
        cfg = write_cfg(tmp_path, body + "\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        missing = str(tmp_path / "missing.cfg")
        assert main(["correlation", "--config", missing, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and "Traceback" not in err
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

    def test_accidental_rows_past_the_event_cap_exit_3(self, tmp_path, capsys):
        text = (CONFIGS / "mc_slow_detector.cfg").read_text(encoding="utf-8")
        text = text.replace("mc.n_events = 200000", "mc.n_events = 2000")
        text = text.replace("detector.coincidence_window = 1.0e-8", "detector.coincidence_window = 2")
        cfg = write_cfg(tmp_path, text + "detector.dark_rate = 2097152\n")
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "detector.dark_rate" in err and "detector.coincidence_window" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_histogram_edges_at_the_cap(self):
        body = "mc.range_min = -2.0\nmc.range_max = 2.0\nmc.bin_width = {!r}\n"
        width = 4.0 / (MAX_QUAD_POINTS - 1)  # a power of two: the edges land exactly
        at_cap = resolve_config(parse_config_text(body.format(width)), "mc")
        delay_range = (at_cap["mc.range_min"], at_cap["mc.range_max"])
        edges = _edges(at_cap["mc.bin_width"], delay_range)
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


class TestOutputFiles:
    @pytest.mark.parametrize("name", sorted(BUNDLED_ECHO))
    def test_commands_return_their_files_and_main_writes_them(
        self, tmp_path, monkeypatch, capsys, name
    ):
        command, _ = BUNDLED_ECHO[name]
        cfg = resolve_config(parse_config_file(CONFIGS / name), command)
        monkeypatch.chdir(tmp_path)
        files = getattr(cli, f"cmd_{command}")(cfg, 1)
        assert list(files) == FILES[command]
        assert list(tmp_path.iterdir()) == []
        assert not any(line.startswith("# twophoton") for body in files.values() for line in body)
        out = tmp_path / "out"
        assert main([command, "--config", str(CONFIGS / name), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [str(out / f) for f in FILES[command]]
        header = [f"# twophoton {command}"] + cfg.echo_lines()
        for filename, body in files.items():
            lines = (out / filename).read_text(encoding="utf-8").splitlines()
            assert lines == header + body
            assert [i for i, line in enumerate(lines) if line.startswith("# twophoton")] == [0]

    @pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
    def test_unusable_out_exits_2_naming_out(self, tmp_path, below):
        cfg = write_cfg(tmp_path, BASE.format(linewidth="0.0628") + "scan.points = 512\n")
        afile = tmp_path / "afile"
        afile.write_text("kept\n", encoding="utf-8")
        out = afile / "sub" if below else afile
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        argv = ["correlation", "--config", str(cfg), "--out", str(out)]
        result = subprocess.run(
            [sys.executable, "-m", "twophoton.cli", *argv], env=env, capture_output=True, text=True
        )
        assert result.returncode == 2
        assert "--out" in result.stderr and "Traceback" not in result.stderr
        assert afile.read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]

    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_files_get_the_mode_open_gives_under_the_umask(self, tmp_path, umask):
        cfg = TestMcCommand().mc_cfg(tmp_path)
        out = tmp_path / "out"
        code = f"import os, sys; os.umask({umask:#o}); from twophoton.cli import main; sys.exit(main())"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        argv = ["mc", "--config", str(cfg), "--out", str(out)]
        subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True)
        assert sorted(p.name for p in out.iterdir()) == sorted(FILES["mc"])
        for name in FILES["mc"]:
            assert stat.S_IMODE((out / name).stat().st_mode) == 0o666 & ~umask

    def test_a_failed_write_keeps_the_old_run(self, tmp_path, capsys):
        cfg = TestMcCommand().mc_cfg(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "mc_histogram.csv").write_text("# an older run\n", encoding="utf-8")
        (out / "mc_summary.txt").mkdir()
        assert main(["mc", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err and captured.out == ""
        assert (out / "mc_histogram.csv").read_text(encoding="utf-8") == "# an older run\n"
        assert sorted(p.name for p in out.iterdir()) == ["mc_histogram.csv", "mc_summary.txt"]
        assert list((out / "mc_summary.txt").iterdir()) == []


class TestCsv:
    """``cli._csv`` formats by column in row blocks; the oracle formats cell by cell."""

    SPECIAL = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.5e-320,
         2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -1e-12]
    )
    COUNTS = np.array([0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1], dtype=np.int64)

    def test_special_values_and_counts(self):
        floats = [self.SPECIAL, self.SPECIAL[::-1]]
        assert cli._csv(["a", "b"], floats) == [csv_oracle(["a", "b"], floats)]
        counts = [self.COUNTS, self.COUNTS.astype(float)]
        assert cli._csv(["n", "x"], counts) == [csv_oracle(["n", "x"], counts)]

    @pytest.mark.parametrize("extra", [-cli._BLOCK_ROWS, 1 - cli._BLOCK_ROWS, -1, 0, 1])
    def test_lengths_around_the_block(self, extra):
        n = cli._BLOCK_ROWS + extra
        rng = np.random.default_rng(n)
        series = [
            np.linspace(-2e-12, 2e-12, n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
            rng.integers(-(2**62), 2**62, n),
        ]
        (lines,) = cli._csv(["tau_s", "value", "count"], series)
        assert len(lines) == n + 1
        assert lines == csv_oracle(["tau_s", "value", "count"], series)

    def test_a_shared_column_is_formatted_once_per_block(self):
        class Sliced(np.ndarray):
            slices = 0

            def __getitem__(self, key):
                if isinstance(key, slice):
                    Sliced.slices += 1
                return super().__getitem__(key)

        n = 2 * cli._BLOCK_ROWS + 3
        tau = np.linspace(-2.5e-12, 2.5e-12, n).view(Sliced)
        before, after = np.cos(np.arange(n)), np.sin(np.arange(n))
        tables = cli._csv(["tau_s", "gamma2"], [tau, before], [tau, after])
        assert Sliced.slices == 3
        oracles = [csv_oracle(["tau_s", "gamma2"], [tau, col]) for col in (before, after)]
        assert tables == oracles


class TestHeaderEcho:
    def test_every_bundled_config_is_pinned_and_in_the_example_run(self):
        # the example run's hashes are the byte check of every change, so a
        # new config must join its JOBS and these pinned echoes together
        spec = importlib.util.spec_from_file_location(
            "run_example_scans", ROOT / "scripts" / "run_example_scans.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        bundled = sorted(path.name for path in CONFIGS.glob("*.cfg"))
        jobs = {config: command for command, config in script.JOBS}
        assert len(bundled) == len(script.JOBS) == 8
        assert sorted(jobs) == bundled == sorted(BUNDLED_ECHO)
        assert jobs == {name: command for name, (command, _) in BUNDLED_ECHO.items()}

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
