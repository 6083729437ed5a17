"""Tests of the benchmark's own checks; run with ``python3 -m pytest perfbench``.

Each check must pass on outputs made with the configured parameters and
fail on outputs made with one wrong parameter: 2N+3 modes, a doubled
linewidth, or (Monte Carlo) efficiency 1.  The delay scan and the Monte
Carlo run are shrunk here to keep the tests short; the checks read their
sizes from the config, so the same code runs on the full workloads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import OUTPUTS, check_job  # noqa: E402
from workloads import make_jobs  # noqa: E402

from twophoton import cli  # noqa: E402

SEED = 7


def _small(job):
    cfg = dict(job.config)
    if job.command == "homscan":
        cfg["scan.points"] = "27"  # delays every 0.05 t_r: dips stay on the grid
    if job.command == "mc":
        cfg["mc.n_events"] = "200000"
        cfg["mc.duration"] = "2.0e-2"
    return job.command, cfg, job.threads


def _wrong(cfg: dict, parameter: str) -> dict:
    cfg = dict(cfg)
    if parameter == "2N+3 modes":
        cfg["comb.n_side_modes"] = str(int(cfg["comb.n_side_modes"]) + 1)
    elif parameter == "doubled linewidth":
        cfg["comb.linewidth"] = repr(2.0 * float(cfg["comb.linewidth"]))
    elif parameter == "efficiency 1":
        cfg["detector.efficiency"] = "1.0"
    return cfg


def _run_cli(command: str, cfg: dict, out: Path, threads: int = 1) -> None:
    out.mkdir(parents=True, exist_ok=True)
    path = out / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(path), "--out", str(out), "--threads", str(threads)])
    assert code == 0, f"twophoton {command} exited with {code}"


JOBS = [job for workload in ("homscan", "figures", "mc") for job in make_jobs(workload, SEED)]
CASES = [
    (job, parameter)
    for job in JOBS
    for parameter in ("configured", "2N+3 modes", "doubled linewidth")
    + (("efficiency 1",) if job.command == "mc" else ())
]


@pytest.mark.parametrize(
    "job, parameter", CASES, ids=[f"{job.name}-{p.replace(' ', '_')}" for job, p in CASES]
)
def test_check_passes_only_with_the_configured_parameters(job, parameter, tmp_path):
    command, cfg, threads = _small(job)
    _run_cli(command, _wrong(cfg, parameter), tmp_path, threads)
    errors = check_job(command, cfg, tmp_path)
    if parameter == "configured":
        assert errors == []
    else:
        assert errors, f"outputs made with {parameter} passed the {command} check"


def test_mc_outputs_identical_at_one_and_two_threads(tmp_path):
    (job,) = make_jobs("mc", SEED)
    digests = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        _run_cli(job.command, job.config, out, threads)
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in OUTPUTS["mc"]})
    assert digests[0] == digests[1]
