#!/usr/bin/env python3
"""Benchmark of the twophoton CLI: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <homscan|figures|mc> --seed <n>
                             --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src``.
The inputs are generated from the seed into ``.perfbench_out/<workload>``.
Set-up (a fresh interpreter importing ``twophoton`` and resolving the
workload's configs) is timed several times.  Then whole rounds of the
workload, each in a fresh interpreter that calls ``twophoton.cli.main`` once
per job, run until ``--seconds`` have passed.  Every round's outputs are
checked against ``checks``.  With ``--trace 0`` the last line reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
rounds; each is the median over the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import OUTPUTS, check_job  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SETUP_REPEATS = 5

LAYER_UNITS = {
    "cli.import_s": "s",
    "config.resolve_s": "s",
    "cli.csv_s": "s",
    "cli.bytes_written": "bytes",
    "correlation.dirichlet_F.self_s": "s",
    "correlation.dirichlet_F.samples": "count",
    "correlation.pair_envelope.self_s": "s",
    "correlation.pair_envelope.samples": "count",
    "correlation.generalized_F.self_s": "s",
    "correlation.coherence_envelope.self_s": "s",
    "correlation.gamma2_mode_locked.self_s": "s",
    "interferometer.rate.calls": "count",
    "interferometer.rate.self_s": "s",
    "interferometer.kernel_samples_per_rate": "count",
    "interferometer.singles_fringe_visibility.self_s": "s",
    "engineering.solve_excision.self_s": "s",
    "engineering.combined_gamma2.self_s": "s",
    "montecarlo.sample_pair_delays.s": "s",
    "montecarlo.detect.s": "s",
    "montecarlo.histogram_delays.s": "s",
    "montecarlo.summarize_records.s": "s",
    "montecarlo.detect.rss_growth_mb": "MB",
    "montecarlo.events": "count",
    "montecarlo.records": "count",
    "montecarlo.accidental_records": "count",
    "montecarlo.pair_yield": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def _child_env() -> dict:
    return {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "TWOPHOTON_THREADS")}


def spawn(work: Path, run: bool = False, trace: bool = False) -> dict:
    """Start a fresh interpreter on the jobs in ``work``; return its report.

    ``setup_s`` runs from just before the process starts until it signals
    ``ready``; ``peak_rss_mb`` is the child's peak resident memory.
    """
    result_path = work / "child_result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(work / "jobs.json"), str(result_path)]
    cmd += ["--run"] * run + ["--trace"] * trace
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or ready.strip() != b"ready" or not result_path.is_file():
        raise BenchError(f"child exited with code {proc.returncode}: {' '.join(cmd)}")
    report = json.loads(result_path.read_text())
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return report


def prepare(workload: str, seed: int) -> tuple:
    """Write the workload's configs and job list; return (work dir, jobs, listing)."""
    work = OUT_ROOT / workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    jobs = make_jobs(workload, seed)
    listing = []
    for job in jobs:
        cfg_path = work / "inputs" / f"{job.name}.cfg"
        cfg_path.write_text(job.config_text())
        listing.append({
            "command": job.command,
            "config": str(cfg_path.relative_to(ROOT)),
            "out": str((work / job.name).relative_to(ROOT)),
            "threads": job.threads,
        })
    (work / "jobs.json").write_text(json.dumps(listing, indent=1))
    return work, jobs, listing


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twophoton" / "cli.py").is_file():
        print(f"perfbench: no twophoton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def run(args) -> int:
    work, jobs, listing = prepare(args.workload, args.seed)
    spawn(work)  # warm-up: byte-compiles the package and fills the file cache
    setups = [spawn(work) for _ in range(SETUP_REPEATS)]

    rounds = []
    attempted = failed = 0
    errors: list = []
    begin = time.perf_counter()
    while True:
        report = spawn(work, run=True, trace=bool(args.trace))
        rounds.append(report)
        for job, entry, code in zip(jobs, listing, report["exit_codes"]):
            attempted += 1
            if code != 0:
                failed += 1
                continue
            errors += [f"{job.name}: {e}" for e in check_job(job.command, job.config, ROOT / entry["out"])]
        if time.perf_counter() - begin >= args.seconds:
            break

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds, {attempted} jobs, {failed} failed")
    print(f"inputs: python3 perfbench/run.py --workload {args.workload} --seed {args.seed} "
          f"--seconds {args.seconds:g} --trace {args.trace}")
    for job, entry, code in zip(jobs, listing, rounds[-1]["exit_codes"]):
        print(f"[{job.name}] exit {code}; remake: PYTHONPATH=src python3 -m twophoton.cli "
              f"{job.command} --config {entry['config']} --out {entry['out']} --threads {entry['threads']}")
        for name in OUTPUTS[job.command]:
            path = ROOT / entry["out"] / name
            if path.is_file():
                print(f"  sha256 {_sha256(path)}  {path.relative_to(ROOT)}")
    for e in errors:
        print(f"CHECK FAILED {e}")
    walls = [r["wall_s"] for r in rounds]
    print(f"round wall_s ({'traced' if args.trace else 'untraced'}): " + ", ".join(f"{w:.4f}" for w in walls))

    if args.trace:
        for name in rounds[-1]["not_traced"]:
            print(f"not traced, absent from the package: {name}")
        layers = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name in rounds[0]["layers"]}
        layers["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
        layers["config.resolve_s"] = statistics.median(s["resolve_s"] for s in setups)
        metrics = {name: {"value": layers[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds), "unit": "MB"},
        }
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
