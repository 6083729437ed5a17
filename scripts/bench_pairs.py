#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload, judged by the claim rule.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S
                                   [--first-seed K] [--json PATH]

PARENT and CHANGE are the roots of two checkouts.  Pair i (from 0) runs
``python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0``
from each root, the parent first in even pairs and the change first in odd
ones; the seeds are printed before the first run.  Each run's last line is
the benchmark's JSON report; a run that exits non-zero, fails a job or fails
a check stops the script with exit 1.

Every end-to-end metric the benchmark reports is better lower.  For each,
the script prints each side's median and quartiles (the inclusive method
over the runs), the pairs in which the change reads lower and higher (a tie
counts for neither), the change of the median in percent, and whether the
claim rule holds: the change lower in at least nine tenths of the pairs, and
the medians further apart than the parent's interquartile range.  ``--json``
writes the same numbers as the ``runs`` block of a ``BENCH_<n>.json`` file.
The checkouts are only read, apart from the ``.perfbench_out`` directory
that the benchmark writes in each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


class PairError(RuntimeError):
    """A benchmark run failed or reported wrong outputs."""


def quartiles(values) -> tuple:
    """(q1, median, q3) by the inclusive method; one value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summarize(parent, change) -> dict:
    """One metric's summary over pairs of runs, parent[i] against change[i]."""
    sides = {}
    for side, runs in zip(SIDES, (parent, change)):
        q1, median, q3 = quartiles(runs)
        sides[side] = {"median": median, "q1": q1, "q3": q3, "runs": list(runs)}
    lower = sum(c < p for p, c in zip(parent, change))
    higher = sum(c > p for p, c in zip(parent, change))
    base, new = sides["parent"], sides["change"]
    claim = 10 * lower >= 9 * len(parent) and base["median"] - new["median"] > base["q3"] - base["q1"]
    return {
        **sides,
        "pairs_change_lower": lower,
        "pairs_change_higher": higher,
        "change_vs_parent": f"{100.0 * (new['median'] / base['median'] - 1.0):+.1f}%",
        "claim_rule_holds": claim,
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``root``; its JSON report, or PairError."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    where = f"{root} seed {seed}"
    if proc.returncode != 0:
        raise PairError(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise PairError(f"{where}: no JSON report on the last line") from exc
    if not report.get("correct") or report.get("failed", 1):
        raise PairError(f"{where}: {report.get('failed')} failed jobs, correct = {report.get('correct')}")
    return report


def run_pairs(roots: dict, workload: str, seeds, seconds: float, runner=run_once) -> dict:
    """Every pair's reports; the ``runs`` block entry of the workload."""
    reports = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            report = runner(roots[side], workload, seed, seconds)
            reports[side].append(report)
            values = ", ".join(f"{k} {v['value']:.4f}" for k, v in report["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: {values}", flush=True)
    names = list(reports["parent"][0]["metrics"])
    return {
        "seeds": list(seeds),
        "first": [SIDES[i % 2] for i in range(len(seeds))],
        "jobs_attempted": {s: sum(r["attempted"] for r in reports[s]) for s in SIDES},
        "jobs_failed": {s: sum(r["failed"] for r in reports[s]) for s in SIDES},
        "correct_every_run": {s: all(r["correct"] for r in reports[s]) for s in SIDES},
        "metrics": {
            name: summarize(*([r["metrics"][name]["value"] for r in reports[s]] for s in SIDES))
            for name in names
        },
    }


def report_lines(block: dict) -> list:
    lines = []
    for name, m in block["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(
            f"{name}: parent {p['median']:.4f} [{p['q1']:.4f}, {p['q3']:.4f}], "
            f"change {c['median']:.4f} [{c['q1']:.4f}, {c['q3']:.4f}], {m['change_vs_parent']}; "
            f"change lower in {m['pairs_change_lower']}, higher in {m['pairs_change_higher']} "
            f"of {len(p['runs'])} pairs; claim rule {'holds' if m['claim_rule_holds'] else 'fails'}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    print(f"workload {args.workload}, seeds {seeds[0]}-{seeds[-1]}, "
          f"parent first in odd-numbered pairs, {args.seconds:g} s per run", flush=True)
    try:
        block = run_pairs(dict(zip(SIDES, (args.parent, args.change))), args.workload, seeds, args.seconds)
    except PairError as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(block)))
    if args.json:
        args.json.write_text(json.dumps({args.workload: block}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
