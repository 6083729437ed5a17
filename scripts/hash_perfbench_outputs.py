#!/usr/bin/env python3
"""Hash every output of the benchmark's jobs, and check them, at the given seeds.

    python3 scripts/hash_perfbench_outputs.py [--workload NAME ...] SEED [SEED ...]

Each job of each workload (all of ``perfbench/workloads.WORKLOADS`` unless
``--workload`` names some) is built with ``make_jobs`` and run once through
``twophoton.cli.main`` in this process, with the job's thread count; the
package is imported from this checkout's ``src``.  The configs and outputs
go to a temporary directory, so ``perfbench/`` is only read.  For each
output file the script prints ``<sha256>  <workload>/<seed>/<job>/<file>``,
so comparing two checkouts is one ``diff`` of the two runs' stdout.  A job
that exits non-zero, or whose outputs fail perfbench's checks, is reported
on stderr, and the script then exits 1.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import OUTPUTS, check_job  # noqa: E402
from twophoton.cli import main  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402


def run(workloads, seeds, work: Path) -> int:
    failed = 0
    for workload in workloads:
        for seed in seeds:
            for job in make_jobs(workload, seed):
                rel = Path(workload, str(seed), job.name)
                cfg_path = work / rel.with_suffix(".cfg")
                cfg_path.parent.mkdir(parents=True, exist_ok=True)
                cfg_path.write_text(job.config_text())
                argv = [job.command, "--config", str(cfg_path), "--out", str(work / rel),
                        "--threads", str(job.threads)]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    print(f"{rel}: exit {code}", file=sys.stderr)
                    failed += 1
                    continue
                for name in OUTPUTS[job.command]:
                    digest = hashlib.sha256((work / rel / name).read_bytes()).hexdigest()
                    print(f"{digest}  {rel / name}")
                errors = check_job(job.command, job.config, work / rel)
                for e in errors:
                    print(f"{rel}: CHECK FAILED {e}", file=sys.stderr)
                failed += bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        raise SystemExit(run(args.workload or WORKLOADS, args.seeds, Path(tmp)))
