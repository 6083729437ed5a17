"""One fresh interpreter: set up, then optionally run a workload's jobs.

    python3 perfbench/child.py <jobs.json> <result.json> [--run] [--trace]

Set-up is importing ``twophoton.cli`` from the checkout's ``src`` and
resolving every job's config.  The child then prints ``ready`` on stdout,
which the parent timestamps.  With ``--run`` it calls ``twophoton.cli.main``
once per job and times from the end of set-up until the last job returns,
that is, until the workload's last output file is written.  With ``--trace``
the package's public functions are wrapped first (see ``tracing``).  The
child writes its timings, exit codes and layer metrics to ``result.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv) -> int:
    jobs_path, result_path = Path(argv[0]), Path(argv[1])
    run, trace = "--run" in argv[2:], "--trace" in argv[2:]
    jobs = json.loads(jobs_path.read_text())
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import twophoton.cli as cli
    from twophoton.config import parse_config_file, resolve_config
    t1 = time.perf_counter()
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"twophoton was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1
    for job in jobs:
        resolve_config(parse_config_file(job["config"]), job["command"])
    t2 = time.perf_counter()
    print("ready", flush=True)
    result = {"import_s": t1 - t0, "resolve_s": t2 - t1}

    if run:
        tracer = None
        if trace:
            sys.path.insert(0, str(HERE))
            from tracing import Tracer, layer_metrics

            tracer = Tracer()
            result["not_traced"] = tracer.install()
        codes = []
        start = time.perf_counter()
        for job in jobs:
            argv_job = [job["command"], "--config", job["config"], "--out", job["out"],
                        "--threads", str(job["threads"])]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes.append(cli.main(argv_job))
            except Exception:  # a crash fails this job; the next job still runs
                traceback.print_exc()
                codes.append(-1)
        result["wall_s"] = time.perf_counter() - start
        result["exit_codes"] = codes
        if tracer is not None:
            result["layers"] = layer_metrics(tracer)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
