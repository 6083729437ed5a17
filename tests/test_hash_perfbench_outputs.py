"""scripts/hash_perfbench_outputs.py, the hashes of the benchmark's outputs."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "hash_perfbench_outputs.py"


def perfbench_outputs():
    spec = importlib.util.spec_from_file_location("checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks.OUTPUTS


def test_one_line_per_mc_output():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "mc", "7"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    want = [f"mc/7/mc/{name}" for name in perfbench_outputs()["mc"]]
    assert [line[66:] for line in lines] == want
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
