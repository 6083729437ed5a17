"""scripts/check_float_cells.py, the cell kernel against repr on random doubles."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "check_float_cells.py"


def test_random_doubles_match_repr():
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "3000", "--seed", "5"], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert re.fullmatch(r"3000 values, 0 mismatches, \d+\.\d s\n", result.stdout)


def test_a_wrong_cell_exits_1(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("check_float_cells", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    kernel = script._float_cells

    def one_wrong(x):
        cells = kernel(x)
        cells[len(cells) // 2, 0] ^= 1
        return cells

    monkeypatch.setattr(script, "_float_cells", one_wrong)
    assert script.main(["700", "--seed", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"0x[0-9a-f]{16}: repr \S+, kernel \S+", lines[0])
    assert re.fullmatch(r"700 values, 1 mismatches, \d+\.\d s", lines[-1])
