"""scripts/compare_outputs.py, the file-by-file comparison of two output trees."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"

CSV = "# twophoton correlation\n# seed = 1\ntau_s,gamma2\n-1.0,2.0\n0.0,4.0\n1.0,2.0\n"


def tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def compare(root_a, root_b):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(root_a), str(root_b)], capture_output=True, text=True
    )


def test_identical_trees_exit_0(tmp_path):
    a = tree(tmp_path / "a", {"run/correlation.csv": CSV})
    b = tree(tmp_path / "b", {"run/correlation.csv": CSV})
    result = compare(a, b)
    assert result.returncode == 0
    assert result.stdout == "run/correlation.csv: identical\n"


def test_changed_value_reports_its_column_relative_change(tmp_path):
    a = tree(tmp_path / "a", {"correlation.csv": CSV})
    b = tree(tmp_path / "b", {"correlation.csv": CSV.replace("0.0,4.0", "0.0,4.4")})
    result = compare(a, b)
    assert result.returncode == 0
    assert "  column gamma2: max |a - b| / max |a| = 1.000e-01\n" in result.stdout
    assert "  column tau_s: max |a - b| / max |a| = 0.000e+00\n" in result.stdout


def test_missing_file_exits_1(tmp_path):
    a = tree(tmp_path / "a", {"correlation.csv": CSV, "homscan.csv": CSV})
    b = tree(tmp_path / "b", {"correlation.csv": CSV})
    result = compare(a, b)
    assert result.returncode == 1
    assert f"homscan.csv: missing under {b}\n" in result.stdout


def compare_within(root_a, root_b, bound):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(root_a), str(root_b), "--bound", bound],
        capture_output=True,
        text=True,
    )


RESULT = "# twophoton homscan\n# result.overlap_visibility = 0.75\ntau_s,coincidence\n0.0,4.0\n"


def test_a_column_change_past_the_bound_exits_1(tmp_path):
    a = tree(tmp_path / "a", {"correlation.csv": CSV})
    b = tree(tmp_path / "b", {"correlation.csv": CSV.replace("0.0,4.0", "0.0,4.000000000000001")})
    assert compare_within(a, b, "1e-15").returncode == 0
    result = compare_within(a, b, "1e-16")
    assert result.returncode == 1
    assert "  exceeds the bound 1e-16\n" in result.stdout


def test_a_value_change_past_the_bound_exits_1(tmp_path):
    a = tree(tmp_path / "a", {"homscan.csv": RESULT})
    b = tree(tmp_path / "b", {"homscan.csv": RESULT.replace("0.75", "0.7500000000000002")})
    assert compare_within(a, b, "1e-15").returncode == 0
    result = compare_within(a, b, "1e-16")
    assert result.returncode == 1
    assert "  result.overlap_visibility: relative change 2.961e-16\n" in result.stdout


@pytest.mark.parametrize(
    "old, new",
    [
        ("0.0,4.0", "0.0,nan"),
        ("0.0,4.0", "0.0,four"),
        ("# twophoton correlation", "# twophoton homscan"),
    ],
)
def test_a_change_with_no_size_exceeds_every_bound(tmp_path, old, new):
    a = tree(tmp_path / "a", {"correlation.csv": CSV})
    b = tree(tmp_path / "b", {"correlation.csv": CSV.replace(old, new)})
    assert compare(a, b).returncode == 0
    assert compare_within(a, b, "1e300").returncode == 1


def test_a_negative_bound_is_a_usage_error(tmp_path):
    a = tree(tmp_path / "a", {"correlation.csv": CSV})
    result = compare_within(a, a, "-1")
    assert result.returncode == 2
    assert "--bound must be >= 0" in result.stderr
