"""scripts/count_source_lines.py, the source-line count of the package."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "count_source_lines.py"

# 5 counted lines: the docstring, the import, the def, the docstring inside
# it and the return; blank lines and comments, indented or not, do not count
MODULE = '''"""A module."""

# a comment
import math  # a trailing comment does not hide its line


def area(r):
    """Docstring lines count."""
    # an indented comment

    return math.pi * r * r
'''


def count(*paths):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, paths)], capture_output=True, text=True
    )


def test_counts_each_file_and_the_total(tmp_path):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text(MODULE, encoding="utf-8")
    two.write_text("\n\n# only a comment\nx = 1  # one line\n", encoding="utf-8")
    result = count(one, two)
    assert result.returncode == 0
    assert result.stdout == f"    5  {one}\n    1  {two}\n    6  total\n"


def test_defaults_to_the_package_modules():
    result = count()
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    modules = sorted((ROOT / "src" / "twophoton").glob("*.py"))
    assert [line.split()[1] for line in lines[:-1]] == [
        str(path.relative_to(ROOT)) for path in modules
    ]
    assert lines[-1].split() == [str(sum(int(line.split()[0]) for line in lines[:-1])), "total"]
