#!/usr/bin/env python3
"""Count source lines: the non-blank lines that do not start with ``#``.

    python3 scripts/count_source_lines.py [FILE ...]

Leading whitespace is ignored, so an indented comment does not count and a
docstring line does.  Without arguments the files are the package's
modules, ``src/twophoton/*.py``, which is the count ROADMAP.md tracks.
Prints ``<count>  <path>`` per file, then ``<total>  total``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_lines(text: str) -> int:
    return sum(1 for line in map(str.strip, text.splitlines()) if line and line[0] != "#")


def main(args) -> int:
    paths = [Path(a) for a in args] or sorted((ROOT / "src" / "twophoton").glob("*.py"))
    total = 0
    for path in paths:
        count = source_lines(path.read_text(encoding="utf-8"))
        total += count
        shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
        print(f"{count:5d}  {shown}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
