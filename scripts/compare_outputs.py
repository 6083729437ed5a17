#!/usr/bin/env python3
"""Compare the outputs of two runs of the example configs, file by file.

    python3 scripts/compare_outputs.py <root_a> <root_b> [--bound R]

Both roots are output trees of ``scripts/run_example_scans.py``.  For each
file under either root it prints "identical" when the bytes agree;
otherwise, per CSV column, max |a - b| / max |a| over the rows, and for
each numeric ``# result.* = value`` or ``key = value`` line the relative
change |b - a| / |a| (the absolute change where a is 0 or not finite).
Other lines that differ are printed as text.  It exits 1 when a file is
missing from one root or two files differ in shape (row count, columns or
keys), and, with ``--bound R``, when any of those column or value changes
exceeds R or any other line differs; else 0.
"""

import argparse
import math
from pathlib import Path


def parse(text: str):
    """Split an output file into its CSV table and its key/value lines.

    Returns (columns, rows, values, other): the CSV header and rows as
    strings, a dict of ``# result.*`` and ``key = value`` entries, and the
    remaining non-blank lines (the config echo).
    """
    columns, rows, values, other = None, [], {}, []
    for line in text.splitlines():
        if not line.strip():
            continue
        body = line[1:].strip() if line.startswith("#") else line
        key, sep, value = body.partition(" = ")
        if sep and (not line.startswith("#") or key.startswith("result.")):
            values[key.strip()] = value.strip()
        elif line.startswith("#"):
            other.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return columns, rows, values, other


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _gap(a: float, b: float) -> float:
    """|b - a|: 0 for equal values and two NaNs, inf for a NaN against a number."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    gap = abs(b - a)
    return math.inf if math.isnan(gap) else gap


def _relative(a: float, b: float) -> tuple[float, str]:
    """|b - a| / |a| (|b - a| where a is 0 or not finite), and its report text."""
    gap = _gap(a, b)
    if gap == 0:
        return 0.0, "0"
    if a != 0 and math.isfinite(a):
        change = gap / abs(a)
        return change, f"{change:.3e}"
    return gap, f"{gap:.3e} (absolute, a = {a})"


def compare_file(a_text: str, b_text: str) -> tuple[list[str], bool, float]:
    """Report lines for two differing files, whether their shapes agree, and the
    largest column or value change among them (inf where text differs).
    """
    cols_a, rows_a, vals_a, other_a = parse(a_text)
    cols_b, rows_b, vals_b, other_b = parse(b_text)
    report, worst = [], 0.0
    if cols_a != cols_b or len(rows_a) != len(rows_b) or vals_a.keys() != vals_b.keys():
        return [f"  shape differs: columns {cols_a} / {cols_b}, rows {len(rows_a)} / "
                f"{len(rows_b)}, keys {sorted(vals_a)} / {sorted(vals_b)}"], False, math.inf
    if any(len(r) != len(cols_a) for r in rows_a + rows_b):
        return ["  shape differs: a row does not match the header"], False, math.inf
    for j, name in enumerate(cols_a or []):
        a = [_number(r[j]) for r in rows_a]
        b = [_number(r[j]) for r in rows_b]
        if None in a or None in b:
            same = [r[j] for r in rows_a] == [r[j] for r in rows_b]
            worst = worst if same else math.inf
            report.append(f"  column {name}: {'equal' if same else 'text differs'}")
            continue
        scale = max((abs(v) for v in a if not math.isnan(v)), default=0.0)
        diff = max((_gap(x, y) for x, y in zip(a, b)), default=0.0)
        relative = 0 < scale < math.inf
        share = diff / scale if relative else diff
        worst = max(worst, share)
        text = f"{share:.3e}" if relative else f"{diff:.3e} (absolute, max |a| = {scale})"
        report.append(f"  column {name}: max |a - b| / max |a| = {text}")
    for key, a in vals_a.items():
        b = vals_b[key]
        x, y = _number(a), _number(b)
        if x is not None and y is not None:
            change, text = _relative(x, y)
            worst = max(worst, change)
            report.append(f"  {key}: relative change {text}")
        elif a != b:
            worst = math.inf
            report.append(f"  {key}: {a!r} -> {b!r}")
    for line in sorted(set(other_a) ^ set(other_b)):
        worst = math.inf
        side = "a" if line in other_a else "b"
        report.append(f"  only in {side}: {line}")
    return report, True, worst


def compare_roots(root_a: Path, root_b: Path, bound: float = math.inf) -> int:
    files_a = {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    code = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            print(f"{rel}: missing under {root_a if rel not in files_a else root_b}")
            code = 1
            continue
        a_bytes, b_bytes = (root_a / rel).read_bytes(), (root_b / rel).read_bytes()
        if a_bytes == b_bytes:
            print(f"{rel}: identical")
            continue
        report, same_shape, worst = compare_file(a_bytes.decode(), b_bytes.decode())
        print(f"{rel}:")
        print("\n".join(report))
        if same_shape and worst > bound:
            print(f"  exceeds the bound {bound:g}")
        code = code if same_shape and worst <= bound else 1
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root_a", type=Path)
    parser.add_argument("root_b", type=Path)
    parser.add_argument("--bound", type=float, default=math.inf, metavar="R",
                        help="exit 1 when a column or value changes by more than R")
    args = parser.parse_args(argv)
    if not args.bound >= 0:
        parser.error("--bound must be >= 0")
    return compare_roots(args.root_a, args.root_b, args.bound)


if __name__ == "__main__":
    raise SystemExit(main())
