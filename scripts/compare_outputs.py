#!/usr/bin/env python3
"""Compare the outputs of two runs of the example configs, file by file.

    python3 scripts/compare_outputs.py <root_a> <root_b>

Both roots are output trees of ``scripts/run_example_scans.py``.  For each
file under either root it prints "identical" when the bytes agree;
otherwise, per CSV column, max |a - b| / max |a| over the rows, and for
each numeric ``# result.* = value`` or ``key = value`` line the relative
change |b - a| / |a| (the absolute change where a = 0).  Other lines that
differ are printed as text.  It exits 1 when a file is missing from one
root or two files differ in shape (row count, columns or keys), else 0.
"""

import sys
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


def _relative(a: float, b: float) -> str:
    if a == b:
        return "0"
    return f"{abs(b - a) / abs(a):.3e}" if a != 0 else f"{abs(b - a):.3e} (absolute, a = 0)"


def compare_file(a_text: str, b_text: str) -> tuple[list[str], bool]:
    """Report lines for two differing files, and whether their shapes agree."""
    cols_a, rows_a, vals_a, other_a = parse(a_text)
    cols_b, rows_b, vals_b, other_b = parse(b_text)
    report = []
    if cols_a != cols_b or len(rows_a) != len(rows_b) or vals_a.keys() != vals_b.keys():
        return [f"  shape differs: columns {cols_a} / {cols_b}, rows {len(rows_a)} / "
                f"{len(rows_b)}, keys {sorted(vals_a)} / {sorted(vals_b)}"], False
    if any(len(r) != len(cols_a) for r in rows_a + rows_b):
        return ["  shape differs: a row does not match the header"], False
    for j, name in enumerate(cols_a or []):
        a = [_number(r[j]) for r in rows_a]
        b = [_number(r[j]) for r in rows_b]
        if None in a or None in b:
            same = [r[j] for r in rows_a] == [r[j] for r in rows_b]
            report.append(f"  column {name}: {'equal' if same else 'text differs'}")
            continue
        scale = max((abs(v) for v in a), default=0.0)
        diff = max((abs(x - y) for x, y in zip(a, b)), default=0.0)
        share = f"{diff / scale:.3e}" if scale else f"{diff:.3e} (absolute, max |a| = 0)"
        report.append(f"  column {name}: max |a - b| / max |a| = {share}")
    for key, a in vals_a.items():
        b = vals_b[key]
        x, y = _number(a), _number(b)
        if x is not None and y is not None:
            report.append(f"  {key}: relative change {_relative(x, y)}")
        elif a != b:
            report.append(f"  {key}: {a!r} -> {b!r}")
    for line in sorted(set(other_a) ^ set(other_b)):
        side = "a" if line in other_a else "b"
        report.append(f"  only in {side}: {line}")
    return report, True


def compare_roots(root_a: Path, root_b: Path) -> int:
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
        report, same_shape = compare_file(a_bytes.decode(), b_bytes.decode())
        print(f"{rel}:")
        print("\n".join(report))
        code = code if same_shape else 1
    return code


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: compare_outputs.py <root_a> <root_b>", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(compare_roots(Path(sys.argv[1]), Path(sys.argv[2])))
