"""Compare two output trees table by table.

    python tests/table_diff.py OLD NEW

For each CSV found in both trees whose bytes differ, prints the columns whose
values moved, each with its largest relative change max |new - old| / |old|
(inf where old is 0 or only one side is NaN; two NaNs count as equal). Other
files that differ, and files found in only one tree, are listed by path. Exits 0
when both trees hold the same files with the same bytes, else 1.
"""

import math
import sys
from pathlib import Path


def read_csv(path: Path):
    """(header, columns) of a CSV whose first line names its float columns."""
    lines = [line for line in path.read_text().splitlines() if line]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, {name: [row[i] for row in rows] for i, name in enumerate(header)}


def relative_change(old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or math.isnan(old) or math.isnan(new):
        return math.inf
    return abs(new - old) / abs(old)


def table_changes(old: Path, new: Path) -> list:
    """Lines describing how the CSV ``new`` differs from ``old``."""
    old_header, old_columns = read_csv(old)
    new_header, new_columns = read_csv(new)
    lines = [f"  column only in old: {name}" for name in old_header if name not in new_columns]
    lines += [f"  column only in new: {name}" for name in new_header if name not in old_columns]
    rows = (len(old_columns[old_header[0]]), len(new_columns[new_header[0]]))
    if rows[0] != rows[1]:
        return lines + [f"  rows: {rows[0]} -> {rows[1]}"]
    for name in old_header:
        if name in new_columns:
            change = max(map(relative_change, old_columns[name], new_columns[name]), default=0.0)
            if change:
                lines.append(f"  {name}: max relative change {change:.3g}")
    return lines


def diff_trees(old: Path, new: Path) -> list:
    """Lines describing every difference between the trees ``old`` and ``new``."""
    old_files, new_files = ({p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
                            for root in (old, new))
    lines = [f"only in {old}: {path}" for path in sorted(old_files - new_files)]
    lines += [f"only in {new}: {path}" for path in sorted(new_files - old_files)]
    for path in sorted(old_files & new_files):
        a, b = old / path, new / path
        if a.read_bytes() == b.read_bytes():
            continue
        lines.append(f"{path}: differs")
        if path.endswith(".csv"):
            lines += table_changes(a, b)
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/table_diff.py OLD NEW", file=sys.stderr)
        return 2
    lines = diff_trees(Path(argv[0]), Path(argv[1]))
    print("\n".join(lines or ["no differences"]))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
