#!/usr/bin/env python3
"""Compare every metrics.csv and probe.csv under two run trees, with the wall_ms column dropped.

    python3 scripts/compare_metrics.py runs/before runs/after

The trees must hold these files at the same relative paths, with the same
rows apart from wall_ms. Exits 0 when they do, and 1 with the first
difference when they do not.
"""

import argparse
import csv
import itertools
import os
import sys


COMPARED = ("metrics.csv", "probe.csv")


def metrics_files(root: str) -> dict[str, str]:
    """Every metrics.csv and probe.csv under ``root``, keyed by its path relative to ``root``."""
    found = {}
    for dirpath, _, files in os.walk(root):
        for name in COMPARED:
            if name in files:
                path = os.path.join(dirpath, name)
                found[os.path.relpath(path, root)] = path
    return found


def rows_without_wall(path: str) -> list[list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or "wall_ms" not in rows[0]:
        return rows
    col = rows[0].index("wall_ms")
    return [row[:col] + row[col + 1 :] for row in rows]


def compare(root_a: str, root_b: str) -> "str | None":
    """The first difference between the two trees, or None when they match."""
    a, b = metrics_files(root_a), metrics_files(root_b)
    if not a and not b:
        return f"no metrics.csv or probe.csv under {root_a} or {root_b}"
    for rel in sorted(set(a) ^ set(b)):
        return f"{rel}: only under {root_a if rel in a else root_b}"
    for rel in sorted(a):
        pairs = itertools.zip_longest(rows_without_wall(a[rel]), rows_without_wall(b[rel]))
        for line, (row_a, row_b) in enumerate(pairs, start=1):
            if row_a != row_b:
                return (
                    f"{rel}: line {line} differs\n"
                    f"  {root_a}: {','.join(row_a or ['<missing>'])}\n"
                    f"  {root_b}: {','.join(row_b or ['<missing>'])}"
                )
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    args = ap.parse_args()
    for root in (args.dir_a, args.dir_b):
        if not os.path.isdir(root):
            ap.error(f"not a directory: {root}")
    difference = compare(args.dir_a, args.dir_b)
    if difference is not None:
        print(difference)
        return 1
    found = [os.path.basename(rel) for rel in metrics_files(args.dir_a)]
    for name in COMPARED:
        if name in found:
            print(f"{found.count(name)} {name} files match apart from wall_ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
