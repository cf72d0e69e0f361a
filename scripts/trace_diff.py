#!/usr/bin/env python3
"""Compare two trees written by scripts/reproduce_experiments.py --out.

Every run.csv is compared without its step_ms column, every notes.txt as it
is, and every summary.txt without its step-time lines (TIMING_KEYS).
Prints the first differing row of each file that differs, or that only one
tree has, and exits 1 on any difference.  A differing run.csv also gets the
largest |delta| of each numeric column that moved, with its row, and the rows
whose case or feasible changed; a differing summary.txt gets the old and new
value of every key that differs.

    python3 scripts/trace_diff.py OLD NEW
"""

import argparse
import itertools
import math
import sys
from pathlib import Path

COMPARED = ("run.csv", "notes.txt", "summary.txt")
TIMING_KEYS = ("mean_step_ms", "p50_step_ms", "p99_step_ms", "max_step_ms")


def _rows(path: Path) -> list[str]:
    """The lines of a compared file, without its timings."""
    lines = path.read_text().splitlines()
    if path.name == "run.csv" and lines:
        keep = [i for i, name in enumerate(lines[0].split(",")) if name != "step_ms"]
        return [",".join(row[i] for i in keep)
                for row in (line.split(",") for line in lines)]
    if path.name == "summary.txt":
        return [line for line in lines if line.split(" = ")[0] not in TIMING_KEYS]
    return lines


def diff_trees(old: Path, new: Path) -> list[str]:
    """One message per compared file that differs between the trees."""
    rels = sorted({p.relative_to(root) for root in (old, new)
                   for name in COMPARED for p in root.rglob(name)})
    out = []
    for rel in rels:
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            out.append(f"{rel}: only in {a if a.is_file() else b}")
            continue
        rows_a, rows_b = _rows(a), _rows(b)
        for n, (ra, rb) in enumerate(itertools.zip_longest(rows_a, rows_b)):
            if ra != rb:
                extra = (_csv_details(rows_a, rows_b) if rel.name == "run.csv" else
                         _summary_details(rows_a, rows_b) if rel.name == "summary.txt" else [])
                out.append("\n".join([f"{rel} row {n}:", f"  - {ra}", f"  + {rb}"] + extra))
                break
    return out


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_details(rows_a: list[str], rows_b: list[str]) -> list[str]:
    """The largest |delta| of each numeric column that moved, with its row,
    and the rows whose case or feasible changed, over the rows both have."""
    header = rows_a[0].split(",")
    worst = {}  # column -> (|delta|, row)
    flipped = []
    for n, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        moved = [(name, ca, cb) for name, ca, cb in zip(header, ra.split(","), rb.split(","))
                 if ca != cb]
        if any(name in ("case", "feasible") for name, _, _ in moved):
            flipped.append(n)
        for name, ca, cb in moved:
            fa, fb = _float(ca), _float(cb)
            if fa is not None and fb is not None:
                delta = abs(fa - fb)
                delta = math.inf if math.isnan(delta) else delta  # NaN on one side
                if delta > worst.get(name, (-1.0, 0))[0]:
                    worst[name] = (delta, n)
    lines = [f"  {name}: largest |delta| {worst[name][0]!r} at row {worst[name][1]}"
             for name in header if name in worst]
    return lines + [f"  rows whose case or feasible changed: "
                    f"{', '.join(map(str, flipped)) or 'none'}"]


def _summary_details(rows_a: list[str], rows_b: list[str]) -> list[str]:
    """The old and new value of every summary key that differs."""
    old, new = (dict(line.split(" = ", 1) for line in rows if " = " in line)
                for rows in (rows_a, rows_b))
    return [f"  {key}: {old.get(key)} -> {new.get(key)}"
            for key in sorted(old.keys() | new.keys()) if old.get(key) != new.get(key)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    for root in (args.old, args.new):
        if not root.is_dir():
            ap.error(f"{root} is not a directory")
    diffs = diff_trees(args.old, args.new)
    for d in diffs:
        print(d)
    if not diffs:
        print(f"no difference in {', '.join(COMPARED)} (timings excluded)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
