#!/usr/bin/env python3
"""Compare two trees written by scripts/reproduce_experiments.py --out.

Every run.csv is compared without its step_ms column, every notes.txt as it
is, and every summary.txt without its mean_step_ms and max_step_ms lines.
Prints the first differing row of each file that differs, or that only one
tree has, and exits 1 on any difference.

    python3 scripts/trace_diff.py OLD NEW
"""

import argparse
import itertools
import sys
from pathlib import Path

COMPARED = ("run.csv", "notes.txt", "summary.txt")
TIMING_KEYS = ("mean_step_ms", "max_step_ms")


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
        pairs = itertools.zip_longest(_rows(a), _rows(b))
        for n, (ra, rb) in enumerate(pairs):
            if ra != rb:
                out.append(f"{rel} row {n}:\n  - {ra}\n  + {rb}")
                break
    return out


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
