#!/usr/bin/env python3
"""Run the headline controller comparisons for every scenario.

Writes traces, summaries, and comparison tables under results/ (override with
--out).  Equivalent to calling `pcbf compare` once per pinned config.
"""

import argparse
import sys
from pathlib import Path

from pcbf.cli import main as pcbf_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
EXPERIMENTS = [
    ("intersection_cross", "pcbf,ecbf,none,nominal"),
    ("intersection_left_turn", "pcbf,ecbf,none,nominal"),
    ("satellite", "pcbf,ecbf,none,nominal"),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    args = ap.parse_args()
    for scenario, controllers in EXPERIMENTS:
        print(f"=== {scenario} ===")
        rc = pcbf_main(["compare",
                        "--config", str(CONFIG_DIR / f"{scenario}.txt"),
                        "--controllers", controllers,
                        "--out", str(Path(args.out) / scenario)])
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
