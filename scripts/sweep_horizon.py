#!/usr/bin/env python3
"""Sweep the prediction horizon on the crossing scenario and report how early
the filter intervenes, the accumulated deviation, and the safety margin.

Shorter horizons act later and harder; long horizons act early and gently.

    python3 scripts/sweep_horizon.py --horizons 4,14
"""

import argparse
import sys

from pcbf.cli import summarize
from pcbf.scenarios import default_config
from pcbf.simulate import run_closed_loop


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizons", default="4,6,8,10,14",
                    help="comma-separated horizon lengths in seconds")
    args = ap.parse_args(argv)
    print(f"{'T':>6} {'first_action_t':>15} {'total_deviation':>16} "
          f"{'max_h':>12} {'mean_step_ms':>13}")
    for T in (float(v) for v in args.horizons.split(",")):
        cfg = default_config("intersection_cross", "pcbf")
        cfg.T = T
        s = summarize(run_closed_loop(cfg))
        print(f"{T:6.1f} {s['first_intervention_t']:15.2f} "
              f"{s['total_deviation']:16.4f} {s['max_h']:12.4g} "
              f"{s['mean_step_ms']:13.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
