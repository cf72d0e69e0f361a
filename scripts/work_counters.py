#!/usr/bin/env python3
"""Print the work counters of the three pinned pcbf runs as a Markdown
table: the forecast's knot steps and off-knot rows stepped (the satellite's
OdePath; the cars' closed-form path steps none), the searches that ran, and
their h batches and probes per search.  The counters are deterministic.

    python3 scripts/work_counters.py
"""

import sys

from pcbf import simulate
from pcbf.scenarios import default_config

SCENARIOS = ("intersection_cross", "intersection_left_turn", "satellite")


def counters(scenario):
    """(knot steps, partial steps, searches, batches, probes) of the pinned
    pcbf run; the steps are None for a path that keeps no knots."""
    built, controllers = [], []
    build, make = simulate.build_scenario, simulate.make_controller
    simulate.build_scenario = lambda cfg: built.append(build(cfg)) or built[-1]
    simulate.make_controller = lambda *a: controllers.append(make(*a)) or controllers[-1]
    try:
        simulate.run_closed_loop(default_config(scenario, "pcbf"))
    finally:
        simulate.build_scenario, simulate.make_controller = build, make
    path, grid = built[0][2], controllers[0].ctx.memo
    return (getattr(path, "knot_steps", None), getattr(path, "partial_steps", None),
            grid.search_misses, grid.search_batches, grid.search_probes)


def main(argv=None) -> int:
    print("| pcbf run | knot steps | partial steps | searches | batches / search "
          "| probes / search |")
    print("|---|---:|---:|---:|---:|---:|")
    for scenario in SCENARIOS:
        knots, partial, searches, batches, probes = counters(scenario)
        cells = ["-" if v is None else str(v) for v in (knots, partial)]
        cells += [str(searches), f"{batches / searches:.2f}", f"{probes / searches:.1f}"]
        print(f"| {scenario} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
