#!/usr/bin/env python3
"""Check the abstract's first two claims on drawn scenarios: pcbf modifies
the nominal input less (total_deviation) and pushes less (max_control_norm)
than the reactive ECBF.  The peak filter push (max_deviation_norm, the peak
of |u - mu|) is printed next to the peak input, which on the cars is mostly
the nominal law's own.

The draws are those of test_acceptance.py's claims test: numpy
default_rng(7), 20 car-pair draws (the scenario, then z1_0, offset, v1, v2,
dz1_0, dz2_0, k and turn_radius, with z2_0 = z1_0 v2 / v1 + offset), then 12
satellite draws (phase_offset, conjunction_time, T, N, inclination_deg,
radius), from the fuzz's ranges at each scenario's full duration.  Each draw
runs none, nominal, pcbf and ecbf.  The draws are split by the sign of pcbf's
H*(0): the paper's safety theorem starts from H*(0) <= 0.  Each row gives the
pcbf/ECBF ratios of both metrics (a claim holds where its ratio is below 1)
and of the peak push, and whether the draw conflicts, that is whether h > 0
is reached, with u = 0 (`none`) and with the nominal law (`nominal`): the
cars' nominal law is not u = 0, so a car draw can conflict by one and not by
the other.

    python3 scripts/claims_sweep.py
    python3 scripts/claims_sweep.py --only left_turn_19,satellite_0
"""

import argparse
import math
import sys

import numpy as np

from pcbf.cli import summarize
from pcbf.core import ConfigurationError
from pcbf.scenarios import default_config
from pcbf.simulate import run_closed_loop

CONTROLLERS = ("none", "nominal", "pcbf", "ecbf")
_SHORT = {"intersection_cross": "cross", "intersection_left_turn": "left_turn"}


def draws(cars=20, satellites=12, seed=7):
    """(id, scenario, top-level settings, params) of each draw, in draw order."""
    rng = np.random.default_rng(seed)
    for i in range(cars):
        scenario = ("intersection_cross", "intersection_left_turn")[rng.integers(2)]
        z1_0, offset, v1, v2 = (rng.uniform(-15, -5), rng.uniform(-2, 2),
                                rng.uniform(0.5, 2), rng.uniform(0.5, 2))
        dz1_0, dz2_0, k, turn_radius = (rng.uniform(0, 2), rng.uniform(0, 2),
                                        rng.uniform(0.05, 5), rng.uniform(0.5, 10))
        params = dict(z1_0=z1_0, z2_0=z1_0 * v2 / v1 + offset, dz1_0=dz1_0, dz2_0=dz2_0,
                      v1=v1, v2=v2, k=k)
        if scenario == "intersection_left_turn":
            params["turn_radius"] = turn_radius
        yield f"{_SHORT[scenario]}_{i}", scenario, {}, params
    for i in range(satellites):
        phase_offset, conjunction_time = rng.uniform(-6e-5, 6e-5), rng.uniform(5, 460)
        T, N = rng.uniform(100, 300), int(rng.integers(50, 301))
        inclination_deg, radius = rng.uniform(10, 150), rng.uniform(6600, 8000)
        yield f"satellite_{i}", "satellite", dict(T=T, N=N), dict(
            phase_offset=phase_offset, conjunction_time=conjunction_time,
            inclination_deg=inclination_deg, radius=radius)


def run_draw(scenario, top, params):
    """The summary of each controller's run, and pcbf's H*(0)."""
    summaries, h0 = {}, None
    for controller in CONTROLLERS:
        cfg = default_config(scenario, controller)
        for key, value in top.items():
            setattr(cfg, key, value)
        cfg.params.update(params)
        log = run_closed_loop(cfg)
        summaries[controller] = summarize(log)
        if controller == "pcbf":
            h0 = log.initial_h_star
    return summaries, h0


def _ratio(a, b):
    return a / b if b else (math.nan if a == 0 else math.inf)


def row(draw_id, summaries, h0):
    """The printed row of one draw and whether both claims hold on it."""
    pcbf, ecbf = summaries["pcbf"], summaries["ecbf"]
    dev = _ratio(pcbf["total_deviation"], ecbf["total_deviation"])
    peak = _ratio(pcbf["max_control_norm"], ecbf["max_control_norm"])
    push = _ratio(pcbf["max_deviation_norm"], ecbf["max_deviation_norm"])
    yes = lambda v: "yes" if v else "no"
    cells = [draw_id, f"{h0:.3g}", yes(not summaries["none"]["safe"]),
             yes(not summaries["nominal"]["safe"]), yes(pcbf["safe"]), yes(ecbf["safe"]),
             f"{dev:.3f}", f"{peak:.3f}", f"{push:.3f}"]
    return "".join(f"{c:>14}" for c in cells), dev < 1 and peak < 1


HEADER = "".join(f"{c:>14}" for c in ("draw", "H*(0)", "conflict_none", "conflict_nom",
                                         "pcbf_safe", "ecbf_safe", "dev_ratio", "peak_ratio",
                                         "push_ratio"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--only", default="",
                    help="comma-separated draw ids to run (e.g. left_turn_19,satellite_0); "
                         "all draws when empty")
    args = ap.parse_args(argv)
    only = set(filter(None, args.only.split(",")))
    groups = {"H*(0) <= 0": [], "H*(0) > 0": []}
    for draw_id, scenario, top, params in draws():
        if only and draw_id not in only:
            continue
        try:
            summaries, h0 = run_draw(scenario, top, params)
        except ConfigurationError as exc:
            print(f"{draw_id}: configuration error: {exc}")
            continue
        unsafe = tuple(not summaries[c]["safe"] for c in ("none", "nominal"))
        groups["H*(0) > 0" if h0 > 0 else "H*(0) <= 0"].append(
            (*row(draw_id, summaries, h0), unsafe))
    for name, rows in groups.items():
        print(f"== {name}: {len(rows)} draws ==")
        print(HEADER)
        for text, _, _ in rows:
            print(text)
        counts = []
        for k, by in enumerate(("none", "nominal")):
            kept = [holds for _, holds, unsafe in rows if unsafe[k]]
            counts.append(f"{sum(kept)} of {len(kept)} that conflict by {by}")
        print("both claims hold on " + ", and on ".join(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
