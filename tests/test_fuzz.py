"""Closed-loop fuzz: short pcbf runs over drawn scenario parameters.

Each drawn configuration either is rejected as a configuration error or runs
twice, the second time with no scan started from the last grid, and the two
runs must agree bit for bit; any other exception fails the test.  A run whose
first barrier value is nonpositive, and that runs to its
end, must stay within the safety gate of the pinned runs, max h <= 1e-3 rho,
even when some step falls back to the nominal input; a run that starts with a
positive barrier value, or is cut short, must say so in a note.  At every
step the maximizer times must be increasing and at least REFINE_TOL apart.
The examples are derandomized, so the same ones run every time.  A failing
example is reported as drawn, unshrunk: each shrink step reruns whole
closed-loop runs, which took minutes.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from pcbf import barrier, simulate
from pcbf.core import ConfigurationError
from pcbf.horizon import REFINE_TOL
from pcbf.scenarios import default_config

_FUZZ = settings(derandomize=True, deadline=None, database=None,
                 phases=(Phase.explicit, Phase.reuse, Phase.generate))


def _run(cfg, carry=True):
    """The run's log and the maximizer times of each step that scanned;
    with carry=False no scan of the filter is given the last grid."""
    eval_pcbf, scan, taus = simulate.eval_pcbf, barrier.scan, []

    def recorded(t, x, ctx):
        val = eval_pcbf(t, x, ctx)
        taus.append([e.tau for e in val.maximizers.entries])
        return val

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "eval_pcbf", recorded)
        if not carry:
            mp.setattr(barrier, "scan", lambda *args, prev: scan(*args))
        return simulate.run_closed_loop(cfg), taus


def _recorded(log):
    """Everything a run logs except its step times, as comparable values."""
    arrays = (log.t, log.x, log.u, log.mu, log.h, log.h_star, log.feasible)
    return ([a.tobytes() for a in arrays], log.case, log.slack, log.active, log.notes,
            log.monitor_violations, log.infeasible_steps, log.truncated, log.initial_h_star)


def _check_closed_loop(cfg):
    try:
        log, taus = _run(cfg)
    except ConfigurationError:
        return
    assert _recorded(_run(cfg, carry=False)[0]) == _recorded(log)

    if log.initial_h_star is not None and log.initial_h_star > 0 or log.truncated:
        assert log.notes
    else:
        assert np.max(log.h) <= 1e-3 * cfg.params["rho"]

    assert taus
    for step in taus:
        assert step and np.all(np.diff(step) >= REFINE_TOL), step


@settings(_FUZZ, max_examples=10)
@given(scenario=st.sampled_from(["intersection_cross", "intersection_left_turn"]),
       z1_0=st.floats(-15.0, -5.0), offset=st.floats(-2.0, 2.0),
       v1=st.floats(0.5, 2.0), v2=st.floats(0.5, 2.0),
       dz1_0=st.floats(0.0, 2.0), dz2_0=st.floats(0.0, 2.0),
       k=st.floats(0.05, 5.0), turn_radius=st.floats(0.5, 10.0))
def test_intersection_closed_loop(scenario, z1_0, offset, v1, v2, dz1_0, dz2_0, k,
                                  turn_radius):
    """20 s of the car pair.  Car 2 starts `offset` ahead of the point from
    which it would reach the crossing with car 1, both at their nominal
    speeds, so most draws conflict; initial speeds, tracking gain and turn
    radius are drawn too."""
    cfg = default_config(scenario, "pcbf")
    cfg.duration = 20.0
    cfg.params.update(z1_0=z1_0, z2_0=z1_0 * v2 / v1 + offset, dz1_0=dz1_0, dz2_0=dz2_0,
                      v1=v1, v2=v2, k=k)
    if scenario == "intersection_left_turn":
        cfg.params.update(turn_radius=turn_radius)
    _check_closed_loop(cfg)


@settings(_FUZZ, max_examples=6)
@given(phase_offset=st.floats(-6e-5, 6e-5), conjunction_time=st.floats(5.0, 460.0),
       T=st.floats(100.0, 300.0), N=st.integers(50, 300),
       inclination_deg=st.floats(10.0, 150.0), radius=st.floats(6600.0, 8000.0))
def test_satellite_closed_loop(phase_offset, conjunction_time, T, N, inclination_deg, radius):
    """The satellite from its drawn debris phase lag to 20 s past the drawn
    conjunction time, which the drawn horizon T sees from the start when it
    is early; lags beyond about 0.5 / radius rad never come within rho / 2
    and are configuration errors.  The debris orbit's inclination and both
    orbits' radius are drawn too, from a slow prograde crossing to a fast
    retrograde one.  The grid step T / N is drawn apart from the 1 s
    control step, so the carried scan times and search probes fall between
    the forecast's knots."""
    cfg = default_config("satellite", "pcbf")
    cfg.duration = conjunction_time + 20.0
    cfg.T, cfg.N = T, N
    cfg.params.update(phase_offset=phase_offset, conjunction_time=conjunction_time,
                      inclination_deg=inclination_deg, radius=radius)
    _check_closed_loop(cfg)
