"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line with the measured quantity so the whole
gate can be read off a single `pytest -s tests/test_acceptance.py` run.
"""

import copy
import math
import time

import numpy as np
import pytest

from pcbf.barrier import derivative_affine, eval_pcbf
from pcbf.cli import summarize
from pcbf.core import make_default_margin
from pcbf.paths import OdePath
from pcbf.qp import solve_min_deviation
from pcbf.scenarios import default_config, satellite_initial_state
from pcbf.simulate import build_scenario, make_context, run_closed_loop

from qp_oracle import grid_search, random_instance, slsqp_reference


def _report(name, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- 1. the predictive value flags every currently-violating random state ----

def test_unsafe_states_have_positive_predictive_value():
    rng = np.random.default_rng(0)
    results = []

    cfg = default_config("intersection_cross")
    model, h, path, mu_law, _ = build_scenario(cfg)
    ctx = make_context(cfg, h, path)
    B = 10000
    X = np.column_stack([rng.uniform(-15, 5, B), rng.uniform(0, 2, B),
                         rng.uniform(-15, 5, B), rng.uniform(0, 2, B)])
    t0 = time.perf_counter()
    pos = bad = 0
    for b in range(B):
        x = X[b]
        if float(h.value(0.0, x)) > 0:
            pos += 1
            if eval_pcbf(0.0, x, ctx).h_star <= 0:
                bad += 1
    el_i = time.perf_counter() - t0
    results.append(("intersection", pos, bad, el_i))

    cfg = default_config("satellite")
    model, h, path, mu_law, _ = build_scenario(cfg)
    h.two_level = False  # the dense pass is unnecessary for a point query
    ctx = make_context(cfg, h, path)
    x_sat = satellite_initial_state(cfg)
    debris0 = np.concatenate(h.spline.state(0.0))
    half = B // 2
    Xs = np.empty((B, 6))
    Xs[:half, :3] = x_sat[:3] + rng.uniform(-5, 5, (half, 3))
    Xs[:half, 3:] = x_sat[3:] + rng.uniform(-0.01, 0.01, (half, 3))
    Xs[half:, :3] = debris0[:3] + rng.uniform(-2, 2, (B - half, 3))
    Xs[half:, 3:] = debris0[3:] + rng.uniform(-0.005, 0.005, (B - half, 3))
    t0 = time.perf_counter()
    pos = bad = 0
    for b in range(B):
        x = Xs[b]
        if float(h.value(0.0, x)) > 0:
            pos += 1
            if eval_pcbf(0.0, x, ctx).h_star <= 0:
                bad += 1
    el_s = time.perf_counter() - t0
    results.append(("satellite", pos, bad, el_s))

    detail = "; ".join(f"{n}: {p} violating of 10000, {b} missed, {e:.1f}s"
                       for n, p, b, e in results)
    ok = all(b == 0 and p > 0 and e < 60.0 for _, p, b, e in results)
    _report("positive h implies positive predictive value", ok, detail)


# -- 2. the predictive filter keeps every scenario safe ----------------------

def test_filtered_runs_stay_safe(intersection_pcbf, intersection_left_pcbf,
                                 satellite_pcbf):
    runs = [("intersection_cross", intersection_pcbf),
            ("intersection_left_turn", intersection_left_pcbf),
            ("satellite", satellite_pcbf)]
    parts, ok = [], True
    for name, tr in runs:
        rho = tr.log.cfg.params["rho"]
        max_h = float(np.max(tr.log.h))
        good = max_h <= 1e-3 * rho and tr.wall_s < 60.0 and not tr.log.truncated
        ok = ok and good
        parts.append(f"{name}: max h={max_h:.3g} (limit {1e-3 * rho:.0e}), "
                     f"{tr.wall_s:.1f}s")
    _report("filtered closed-loop runs stay safe", ok, "; ".join(parts))


def test_barrier_value_stays_nonpositive_along_runs(intersection_pcbf,
                                                    intersection_left_pcbf,
                                                    satellite_pcbf):
    for tr in (intersection_pcbf, intersection_left_pcbf, satellite_pcbf):
        finite = np.isfinite(tr.log.h_star)
        h_max = tr.log.cfg.params["rho"]
        assert float(np.max(tr.log.h_star[finite])) <= 1e-3 * h_max


# -- 3. the reactive baseline deadlocks the intersection ---------------------

def test_reactive_baseline_deadlocks_intersection(intersection_ecbf):
    log = intersection_ecbf.log
    v_nominal = (log.cfg.params["v1"], log.cfg.params["v2"])
    stalled = []
    for car, (pos_i, vel_i) in enumerate([(0, 1), (2, 3)]):
        min_speed = float(np.min(log.x[:, vel_i]))
        crossed = bool(log.x[-1, pos_i] > 0.0)
        if min_speed < 0.05 * v_nominal[car] and not crossed:
            stalled.append(f"car{car + 1} (min speed {min_speed:.3f})")
    ok = len(stalled) >= 1 and float(np.max(log.h)) <= 0.0
    _report("reactive baseline deadlocks the intersection", ok,
            f"stalled without crossing: {', '.join(stalled) or 'none'}")


# -- 4. the predictive filter acts far more gently on the satellite ----------

def test_satellite_peak_thrust_ratio(satellite_pcbf, satellite_ecbf):
    peak = lambda log: float(np.max(np.linalg.norm(log.u, axis=1)))
    p, e = peak(satellite_pcbf.log), peak(satellite_ecbf.log)
    ratio = e / p
    _report("reactive baseline needs much larger peak thrust", ratio >= 5.0,
            f"peak |u| ecbf/pcbf = {e:.3g}/{p:.3g} = {ratio:.1f} (needs >= 5)")


# -- 5. the uncontrolled satellite genuinely violates the keep-out zone ------

def test_uncontrolled_satellite_violates(satellite_none):
    log = satellite_none.log
    max_h = float(np.max(log.h))
    rho = log.cfg.params["rho"]
    _report("uncontrolled satellite enters the keep-out zone",
            max_h >= 0.5 * rho, f"max h = {max_h:.3f} (needs >= {0.5 * rho})")


# -- 6. the affine derivative matches a finite-difference oracle -------------

def _fd_rate(ctx, model, t, x, u, d=1e-4):
    xdot = model.drift(t, x) + model.input_matrix(t, x) @ u
    hp = eval_pcbf(t + d, x + d * xdot, ctx).h_star
    hm = eval_pcbf(t - d, x - d * xdot, ctx).h_star
    return (hp - hm) / (2 * d)


def _harvest(log, ctx, model, path, buckets, cap=150, steps=None, d=1e-4,
             tol=lambda fd: max(1e-3, 1e-2 * abs(fd))):
    """Collect per-case finite-difference comparisons (err, tol) from the
    logged steps (all by default), skipping states within two control steps
    of a case transition."""
    cases, n = log.case, len(log.t)
    for k in range(n) if steps is None else steps:
        c = cases[k]
        if not c or len(buckets.get(c, ())) >= cap:
            continue
        if any(cases[j] != c for j in range(max(k - 2, 0), min(k + 3, n))):
            continue
        t, x, u = float(log.t[k]), log.x[k], log.u[k]
        val = eval_pcbf(t, x, ctx)
        ent = val.maximizers.first
        if ent.already_unsafe:
            continue
        deriv = derivative_affine(ent, ctx, val.grid)
        if deriv.diagnostics:
            continue
        mu = path.nominal_control(t, x)
        ana = deriv.constant + float(deriv.row @ (u - mu))
        fd = _fd_rate(ctx, model, t, x, u, d)
        buckets.setdefault(c, []).append((abs(ana - fd), tol(fd)))


def test_derivative_matches_finite_difference_per_case(intersection_pcbf):
    cfg = default_config("intersection_cross")
    model, h, path, mu_law, _ = build_scenario(cfg)
    ctx = make_context(cfg, h, path)
    buckets = {}
    _harvest(intersection_pcbf.log, ctx, model, path, buckets)
    # the late-horizon structural case is brief in any single run, so sample
    # it across several initial offsets of the second car
    for z2_0 in (-11.0, -11.3, -11.7, -12.5):
        vcfg = copy.deepcopy(cfg)
        vcfg.params["z2_0"] = z2_0
        _harvest(run_closed_loop(vcfg), ctx, model, path, buckets)
    parts, ok = [], True
    for case in sorted(buckets):
        lst = buckets[case]
        worst = max(e / t for e, t in lst)
        good = len(lst) >= 50 and all(e <= t for e, t in lst)
        ok = ok and good
        parts.append(f"{case}: n={len(lst)}, worst err/tol={worst:.2f}")
    ok = ok and len(buckets) == 3
    _report("affine derivative matches finite differences per case", ok,
            "; ".join(parts))


def test_satellite_derivative_matches_finite_difference_per_case(satellite_pcbf):
    """The row built from the closed-form dp/dx g of the satellite path,
    checked on the satellite's intervening steps (u != mu), which the
    intersection oracle above cannot reach.  |dH*/dt| is only about 1e-4 there, so the
    tolerance is relative."""
    log = satellite_pcbf.log
    model, h, path, _, _ = build_scenario(log.cfg)
    ctx = make_context(log.cfg, h, path)
    steps = np.flatnonzero(np.linalg.norm(log.u - log.mu, axis=1) > 1e-9)
    buckets = {}
    _harvest(log, ctx, model, path, buckets, steps=steps.tolist(), d=1e-2,
             tol=lambda fd: 1e-3 * abs(fd) + 1e-9)
    parts, ok = [], len(buckets) > 0
    for case in sorted(buckets):
        lst = buckets[case]
        worst = max(e / t for e, t in lst)
        ok = ok and len(lst) >= 30 and all(e <= t for e, t in lst)
        parts.append(f"{case}: n={len(lst)} of {steps.size} intervening, "
                     f"worst err/tol={worst:.3f}")
    _report("satellite affine derivative matches finite differences per case", ok,
            "; ".join(parts))


# -- 7. intervention begins as soon as the threat enters the horizon ---------

def test_satellite_intervention_timing(satellite_pcbf):
    log = satellite_pcbf.log
    cfg = log.cfg
    margin = make_default_margin(cfg.params["rho"], cfg.T)
    threshold = -0.5 * margin.value(cfg.T)
    above = np.flatnonzero(np.nan_to_num(log.h_star, nan=-np.inf) > threshold)
    dev = np.linalg.norm(log.u - log.mu, axis=1)
    acted = np.flatnonzero(dev > 1e-9)
    ok = above.size > 0 and acted.size > 0 and abs(int(acted[0]) - int(above[0])) <= 2
    detail = (f"threat crosses threshold at step {above[0] if above.size else 'never'}, "
              f"first control action at step {acted[0] if acted.size else 'never'}")
    _report("filter acts when the threat enters the horizon", ok, detail)


# -- 8. the filter agrees with independent solvers on random problems --------

def test_filter_matches_independent_oracles():
    rng = np.random.default_rng(11)
    worst_u = worst_dev = 0.0
    fails = 0
    for _ in range(200):
        mu, cons = random_instance(rng)
        res = solve_min_deviation(mu, cons)
        _, u_grid = grid_search(mu, cons)
        dev_err = abs(float(np.linalg.norm(res.u - mu)) - float(np.linalg.norm(u_grid - mu)))
        u_ref = slsqp_reference(mu, cons)
        u_err = float(np.max(np.abs(res.u - u_ref)))
        worst_u, worst_dev = max(worst_u, u_err), max(worst_dev, dev_err)
        if u_err > 1e-6 or dev_err > 2e-3:
            fails += 1
    _report("filter matches grid search and scipy on 200 random problems",
            fails == 0,
            f"worst u err {worst_u:.2e}, worst deviation err {worst_dev:.2e}")


# -- 9. per-step cost stays interactive --------------------------------------

def test_mean_step_time(intersection_pcbf, satellite_pcbf):
    parts, ok = [], True
    for name, tr in [("intersection", intersection_pcbf),
                     ("satellite", satellite_pcbf)]:
        mean_ms = float(np.mean(tr.log.step_ms))
        ok = ok and mean_ms < 250.0
        parts.append(f"{name}: {mean_ms:.1f} ms")
    _report("mean filter step under 250 ms", ok, "; ".join(parts))


# -- 10. the flow map honors its contracts -----------------------------------

def test_flow_map_contracts():
    cfg = default_config("satellite")
    model, h, path, mu_law, x0 = build_scenario(cfg)
    assert isinstance(path, OdePath)
    checks = []

    # evaluating at the initial time returns the state bit-for-bit
    checks.append(("identity", np.array_equal(path.evaluate_many([0.0], 0.0, x0)[0], x0)))

    # the flow satisfies the closed-loop differential equation
    worst = 0.0
    for tau in (30.0, 100.0, 217.3):
        d = 1e-3
        ahead, behind = path.evaluate_many([tau + d, tau - d], 0.0, x0)
        pd = (ahead - behind) / (2 * d)
        fld = path.field(tau, path.evaluate_many([tau], 0.0, x0)[0])
        worst = max(worst, float(np.max(np.abs(pd - fld)))
                    / (1.0 + float(np.linalg.norm(fld))))
    checks.append((f"field residual {worst:.1e}", worst <= 1e-6))

    # restarting from an intermediate state reproduces the same endpoint
    mid = path.evaluate_many([100.0], 0.0, x0)[0]
    direct = path.evaluate_many([220.0], 0.0, x0)[0]
    relayed = path.evaluate_many([220.0], 100.0, mid)[0]
    semi = float(np.max(np.abs(direct - relayed))) / (1.0 + float(np.linalg.norm(direct)))
    checks.append((f"semigroup residual {semi:.1e}", semi <= 1e-6))

    # specific orbital energy is conserved over one full revolution
    mu_grav = cfg.params["mu_grav"]
    energy = lambda x: 0.5 * float(x[3:] @ x[3:]) - mu_grav / float(np.linalg.norm(x[:3]))
    period = 2 * math.pi * math.sqrt(cfg.params["radius"] ** 3 / mu_grav)
    e0 = energy(x0)
    e1 = energy(path.evaluate_many([period], 0.0, x0)[0])
    drift = abs(e1 - e0) / abs(e0)
    checks.append((f"energy drift {drift:.1e}", drift <= 1e-8))

    ok = all(c[1] for c in checks)
    _report("flow map contracts", ok, "; ".join(c[0] for c in checks))


# -- 11. the abstract's first two claims hold on drawn conflicting scenarios -

# Draws from the fuzz's parameter ranges at full duration, numpy
# default_rng(7): 20 car-pair draws (the scenario, then z1_0, offset, v1, v2,
# dz1_0, dz2_0, k and turn_radius, with z2_0 = z1_0 v2 / v1 + offset), then 12
# satellite draws (phase_offset, conjunction_time, T, N, inclination_deg,
# radius).  Kept are the conflicting ones, whose uncontrolled run is unsafe,
# that start with H*(0) <= 0; these are the first two of each family, their
# ids the draw's index within it.  No kept draw of the 32 broke any of the
# three checks below.
_CLAIM_DRAWS = [
    ("intersection_left_turn", {}, dict(
        z1_0=-10.320650471562793, z2_0=-10.711119963483295, dz1_0=0.8901526117652931,
        dz2_0=1.0090965179159066, v1=0.91763841815116, v2=0.8823043814811868,
        k=2.7898118927687374, turn_radius=9.95725269262673)),
    ("intersection_left_turn", {}, dict(
        z1_0=-6.598311828416104, z2_0=-7.2714894780346, dz1_0=1.1893697409765571,
        dz2_0=1.3185500132181265, v1=1.405668537975298, v2=1.2187947423344372,
        k=1.567964479899916, turn_radius=9.63283302499634)),
    ("satellite", dict(T=227.04523677994263, N=72), dict(
        phase_offset=-4.099195792665009e-06, conjunction_time=290.7858889635326,
        inclination_deg=18.66115854189238, radius=7176.123552897165)),
    ("satellite", dict(T=245.997849800413, N=96), dict(
        phase_offset=3.168361061261624e-05, conjunction_time=375.9259136727561,
        inclination_deg=25.84869335353122, radius=7878.696806143464)),
]


@pytest.mark.parametrize("scenario, top, params", _CLAIM_DRAWS,
                         ids=["left_turn_1", "left_turn_19", "satellite_0", "satellite_1"])
def test_pcbf_deviates_less_and_pushes_less_than_ecbf(scenario, top, params):
    """Less modification of the nominal input, a smaller peak input and a
    smaller peak push |u - mu| than the reactive CBF, on drawn conflicting
    scenarios."""
    runs = {}
    for controller in ("none", "pcbf", "ecbf"):
        cfg = default_config(scenario, controller)
        for key, value in top.items():
            setattr(cfg, key, value)
        cfg.params.update(params)
        runs[controller] = run_closed_loop(cfg)
    none, pcbf, ecbf = (summarize(runs[c]) for c in ("none", "pcbf", "ecbf"))
    assert not none["safe"] and runs["pcbf"].initial_h_star <= 0 and pcbf["safe"]
    _report("pcbf deviates less than ecbf", pcbf["total_deviation"] < ecbf["total_deviation"],
            f"total deviation {pcbf['total_deviation']:.4g} against {ecbf['total_deviation']:.4g}")
    _report("pcbf's peak input is below ecbf's",
            pcbf["max_control_norm"] < ecbf["max_control_norm"],
            f"peak |u| {pcbf['max_control_norm']:.4g} against {ecbf['max_control_norm']:.4g}")
    _report("pcbf's peak push is below ecbf's",
            pcbf["max_deviation_norm"] < ecbf["max_deviation_norm"],
            f"peak |u - mu| {pcbf['max_deviation_norm']:.4g} "
            f"against {ecbf['max_deviation_norm']:.4g}")
