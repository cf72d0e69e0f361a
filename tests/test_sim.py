"""Closed-loop harness: logging, determinism, controller plumbing."""

import dataclasses
import types

import numpy as np
import pytest

from pcbf import paths, simulate
from pcbf.barrier import (
    CASE_BOUNDARY_ROOT_SELF,
    CASE_END_ROOT_BEFORE,
    CASE_INTERIOR,
    derivative_affine,
    eval_pcbf,
)
from pcbf.core import (
    ClassKFunction,
    ConfigurationError,
    DegenerateMaximizerError,
    InternalConsistencyError,
    TangentialCrossingError,
    make_compatible_alpha,
    rk4,
)
from pcbf.horizon import MaximizerEntry
from pcbf.paths import OdePath
from pcbf.qp import build_cbf_constraint, solve_min_deviation
from pcbf.scenarios import CarPairModel, default_config
from pcbf.simulate import (
    PcbfController,
    build_scenario,
    make_context,
    make_controller,
    run_closed_loop,
)


def _short_cfg(controller="pcbf", duration=3.0):
    cfg = default_config("intersection_cross", controller)
    cfg.duration = duration
    return cfg


def test_log_shapes_and_time_grid():
    cfg = _short_cfg()
    log = run_closed_loop(cfg)
    n = int(round(cfg.duration / cfg.step)) + 1
    assert len(log.t) == n
    assert log.x.shape == (n, 4)
    assert log.u.shape == (n, 2)
    assert log.mu.shape == (n, 2)
    assert len(log.case) == n
    assert np.allclose(np.diff(log.t), cfg.step)
    assert not log.truncated
    x0 = build_scenario(cfg)[4]
    assert np.array_equal(log.x[0], x0)
    assert np.all(np.isfinite(log.h))
    assert np.all(np.isfinite(log.h_star))
    assert set(log.case) <= {CASE_INTERIOR, CASE_END_ROOT_BEFORE,
                             CASE_BOUNDARY_ROOT_SELF}
    assert log.initial_h_star is not None and log.initial_h_star <= 0.0


def test_runs_are_deterministic():
    a = run_closed_loop(_short_cfg())
    b = run_closed_loop(_short_cfg())
    for name in ("t", "x", "u", "mu", "h", "h_star", "feasible"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.case == b.case
    assert a.slack == b.slack
    assert a.active == b.active
    assert a.notes == b.notes


@pytest.mark.parametrize("controller", ["ecbf", "none", "nominal"])
def test_baseline_controllers_run(controller):
    log = run_closed_loop(_short_cfg(controller))
    assert not log.truncated
    assert np.all(np.isfinite(log.u))
    if controller == "none":
        assert np.all(log.u == 0.0)
    if controller == "nominal":
        assert np.array_equal(log.u, log.mu)
    if controller == "ecbf":
        assert np.all(np.isnan(log.h_star))


def test_make_controller_rejects_unknown():
    cfg = _short_cfg()
    model, h, path, mu_law, _ = build_scenario(cfg)
    bad = dataclasses.replace(cfg, controller="bogus")
    with pytest.raises(ConfigurationError):
        make_controller(bad, model, h, path, mu_law)


def test_rk4_plant_matches_double_integrator():
    model = CarPairModel()
    x = np.array([0.0, 1.0, 2.0, -1.0])
    u = np.array([0.5, -0.25])
    dt = 0.1
    # the plant step: one RK4 step of the field under the held input
    got = rk4(lambda t, y: model.drift(t, y) + model.input_matrix(t, y) @ u, 0.0, x, dt)
    # constant acceleration: exact for a polynomial of degree two
    exact = np.array([x[0] + x[1] * dt + 0.5 * u[0] * dt * dt,
                      x[1] + u[0] * dt,
                      x[2] + x[3] * dt + 0.5 * u[1] * dt * dt,
                      x[3] + u[1] * dt])
    assert np.allclose(got, exact, atol=1e-14)


class TestHysteresis:
    def _controller(self, intersection_setup):
        cfg, model, h, path, mu_law, _ = intersection_setup
        ctx = make_context(cfg, model, h, path)
        alpha = make_compatible_alpha(ctx.margin, cfg.gamma)
        return PcbfController(ctx, alpha), ctx

    def test_holds_previous_case_near_end_boundary(self, intersection_setup):
        ctrl, ctx = self._controller(intersection_setup)
        ctrl._prev_case = CASE_INTERIOR
        # maximizer just inside the horizon end: raw formula would switch
        entry = MaximizerEntry(tau=10.0 - 0.5 * ctx.grid_step, h_value=0.1,
                               at_start=False, at_end=True, root_eta=3.0,
                               root_is_self=False, already_unsafe=False)
        assert ctrl._held_case(entry, 0.0) == CASE_INTERIOR

    def test_does_not_hold_far_from_boundary(self, intersection_setup):
        ctrl, ctx = self._controller(intersection_setup)
        ctrl._prev_case = CASE_END_ROOT_BEFORE
        entry = MaximizerEntry(tau=5.0, h_value=0.1, at_start=False,
                               at_end=False, root_eta=3.0,
                               root_is_self=False, already_unsafe=False)
        assert ctrl._held_case(entry, 0.0) == CASE_INTERIOR

    def test_first_step_uses_raw_case(self, intersection_setup):
        ctrl, ctx = self._controller(intersection_setup)
        # no previous case to hold on the first step
        entry = MaximizerEntry(tau=10.0 - 0.5 * ctx.grid_step, h_value=0.1,
                               at_start=False, at_end=True, root_eta=3.0,
                               root_is_self=False, already_unsafe=False)
        assert ctrl._held_case(entry, 0.0) == CASE_END_ROOT_BEFORE

    def test_never_holds_root_before_formula_without_earlier_root(
            self, intersection_setup):
        ctrl, ctx = self._controller(intersection_setup)
        ctrl._prev_case = CASE_END_ROOT_BEFORE
        entry = MaximizerEntry(tau=10.0 - 0.5 * ctx.grid_step, h_value=0.1,
                               at_start=False, at_end=True,
                               root_eta=10.0 - 0.5 * ctx.grid_step,
                               root_is_self=True, already_unsafe=False)
        # the held formula needs a root strictly before the maximizer,
        # which this entry does not have
        assert ctrl._held_case(entry, 0.0) != CASE_END_ROOT_BEFORE


def test_pcbf_controller_step_fields(intersection_setup):
    cfg, model, h, path, mu_law, x0 = intersection_setup
    ctx = make_context(cfg, model, h, path)
    alpha = make_compatible_alpha(ctx.margin, cfg.gamma)
    ctrl = PcbfController(ctx, alpha)
    dec = ctrl.step(0.0, x0)
    assert dec.feasible
    assert dec.u.shape == (2,)
    assert dec.h == pytest.approx(float(h.value(0.0, x0)))
    assert np.isfinite(dec.h_star)
    assert dec.case in {CASE_INTERIOR, CASE_END_ROOT_BEFORE,
                        CASE_BOUNDARY_ROOT_SELF}


def _full_step(ctrl, t, x):
    """Oracle for PcbfController.step: every row built (derivative_affine
    on each entry) and the QP solved, as the filter did before it tested
    activity first."""
    ctx = ctrl.ctx
    mu = np.asarray(ctx.path.nominal_control(t, x), dtype=float)
    val = eval_pcbf(t, x, ctx)
    notes = []
    case_used = ctrl._held_case(val.maximizers.first, t)
    if case_used != val.case_label:
        notes.append(f"hysteresis held {case_used}")
    constraints = []
    for idx, entry in enumerate(val.maximizers.entries):
        try:
            deriv = derivative_affine(entry, t, x, ctx, val.grid,
                                      case=case_used if idx == 0 else None)
        except (TangentialCrossingError, DegenerateMaximizerError,
                InternalConsistencyError) as exc:
            if idx == 0:
                return dict(u=mu, active=[], slack=[], feasible=False,
                            note=f"derivative failed: {exc}")
            notes.append(f"slack row {idx} dropped: {exc}")
            continue
        constraints.append(build_cbf_constraint(
            val.h_vector[idx], deriv, ctrl.alpha, mu,
            slack_weight=None if idx == 0 else ctrl.slack_weight))
        if deriv.diagnostics:
            notes.append(deriv.diagnostics)
    res = solve_min_deviation(mu, constraints)
    if res.infeasible_reason:
        notes.append(res.infeasible_reason)
    return dict(u=res.u, active=res.active_set, slack=res.slack_values,
                feasible=res.feasible, note="; ".join(notes))


def _check_step_against_oracle(ctrl, log, k, monkeypatch):
    """Step at logged step k (with the logged previous case held) and at
    the oracle; returns the step's numbers of state_sensitivity and QP
    calls."""
    path = ctrl.ctx.path
    calls = {"sensitivity": 0, "qp": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(path, "state_sensitivity",
                        counted("sensitivity", path.state_sensitivity))
    t, x = float(log.t[k]), log.x[k]
    prev = log.case[k - 1] if k else None
    ctrl._prev_case = prev
    want = _full_step(ctrl, t, x)
    calls["sensitivity"] = 0
    ctrl._prev_case = prev
    with monkeypatch.context() as m:
        m.setattr(simulate, "solve_min_deviation",
                  counted("qp", simulate.solve_min_deviation))
        dec = ctrl.step(t, x)
    assert dec.u.shape == want["u"].shape and dec.u.tobytes() == want["u"].tobytes()
    assert dec.active == want["active"]
    assert dec.slack == want["slack"]
    assert dec.feasible == want["feasible"]
    assert dec.note == want["note"]
    return calls["sensitivity"], calls["qp"]


def _pick_steps(log, n=4):
    """Inactive steps (n spread over the run and the first of each case)
    and steps that build rows (n active ones and every infeasible one)."""
    inactive = [k for k in range(len(log.t)) if not log.active[k] and log.feasible[k]]
    active = [k for k in range(len(log.t)) if log.active[k]]
    infeasible = [k for k in range(len(log.t)) if not log.feasible[k]]
    spread = lambda ks: ks[:: max(1, len(ks) // n)][:n]
    first_of_case = {log.case[k]: k for k in reversed(inactive)}
    return sorted(set(spread(inactive)) | set(first_of_case.values())), \
        spread(active) + infeasible


@pytest.mark.parametrize("scenario", ["intersection_cross", "satellite"])
def test_activity_first_matches_full_qp(scenario, request, monkeypatch):
    """Inactive steps skip the sensitivity and return what the full QP
    returns; active, infeasible and near-tie steps build the rows."""
    fixture = {"intersection_cross": "intersection_pcbf", "satellite": "satellite_pcbf"}
    log = request.getfixturevalue(fixture[scenario]).log
    cfg = default_config(scenario, "pcbf")
    model, h, path, mu_law, _ = build_scenario(cfg)
    ctrl = make_controller(cfg, model, h, path, mu_law)
    inactive, built = _pick_steps(log)
    assert inactive and built
    for k in inactive:
        assert _check_step_against_oracle(ctrl, log, k, monkeypatch) == (0, 0)
    for k in built:
        assert _check_step_against_oracle(ctrl, log, k, monkeypatch)[1] == 1

    # near-ties: alpha(-H) within 1e-9 of c0 on either side of it
    k = inactive[-1]
    t, x = float(log.t[k]), log.x[k]
    val = eval_pcbf(t, x, ctrl.ctx)
    ctrl._prev_case = log.case[k - 1]
    c0 = derivative_affine(val.maximizers.first, t, x, ctrl.ctx, val.grid,
                           case=ctrl._held_case(val.maximizers.first, t)).constant
    for shift in (1e-9, -1e-9):
        ctrl.alpha = ClassKFunction(value=lambda s, c=c0 + shift * abs(c0): c)
        assert _check_step_against_oracle(ctrl, log, k, monkeypatch)[1] == 1


def test_satellite_steps_before_intervention_add_one_knot(satellite_setup, monkeypatch):
    """Work bound of the satellite loop before its first intervention: each
    step follows the forecast, so after the first step every step grows the
    forecast by one state knot (one RK4 step of a single state) and none
    co-integrates the sensitivity."""
    cfg, model, h, _, mu_law, x0 = satellite_setup
    # a fresh path: the built one already holds a forecast to t = duration
    path = OdePath(model, mu_law, step=cfg.step, jacobian=model.drift_jacobian)
    ctrl = make_controller(cfg, model, h, path, mu_law)
    knot_steps = []

    def counting_rk4(field, t, y, dt):
        if np.ndim(dt) == 0 and np.shape(y) == x0.shape:
            knot_steps.append(t)
        return rk4(field, t, y, dt)

    monkeypatch.setattr(paths, "rk4", counting_rk4)
    sensitivity_calls = []
    monkeypatch.setattr(path, "state_sensitivity", lambda *a: sensitivity_calls.append(a))
    x = x0
    for k in range(200):
        t = k * cfg.step
        before = len(knot_steps)
        dec = ctrl.step(t, x)
        assert dec.feasible and not dec.active
        assert len(knot_steps) - before == (round(cfg.T / cfg.step) if k == 0 else 1)
        x = rk4(lambda tq, y: model.drift(tq, y) + model.input_matrix(tq, y) @ dec.u,
                t, x, cfg.step)
    assert not sensitivity_calls


@pytest.mark.parametrize("alpha_value, active", [(None, False), (0.0, True)])
def test_activity_first_with_slack_rows(alpha_value, active, monkeypatch):
    """Four interior maximizers of h = 0.2 sin(2 tau) - 0.5 + 0.1 x on a
    frozen state give one hard and three slacked rows; with all of them
    slack at mu the step reports zero slacks without building a row, as the
    QP does."""
    from test_barrier import _FuncConstraint, _static_ctx

    h = _FuncConstraint(
        value=lambda t, x: 0.2 * np.sin(2.0 * t) - 0.5 + 0.1 * x[..., 0],
        grad_t=lambda t, x: 0.4 * np.cos(2.0 * t),
        grad_x=lambda t, x: np.array([0.1]),
    )
    ctx = _static_ctx(h)
    alpha = make_compatible_alpha(ctx.margin, 1.0)
    if alpha_value is not None:
        alpha = ClassKFunction(value=lambda s: alpha_value)
    ctrl = PcbfController(ctx, alpha)
    log = types.SimpleNamespace(t=[0.5], x=[np.zeros(1)], case=[""])
    sensitivity, qp = _check_step_against_oracle(ctrl, log, 0, monkeypatch)
    assert len(eval_pcbf(0.5, np.zeros(1), ctx).maximizers.entries) == 4
    assert (sensitivity > 0, qp) == (active, int(active))
    dec = ctrl.step(0.5, np.zeros(1))
    assert dec.feasible and len(dec.slack) == 3
    assert bool(np.any(dec.u != dec.mu)) == active
