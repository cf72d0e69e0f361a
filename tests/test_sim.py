"""Closed-loop harness: logging, determinism, controller plumbing."""

import dataclasses

import numpy as np
import pytest

from pcbf.barrier import CASE_BOUNDARY_ROOT_SELF, CASE_END_ROOT_BEFORE, CASE_INTERIOR
from pcbf.core import ConfigurationError, make_compatible_alpha, rk4
from pcbf.horizon import MaximizerEntry
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
