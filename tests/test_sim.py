"""Closed-loop harness: logging, determinism, controller plumbing."""

import dataclasses
import itertools
import types

import numpy as np
import pytest

from pcbf import barrier, scenarios, simulate
from pcbf.barrier import (
    CASE_BOUNDARY_ROOT_SELF,
    CASE_END_ROOT_BEFORE,
    CASE_INTERIOR,
    classify_case,
    derivative_affine,
    eval_pcbf,
)
from pcbf.core import (
    ConfigurationError,
    ConstraintFunction,
    DegenerateMaximizerError,
    InternalConsistencyError,
    PropagationError,
    TangentialCrossingError,
    make_compatible_alpha,
    rk4,
)
from pcbf.horizon import MaximizerEntry
from pcbf.paths import OdePath
from pcbf.qp import AffineConstraint, build_cbf_constraint, solve_min_deviation
from pcbf.scenarios import CarPairModel, TwoBodyModel, default_config
from pcbf.simulate import (
    SLACK_WEIGHT,
    EcbfController,
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
    got = rk4(lambda t, y: model.field(t, y, u), 0.0, x, dt)
    # constant acceleration: exact for a polynomial of degree two
    exact = np.array([x[0] + x[1] * dt + 0.5 * u[0] * dt * dt,
                      x[1] + u[0] * dt,
                      x[2] + x[3] * dt + 0.5 * u[1] * dt * dt,
                      x[3] + u[1] * dt])
    assert np.allclose(got, exact, atol=1e-14)


@pytest.mark.parametrize("model, n", [(CarPairModel(), 4), (TwoBodyModel(398600.4418), 6)],
                         ids=["car_pair", "two_body"])
def test_model_field_is_drift_plus_input_matrix_times_u(model, n, monkeypatch):
    """field(t, x, 0) is drift's array and forms no input matrix; with a
    nonzero u it has the bytes of drift + g u as the plant and the path each
    formed it, for single states and batches."""
    rng = np.random.default_rng(3)
    m = model.input_matrix(0.0, np.ones(n)).shape[1]
    calls, orig = [], model.input_matrix
    monkeypatch.setattr(model, "input_matrix", lambda t, x: calls.append(t) or orig(t, x))
    for shape in [(), (1,), (15,), (3, 5)]:
        x = rng.uniform(-8000.0, 8000.0, shape + (n,))
        x[..., -1] = -0.0  # a -0.0 in drift, which adding a zero g u would turn to 0.0
        t = rng.uniform(0.0, 700.0, shape)
        assert model.field(t, x, np.zeros(shape + (m,))).tobytes() == model.drift(t, x).tobytes()
        assert not calls
        u = rng.normal(size=shape + (m,))
        g = model.input_matrix(t, x)
        want = (model.drift(t, x) + g @ u if shape == () else
                model.drift(t, x) + np.einsum("...ij,...j->...i", g, u))
        assert model.field(t, x, u).tobytes() == want.tobytes()
        calls.clear()


def test_coasting_plant_step_is_the_fused_coast_step():
    """A plant step under zero thrust is the drift's RK4 step, which the
    forecast's float knot chain takes: a plant that follows the forecast
    lands on a knot's bytes.  States lie near the pinned orbit, all round it."""
    p = default_config("satellite").params
    model = TwoBodyModel(p["mu_grav"])
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = float(rng.integers(0, 700))
        x = scenarios._circular_state(p["radius"], p["mu_grav"], 0.0, rng.uniform(0.0, 2 * np.pi))
        x *= 1.0 + rng.normal(scale=1e-3, size=6)
        step = rk4(lambda tq, y: model.field(tq, y, np.zeros(3)), t, x, 1.0)
        assert step.tobytes() == np.array(model.coast_step(t, x.tolist(), 1.0)).tobytes()


def test_uncontrolled_satellite_run_forms_one_input_matrix(monkeypatch):
    """The uncontrolled run's plant and forecast both coast, so the only
    input matrix is the one that sizes the log's input columns."""
    calls = []
    orig = TwoBodyModel.input_matrix
    monkeypatch.setattr(TwoBodyModel, "input_matrix",
                        lambda self, t, x: calls.append(t) or orig(self, t, x))
    log = run_closed_loop(default_config("satellite", "none"))
    assert len(log.t) == 701 and len(calls) == 1


class _ConstantConstraint(ConstraintFunction):
    """h(t, x) = c: both gradients vanish, so the ECBF row is zero."""

    h_max = 1.0

    def __init__(self, c):
        self.c = c

    def value(self, t, x):
        return self.c

    def partials(self, t, x):
        return 0.0, np.zeros(np.shape(x)[-1])


@pytest.mark.parametrize("c, feasible, note", [(1.0, False, "zero constraint row"),
                                               (-1.0, True, "")])
def test_ecbf_zero_row_passes_mu_through(c, feasible, note):
    """A zero row leaves the bound -k2 h: unsatisfiable for h > 0, slack
    for h < 0.  Either way the step returns the nominal input."""
    mu = np.array([0.3, -0.2])
    ctrl = EcbfController(_ConstantConstraint(c), (2.0, 0.05), CarPairModel(),
                          lambda t, x: mu)
    dec = ctrl.step(0.0, np.array([-10.0, 1.0, -9.0, 1.0]))
    assert np.array_equal(dec.u, mu) and np.array_equal(dec.mu, mu)
    assert dec.feasible == feasible
    assert dec.note == note
    assert dec.h == c and dec.active == []


def test_ecbf_step_calls_mu_and_h_once(monkeypatch):
    cfg = _short_cfg("ecbf")
    model, h, path, mu_law, x0 = build_scenario(cfg)
    calls = {"mu": 0, "h": 0}

    def counted_mu(t, x):
        calls["mu"] += 1
        return mu_law(t, x)

    def counted_value(t, x, value=h.value):
        calls["h"] += 1
        return value(t, x)

    monkeypatch.setattr(h, "value", counted_value)
    ctrl = make_controller(cfg, model, h, path, counted_mu)
    assert isinstance(ctrl, EcbfController)
    ctrl.step(0.0, x0)
    assert calls == {"mu": 1, "h": 1}


def _parent_ecbf_u(ctrl, t, x):
    """EcbfController.step's input with the hand-written central-difference
    loop it had before it used finite_diff_jacobian (oracle)."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(ctrl._mu_law(t, x), dtype=float)
    h_now = float(ctrl.h.value(t, x))
    hdot = ctrl._hdot
    dt = 1e-6
    dpsi_dt = (hdot(t + dt, x) - hdot(t - dt, x)) / (2.0 * dt)
    dpsi_dx = np.empty(x.size)
    for i in range(x.size):
        d = max(1e-6, 1e-7 * abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += d
        xm[i] -= d
        dpsi_dx[i] = (hdot(t, xp) - hdot(t, xm)) / (2.0 * d)
    f = ctrl.model.drift(t, x)
    g = ctrl.model.input_matrix(t, x)
    bound = -ctrl.k1 * hdot(t, x) - ctrl.k2 * h_now - dpsi_dt - float(dpsi_dx @ f)
    return np.asarray(solve_min_deviation(
        mu, [AffineConstraint(row=dpsi_dx @ g, bound=bound)]).u, dtype=float)


@pytest.mark.parametrize("fixture", ["intersection_ecbf", "intersection_left_ecbf",
                                     "satellite_ecbf"])
def test_ecbf_step_matches_parent_loop(fixture, request):
    log = request.getfixturevalue(fixture).log
    model, h, path, mu_law, _ = build_scenario(log.cfg)
    ctrl = make_controller(log.cfg, model, h, path, mu_law)
    ks = np.linspace(0, len(log.t) - 1, 50).astype(int)
    active = 0
    for k in ks:
        t, x = float(log.t[k]), log.x[k]
        dec = ctrl.step(t, x)
        assert np.array_equal(dec.u, _parent_ecbf_u(ctrl, t, x))
        active += bool(dec.active)
    assert active > 0


class _ScriptedController:
    """Returns the given decisions in turn, then raises PropagationError."""

    def __init__(self, decisions):
        self.decisions = list(decisions)

    def step(self, t, x):
        if not self.decisions:
            raise PropagationError("scripted end")
        return self.decisions.pop(0)


def test_run_log_is_built_from_the_step_records(monkeypatch):
    mu = np.array([0.1, -0.1])
    decs = [
        simulate.StepDecision(u=mu, mu=mu, h=-1.0, h_star=0.25, case=CASE_INTERIOR,
                              feasible=True, note="first"),
        simulate.StepDecision(u=np.zeros(2), mu=mu, h=-0.5, h_star=-0.1,
                              case=CASE_END_ROOT_BEFORE, feasible=False,
                              slack=[0.5], active=[0], monitor_ok=False),
        simulate.StepDecision(u=mu, mu=mu, h=-0.2, h_star=-0.2,
                              case=CASE_BOUNDARY_ROOT_SELF, feasible=False,
                              monitor_ok=False, note="third"),
    ]
    monkeypatch.setattr(simulate, "make_controller",
                        lambda *args: _ScriptedController(decs))
    cfg = _short_cfg()
    log = run_closed_loop(cfg)
    assert np.array_equal(log.t, [0.0, cfg.step, 2 * cfg.step])
    assert log.x.shape == (3, 4) and np.array_equal(log.x[0], build_scenario(cfg)[4])
    assert np.array_equal(log.u, [mu, np.zeros(2), mu])
    assert np.array_equal(log.h, [-1.0, -0.5, -0.2])
    assert np.array_equal(log.h_star, [0.25, -0.1, -0.2])
    assert log.case == [CASE_INTERIOR, CASE_END_ROOT_BEFORE, CASE_BOUNDARY_ROOT_SELF]
    assert log.feasible.tolist() == [True, False, False]
    assert log.slack == [[], [0.5], []] and log.active == [[], [0], []]
    assert log.step_ms.shape == (3,)
    assert (log.monitor_violations, log.infeasible_steps) == (2, 2)
    assert log.truncated and log.initial_h_star == 0.25
    assert log.notes == ["initial barrier value positive: 0.25", "t=0.0: first",
                         f"t={2 * cfg.step}: third",
                         f"t={3 * cfg.step}: aborted (scripted end)"]


class TestHysteresis:
    def _controller(self, intersection_setup):
        cfg, model, h, path, mu_law, _ = intersection_setup
        ctx = make_context(cfg, h, path)
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

    def test_matches_parent_on_every_combination(self, intersection_setup):
        """Each previous case against entries of every flag combination,
        inside, at and beyond both bands."""
        ctrl, ctx = self._controller(intersection_setup)
        band_t, band_h = 2.0 * ctx.grid_step, 1e-6 * ctx.h.h_max
        held = 0
        for prev, tau, h_value, *flags in itertools.product(
                (None, CASE_INTERIOR, CASE_END_ROOT_BEFORE, CASE_BOUNDARY_ROOT_SELF),
                (10.0 - 0.5 * band_t, 10.0 - band_t, 10.0 - 1.5 * band_t, 5.0),
                (0.1, -2.0 * band_h, band_h, -0.5 * band_h),
                *[(False, True)] * 4):
            at_start, at_end, root_is_self, already_unsafe = flags
            entry = MaximizerEntry(tau, h_value, at_start, at_end, 3.0, root_is_self,
                                   already_unsafe)
            ctrl._prev_case = prev
            try:
                want = _parent_held_case(ctrl, entry, 0.0)
            except InternalConsistencyError:
                with pytest.raises(InternalConsistencyError):
                    ctrl._held_case(entry, 0.0)
                continue
            assert ctrl._held_case(entry, 0.0) == want
            held += want != classify_case(entry)
        assert held >= 40


def _parent_held_case(ctrl, entry, t):
    """PcbfController._held_case as it was written pair by pair (oracle)."""
    raw = classify_case(entry)
    prev = ctrl._prev_case
    if prev is None or prev == raw or entry.already_unsafe:
        return raw
    band_t = 2.0 * ctrl.ctx.grid_step
    band_h = 1e-6 * ctrl.ctx.h.h_max
    near_end = (t + ctrl.ctx.T - entry.tau) <= band_t
    near_zero = abs(entry.h_value) <= band_h
    pair = {raw, prev}
    if pair == {CASE_INTERIOR, CASE_END_ROOT_BEFORE} and near_end:
        if prev == CASE_END_ROOT_BEFORE and entry.root_is_self:
            return raw
        return prev
    if pair == {CASE_INTERIOR, CASE_BOUNDARY_ROOT_SELF} and near_end:
        return prev
    if pair == {CASE_END_ROOT_BEFORE, CASE_BOUNDARY_ROOT_SELF} and near_zero:
        if prev == CASE_END_ROOT_BEFORE and entry.root_is_self:
            return raw
        return prev
    return raw


def test_pcbf_controller_step_fields(intersection_setup):
    cfg, model, h, path, mu_law, x0 = intersection_setup
    ctx = make_context(cfg, h, path)
    alpha = make_compatible_alpha(ctx.margin, cfg.gamma)
    ctrl = PcbfController(ctx, alpha)
    dec = ctrl.step(0.0, x0)
    assert dec.feasible
    assert dec.u.shape == (2,)
    assert dec.h == pytest.approx(float(h.value(0.0, x0)))
    assert np.isfinite(dec.h_star)
    assert dec.case in {CASE_INTERIOR, CASE_END_ROOT_BEFORE,
                        CASE_BOUNDARY_ROOT_SELF}


@pytest.mark.parametrize("fixture", ["intersection_pcbf", "intersection_left_pcbf",
                                     "satellite_pcbf"])
def test_pcbf_step_h_is_h_value_at_the_state(fixture, request):
    """Each step reads h(t, x) from its grid's first sample, at tau = t:
    h.value(t, x) bit for bit at every logged state."""
    log = request.getfixturevalue(fixture).log
    h = build_scenario(log.cfg)[1]
    want = [float(h.value(t, x)) for t, x in zip(log.t.tolist(), log.x)]
    assert log.h.tobytes() == np.array(want).tobytes()


def test_pcbf_step_when_the_scan_fails(intersection_setup, monkeypatch):
    """A scan that raises PropagationError passes mu through, and still logs
    h(t, x), from the constraint itself: there is no grid to read it from."""
    cfg, model, h, path, mu_law, x0 = intersection_setup
    ctx = make_context(cfg, h, path)
    ctrl = PcbfController(ctx, make_compatible_alpha(ctx.margin, cfg.gamma))

    def failing_scan(t, x, ctx):
        raise PropagationError("non-finite state at tau=3.5")

    monkeypatch.setattr(simulate, "eval_pcbf", failing_scan)
    x = x0 + 0.25
    dec = ctrl.step(0.5, x)
    mu = path.nominal_control(0.5, x)
    assert type(dec.h) is float and dec.h == float(h.value(0.5, x))
    assert np.array_equal(dec.u, mu) and np.array_equal(dec.mu, mu)
    assert np.isnan(dec.h_star) and dec.case == "" and not dec.feasible
    assert dec.note == "scan failed: non-finite state at tau=3.5"


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
            deriv = derivative_affine(entry, ctx, val.grid,
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
            slack_weight=None if idx == 0 else SLACK_WEIGHT))
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
    c0 = derivative_affine(val.maximizers.first, ctrl.ctx, val.grid,
                           case=ctrl._held_case(val.maximizers.first, t)).constant
    for shift in (1e-9, -1e-9):
        ctrl.alpha = lambda s, c=c0 + shift * abs(c0): c
        assert _check_step_against_oracle(ctrl, log, k, monkeypatch)[1] == 1


def test_satellite_steps_before_intervention_add_one_knot(satellite_setup, monkeypatch):
    """Work bound of the satellite loop before its first intervention: each
    step follows the forecast, so after the first step every step grows the
    forecast by one state knot and none asks for the input response."""
    cfg, model, h, _, mu_law, x0 = satellite_setup
    # a fresh path built as build_satellite builds it: the built one already
    # holds a forecast to t = duration
    path = OdePath(model, mu_law, step=cfg.step, sensitivity=model.coast_input_response,
                   step_one=model.coast_step)
    ctrl = make_controller(cfg, model, h, path, mu_law)
    sensitivity_calls = []
    monkeypatch.setattr(path, "state_sensitivity", lambda *a: sensitivity_calls.append(a))
    x = x0
    for k in range(200):
        t = k * cfg.step
        before = path.knot_steps
        dec = ctrl.step(t, x)
        assert dec.feasible and not dec.active
        assert path.knot_steps - before == (round(cfg.T / cfg.step) if k == 0 else 1)
        x = rk4(lambda tq, y: model.field(tq, y, dec.u), t, x, cfg.step)
    assert not sensitivity_calls


def test_pinned_satellite_run_knot_steps(monkeypatch):
    """The pinned satellite pcbf run makes 11 160 knot steps (float chain),
    as many as before its input response took the closed form: 700 for the
    zero-control check at build, which the steps up to the first
    intervention follow; 250 for a fresh horizon after each of the 40
    intervening steps; one for each other step that follows the forecast.
    It starts 41 forecasts afresh (the build's, and one after each
    intervening step) and steps 12 117 off-knot rows.  That was 11 494
    while each search evaluated the lookahead tree alone: the 80 searches
    that run now evaluate 7 320 probes in 199 batches, the predicted path
    and the tree, where the tree alone took 6 697 probes in 498 batches,
    and the probes off the knots are other ones.

    Each scan reads the path's memo_token once, 701 in all.  The values
    each grid keeps, carried on from the last grid along a kept forecast,
    serve 185 580 of the 200 451 scan-time lookups and 420 of the 500
    golden-section and bisection searches.  They also serve 421 of the 704
    evaluations at path states, at the maximizers and roots: without that,
    12 538 off-knot rows are stepped.  An evaluation counts once per
    HorizonGrid.evaluation(tau) call, a hit when the grid holds tau.  The
    40 steps after an intervention start a fresh forecast and miss
    everything.  The other 661 keep the forecast; the first of them starts
    from a grid with nothing to carry, and each later one (N + 1 = 251
    coarse and 0 or more dense times) misses a median of one h, its new
    horizon end, and all but one of their 421 searches hit.  The counters
    are read from the context's last grid."""
    built, controllers = [], []
    monkeypatch.setattr(simulate, "build_scenario",
                        lambda cfg: built.append(build_scenario(cfg)) or built[-1])
    monkeypatch.setattr(simulate, "make_controller",
                        lambda *a: controllers.append(make_controller(*a)) or controllers[-1])
    memo_token, tokens = OdePath.memo_token, []
    monkeypatch.setattr(OdePath, "memo_token",
                        lambda self, t, x: tokens.append(t) or memo_token(self, t, x))
    log = run_closed_loop(default_config("satellite", "pcbf"))
    assert len(log.t) == 701 and not log.truncated
    assert len(tokens) == 701
    path = built[0][2]
    assert (path.knot_steps, path.forecast_restarts, path.partial_steps) == (11160, 41, 12117)
    assert path.partial_steps < 12538  # the count with no evaluation reuse
    grid = controllers[0].ctx.memo
    assert (grid.h_hits, grid.h_misses) == (185580, 14871)
    assert (grid.search_hits, grid.search_misses) == (420, 80)
    assert (grid.search_batches, grid.search_probes) == (199, 7320)
    assert (grid.evaluation_hits, grid.evaluation_misses) == (421, 283)


@pytest.mark.parametrize("scenario", ["intersection_cross", "intersection_left_turn"])
def test_pinned_intersection_searches_take_few_batches(scenario, monkeypatch):
    """Each golden-section or bisection search of the pinned intersection
    pcbf runs evaluates h in at most 2.5 batches on average, where the
    lookahead tree alone took 6.5: the first batch follows the path that
    the grid samples predict, and the next mends where the search left
    it.  They evaluate about 90 probes each, as the tree did.
    The car path keeps no forecast, so no search result is carried."""
    controllers = []
    monkeypatch.setattr(simulate, "make_controller",
                        lambda *a: controllers.append(make_controller(*a)) or controllers[-1])
    run_closed_loop(default_config(scenario, "pcbf"))
    grid = controllers[0].ctx.memo
    assert grid.search_hits == 0 and grid.search_misses > 400
    assert grid.search_batches <= 2.5 * grid.search_misses
    assert grid.search_probes <= 100 * grid.search_misses


def test_pinned_satellite_run_without_carried_values(satellite_pcbf, monkeypatch):
    """The pinned satellite pcbf run, 661 of whose 701 steps keep the
    forecast, logs the same bits in every SimLog field but step_ms when no
    scan is given the last grid."""
    scan, dropped = barrier.scan, []
    monkeypatch.setattr(barrier, "scan",
                        lambda *args, prev: dropped.append(prev is not None) or scan(*args))
    log = run_closed_loop(default_config("satellite", "pcbf"))
    assert len(dropped) == 701 and sum(dropped) == 700

    def logged(log):
        return [v.tobytes() if isinstance(v, np.ndarray) else v
                for f in dataclasses.fields(log) if f.name != "step_ms"
                for v in [getattr(log, f.name)]]
    assert logged(log) == logged(satellite_pcbf.log)


def test_kepler_solve_failure_aborts_the_run(monkeypatch):
    """An input response that cannot be solved ends the run at the first
    intervening step with an aborted note naming tau, not a traceback."""
    monkeypatch.setattr(scenarios, "_KEPLER_ITERATIONS", 0)
    log = run_closed_loop(default_config("satellite", "pcbf"))
    assert log.truncated and log.t[-1] == 199.0
    assert log.notes[-1].startswith("t=200.0: aborted (Kepler solve did not converge at tau=")


@pytest.mark.parametrize("alpha_value, active", [(None, False), (0.0, True)])
def test_activity_first_with_slack_rows(alpha_value, active, monkeypatch):
    """Four interior maximizers of h = 0.2 sin(2 tau) - 0.5 + 0.1 x on a
    frozen state give one hard and three slacked rows; with all of them
    slack at mu the step reports zero slacks without building a row, as the
    QP does."""
    from test_barrier import _FuncConstraint, _static_ctx

    h = _FuncConstraint(
        value=lambda t, x: 0.2 * np.sin(2.0 * t) - 0.5 + 0.1 * x[..., 0],
        dh_dt=lambda t, x: 0.4 * np.cos(2.0 * t),
        grad_x=lambda t, x: np.array([0.1]),
    )
    ctx = _static_ctx(h)
    alpha = make_compatible_alpha(ctx.margin, 1.0)
    if alpha_value is not None:
        alpha = lambda s: alpha_value
    ctrl = PcbfController(ctx, alpha)
    log = types.SimpleNamespace(t=[0.5], x=[np.zeros(1)], case=[""])
    sensitivity, qp = _check_step_against_oracle(ctrl, log, 0, monkeypatch)
    assert len(eval_pcbf(0.5, np.zeros(1), ctx).maximizers.entries) == 4
    assert (sensitivity > 0, qp) == (active, int(active))
    dec = ctrl.step(0.5, np.zeros(1))
    assert dec.feasible and len(dec.slack) == 3
    assert bool(np.any(dec.u != dec.mu)) == active
