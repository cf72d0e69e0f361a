"""Closed-loop simulation harness.

Fixed-step RK4 plant integration with zero-order-hold control: the filter
runs once per step and its output is held over the step.  Controller failures
fall back to the nominal input and are logged; non-finite states abort the
run with the partial log preserved.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from pcbf.barrier import (
    CASE_END_ROOT_BEFORE,
    CASE_INTERIOR,
    AffineDerivative,
    PcbfContext,
    classify_case,
    derivative_affine,
    eval_pcbf,
)
from pcbf.core import (
    ConfigurationError,
    DegenerateMaximizerError,
    InternalConsistencyError,
    PropagationError,
    TangentialCrossingError,
    finite_diff_jacobian,
    make_compatible_alpha,
    rk4,
)
from pcbf.qp import AffineConstraint, build_cbf_constraint, solve_min_deviation
from pcbf.scenarios import (
    ScenarioConfig,
    build_intersection,
    build_satellite,
    intersection_initial_state,
    satellite_initial_state,
)

_DERIV_ERRORS = (TangentialCrossingError, DegenerateMaximizerError,
                 InternalConsistencyError)
# relative room by which c0 must undercut alpha(-H) for a row to count as
# slack at u = mu without building it; nearer ties solve the full QP
_TIE_MARGIN = 1e-6
# quadratic penalty on the slack of each row after the first (hard) one
SLACK_WEIGHT = 1e3
# most control steps in one run: each step keeps about 1-3 kB of records and
# takes at least 0.1 ms, so 10**6 steps (1400x the pinned runs) already hold
# gigabytes and run for minutes
_MAX_STEPS = 10**6


@dataclass
class StepDecision:
    u: np.ndarray
    mu: np.ndarray
    h: float
    h_star: float
    case: str
    feasible: bool
    slack: list[float] = field(default_factory=list)
    active: list[int] = field(default_factory=list)
    monitor_ok: bool = True
    note: str = ""


class PcbfController:
    """Predictive safety filter: one hard row for the first maximizer,
    slacked rows for the rest, with case hysteresis to avoid chattering
    between derivative formulas at structural boundaries.

    Each step tests activity first.  The constant c0 of every row, and
    every derivative check that can fail, need no state sensitivity; at
    u = mu a row reads c0 <= alpha(-H_i).  When every row's c0 undercuts
    alpha(-H_i) by a clear relative margin, the QP's answer is known
    without the rows: u = mu, no active row and zero slacks.  The step then
    returns it, and the sensitivity is never computed.  Otherwise, at
    a near-tie or with some row active, it builds every row and solves the
    QP.  Derivative failures drop rows and add notes alike on both paths;
    a zero row in the interior case is noted only where rows are built.
    """

    def __init__(self, ctx: PcbfContext, alpha):
        self.ctx = ctx
        self.alpha = alpha
        self._prev_case: str | None = None

    def _held_case(self, entry, t) -> str:
        """Keep the previous structural case while the first maximizer sits
        within a band of the boundary that separates the two formulas: the
        horizon end between the interior case and either boundary case, h = 0
        between the two boundary cases."""
        raw = classify_case(entry)
        prev = self._prev_case
        if prev is None or prev == raw or entry.already_unsafe:
            return raw
        if CASE_INTERIOR in (raw, prev):
            near = (t + self.ctx.T - entry.tau) <= 2.0 * self.ctx.grid_step
        else:
            near = abs(entry.h_value) <= 1e-6 * self.ctx.h.h_max
        # the earlier-root formula needs an earlier root
        if near and not (prev == CASE_END_ROOT_BEFORE and entry.root_is_self):
            return prev
        return raw

    def _slack_at_nominal(self, h_p, deriv) -> bool:
        """The barrier condition c0 + a.(u - mu) <= alpha(-h_p) holds at
        u = mu with a clear relative margin, so its row cannot be active."""
        bound = self.alpha(-h_p)
        return deriv.constant < bound - _TIE_MARGIN * (abs(bound) + abs(deriv.constant))

    def step(self, t, x) -> StepDecision:
        ctx = self.ctx
        mu = np.asarray(ctx.path.nominal_control(t, x), dtype=float)
        try:
            val = eval_pcbf(t, x, ctx)
        except PropagationError as exc:
            return StepDecision(u=mu, mu=mu, h=float(ctx.h.value(t, np.asarray(x, dtype=float))),
                                h_star=float("nan"), case="", feasible=False,
                                note=f"scan failed: {exc}")
        # h(t, x): the grid's first sample is at tau = t, where the path is x
        h_now = float(val.grid.h_values[0])

        notes = []
        first = val.maximizers.first
        case_used = self._held_case(first, t)
        if case_used != val.case_label:
            notes.append(f"hysteresis held {case_used}")
        self._prev_case = case_used

        derivs = []  # per entry: its derivative, or the error that drops its row
        for idx, entry in enumerate(val.maximizers.entries):
            override = case_used if idx == 0 else None
            try:
                derivs.append(derivative_affine(entry, ctx, val.grid, case=override))
            except _DERIV_ERRORS as exc:
                if idx == 0:
                    # no usable hard row: pass the nominal input through
                    return StepDecision(u=mu, mu=mu, h=h_now, h_star=val.h_star,
                                        case=case_used, feasible=False,
                                        note=f"derivative failed: {exc}")
                derivs.append(exc)

        rows = [(idx, d) for idx, d in enumerate(derivs) if isinstance(d, AffineDerivative)]
        active = not all(self._slack_at_nominal(val.h_vector[idx], d) for idx, d in rows)
        constraints = []
        for idx, deriv in enumerate(derivs):
            if not isinstance(deriv, AffineDerivative):
                notes.append(f"slack row {idx} dropped: {deriv}")
                continue
            if active:  # builds the row, which may add to its diagnostics
                constraints.append(build_cbf_constraint(
                    val.h_vector[idx], deriv, self.alpha, mu,
                    slack_weight=None if idx == 0 else SLACK_WEIGHT))
            if deriv.diagnostics:
                notes.append(deriv.diagnostics)
        monitor_ok = all(d.aligned for _, d in rows)
        if not active:
            # every row slack at mu: the QP would return mu with no active row
            return StepDecision(u=mu, mu=mu, h=h_now, h_star=val.h_star,
                                case=case_used, feasible=True,
                                slack=[0.0] * (len(rows) - 1), active=[],
                                monitor_ok=monitor_ok, note="; ".join(notes))

        res = solve_min_deviation(mu, constraints)
        if res.infeasible_reason:
            notes.append(res.infeasible_reason)
        return StepDecision(u=np.asarray(res.u, dtype=float), mu=mu, h=h_now,
                            h_star=val.h_star, case=case_used,
                            feasible=res.feasible, slack=res.slack_values,
                            active=res.active_set, monitor_ok=monitor_ok,
                            note="; ".join(notes))


class EcbfController:
    """Reactive baseline for relative-degree-2 constraints.

    Enforces hddot + k1 hdot + k2 h <= 0 as an affine row on u and projects
    the nominal input onto it.  Derivatives of hdot are taken by central
    finite differences, so only first derivatives of h are required.
    """

    def __init__(self, h, gains, model, mu_law):
        self.h = h
        self.k1, self.k2 = gains
        self.model = model
        self._mu_law = mu_law

    def _hdot(self, t, x):
        dh_dt, grad_x = self.h.partials(t, x)
        return float(dh_dt + grad_x @ self.model.drift(t, x))

    def step(self, t, x) -> StepDecision:
        x = np.asarray(x, dtype=float)
        mu = np.asarray(self._mu_law(t, x), dtype=float)
        h_now = float(self.h.value(t, x))
        hdot = self._hdot
        dt = 1e-6
        dpsi_dt = (hdot(t + dt, x) - hdot(t - dt, x)) / (2.0 * dt)
        dpsi_dx = finite_diff_jacobian(lambda y: hdot(t, y), x)[0]
        f = self.model.drift(t, x)
        g = self.model.input_matrix(t, x)
        bound = -self.k1 * hdot(t, x) - self.k2 * h_now - dpsi_dt - float(dpsi_dx @ f)
        res = solve_min_deviation(mu, [AffineConstraint(row=dpsi_dx @ g, bound=bound)])
        return StepDecision(u=np.asarray(res.u, dtype=float), mu=mu, h=h_now,
                            h_star=float("nan"), case="", feasible=res.feasible,
                            slack=res.slack_values, active=res.active_set,
                            note=res.infeasible_reason or "")


class PassthroughController:
    """u = mu (nominal) or u = 0 (uncontrolled)."""

    def __init__(self, h, mu_law, use_nominal: bool):
        self.h = h
        self._mu_law = mu_law
        self.use_nominal = use_nominal

    def step(self, t, x) -> StepDecision:
        x = np.asarray(x, dtype=float)
        mu = np.asarray(self._mu_law(t, x), dtype=float)
        u = mu if self.use_nominal else np.zeros_like(mu)
        return StepDecision(u=u, mu=mu, h=float(self.h.value(t, x)),
                            h_star=float("nan"), case="", feasible=True)


@dataclass
class SimLog:
    cfg: ScenarioConfig
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    mu: np.ndarray
    h: np.ndarray
    h_star: np.ndarray
    case: list[str]
    feasible: np.ndarray
    slack: list[list[float]]
    active: list[list[int]]
    step_ms: np.ndarray
    monitor_violations: int
    infeasible_steps: int
    truncated: bool
    notes: list[str]
    initial_h_star: float | None = None


def build_scenario(cfg: ScenarioConfig):
    """(model, constraint, path, path.nominal_control, initial state) for a config."""
    if cfg.scenario.startswith("intersection"):
        model, h, path = build_intersection(cfg)
        x0 = intersection_initial_state(cfg)
    elif cfg.scenario == "satellite":
        model, h, path = build_satellite(cfg)
        x0 = satellite_initial_state(cfg)
    else:
        raise ConfigurationError(f"unknown scenario {cfg.scenario!r}")
    h0 = float(h.value(0.0, x0))
    if not h0 <= 0.0:  # NaN included
        raise ConfigurationError(f"the initial state must be safe, h(0, x0) <= 0, got {h0}")
    return model, h, path, path.nominal_control, x0


def make_context(cfg: ScenarioConfig, h, path) -> PcbfContext:
    return PcbfContext(path=path, h=h, T=cfg.T, N=cfg.N)


def make_controller(cfg: ScenarioConfig, model, h, path, mu_law):
    if cfg.controller == "pcbf":
        alpha = make_compatible_alpha(h.h_max, cfg.T, cfg.gamma)
        return PcbfController(make_context(cfg, h, path), alpha)
    if cfg.controller == "ecbf":
        return EcbfController(h, (cfg.ecbf_k1, cfg.ecbf_k2), model, mu_law)
    if cfg.controller in ("none", "nominal"):
        return PassthroughController(h, mu_law, use_nominal=(cfg.controller == "nominal"))
    raise ConfigurationError(f"unknown controller {cfg.controller!r}")


def run_closed_loop(cfg: ScenarioConfig) -> SimLog:
    if not cfg.step > 0:
        raise ConfigurationError(f"step must be positive, got {cfg.step}")
    if not cfg.duration >= 0:
        raise ConfigurationError(f"duration must be nonnegative, got {cfg.duration}")
    if not cfg.duration / cfg.step <= _MAX_STEPS:
        raise ConfigurationError(f"step must give at most {_MAX_STEPS} steps over duration "
                                 f"{cfg.duration}, got {cfg.step}")
    model, h, path, mu_law, x0 = build_scenario(cfg)
    controller = make_controller(cfg, model, h, path, mu_law)

    n_steps = int(round(cfg.duration / cfg.step))
    x = np.asarray(x0, dtype=float)
    ts, xs, decs, step_ms = [], [], [], []
    stop_note = None  # why the run ended early

    for k in range(n_steps + 1):
        t = k * cfg.step
        tic = time.perf_counter()
        try:
            dec = controller.step(t, x)
        except PropagationError as exc:
            stop_note = f"t={t}: aborted ({exc})"
            break
        step_ms.append((time.perf_counter() - tic) * 1e3)
        ts.append(t)
        xs.append(x)
        decs.append(dec)

        if k == n_steps:
            break
        x = rk4(lambda tq, y: model.field(tq, y, dec.u), t, x, cfg.step)
        if not np.all(np.isfinite(x)):
            stop_note = f"t={t + cfg.step}: non-finite state, run truncated"
            break

    initial_h_star = decs[0].h_star if decs and np.isfinite(decs[0].h_star) else None
    notes = ([f"initial barrier value positive: {initial_h_star:.6g}"]
             if initial_h_star is not None and initial_h_star > 0 else [])
    notes += [f"t={t}: {d.note}" for t, d in zip(ts, decs) if d.note]
    notes += [stop_note] if stop_note else []
    m = model.input_matrix(0.0, x0).shape[-1]  # shapes hold for a run with no step
    return SimLog(
        cfg=cfg,
        t=np.asarray(ts),
        x=np.reshape(xs, (-1, len(x0))),
        u=np.reshape([d.u for d in decs], (-1, m)),
        mu=np.reshape([d.mu for d in decs], (-1, m)),
        h=np.asarray([d.h for d in decs]),
        h_star=np.asarray([d.h_star for d in decs]),
        case=[d.case for d in decs],
        feasible=np.asarray([d.feasible for d in decs], dtype=bool),
        slack=[list(d.slack) for d in decs],
        active=[list(d.active) for d in decs],
        step_ms=np.asarray(step_ms),
        monitor_violations=sum(not d.monitor_ok for d in decs),
        infeasible_steps=sum(not d.feasible for d in decs),
        truncated=stop_note is not None,
        notes=notes,
        initial_h_star=initial_h_star,
    )
