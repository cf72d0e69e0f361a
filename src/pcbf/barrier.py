"""Predictive barrier construction and its control-affine time derivative.

The barrier value at (t, x) is the predicted constraint value at the first
maximizer time along the nominal path, minus a margin in the time until the
path first becomes unsafe.  Its total time derivative is affine in the
control input; the coefficient row depends on which of three structural
cases the first maximizer falls into (interior, horizon end with an earlier
root, or a boundary maximizer that is its own root).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pcbf.core import (
    ConstraintFunction,
    DegenerateMaximizerError,
    DynamicsModel,
    InternalConsistencyError,
    MarginFunction,
    TangentialCrossingError,
)
from pcbf.horizon import HorizonGrid, MaximizerEntry, MaximizerSet, find_maximizers, find_root_before, scan
from pcbf.paths import Path

CASE_INTERIOR = "I_interior"
CASE_END_ROOT_BEFORE = "II_end_root_before"
CASE_BOUNDARY_ROOT_SELF = "III_boundary_root_self"


@dataclass
class PcbfContext:
    """Everything needed to evaluate the barrier at a (t, x) pair."""

    model: DynamicsModel
    path: Path
    h: ConstraintFunction
    margin: MarginFunction
    T: float
    N: int
    refine_tol: float = 1e-6
    root_tol: float = 1e-9
    two_level: bool = False

    @property
    def grid_step(self) -> float:
        return self.T / self.N

    def scan(self, t, x) -> HorizonGrid:
        return scan(self.path, self.h, t, x, self.T, self.N, two_level=self.two_level)


@dataclass
class PcbfValue:
    """Barrier value with the maximizer structure it was built from."""

    h_star: float
    h_vector: list[float]
    m_star_tau: float
    root_eta: float
    case_label: str
    already_unsafe: bool
    grid: HorizonGrid = field(repr=False, default=None)
    maximizers: MaximizerSet = field(repr=False, default=None)


@dataclass
class AffineDerivative:
    """d/dt of the barrier as constant + row . (u - mu)."""

    constant: float
    row: np.ndarray
    diagnostics: str | None = None


def eval_hp(tau, t, x, ctx: PcbfContext, grid: HorizonGrid | None = None) -> float:
    """Predicted safety at horizon time tau: h along the path minus the
    margin in the time until the path first becomes unsafe."""
    if grid is None:
        grid = ctx.scan(t, x)
    root = find_root_before(grid, tau, ctx.root_tol)
    return grid.h_along(tau) - ctx.margin.value(root.eta - t)


def eval_pcbf(t, x, ctx: PcbfContext) -> PcbfValue:
    """Scan the horizon, locate maximizers, and assemble the barrier value."""
    grid = ctx.scan(t, x)
    mset = find_maximizers(grid, ctx.refine_tol, ctx.root_tol)
    h_vector = [e.h_value - ctx.margin.value(e.root_eta - t) for e in mset.entries]
    first = mset.first
    return PcbfValue(
        h_star=h_vector[0],
        h_vector=h_vector,
        m_star_tau=first.tau,
        root_eta=first.root_eta,
        case_label=classify_case(first),
        already_unsafe=first.already_unsafe,
        grid=grid,
        maximizers=mset,
    )


def classify_case(entry: MaximizerEntry) -> str:
    """Structural case of the derivative formula for one maximizer entry."""
    if entry.at_start:
        if entry.root_is_self or entry.already_unsafe:
            return CASE_BOUNDARY_ROOT_SELF
        raise InternalConsistencyError(
            "maximizer at the horizon start cannot have an earlier root"
        )
    if entry.at_end:
        return CASE_BOUNDARY_ROOT_SELF if entry.root_is_self else CASE_END_ROOT_BEFORE
    return CASE_INTERIOR


def root_sensitivity_C1(eta, t, x, ctx: PcbfContext, grid: HorizonGrid) -> np.ndarray:
    """Sensitivity of the preceding root time to the initial state.

    Requires the crossing to be transversal: the total tau-derivative of h
    at the root must be bounded away from zero.
    """
    ev = grid.evaluation(eta, with_sensitivity=True)
    row_h = ctx.h.grad_x(eta, ev.state)
    advect = float(row_h @ ev.dp_dtau)
    bracket = float(ctx.h.grad_t(eta, ev.state)) + advect
    if abs(bracket) < 1e-8 * (1.0 + abs(advect)):
        raise TangentialCrossingError(
            f"root at eta={eta} is tangential (dh/dtau={bracket:.3e})"
        )
    return -(row_h @ ev.dp_dx) / bracket


def maximizer_sensitivity(tau, t, x, ctx: PcbfContext, grid: HorizonGrid) -> np.ndarray:
    """Sensitivity of an interior maximizer time to the initial state via the
    implicit function theorem on F(tau, x) = d/dtau h(tau, p(tau; t, x)).

    dF/dtau comes from a central difference over tau; dF/dx from central
    differences of F with the state perturbation transported through the
    path sensitivity, so no re-propagation is needed.
    """
    step = ctx.grid_step

    def F_at(tau_q):
        ev = grid.evaluation(tau_q)
        return ev.dh_dtau

    lo = max(tau - step, t)
    hi = min(tau + step, t + ctx.T)
    dF_dtau = (F_at(hi) - F_at(lo)) / (hi - lo)
    f_scale = abs(F_at(tau))
    if abs(dF_dtau) < 1e-8 * (1.0 + f_scale):
        raise DegenerateMaximizerError(
            f"flat maximum at tau={tau}: dF/dtau={dF_dtau:.3e}"
        )

    ev = grid.evaluation(tau, with_sensitivity=True)
    x = np.asarray(x, dtype=float)
    dF_dx = np.empty(x.size)
    def F_of_state(y):
        return float(ctx.h.grad_t(tau, y) + ctx.h.grad_x(tau, y) @ ctx.path.field(tau, y))

    for i in range(x.size):
        d = max(1e-6, 1e-7 * abs(x[i]))
        dp = ev.dp_dx[:, i] * d
        dF_dx[i] = (F_of_state(ev.state + dp) - F_of_state(ev.state - dp)) / (2.0 * d)
    return -dF_dx / dF_dtau


def derivative_affine(entry: MaximizerEntry, t, x, ctx: PcbfContext,
                      grid: HorizonGrid, case: str | None = None) -> AffineDerivative:
    """Affine form of d/dt of the predicted safety at one maximizer entry.

    `case` overrides the structural classification; the caller uses this to
    hold the previous case across a chattering boundary.
    """
    if case is None:
        case = classify_case(entry)
    x = np.asarray(x, dtype=float)
    g = ctx.model.input_matrix(t, x)
    mprime = ctx.margin.derivative
    diagnostics = None

    if entry.already_unsafe or (case == CASE_BOUNDARY_ROOT_SELF and entry.at_start):
        # Barrier equals h(t, x) here; differentiate it directly.
        row_h = ctx.h.grad_x(t, x)
        c0 = float(ctx.h.grad_t(t, x) + row_h @ ctx.path.field(t, x))
        return AffineDerivative(constant=c0, row=np.asarray(row_h @ g, dtype=float).ravel())

    ev = grid.evaluation(entry.tau, with_sensitivity=True)
    row_h_phi = ctx.h.grad_x(entry.tau, ev.state) @ ev.dp_dx
    if case == CASE_BOUNDARY_ROOT_SELF:
        # boundary maximizer at the horizon end that is its own root
        dtau_dt = 1.0 if ev.dh_dtau > 0 else 0.0
        c0 = ev.dh_dtau * dtau_dt - mprime(ctx.T) * (dtau_dt - 1.0)
        return AffineDerivative(constant=float(c0), row=np.asarray(row_h_phi @ g).ravel())

    lam = entry.root_eta - t
    if case == CASE_INTERIOR and entry.root_is_self:
        try:
            C = maximizer_sensitivity(entry.tau, t, x, ctx, grid)
        except DegenerateMaximizerError as exc:
            C = np.zeros(x.size)
            diagnostics = f"flat-maximum fallback: {exc}"
    else:
        C = root_sensitivity_C1(entry.root_eta, t, x, ctx, grid)
    row = np.asarray((row_h_phi - mprime(lam) * C) @ g).ravel()
    if case == CASE_END_ROOT_BEFORE:
        # the horizon endpoint slides with t, so its time derivative is one
        return AffineDerivative(constant=float(ev.dh_dtau + mprime(lam)), row=row)
    if not entry.root_is_self and np.linalg.norm(row) == 0.0:
        diagnostics = "assumption breach: zero constraint row in interior case"
    return AffineDerivative(constant=mprime(lam), row=row, diagnostics=diagnostics)


def inner_product_monitor(entry: MaximizerEntry, ctx: PcbfContext,
                          grid: HorizonGrid) -> bool:
    """True when the constraint gradients at the maximizer and its root are
    nonnegatively aligned, as the feasibility argument assumes."""
    if entry.root_is_self:
        return True
    gx_tau = ctx.h.grad_x(entry.tau, grid.evaluation(entry.tau).state)
    gx_eta = ctx.h.grad_x(entry.root_eta, grid.evaluation(entry.root_eta).state)
    return float(np.dot(gx_tau, gx_eta)) >= 0.0
