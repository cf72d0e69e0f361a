"""Predictive barrier construction and its control-affine time derivative.

The barrier value at (t, x) is the predicted constraint value at the first
maximizer time along the nominal path, minus a margin in the time until the
path first becomes unsafe.  Its total time derivative is affine in the
control input; the coefficient row depends on which of three structural
cases the first maximizer falls into (interior, horizon end with an earlier
root, or a boundary maximizer that is its own root).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

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
    """d/dt of the barrier as constant + row . (u - mu).

    Only the row needs the state sensitivity dp/dx.  derivative_affine sets
    the constant and makes every check that can fail at once; `build_row`
    builds the row on its first read.  So a caller that finds the barrier
    condition c0 <= alpha(-H) slack at u = mu from the constant alone never
    co-integrates the sensitivity.  Reading the row adds to `diagnostics`
    the breach of a zero row where the formula assumes a nonzero one.
    `aligned` is the inner-product monitor's verdict.
    """

    constant: float
    build_row: Callable[[], np.ndarray] = field(repr=False)
    diagnostics: str | None = None
    aligned: bool = True
    row_must_be_nonzero: bool = False

    @cached_property
    def row(self) -> np.ndarray:
        row = self.build_row()
        if self.row_must_be_nonzero and np.linalg.norm(row) == 0.0:
            self.diagnostics = "assumption breach: zero constraint row in interior case"
        return row


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
    return _root_sensitivity(eta, ctx, grid)[0]()


def _root_sensitivity(eta, ctx: PcbfContext, grid: HorizonGrid):
    """The transversality check of root_sensitivity_C1, made at once, and
    (C1, grad): C1() builds the sensitivity from dp/dx at the root, grad is
    the constraint gradient there."""
    ev = grid.evaluation(eta)
    row_h = ctx.h.grad_x(eta, ev.state)
    advect = float(row_h @ ev.dp_dtau)
    bracket = float(ctx.h.grad_t(eta, ev.state)) + advect
    if abs(bracket) < 1e-8 * (1.0 + abs(advect)):
        raise TangentialCrossingError(
            f"root at eta={eta} is tangential (dh/dtau={bracket:.3e})"
        )
    return (lambda: -(row_h @ grid.sensitivity(eta)) / bracket), row_h


def maximizer_sensitivity(tau, t, x, ctx: PcbfContext, grid: HorizonGrid) -> np.ndarray:
    """Sensitivity of an interior maximizer time to the initial state via the
    implicit function theorem on F(tau, x) = d/dtau h(tau, p(tau; t, x)).

    dF/dtau comes from a central difference over tau; dF/dx from central
    differences of F with the state perturbation transported through the
    path sensitivity, so no re-propagation is needed.
    """
    return _maximizer_sensitivity(tau, t, x, ctx, grid)()


def _maximizer_sensitivity(tau, t, x, ctx: PcbfContext, grid: HorizonGrid):
    """The flat-maximum check of maximizer_sensitivity, made at once, and a
    function that builds the sensitivity from dp/dx at tau."""
    step = ctx.grid_step
    lo = max(tau - step, t)
    hi = min(tau + step, t + ctx.T)
    dF_dtau = (grid.evaluation(hi).dh_dtau - grid.evaluation(lo).dh_dtau) / (hi - lo)
    ev = grid.evaluation(tau)
    if abs(dF_dtau) < 1e-8 * (1.0 + abs(ev.dh_dtau)):
        raise DegenerateMaximizerError(
            f"flat maximum at tau={tau}: dF/dtau={dF_dtau:.3e}"
        )
    x = np.asarray(x, dtype=float)

    def F_of_state(y):
        return float(ctx.h.grad_t(tau, y) + ctx.h.grad_x(tau, y) @ ctx.path.field(tau, y))

    def sensitivity():
        dp_dx = grid.sensitivity(tau)
        dF_dx = np.empty(x.size)
        for i in range(x.size):
            d = max(1e-6, 1e-7 * abs(x[i]))
            dp = dp_dx[:, i] * d
            dF_dx[i] = (F_of_state(ev.state + dp) - F_of_state(ev.state - dp)) / (2.0 * d)
        return -dF_dx / dF_dtau

    return sensitivity


def derivative_affine(entry: MaximizerEntry, t, x, ctx: PcbfContext,
                      grid: HorizonGrid, case: str | None = None) -> AffineDerivative:
    """Affine form of d/dt of the predicted safety at one maximizer entry.

    `case` overrides the structural classification; the caller uses this to
    hold the previous case across a chattering boundary.  The row is built
    only when read (see AffineDerivative); the inner-product monitor reads
    the evaluations made here.
    """
    if case is None:
        case = classify_case(entry)
    x = np.asarray(x, dtype=float)
    g = ctx.model.input_matrix(t, x)
    mprime = ctx.margin.derivative

    def grad_at(tau):
        return ctx.h.grad_x(tau, grid.evaluation(tau).state)

    if entry.already_unsafe or (case == CASE_BOUNDARY_ROOT_SELF and entry.at_start):
        # Barrier equals h(t, x) here; differentiate it directly.
        row_h = ctx.h.grad_x(t, x)
        c0 = float(ctx.h.grad_t(t, x) + row_h @ ctx.path.field(t, x))
        row = np.asarray(row_h @ g, dtype=float).ravel()
        # an entry that is not its own root is already unsafe: its root is
        # the start, where the state is x
        aligned = entry.root_is_self or inner_product_monitor(
            entry, grad_at(entry.tau), row_h)
        return AffineDerivative(constant=c0, build_row=lambda: row, aligned=aligned)

    ev = grid.evaluation(entry.tau)
    row_h = ctx.h.grad_x(entry.tau, ev.state)

    def row_h_phi():
        return row_h @ grid.sensitivity(entry.tau)

    if case == CASE_BOUNDARY_ROOT_SELF:
        # boundary maximizer at the horizon end that is its own root
        dtau_dt = 1.0 if ev.dh_dtau > 0 else 0.0
        c0 = ev.dh_dtau * dtau_dt - mprime(ctx.T) * (dtau_dt - 1.0)
        aligned = entry.root_is_self or inner_product_monitor(
            entry, row_h, grad_at(entry.root_eta))
        return AffineDerivative(constant=float(c0), aligned=aligned,
                                build_row=lambda: np.asarray(row_h_phi() @ g).ravel())

    lam = entry.root_eta - t
    diagnostics = None
    aligned = True
    if case == CASE_INTERIOR and entry.root_is_self:
        try:
            C = _maximizer_sensitivity(entry.tau, t, x, ctx, grid)
        except DegenerateMaximizerError as exc:
            C = lambda: np.zeros(x.size)
            diagnostics = f"flat-maximum fallback: {exc}"
    else:
        C, row_h_eta = _root_sensitivity(entry.root_eta, ctx, grid)
        aligned = inner_product_monitor(entry, row_h, row_h_eta)

    def row():
        return np.asarray((row_h_phi() - mprime(lam) * C()) @ g).ravel()

    if case == CASE_END_ROOT_BEFORE:
        # the horizon endpoint slides with t, so its time derivative is one
        return AffineDerivative(constant=float(ev.dh_dtau + mprime(lam)),
                                build_row=row, aligned=aligned)
    return AffineDerivative(constant=mprime(lam), build_row=row, diagnostics=diagnostics,
                            aligned=aligned, row_must_be_nonzero=not entry.root_is_self)


def inner_product_monitor(entry: MaximizerEntry, grad_tau, grad_eta) -> bool:
    """True when the constraint gradients at the maximizer and at its root
    are nonnegatively aligned, as the feasibility argument assumes.  The
    gradients come from the path evaluations the derivative step made; an
    entry that is its own root needs none."""
    if entry.root_is_self:
        return True
    return float(np.dot(grad_tau, grad_eta)) >= 0.0
