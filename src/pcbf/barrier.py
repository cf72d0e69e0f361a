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
    InternalConsistencyError,
    MarginFunction,
    TangentialCrossingError,
)
from pcbf.horizon import (REFINE_TOL, ROOT_TOL, HorizonGrid, MaximizerEntry, MaximizerSet,
                          find_maximizers, scan)
from pcbf.paths import Path

CASE_INTERIOR = "I_interior"
CASE_END_ROOT_BEFORE = "II_end_root_before"
CASE_BOUNDARY_ROOT_SELF = "III_boundary_root_self"


@dataclass
class PcbfContext:
    """Everything needed to evaluate the barrier at a (t, x) pair.  memo is
    the last grid scanned, from which the next scan starts along the path's
    held forecast; it holds values of this path and h, so a context keeps
    both for its life."""

    path: Path
    h: ConstraintFunction
    margin: MarginFunction
    T: float
    N: int
    memo: HorizonGrid | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def grid_step(self) -> float:
        return self.T / self.N

    def scan(self, t, x) -> HorizonGrid:
        self.memo = scan(self.path, self.h, t, x, self.T, self.N, prev=self.memo)
        return self.memo


@dataclass
class PcbfValue:
    """Barrier value with the maximizer structure it was built from.

    h_vector holds one score per maximizer entry, in the entries' order,
    which is by tau.  h_star is the earliest maximizer's score, h_vector[0],
    not the largest one; the controller gives that maximizer
    (maximizers.first) the hard row and the others slacked rows.
    """

    h_star: float
    h_vector: list[float]
    case_label: str
    grid: HorizonGrid = field(repr=False, default=None)
    maximizers: MaximizerSet = field(repr=False, default=None)


@dataclass
class AffineDerivative:
    """d/dt of the barrier as constant + row . (u - mu).

    Only the row needs the path's input response dp/dx g, which puts it in
    input coordinates.  derivative_affine sets the constant and makes every
    check that can fail at once; `build_row` builds the row on its first
    read.  So a caller that finds the barrier condition c0 <= alpha(-H)
    slack at u = mu from the constant alone never computes the
    sensitivity.  Reading the row adds to `diagnostics` the breach of a zero
    row where the formula assumes a nonzero one.  `aligned` is the
    inner-product monitor's verdict.
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


def eval_pcbf(t, x, ctx: PcbfContext) -> PcbfValue:
    """Scan the horizon, locate maximizers, and assemble the barrier value."""
    grid = ctx.scan(t, x)
    mset = find_maximizers(grid, REFINE_TOL, ROOT_TOL)
    h_vector = [e.h_value - ctx.margin.value(e.root_eta - t) for e in mset.entries]
    return PcbfValue(h_star=h_vector[0], h_vector=h_vector,
                     case_label=classify_case(mset.first), grid=grid, maximizers=mset)


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


def root_sensitivity_C1(eta, grid: HorizonGrid) -> tuple[Callable[[], np.ndarray], np.ndarray]:
    """Sensitivity of the preceding root time to the initial state.

    Requires the crossing to be transversal: the total tau-derivative of h
    at the root must be bounded away from zero.  That check is made at
    once; the result is (C1, grad): C1() builds the sensitivity along the
    input directions from dp/dx g at the root, grad is the constraint
    gradient there.
    """
    ev = grid.evaluation(eta)
    advect = float(ev.grad_x @ ev.dp_dtau)
    if abs(ev.dh_dtau) < 1e-8 * (1.0 + abs(advect)):
        raise TangentialCrossingError(
            f"root at eta={eta} is tangential (dh/dtau={ev.dh_dtau:.3e})"
        )
    return (lambda: -(ev.grad_x @ grid.sensitivity(eta)) / ev.dh_dtau), ev.grad_x


def maximizer_sensitivity(tau, ctx: PcbfContext,
                          grid: HorizonGrid) -> Callable[[], np.ndarray]:
    """Sensitivity of an interior maximizer time to the initial state via the
    implicit function theorem on F(tau, x) = d/dtau h(tau, p(tau; t, x)).

    dF/dtau comes from a central difference over tau; dF/dx g from central
    differences of F along the m columns of dp/dx g at tau, one fixed input
    step each, so no re-propagation is needed.  The flat-maximum check is
    made at once; the result is a function that builds the sensitivity
    along the input directions.
    """
    t = grid.t
    step = ctx.grid_step
    lo = max(tau - step, t)
    hi = min(tau + step, t + ctx.T)
    dF_dtau = (grid.evaluation(hi).dh_dtau - grid.evaluation(lo).dh_dtau) / (hi - lo)
    ev = grid.evaluation(tau)
    if abs(dF_dtau) < 1e-8 * (1.0 + abs(ev.dh_dtau)):
        raise DegenerateMaximizerError(
            f"flat maximum at tau={tau}: dF/dtau={dF_dtau:.3e}"
        )

    def sensitivity():
        d = 1e-6  # input step
        dF_du = [(grid.evaluation(tau, ev.state + dp).dh_dtau
                  - grid.evaluation(tau, ev.state - dp).dh_dtau) / (2.0 * d)
                 for dp in (grid.sensitivity(tau) * d).T]
        return -np.array(dF_du) / dF_dtau

    return sensitivity


def derivative_affine(entry: MaximizerEntry, ctx: PcbfContext, grid: HorizonGrid,
                      case: str | None = None) -> AffineDerivative:
    """Affine form of d/dt of the predicted safety at one maximizer entry.

    `case` overrides the structural classification; the caller uses this to
    hold the previous case across a chattering boundary.  The row is built
    only when read (see AffineDerivative); the inner-product monitor reads
    the evaluations made here.
    """
    if case is None:
        case = classify_case(entry)
    t = grid.t
    mprime = ctx.margin.derivative

    if entry.already_unsafe or (case == CASE_BOUNDARY_ROOT_SELF and entry.at_start):
        # Barrier equals h(t, x) here; differentiate it directly.
        ev = grid.evaluation(t, grid.x)
        # an entry that is not its own root is already unsafe: its root is
        # the start, where the state is x
        aligned = entry.root_is_self or inner_product_monitor(
            grid.evaluation(entry.tau).grad_x, ev.grad_x)
        return AffineDerivative(constant=ev.dh_dtau, aligned=aligned,
                                build_row=lambda: ev.grad_x @ grid.sensitivity(t))

    ev = grid.evaluation(entry.tau)
    row_h = ev.grad_x

    def row_h_phi():
        return row_h @ grid.sensitivity(entry.tau)

    if case == CASE_BOUNDARY_ROOT_SELF:
        # boundary maximizer at the horizon end that is its own root
        dtau_dt = 1.0 if ev.dh_dtau > 0 else 0.0
        c0 = ev.dh_dtau * dtau_dt - mprime(ctx.T) * (dtau_dt - 1.0)
        aligned = entry.root_is_self or inner_product_monitor(
            row_h, grid.evaluation(entry.root_eta).grad_x)
        return AffineDerivative(constant=float(c0), aligned=aligned, build_row=row_h_phi)

    lam = entry.root_eta - t
    diagnostics = None
    aligned = True
    if case == CASE_INTERIOR and entry.root_is_self:
        try:
            C = maximizer_sensitivity(entry.tau, ctx, grid)
        except DegenerateMaximizerError as exc:
            C = lambda: 0.0
            diagnostics = f"flat-maximum fallback: {exc}"
    else:
        C, row_h_eta = root_sensitivity_C1(entry.root_eta, grid)
        aligned = inner_product_monitor(row_h, row_h_eta)

    def row():
        return row_h_phi() - mprime(lam) * C()

    if case == CASE_END_ROOT_BEFORE:
        # the horizon endpoint slides with t, so its time derivative is one
        return AffineDerivative(constant=float(ev.dh_dtau + mprime(lam)),
                                build_row=row, aligned=aligned)
    return AffineDerivative(constant=mprime(lam), build_row=row, diagnostics=diagnostics,
                            aligned=aligned, row_must_be_nonzero=not entry.root_is_self)


def inner_product_monitor(grad_tau, grad_eta) -> bool:
    """True when the constraint gradients at the maximizer and at its root
    are nonnegatively aligned, as the feasibility argument assumes.  The
    gradients come from the path evaluations the derivative step made; the
    callers skip an entry that is its own root, which needs none."""
    return float(np.dot(grad_tau, grad_eta)) >= 0.0
