"""Minimum-deviation control filter.

Solves argmin ||u - mu||^2 subject to affine rows a.u <= b; slacked rows are
folded in as quadratic penalties.  Problems are tiny (a handful of rows), so
the solver enumerates hard active sets through the KKT conditions, which is
exact and deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from pcbf.core import ClassKFunction

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
    u: np.ndarray
    active_set: list[int]
    slack_values: list[float]
    feasible: bool
    infeasible_reason: str | None = None


def build_cbf_constraint(h_p: float, deriv, alpha: ClassKFunction, mu,
                         slack_weight: float | None = None) -> AffineConstraint:
    """Barrier condition c0 + a.(u - mu) <= alpha(-hp) rearranged to a.u <= b."""
    row = np.asarray(deriv.row, dtype=float)
    bound = alpha.value(-h_p) - deriv.constant + float(row @ mu)
    return AffineConstraint(row=row, bound=bound, slack_weight=slack_weight)


def _penalized_objective(u, mu, slack):
    val = float(np.sum((u - mu) ** 2))
    for con in slack:
        val += con.slack_weight * max(0.0, float(con.row @ u) - con.bound) ** 2
    return val


def _solve_hard(mu, hard, H, c):
    """Minimize 0.5 u'Hu + c'u over the hard rows by active-set enumeration.

    Returns (u, active_indices) or (None, reason).
    """
    m = mu.size
    rows = [np.asarray(con.row, dtype=float) for con in hard]
    bounds = [con.bound for con in hard]

    usable = []
    for i, (a, b) in enumerate(zip(rows, bounds)):
        if np.linalg.norm(a) == 0.0:
            if 0.0 > b + _FEAS_TOL * (1.0 + abs(b)):
                return None, f"zero-row hard constraint {i} unsatisfiable"
            continue  # trivially satisfied, drop
        usable.append(i)

    best = None
    for size in range(len(usable) + 1):
        for subset in itertools.combinations(usable, size):
            k = len(subset)
            A = np.array([rows[i] for i in subset]).reshape(k, m)
            kkt = np.block([[H, A.T], [A, np.zeros((k, k))]]) if k else H
            rhs = np.concatenate([-c, [bounds[i] for i in subset]]) if k else -c
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            u = sol[:m]
            lam = sol[m:]
            if np.any(lam < -_DUAL_TOL):
                continue
            ok = all(
                float(rows[i] @ u) <= bounds[i] + _FEAS_TOL * (1.0 + abs(bounds[i]))
                for i in usable
            )
            if not ok:
                continue
            obj = 0.5 * float(u @ H @ u) + float(c @ u)
            if best is None or obj < best[0] - 1e-12:
                best = (obj, u, list(subset))
        if best is not None:
            break  # smallest consistent active set wins; larger ones only tie
    if best is None:
        return None, "no feasible active set"
    return (best[1], best[2]), None


def solve_min_deviation(mu, constraints: list[AffineConstraint]) -> FilterResult:
    """Deterministic small dense QP: nearest u to mu under the given rows."""
    mu = np.asarray(mu, dtype=float)
    m = mu.size
    hard = [c for c in constraints if c.slack_weight is None]
    slack = [c for c in constraints if c.slack_weight is not None]

    # fast path: one hard row, nothing slacked
    if len(hard) == 1 and not slack:
        a = np.asarray(hard[0].row, dtype=float)
        b = hard[0].bound
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

    # iterate on which slacked rows are violated; each pass is a smooth QP
    violated = [False] * len(slack)
    best = None
    for _ in range(2 ** max(len(slack), 1) + 4):
        H = 2.0 * np.eye(m)
        c = -2.0 * mu
        for con, act in zip(slack, violated):
            if act:
                a = np.asarray(con.row, dtype=float)
                H += 2.0 * con.slack_weight * np.outer(a, a)
                c += -2.0 * con.slack_weight * con.bound * a
        result, reason = _solve_hard(mu, hard, H, c)
        if result is None:
            return FilterResult(u=mu.copy(), active_set=[], slack_values=[],
                                feasible=False, infeasible_reason=reason)
        u, active = result
        obj = _penalized_objective(u, mu, slack)
        if best is None or obj < best[0] - 1e-12:
            best = (obj, u, active)
        new_violated = [float(con.row @ u) > con.bound for con in slack]
        if new_violated == violated:
            break
        violated = new_violated

    _, u, active = best
    slack_values = [max(0.0, float(con.row @ u) - con.bound) for con in slack]
    return FilterResult(u=u, active_set=active, slack_values=slack_values,
                        feasible=True)
