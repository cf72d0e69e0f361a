"""Independent oracles for the minimum-deviation filter tests.

Two references, neither sharing code with the solver under test: a
progressively refined dense grid search (anchors the achieved deviation) and
a scipy SLSQP solve (pins the minimizer itself; an axis-aligned lattice
cannot localize an optimum lying on a tilted active constraint much below
a few grid steps, so the grid anchors the objective rather than the point).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from pcbf.qp import AffineConstraint


def _split(constraints):
    hard = [(np.asarray(c.row, float), c.bound) for c in constraints
            if c.slack_weight is None]
    slack = [(np.asarray(c.row, float), c.bound, c.slack_weight)
             for c in constraints if c.slack_weight is not None]
    return hard, slack


def _sweep(center, half, points, mu, hard, slack, best):
    """Dense axis-aligned sweep, chunked over the first axis to bound memory.

    The grid over the other axes, its share of the objective and its
    projection on each row are computed once; each first-axis value v then
    adds its own term."""
    m = mu.size
    axes = [np.linspace(center[i] - half, center[i] + half, points)
            for i in range(m)]
    tail = (np.stack(np.meshgrid(*axes[1:], indexing="ij"), axis=-1).reshape(-1, m - 1)
            if m > 1 else np.zeros((1, 0)))
    tail_obj = np.sum((tail - mu[1:]) ** 2, axis=1)
    hard_tail = [(a[0], tail @ a[1:], b) for a, b in hard]
    slack_tail = [(a[0], tail @ a[1:], b, w) for a, b, w in slack]
    found = False
    for v in axes[0]:
        feas = np.ones(len(tail), dtype=bool)
        for a0, proj, b in hard_tail:
            feas &= v * a0 + proj <= b + 1e-9
        if not np.any(feas):
            continue
        found = True
        obj = (v - mu[0]) ** 2 + tail_obj[feas]
        for a0, proj, b, w in slack_tail:
            obj = obj + w * np.maximum(0.0, v * a0 + proj[feas] - b) ** 2
        j = int(np.argmin(obj))
        if best is None or obj[j] < best[0]:
            best = (float(obj[j]), np.concatenate([[v], tail[feas][j]]))
    return best, found


def penalized_objective(u, mu, constraints):
    """||u - mu||^2 plus w * max(0, a.u - b)^2 for each slacked row."""
    _, slack = _split(constraints)
    return float(np.sum((u - mu) ** 2)) + sum(
        w * max(0.0, float(a @ u) - b) ** 2 for a, b, w in slack)


def grid_search(mu, constraints):
    """Best penalized objective and point found by hierarchical dense search,
    finishing with local sweeps at 1e-3 and finer resolution."""
    mu = np.asarray(mu, dtype=float)
    hard, slack = _split(constraints)
    half, points, best = 5.0, 11, None
    rounds = 0
    while rounds < 16:
        best, ok = _sweep(mu if best is None else best[1], half, points,
                          mu, hard, slack, best)
        rounds += 1
        if not ok:
            # feasible set thinner than the lattice: densify, then widen
            if points < (201 if mu.size <= 2 else 41):
                points = points * 2 + 1
            else:
                half *= 2.0
            continue
        half /= 2.0
    for _ in range(3):
        best, _ = _sweep(best[1], 0.02, 41, mu, hard, slack, best)
    for _ in range(3):
        best, _ = _sweep(best[1], 0.004, 41, mu, hard, slack, best)
    return best


def slsqp_reference(mu, constraints):
    """Same problem through scipy's SLSQP with analytic gradients."""
    mu = np.asarray(mu, dtype=float)
    hard, slack = _split(constraints)

    def f(u):
        v = float(np.sum((u - mu) ** 2))
        g = 2.0 * (u - mu)
        for a, b, w in slack:
            s = max(0.0, float(a @ u) - b)
            v += w * s * s
            g += 2.0 * w * s * a
        return v, g

    cons = [{"type": "ineq",
             "fun": (lambda u, a=a, b=b: b - float(a @ u)),
             "jac": (lambda u, a=a: -a)} for a, b in hard]
    res = minimize(f, mu, jac=True, method="SLSQP", constraints=cons,
                   options={"maxiter": 400, "ftol": 1e-14})
    return res.x


def random_instance(rng):
    """Feasible random instance: every row leaves at least 0.05 slack at a
    hidden feasible point, so the feasible set is never thinner than the
    search lattice."""
    m = int(rng.integers(1, 5))
    n_con = int(rng.integers(1, 5))
    mu = rng.uniform(-2, 2, m)
    u_feas = rng.uniform(-2, 2, m)
    cons = []
    for _ in range(n_con):
        a = rng.uniform(-1, 1, m)
        b = float(a @ u_feas) + rng.uniform(0.05, 1.0)
        w = None if rng.random() < 0.7 else 10.0 ** rng.uniform(1, 3)
        cons.append(AffineConstraint(a, b, slack_weight=w))
    return mu, cons
