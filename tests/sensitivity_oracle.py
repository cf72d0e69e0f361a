"""The input response dp(tau; t, x)/dx g(t, x) by co-integration (oracle).

Phi = dp/dx g starts at g(t, x) and is stepped by classical RK4 on the
stacked state [x, vec Phi] with the joint field [f + g mu, vec(A Phi)], A the
closed-loop Jacobian: whole steps of `step` from t, then one partial step to
tau.  It shares no code with the closed-form response it checks
(TwoBodyModel.coast_input_response); its own error is RK4's, about 4e-14
relative over the pinned 250 s horizon at a 1 s step.
"""

from __future__ import annotations

import math

import numpy as np

from pcbf.core import finite_diff_jacobian, rk4


def two_body_jacobian(mu_grav, x):
    """The two-body drift Jacobian built from fresh blocks through
    np.linalg.norm and np.outer."""
    r = x[:3]
    rn = np.linalg.norm(r)
    jac = np.zeros((6, 6))
    jac[:3, 3:] = np.eye(3)
    jac[3:, :3] = mu_grav * (3.0 * np.outer(r, r) / rn**5 - np.eye(3) / rn**3)
    return jac


def cointegrated_sensitivity(model, mu, step, jacobian=None):
    """(tau, t, x) -> dp(tau; t, x)/dx g(t, x), n x m, for the closed loop
    xdot = f + g mu(t, x); jacobian(t, x) is its Jacobian, central
    differences of the field when None."""

    def field(t, y):
        return model.drift(t, y) + model.input_matrix(t, y) @ mu(t, y)

    def closed_loop_jacobian(t, y):
        if jacobian is not None:
            return jacobian(t, y)
        return finite_diff_jacobian(lambda z: field(t, z), y)

    def sensitivity(tau, t, x):
        g = np.asarray(model.input_matrix(t, x), dtype=float)
        n, m = g.shape

        def joint(t_j, y):
            state, phi = y[:n], y[n:].reshape(n, m)
            return np.concatenate([field(t_j, state),
                                   (closed_loop_jacobian(t_j, state) @ phi).ravel()])

        k = math.floor((tau - t) / step + 1e-9)
        rem = tau - (t + k * step)
        y = np.concatenate([x, g.ravel()])
        for j in range(k):
            y = rk4(joint, t + j * step, y, step)
        if rem >= 1e-12 * max(1.0, abs(tau)):
            y = rk4(joint, t + k * step, y, rem)
        return y[n:].reshape(n, m)

    return sensitivity
