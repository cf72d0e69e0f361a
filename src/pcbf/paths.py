"""Path functions: dynamics-consistent forecasts p(tau; t, x) with sensitivities.

Two implementations: a closed form for the double-integrator car pair, and a
fixed-step RK4 flow for arbitrary dynamics under a nominal control law.  Both
satisfy the Path protocol: the state forecast, the closed-loop vector field
that is its tau-derivative, and the sensitivity of the forecast to the initial
state, which the barrier derivative formulas consume.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from pcbf.core import DynamicsModel, PropagationError, ConfigurationError, finite_diff_jacobian, rk4


class Path(Protocol):
    """Forecast p(tau; t, x) of the nominal closed loop xdot = f + g mu."""

    def evaluate(self, tau, t, x) -> np.ndarray:
        """p(tau; t, x), equal to x at tau = t."""

    def evaluate_many(self, taus, t, x) -> np.ndarray:
        """p at each of taus, stacked along the first axis."""

    def field(self, tau, y) -> np.ndarray:
        """Closed-loop field f + g mu at (tau, y); at y = p(tau; t, x) it is
        the tau-derivative of the forecast."""

    def state_sensitivity(self, tau, t, x) -> np.ndarray:
        """dp(tau; t, x)/dx."""

    def nominal_control(self, t, x) -> np.ndarray:
        """The nominal law mu(t, x)."""


class AnalyticCarPath:
    """Closed-form path for two lane-following double integrators.

    Each car tracks its target speed v_i through the proportional law
    mu_i = k (v_i - zdot_i); the resulting flow is an exact exponential.
    State layout: [z1, zdot1, z2, zdot2].
    """

    def __init__(self, k: float, v: np.ndarray):
        if k <= 0:
            raise ConfigurationError(f"car path gain k must be positive, got {k}")
        self.k = float(k)
        self.v = np.asarray(v, dtype=float)
        if self.v.shape != (2,):
            raise ConfigurationError("v must hold one target speed per car")

    def evaluate(self, tau, t, x):
        return self.evaluate_many(np.array([tau]), t, x)[0]

    def evaluate_many(self, taus, t, x):
        taus = np.asarray(taus, dtype=float)
        dt = taus - t
        e = np.exp(-self.k * dt)
        out = np.empty(taus.shape + (4,))
        for i in range(2):
            z, zdot = x[2 * i], x[2 * i + 1]
            v = self.v[i]
            out[..., 2 * i] = z + v * dt + (zdot - v) / self.k * (1.0 - e)
            out[..., 2 * i + 1] = v + (zdot - v) * e
        # the forecast at tau = t is the current state, exactly
        at_t = dt == 0.0
        if np.any(at_t):
            out[at_t] = x
        return out

    def field(self, tau, y):
        mu = self.nominal_control(tau, y)
        return np.stack([y[..., 1], mu[..., 0], y[..., 3], mu[..., 1]], axis=-1)

    def state_sensitivity(self, tau, t, x):
        dt = tau - t
        e = math.exp(-self.k * dt)
        phi = np.zeros((4, 4))
        block = np.array([[1.0, (1.0 - e) / self.k], [0.0, e]])
        phi[0:2, 0:2] = block
        phi[2:4, 2:4] = block
        return phi

    def nominal_control(self, t, x):
        return self.k * (self.v - x[..., 1::2])


class OdePath:
    """Path function defined by RK4 integration of xdot = f + g mu.

    The state sensitivity dp/dx is co-integrated through the variational
    equation Phidot = A(tau) Phi with A the central-difference Jacobian of
    the closed-loop vector field.

    The path holds one forecast: knot states every `step` seconds from the
    last (t, x) it was asked about, keyed by t and the exact bytes of x.
    Within a control step the horizon scan, the maximizer and root searches
    and the derivative formulas all query the same (t, x), so one forecast
    serves them all; any other (t, x), however close, starts a new one.
    State knots grow up to the latest time asked for, and sensitivity knots
    only up to the latest knot whose sensitivity was asked for.
    """

    def __init__(self, model: DynamicsModel, mu, step: float, jacobian=None):
        if step <= 0:
            raise ConfigurationError(f"integration step must be positive, got {step}")
        self.model = model
        self.mu = mu
        self.step = float(step)
        self._jac = jacobian  # analytic closed-loop Jacobian, else central FD
        self._key = None
        self._t0 = 0.0
        self._states: list[np.ndarray] = []
        self._phis: list[np.ndarray] = []

    def field(self, t, x):
        """Closed-loop field, broadcasting over leading batch axes of x."""
        u = self.mu(t, x)
        f = self.model.drift(t, x)
        if np.any(u):
            g = self.model.input_matrix(t, x)
            return f + np.einsum("...ij,...j->...i", g, u)
        return f

    def _jacobian(self, t, x):
        if self._jac is not None:
            return self._jac(t, x)
        return finite_diff_jacobian(lambda y: self.field(t, y), x)

    def _joint(self, t, y):
        """Field of the stacked [x, vec Phi]: the state's own field and the
        variational equation Phidot = A Phi."""
        n = self._states[0].size
        x, phi = y[:n], y[n:].reshape(n, n)
        return np.concatenate([self.field(t, x), (self._jacobian(t, x) @ phi).ravel()])

    def _forecast(self, t, x):
        """Make the forecast the one from (t, x), starting afresh on a new key."""
        x = np.asarray(x, dtype=float)
        key = (float(t), x.tobytes())
        if key != self._key:
            self._key = key
            self._t0 = float(t)
            self._states = [x.copy()]
            self._phis = [np.eye(x.size)]

    def _knot(self, tau, t):
        """(k, t_k, rem): the last knot at or before tau, its time and the
        time left from it to tau, with the state knots grown up to k."""
        if tau < t - 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"tau={tau} precedes t={t}")
        tau = max(tau, t)
        k = int(math.floor((tau - self._t0) / self.step + 1e-9))
        t_k = self._t0 + k * self.step
        rem = tau - t_k
        if rem < 1e-12 * max(1.0, abs(tau)):
            rem = 0.0
        states = self._states
        while len(states) <= k:
            j = len(states) - 1
            tj = self._t0 + j * self.step
            xn = rk4(self.field, tj, states[j], self.step)
            if not np.all(np.isfinite(xn)):
                raise PropagationError(
                    f"non-finite state while propagating to tau={tj + self.step}",
                    tau=tj + self.step,
                )
            states.append(xn)
        return k, t_k, rem

    def _state(self, tau, t):
        k, t_k, rem = self._knot(tau, t)
        if rem == 0.0:
            return self._states[k]
        x = rk4(self.field, t_k, self._states[k], rem)
        if not np.all(np.isfinite(x)):
            raise PropagationError(f"non-finite state at tau={tau}", tau=tau)
        return x

    def evaluate(self, tau, t, x):
        self._forecast(t, x)
        return self._state(tau, t)

    def evaluate_many(self, taus, t, x):
        self._forecast(t, x)
        out = np.empty((len(taus), self._states[0].size))
        for i, tau in enumerate(taus):
            out[i] = self._state(tau, t)
        return out

    def state_sensitivity(self, tau, t, x):
        self._forecast(t, x)
        k, t_k, rem = self._knot(tau, t)
        states, phis = self._states, self._phis
        n = states[0].size

        def joint_step(j, t_j, dt):
            y = rk4(self._joint, t_j, np.concatenate([states[j], phis[j].ravel()]), dt)
            return y[n:].reshape(n, n)

        while len(phis) <= k:
            j = len(phis) - 1
            phis.append(joint_step(j, self._t0 + j * self.step, self.step))
        return phis[k] if rem == 0.0 else joint_step(k, t_k, rem)

    def nominal_control(self, t, x):
        return self.mu(t, x)
