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

from pcbf.core import (DynamicsModel, PropagationError, ConfigurationError,
                       finite_diff_jacobian, rk4, rk4_one)


class Path(Protocol):
    """Forecast p(tau; t, x) of the nominal closed loop xdot = f + g mu."""

    def evaluate(self, tau, t, x) -> np.ndarray:
        """p(tau; t, x), equal to x at tau = t."""

    def evaluate_many(self, taus, t, x) -> np.ndarray:
        """p at each of taus, stacked along the first axis."""

    def field(self, tau, y) -> np.ndarray:
        """Closed-loop field f + g mu at (tau, y); at y = p(tau; t, x) it is
        the tau-derivative of the forecast.  y may hold a batch of states
        along its leading axes, and tau then one time per state."""

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
        dt = (taus - t)[..., None]
        e = np.exp(-self.k * dt)
        z, zdot, v = x[0::2], x[1::2], self.v
        out = np.empty(taus.shape + (4,))
        out[..., 0::2] = z + v * dt + (zdot - v) / self.k * (1.0 - e)
        out[..., 1::2] = v + (zdot - v) * e
        # the forecast at tau = t is the current state, exactly
        at_t = dt[..., 0] == 0.0
        if at_t.any():
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

    The path holds one forecast from the last (t, x) asked about, keyed by t
    and the exact bytes of x: state knots every `step` seconds in one
    (n_knots, dim) array, grown in one loop up to the latest time asked for,
    and the sensitivity dp/dx at the knots, co-integrated through
    Phidot = A Phi (A the closed-loop Jacobian, analytic if given, else
    central differences) only up to the latest knot asked for.  A Phi step
    takes A at the stage states of the state's own RK4 step and steps Phi
    alone, the same floats as one RK4 step of the stacked [x, vec Phi].

    A new key whose x is byte-equal to knot k >= 1 (the plant followed the
    forecast) keeps the knots from k on, and the sensitivity restarts at the
    identity.  Knot k+j+1 is kept only while the start time of the RK4 step
    that produced it, t0 + (k+j) step, equals the fresh t + j step bit for
    bit, so a time-dependent field gets exactly a fresh forecast's states.
    Any other key starts afresh.

    A time between knots takes one partial RK4 step from the knot before it;
    a query makes all of its partial steps as one batched RK4 step, calling
    the field with one time per row of x.  Each knot keeps the states of its
    partial steps, keyed by the step's inputs (t_k, rem), and leaves with
    them: a kept knot serves them to later queries and forecasts, and a knot
    whose start time moved no longer matches its keys.

    Given field_one, the field of one state as floats making the field's own
    operations in its order (TwoBodyModel.drift_one), the knot steps run on
    Python floats through core.rk4_one and equal rk4's bit for bit, without
    numpy's per-call cost; partial steps and the sensitivity stay on arrays.
    A non-finite knot raises PropagationError; the finite knots before it
    stay held.
    """

    def __init__(self, model: DynamicsModel, mu, step: float, jacobian=None, field_one=None):
        if step <= 0:
            raise ConfigurationError(f"integration step must be positive, got {step}")
        self.model = model
        self.mu = mu
        self.step = float(step)
        self._jac = jacobian  # analytic closed-loop Jacobian, else central FD
        self._field_one = field_one  # float field of one state for the knot steps
        self._key = None
        self._t0 = 0.0
        self._states = np.empty((0, 0))  # (n_knots, dim)
        self._partials: list[dict] = []  # per knot: (t_k, rem) -> partial-step state
        self._phis: list[np.ndarray] = []

    def field(self, t, x):
        """Closed-loop field, broadcasting over leading batch axes of x; the
        nominal law mu returns an ndarray."""
        u = self.mu(t, x)
        f = self.model.drift(t, x)
        if u.any():
            g = self.model.input_matrix(t, x)
            return f + np.einsum("...ij,...j->...i", g, u)
        return f

    def _jacobian(self, t, x):
        if self._jac is not None:
            return self._jac(t, x)
        return finite_diff_jacobian(lambda y: self.field(t, y), x)

    def _phi_step(self, t, x, phi, dt):
        """Phi after one RK4 step of Phidot = A Phi from (t, x, phi), with A
        taken at the stage states of the RK4 step of x."""
        x2 = x + dt / 2 * self.field(t, x)
        x3 = x + dt / 2 * self.field(t + dt / 2, x2)
        x4 = x + dt * self.field(t + dt / 2, x3)
        K1 = self._jacobian(t, x) @ phi
        K2 = self._jacobian(t + dt / 2, x2) @ (phi + dt / 2 * K1)
        K3 = self._jacobian(t + dt / 2, x3) @ (phi + dt / 2 * K2)
        K4 = self._jacobian(t + dt, x4) @ (phi + dt * K3)
        return phi + dt / 6 * (K1 + 2 * K2 + 2 * K3 + K4)

    def _forecast(self, t, x):
        """Make the held forecast the one from (t, x), keeping what it shares
        with the forecast held so far."""
        x = np.asarray(x, dtype=float)
        t = float(t)
        key = (t, x.tobytes())
        if key == self._key:
            return
        self._key = key
        states, t0, step = self._states, self._t0, self.step
        k = round((t - t0) / step) if len(states) else 0
        if 1 <= k < len(states) and states[k].tobytes() == key[1]:
            # knot k + j + 1 came from an RK4 step started at the time compared
            j = np.arange(len(states) - k - 1)
            keep = 1 + int(np.argmin(np.append(t0 + (k + j) * step == t + j * step, False)))
            self._states = states[k:k + keep]
            self._partials = self._partials[k:k + keep]
        else:
            self._states = x[None].copy()
            self._partials = [{}]
        self._t0 = t
        self._phis = [np.eye(x.size)]

    def _knots(self, taus, t):
        """(k, t_k, rem) for each tau: the last knot at or before it, that
        knot's time and the time left from it to tau, with the state knots
        grown up to the largest k."""
        taus = np.asarray(taus, dtype=float)
        early = taus < t - 1e-9 * max(1.0, abs(t))
        if early.any():
            raise ValueError(f"tau={taus[early][0]} precedes t={t}")
        taus = np.maximum(taus, t)
        k = np.floor((taus - self._t0) / self.step + 1e-9).astype(int)
        t_k = self._t0 + k * self.step
        rem = taus - t_k
        rem[rem < 1e-12 * np.maximum(1.0, np.abs(taus))] = 0.0
        one, n = self._field_one, len(self._states)
        y = self._states[-1].tolist() if one else self._states[-1]
        grown = []
        try:
            for j in range(n - 1, k.max(initial=0)):
                tj = self._t0 + j * self.step
                y = rk4_one(one, tj, y, self.step) if one else rk4(self.field, tj, y, self.step)
                if not all(map(math.isfinite, y)):
                    raise PropagationError(
                        f"non-finite state while propagating to tau={tj + self.step}")
                grown.append(y)
        finally:
            if grown:
                self._states = np.concatenate([self._states, grown])
                self._partials += [{} for _ in grown]
        return k, t_k, rem

    def _at(self, taus, t):
        k, t_k, rem = self._knots(taus, t)
        out = self._states[k]
        off = np.flatnonzero(rem)
        if off.size:
            memos = [self._partials[j] for j in k[off].tolist()]
            keys = list(zip(t_k[off].tolist(), rem[off].tolist()))
            miss = [n for n, (memo, key) in enumerate(zip(memos, keys)) if key not in memo]
            if miss:
                rows = off[miss]
                y = rk4(self.field, t_k[rows], out[rows], rem[rows])
                bad = rows[~np.isfinite(y).all(axis=1)]
                if bad.size:
                    tau = float(np.asarray(taus, dtype=float)[bad[0]])
                    raise PropagationError(f"non-finite state at tau={tau}")
                for n, state in zip(miss, y):
                    memos[n][keys[n]] = state
            out[off] = [memo[key] for memo, key in zip(memos, keys)]
        return out

    def evaluate(self, tau, t, x):
        self._forecast(t, x)
        return self._at([tau], t)[0]

    def evaluate_many(self, taus, t, x):
        self._forecast(t, x)
        return self._at(taus, t)

    def state_sensitivity(self, tau, t, x):
        self._forecast(t, x)
        (k,), (t_k,), (rem,) = self._knots([tau], t)
        states, phis = self._states, self._phis
        while len(phis) <= k:
            j = len(phis) - 1
            phis.append(self._phi_step(self._t0 + j * self.step, states[j], phis[j], self.step))
        return phis[k] if rem == 0.0 else self._phi_step(t_k, states[k], phis[k], rem)

    def nominal_control(self, t, x):
        return self.mu(t, x)
