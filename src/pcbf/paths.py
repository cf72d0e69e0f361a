"""Path functions: dynamics-consistent forecasts p(tau; t, x) with sensitivities.

Two implementations: a closed form for the double-integrator car pair, and a
fixed-step RK4 flow for arbitrary dynamics under a nominal control law.  Both
satisfy the Path protocol: the state forecast, the closed-loop vector field
that is its tau-derivative, and the forecast's response to the input
directions, dp/dx g(t, x), which the barrier derivative formulas consume.
The car path's response is closed form; the RK4 flow takes its response from
the scenario, which for the satellite is a closed-form Kepler solve.
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from pcbf.core import DynamicsModel, PropagationError, ConfigurationError, rk4


class Path(Protocol):
    """Forecast p(tau; t, x) of the nominal closed loop xdot = f + g mu.

    Every tau is at or after t: a tau before t by more than rounding
    (1e-9 max(1, |t|)) raises ValueError, and one within that is taken at t.
    """

    def evaluate_many(self, taus, t, x) -> np.ndarray:
        """p(tau; t, x) at each of taus, stacked along the first axis; equal
        to x at tau = t."""

    def field(self, tau, y) -> np.ndarray:
        """Closed-loop field f + g mu at (tau, y); at y = p(tau; t, x) it is
        the tau-derivative of the forecast.  y may hold a batch of states
        along its leading axes, and tau then one time per state."""

    def state_sensitivity(self, tau, t, x) -> np.ndarray:
        """dp(tau; t, x)/dx g(t, x): the n x m response of the forecast to the
        input directions at (t, x), g(t, x) itself at tau = t."""

    def nominal_control(self, t, x) -> np.ndarray:
        """The nominal law mu(t, x)."""

    def memo_token(self, t, x):
        """None for a path that keeps no forecast between calls: no horizon
        grid along it then takes values from the one before.  Otherwise a
        token for the forecast from (t, x) that changes whenever a state of
        the held forecast can change.  Under one token p(tau) has the same
        bits for the same tau, so values along the path may be reused by tau
        alone."""


class AnalyticCarPath:
    """Closed-form path for two lane-following double integrators.

    Each car tracks its target speed v_i through the proportional law
    mu_i = k (v_i - zdot_i); the resulting flow is an exact exponential.
    State layout: [z1, zdot1, z2, zdot2].
    """

    def __init__(self, k: float, v: np.ndarray):
        if not k > 0:
            raise ConfigurationError(f"car path gain k must be positive, got {k}")
        self.k = float(k)
        self.v = np.asarray(v, dtype=float)
        if self.v.shape != (2,):
            raise ConfigurationError("v must hold one target speed per car")

    def evaluate_many(self, taus, t, x):
        taus = np.asarray(taus, dtype=float)
        dt = (taus - t)[..., None]
        e = np.exp(-self.k * dt)
        z, zdot, v = x[0::2], x[1::2], self.v
        out = np.empty(taus.shape + (4,))
        out[..., 0::2] = z + v * dt + (zdot - v) / self.k * (1.0 - e)
        out[..., 1::2] = v + (zdot - v) * e
        # the forecast at tau = t is the current state, exactly; so is it at a
        # tau before t by rounding, and one earlier than that raises
        at_t = dt[..., 0] <= 0.0
        if at_t.any():
            _not_before(taus[at_t], t)
            out[at_t] = x
        return out

    def field(self, tau, y):
        mu = self.nominal_control(tau, y)
        return np.stack([y[..., 1], mu[..., 0], y[..., 3], mu[..., 1]], axis=-1)

    def state_sensitivity(self, tau, t, x):
        if tau < t:
            tau = float(_not_before(tau, t))
        # input i drives car i's speed: column i is dp/dzdot_i
        e = math.exp(-self.k * (tau - t))
        a = (1.0 - e) / self.k
        return np.array([[a, 0.0], [e, 0.0], [0.0, a], [0.0, e]])

    def nominal_control(self, t, x):
        return self.k * (self.v - x[..., 1::2])

    def memo_token(self, t, x):
        return None


class OdePath:
    """Path function defined by RK4 integration of xdot = f + g mu.

    The path holds one forecast from the last (t, x) asked about, keyed by t
    and the exact bytes of x: state knots in one (n_knots, dim) array and
    their times beside them, grown in one loop up to the latest time asked
    for.  Knot 0 is x at t; knot
    j >= 1 sits on the absolute time lattice, at (k0 + j) step with
    k0 = floor(t / step + 1e-9), so an off-lattice t steps to the lattice
    first.  Each knot is one RK4 step from the knot before it, whose length
    is the difference of their times.

    The input response dp/dx g(t, x) comes from `sensitivity`, a callable
    (tau, t, x) -> n x m that the scenario supplies in closed form
    (TwoBodyModel.coast_input_response); it reads no knot and calls no field.
    state_sensitivity, like evaluate_many, rejects a tau before t with
    ValueError; on a path built without `sensitivity` it raises TypeError.

    A new key keeps the held knots from knot j >= 1 on when t is knot j's
    lattice time bit for bit and x has knot j's bytes (the plant followed
    the forecast); any other key starts afresh.  A kept forecast then takes
    exactly a fresh one's steps, so under one memo_token, forecast_restarts,
    the state at tau depends on tau alone.

    A time tau steps from knot floor(tau / step + 1e-9) - k0 by the time
    left from that knot's time; a query makes all of its partial steps as
    one batched RK4 step, calling the field with one time per row of x.
    The path keeps no off-knot state: each horizon grid keeps the values it
    looks up, and the next grid along the forecast starts from them.

    Given step_one, one RK4 step (t, y, dt) -> y of one state held as floats
    that makes core.rk4's operations on the closed-loop field in its order
    (TwoBodyModel.coast_step, the fused two-body step), the knot steps run on
    Python floats and equal rk4's bit for bit, without numpy's per-call cost;
    partial steps stay on arrays.
    A non-finite knot raises PropagationError; the finite knots before it
    stay held.

    Plain integer work counters, over the path's life: knot_steps, the RK4
    steps that grew the knots (either chain); forecast_restarts, the
    forecasts started afresh; partial_steps, the off-knot rows stepped.
    """

    def __init__(self, model: DynamicsModel, mu, step: float, sensitivity=None, step_one=None):
        if not step > 0:
            raise ConfigurationError(f"integration step must be positive, got {step}")
        self.model = model
        self.mu = mu
        self.step = float(step)
        self._sensitivity = sensitivity  # (tau, t, x) -> dp/dx g(t, x)
        self._step_one = step_one  # float RK4 step of one state for the knot steps
        self.knot_steps = 0
        self.forecast_restarts = 0
        self.partial_steps = 0
        self._key = None
        self._k0 = 0
        self._states = np.empty((0, 0))  # (n_knots, dim)
        self._times = np.empty(0)  # (n_knots,), the knot times

    def field(self, t, x):
        """Closed-loop field, broadcasting over leading batch axes of x; the
        nominal law mu returns an ndarray."""
        return self.model.field(t, x, self.mu(t, x))

    def _forecast(self, t, x):
        """Make the held forecast the one from (t, x), keeping what it shares
        with the forecast held so far."""
        x = np.asarray(x, dtype=float)
        t = float(t)
        key = (t, x.tobytes())
        if key == self._key:
            return
        self._key = key
        k0 = math.floor(t / self.step + 1e-9)
        j = k0 - self._k0
        if 1 <= j < len(self._states) and k0 * self.step == t \
                and self._states[j].tobytes() == key[1]:
            self._states, self._times = self._states[j:], self._times[j:]
        else:
            self._states, self._times = x[None].copy(), np.array([t])
            self.forecast_restarts += 1
        self._k0 = k0

    def _knots(self, taus, t):
        """(k, t_k, rem) for each tau: the last knot at or before it, that
        knot's time and the time left from it to tau, with the state knots
        grown up to the largest k."""
        taus = _not_before(taus, t)
        k = np.floor(taus / self.step + 1e-9).astype(int) - self._k0
        if k.max(initial=0) >= len(self._states):
            self._grow(k.max())
        t_k = self._times[k]
        rem = taus - t_k
        rem[rem < 1e-12 * np.maximum(1.0, np.abs(taus))] = 0.0
        return k, t_k, rem

    def _grow(self, last):
        """Grow the knots up to knot last, each one RK4 step from the one
        before it."""
        n, one = len(self._states), self._step_one
        times = np.append(self._times[-1], (self._k0 + np.arange(n, last + 1)) * self.step)
        y = self._states[-1].tolist() if one else self._states[-1]
        grown = []
        try:
            for ta, tb in zip(times.tolist(), times[1:].tolist()):
                y = one(ta, y, tb - ta) if one else rk4(self.field, ta, y, tb - ta)
                if not all(map(math.isfinite, y)):
                    raise PropagationError(f"non-finite state while propagating to tau={tb}")
                grown.append(y)
        finally:
            if grown:
                self._states = np.concatenate([self._states, grown])
                self._times = np.concatenate([self._times, times[1:len(grown) + 1]])
                self.knot_steps += len(grown)

    def _at(self, taus, t):
        k, t_k, rem = self._knots(taus, t)
        out = self._states[k]
        off = np.flatnonzero(rem)
        if off.size:
            self.partial_steps += off.size
            y = rk4(self.field, t_k[off], out[off], rem[off])
            bad = off[~np.isfinite(y).all(axis=1)]
            if bad.size:
                tau = float(np.asarray(taus, dtype=float)[bad[0]])
                raise PropagationError(f"non-finite state at tau={tau}")
            out[off] = y
        return out

    def evaluate_many(self, taus, t, x):
        self._forecast(t, x)
        return self._at(taus, t)

    def memo_token(self, t, x):
        self._forecast(t, x)
        return self.forecast_restarts

    def state_sensitivity(self, tau, t, x):
        if self._sensitivity is None:
            raise TypeError("OdePath built without sensitivity= has no input response")
        return self._sensitivity(float(_not_before(tau, t)), t, x)

    def nominal_control(self, t, x):
        return self.mu(t, x)


def _not_before(taus, t):
    """taus as floats raised to t; a tau before t by more than rounding
    raises ValueError."""
    taus = np.asarray(taus, dtype=float)
    early = taus < t - 1e-9 * max(1.0, abs(t))
    if early.any():
        raise ValueError(f"tau={taus[early][0]} precedes t={t}")
    return np.maximum(taus, t)
