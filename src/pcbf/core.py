"""System abstractions: dynamics, constraint function, margin and class-K function.

The control-affine system is xdot = f(t,x) + g(t,x) u.  The safe set is the
zero-sublevel set of a constraint function h(t,x); the margin trades
predicted violation magnitude against the time remaining to react, and the
class-K function sets how hard the barrier condition pushes back near the
boundary.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ConfigurationError(ValueError):
    """Bad scenario or solver configuration."""


class PropagationError(RuntimeError):
    """Numerical propagation produced a non-finite state."""


class TangentialCrossingError(RuntimeError):
    """Root of h along the path is not transversal; sensitivity undefined."""


class DegenerateMaximizerError(RuntimeError):
    """Flat maximum: implicit-function denominator vanished."""


class InternalConsistencyError(RuntimeError):
    """A structurally impossible combination was produced."""


class DynamicsModel:
    """Control-affine dynamics xdot = f(t,x) + g(t,x) u.

    Subclasses provide drift and input_matrix.  Both should broadcast over
    a leading batch axis of x when possible.
    """

    def drift(self, t, x):
        raise NotImplementedError

    def input_matrix(self, t, x):
        raise NotImplementedError

    def field(self, t, x, u):
        """f + g u at (t, x) for an ndarray u, broadcasting over leading batch
        axes of x and u.  Where u is all zero g is not formed, and the field
        is drift's own array."""
        f = self.drift(t, x)
        if u.any():
            return f + np.matmul(self.input_matrix(t, x), u[..., None])[..., 0]
        return f


class ConstraintFunction:
    """Scalar constraint h(t,x); the safe set is {x | h(t,x) <= 0}.

    value must broadcast over leading batch axes of t and x.  partials gives
    (dh/dt, grad_x h) at one state from one evaluation of the geometry; both
    are analytic per scenario and verified against finite differences in tests.
    two_level asks the horizon scan to re-sample near-violations densely, for
    a constraint whose violations are narrow spikes on the uniform grid.
    """

    h_max: float
    two_level = False

    def value(self, t, x):
        raise NotImplementedError

    def partials(self, t, x) -> tuple[float, np.ndarray]:
        raise NotImplementedError


def margin(lam, h_max, T):
    """Quadratic margin m(lam) = h_max (lam/T)^2: zero at zero, nondecreasing,
    and h_max at lam = T.

    A linear margin has constant positive slope, which no continuous class-K
    function can dominate as lam -> 0; the quadratic admits the square-root
    class-K companion built by make_compatible_alpha.
    """
    return h_max * (lam / T) ** 2


def margin_slope(lam, h_max, T):
    """m'(lam) of the quadratic margin."""
    return 2.0 * h_max * lam / T**2


def make_compatible_alpha(h_max: float, T: float, gamma: float) -> Callable[[float], float]:
    """Class-K function alpha satisfying alpha(m(lam)) >= m'(lam) on [0,T]
    and alpha(m(T)) >= gamma for the quadratic margin: odd, zero at zero,
    increasing.

    alpha(s) = sign(s) max( (2/T) sqrt(h_max |s|), (gamma/h_max) |s| ).
    The first branch meets alpha(m(lam)) = m'(lam) with equality; the
    second covers the gamma bound, as m(T) = h_max.  Where h_max |s|
    underflows to 0 for a subnormal s, the root is sqrt(h_max) sqrt(|s|), so
    alpha keeps the sign of s.
    """
    if not (h_max > 0):
        raise ConfigurationError(f"h_max must be positive, got {h_max}")
    if not (T > 0):
        raise ConfigurationError(f"T must be positive, got {T}")
    if not gamma >= 0:
        raise ConfigurationError(f"gamma must be nonnegative, got {gamma}")
    slope = gamma / h_max

    def alpha(s):
        a = abs(s)
        root = np.sqrt(h_max * a) if h_max * a or not a else np.sqrt(h_max) * np.sqrt(a)
        return float(np.sign(s)) * max((2.0 / T) * root, slope * a)

    return alpha


def rk4(field, t, y, dt):
    """One classical Runge-Kutta step of ydot = field(t, y) from (t, y).

    With t and dt 1-D ndarrays of one entry per row of y, each row takes its
    own step, bit for bit as it would alone; the field is then called with
    the array of times.
    """
    h = dt[:, None] if isinstance(dt, np.ndarray) else dt
    k1 = field(t, y)
    k2 = field(t + dt / 2, y + h / 2 * k1)
    k3 = field(t + dt / 2, y + h / 2 * k2)
    k4 = field(t + dt, y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def finite_diff_jacobian(func, x):
    """Central-difference Jacobian of func: R^n -> R^k, column by column,
    as a (k, n) array; a float-valued func gives shape (1, n).

    Per-component step max(1e-6, 1e-7 * |x_i|).
    """
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(x.size):
        d = max(1e-6, 1e-7 * abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += d
        xm[i] -= d
        cols.append((func(xp) - func(xm)) / (2.0 * d))
    return np.asarray(cols, dtype=float).reshape(x.size, -1).T
