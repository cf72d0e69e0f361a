"""Scenario construction: intersection car pair and satellite conjunction.

All numeric defaults live in default_config; they are reconstructions chosen
to reproduce the qualitative phenomena (conflicting nominal timing at the
intersection, a debris conjunction that genuinely requires intervention).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from pcbf.core import ConfigurationError, ConstraintFunction, DynamicsModel, PropagationError, rk4
from pcbf.paths import AnalyticCarPath, OdePath

SCENARIOS = ("intersection_cross", "intersection_left_turn", "satellite")
CONTROLLERS = ("pcbf", "ecbf", "none", "nominal")
# longest duration + T on the satellite: its debris track has one knot per second, each
# ~11 us and 2.0 kB to build, so a 5e4 s window (50x the pinned one) builds in ~0.6 s, 100 MB
_MAX_DEBRIS_WINDOW = 5e4


@dataclass
class ScenarioConfig:
    scenario: str
    controller: str
    T: float
    N: int
    duration: float
    step: float
    gamma: float
    ecbf_k1: float
    ecbf_k2: float
    params: dict


_INTERSECTION_PARAMS = {
    "k": 1.0,
    "v1": 1.0,
    "v2": 1.0,
    "rho": 1.0,
    "z1_0": -12.0,
    "dz1_0": 1.0,
    "z2_0": -11.5,
    "dz2_0": 1.0,
}

_SATELLITE_PARAMS = {
    "mu_grav": 398600.4418,  # km^3/s^2
    "radius": 7000.0,        # km, circular orbits for both objects
    "inclination_deg": 30.0,
    "conjunction_time": 450.0,
    "phase_offset": 1.5e-6,  # rad, debris lag; near-collision nominal course
    "rho": 1.0,              # km
}

# the parameters each scenario reads: only the left turn's lane has an arc,
# its radius 3 times the lane half-width of 1.5
_PARAMS = {"intersection_cross": _INTERSECTION_PARAMS,
           "intersection_left_turn": dict(_INTERSECTION_PARAMS, turn_radius=4.5),
           "satellite": _SATELLITE_PARAMS}


def default_config(scenario: str, controller: str = "pcbf") -> ScenarioConfig:
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {scenario!r}")
    if controller not in CONTROLLERS:
        raise ConfigurationError(f"unknown controller {controller!r}")
    if scenario.startswith("intersection"):
        return ScenarioConfig(scenario, controller, T=10.0, N=200, duration=30.0, step=0.05,
                              gamma=4.0, ecbf_k1=2.0, ecbf_k2=0.05,
                              params=dict(_PARAMS[scenario]))
    return ScenarioConfig(scenario, controller, T=250.0, N=250, duration=700.0, step=1.0,
                          gamma=2.0, ecbf_k1=0.2, ecbf_k2=0.01, params=dict(_PARAMS[scenario]))


# ---------------------------------------------------------------------------
# intersection scenario

class StraightLane:
    """Arc-length parameterized straight lane through the origin."""

    def __init__(self, direction):
        d = np.asarray(direction, dtype=float)
        self._dir = d / np.linalg.norm(d)

    def point(self, z):
        z = np.asarray(z, dtype=float)
        return z[..., None] * self._dir

    def tangent(self, z):
        out = np.empty(np.shape(z) + (2,))
        out[...] = self._dir
        return out


class LeftTurnLane:
    """Straight approach from the south, quarter-circle left turn at the
    origin, straight exit heading west.  Arc-length parameterized, C1."""

    def __init__(self, radius):
        if not radius > 0:
            raise ConfigurationError(f"turn radius must be positive, got {radius}")
        self.R = float(radius)
        self._arc_len = self.R * math.pi / 2.0

    def point(self, z):
        z = np.asarray(z, dtype=float)
        R, end = self.R, self._arc_len
        # np.clip's operations without its wrapper; on the approach theta is
        # 0, so -R + R cos(theta) is 0.0; a NaN z gives NaN in both columns
        theta = np.minimum(np.maximum(z, 0.0), end) / R
        out = np.empty(z.shape + (2,))
        out[..., 0] = np.where(z < end, -R + R * np.cos(theta), -R - (z - end))
        out[..., 1] = np.where(z >= end, R, np.where(z > 0, R * np.sin(theta), z))
        return out

    def tangent(self, z):
        z = np.asarray(z, dtype=float)
        theta = np.minimum(np.maximum(z, 0.0), self._arc_len) / self.R
        out = np.empty(z.shape + (2,))
        out[..., 0] = np.where(z <= 0, 0.0, np.where(z >= self._arc_len, -1.0, -np.sin(theta)))
        out[..., 1] = np.where(z >= self._arc_len, 0.0, np.cos(theta))
        return out


class CarPairModel(DynamicsModel):
    """Two lane-following double integrators: zddot_i = u_i."""

    _G = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    _G.flags.writeable = False

    def drift(self, t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 1]
        out[..., 2] = x[..., 3]
        return out

    def input_matrix(self, t, x):
        if np.ndim(x) == 1:
            return self._G
        return np.broadcast_to(self._G, np.shape(x)[:-1] + (4, 2))


class SeparationConstraint(ConstraintFunction):
    """h = h_max - ||l1(z1) - l2(z2)|| with h_max = rho: positive when cars are too close."""

    def __init__(self, lane1, lane2, rho):
        self.lane1 = lane1
        self.lane2 = lane2
        self.h_max = float(rho)

    def _delta(self, x):
        x = np.asarray(x, dtype=float)
        return self.lane1.point(x[..., 0]) - self.lane2.point(x[..., 2])

    def value(self, t, x):
        d = self._delta(x)
        # np.linalg.norm's own sum for real input, without its wrapper
        return self.h_max - np.sqrt(np.add.reduce(d * d, axis=-1))

    def partials(self, t, x):
        delta = self._delta(x)
        # np.linalg.norm of a vector is the square root of its dot product
        d = max(math.sqrt(delta.dot(delta)), 1e-12)
        unit = delta / d
        g = np.zeros(4)
        g[0] = -float(unit @ self.lane1.tangent(np.asarray(x)[0]))
        g[2] = float(unit @ self.lane2.tangent(np.asarray(x)[2]))
        return 0.0, g


def _check_positive(p, *keys):
    for key in keys:
        if not p[key] > 0:
            raise ConfigurationError(f"params.{key} must be positive, got {p[key]}")


def build_intersection(cfg: ScenarioConfig):
    """Returns (model, constraint, path); the path carries the nominal law."""
    p = cfg.params
    _check_positive(p, "rho", "k")
    k, v1, v2 = p["k"], p["v1"], p["v2"]
    if cfg.scenario == "intersection_left_turn":
        _check_positive(p, "turn_radius")
        lane2 = LeftTurnLane(p["turn_radius"])
    else:
        lane2 = StraightLane((0.0, 1.0))

    model = CarPairModel()
    h = SeparationConstraint(StraightLane((1.0, 0.0)), lane2, p["rho"])
    path = AnalyticCarPath(k=k, v=np.array([v1, v2]))
    return model, h, path


def intersection_initial_state(cfg: ScenarioConfig) -> np.ndarray:
    p = cfg.params
    return np.array([p["z1_0"], p["dz1_0"], p["z2_0"], p["dz2_0"]])


# ---------------------------------------------------------------------------
# satellite scenario

class TwoBodyModel(DynamicsModel):
    """Controlled satellite under point-mass gravity; thrust enters the
    velocity states directly."""

    _G = np.vstack([np.zeros((3, 3)), np.eye(3)])  # thrust enters the velocities

    def __init__(self, mu_grav):
        self.mu_grav = float(mu_grav)

    def drift(self, t, x):
        x = np.asarray(x, dtype=float)
        r = x[..., :3]
        # np.linalg.norm's own sum for real input, without its wrapper
        rn = np.sqrt(np.add.reduce(r * r, axis=-1, keepdims=True))
        out = np.empty_like(x)
        out[..., :3] = x[..., 3:]
        out[..., 3:] = -self.mu_grav * r / rn**3
        return out

    def coast_step(self, t, y, dt):
        """One RK4 step of the drift (no thrust) from (t, y), y 6 floats, as a
        list: core.rk4(self.drift, t, np.array(y), dt) bit for bit, its four
        drift stages inline in rk4's operations and order.  |r|^2 is summed
        left to right as np.add.reduce sums three, and |r|^3 is the np.power
        ufunc's float64 loop (SIMD where numpy has one), the array rn**3's;
        Python's ** (libm pow) differs in the last bit on ~5% of states, and
        an int exponent costs numpy a type resolution.  The cubes come in
        pairs, one np.power call each, as a call costs more than a stage's
        float operations: stage 2's position x + dt/2 v needs no gravity,
        and stage 3's and 4's, x + dt/2 w and x + dt s, need gravity only at
        stages 1 and 2.  The loop gives an element the bits it gives it
        alone, at any length, and every other operation keeps its order.
        |r|^3 = 0 at any stage takes the array step, for numpy's inf or nan."""
        c, h2, h6 = -self.mu_grav, dt / 2, dt / 6
        x0, x1, x2, v0, v1, v2 = y
        p0, p1, p2 = x0 + h2 * v0, x1 + h2 * v1, x2 + h2 * v2
        try:
            r3, p3 = np.power(np.array((math.sqrt(x0 * x0 + x1 * x1 + x2 * x2),
                                        math.sqrt(p0 * p0 + p1 * p1 + p2 * p2))), 3.0).tolist()
            a0, a1, a2 = c * x0 / r3, c * x1 / r3, c * x2 / r3
            w0, w1, w2 = v0 + h2 * a0, v1 + h2 * a1, v2 + h2 * a2
            b0, b1, b2 = c * p0 / p3, c * p1 / p3, c * p2 / p3
            q0, q1, q2, s0, s1, s2 = (x0 + h2 * w0, x1 + h2 * w1, x2 + h2 * w2,
                                      v0 + h2 * b0, v1 + h2 * b1, v2 + h2 * b2)
            e0, e1, e2 = x0 + dt * s0, x1 + dt * s1, x2 + dt * s2
            q3, r3 = np.power(np.array((math.sqrt(q0 * q0 + q1 * q1 + q2 * q2),
                                        math.sqrt(e0 * e0 + e1 * e1 + e2 * e2))), 3.0).tolist()
            d0, d1, d2 = c * q0 / q3, c * q1 / q3, c * q2 / q3
            f0, f1, f2 = v0 + dt * d0, v1 + dt * d1, v2 + dt * d2
            # k1..k4 are (v, a), (w, b), (s, d), (f, gravity at e).  A list, not
            # a tuple: the cyclic GC untracks tuples of floats, which delays its
            # full collections, so garbage cycles hold more memory (as a tuple,
            # the satellite benchmark's peak RSS read 6 % higher)
            return [x0 + h6 * (v0 + 2 * w0 + 2 * s0 + f0),
                    x1 + h6 * (v1 + 2 * w1 + 2 * s1 + f1),
                    x2 + h6 * (v2 + 2 * w2 + 2 * s2 + f2),
                    v0 + h6 * (a0 + 2 * b0 + 2 * d0 + c * e0 / r3),
                    v1 + h6 * (a1 + 2 * b1 + 2 * d1 + c * e1 / r3),
                    v2 + h6 * (a2 + 2 * b2 + 2 * d2 + c * e2 / r3)]
        except ZeroDivisionError:  # |r|^3 = 0 at a stage
            return rk4(self.drift, t, np.array(y, dtype=float), dt).tolist()

    def input_matrix(self, t, x):
        return np.broadcast_to(self._G, np.shape(x)[:-1] + (6, 3))

    def coast_input_response(self, tau, t, x):
        """dp(tau; t, x)/dx g(t, x) of the unthrusted flow in closed form: the
        6 x 3 velocity columns of the state transition matrix of the Keplerian
        arc from (t, x), g(t, x) itself at tau = t.

        The arc is the universal-variable f and g solution (Vallado,
        Fundamentals of Astrodynamics and Applications, Algorithm 8), valid on
        every conic and for any tau - t; each column is its complex-step
        derivative along one velocity (Squire & Trapp, SIAM Review 1998),
        exact to rounding.  Newton on the universal anomaly starts at the
        elliptic guess; off ellipses at Vallado's hyperbolic guess where it
        has the sign of tau - t, and elsewhere (near-parabolic arcs, short
        hyperbolic ones) at sqrt(mu) (tau - t) / |r|.  Off ellipses it also
        bisects the bracket of the root where a step would leave it or stall.
        No convergence within _KEPLER_ITERATIONS, or a non-finite response,
        raises PropagationError.
        """
        dt = tau - t
        sqmu = math.sqrt(self.mu_grav)
        y = np.tile(np.asarray(x, dtype=complex), (3, 1))
        y[[0, 1, 2], [3, 4, 5]] += 1j * _COMPLEX_STEP
        r0v, v0v = y[:, :3], y[:, 3:]
        with np.errstate(all="ignore"):  # a non-finite solve is reported below
            r0 = np.sqrt(np.sum(r0v * r0v, axis=1))
            sigma = np.sum(r0v * v0v, axis=1) / sqmu
            alpha = 2.0 / r0 - np.sum(v0v * v0v, axis=1) / self.mu_grav
            chi = sqmu * dt * (alpha if alpha[0].real > 0 else 1.0 / r0)
            if alpha[0].real < 0:
                # sign(dt) sqrt(-a) ln(arg), a = 1/alpha: of dt's sign where arg > 1
                a, sign = 1.0 / alpha, math.copysign(1.0, dt)
                arg = -2.0 * self.mu_grav * alpha * dt / (
                    sqmu * sigma + sign * np.sqrt(-self.mu_grav * a) * (1.0 - r0 * alpha))
                if arg[0].real > 1.0:
                    chi = sign * np.sqrt(-a) * np.log(arg)
            # off ellipses, Newton keeps to the bracket [lo, hi] of the root that
            # the residual's signs show (it rises with chi, at rate r > 0): a step
            # that would leave it, or shrink less than half the one before,
            # bisects it instead while it is wider than the convergence test
            # (rtsafe; Press et al., Numerical Recipes, 3rd ed., sec. 9.4); the
            # Newton steps after a bisection restore chi's imaginary part
            lo, hi = sorted((0.0, math.copysign(math.inf, dt)))
            last, done = math.inf, False
            for _ in range(_KEPLER_ITERATIONS):
                chi2 = chi * chi
                z = alpha * chi2
                c2, c3 = _stumpff(z)
                r = chi2 * c2 + sigma * chi * (1.0 - z * c3) + r0 * (1.0 - z * c2)
                if done:
                    break
                delta = (chi2 * chi * c3 + sigma * chi2 * c2 + r0 * chi * (1.0 - z * c3)
                         - sqmu * dt) / r
                newton, c, step = True, chi[0].real, delta[0].real
                if alpha[0].real <= 0:
                    lo, hi = (c, hi) if step < 0 else (lo, c)
                    if 1e-14 * abs(c) < hi - lo < math.inf and (
                            not lo <= c - step <= hi or 2.0 * abs(step) > last):
                        delta, newton = chi - 0.5 * (lo + hi), False
                    last = abs(delta[0].real)
                chi = chi - delta
                done = newton and np.all(np.abs(delta) <= 1e-14 * np.abs(chi))
            else:
                raise PropagationError(f"Kepler solve did not converge at tau={tau}")
            f, g = 1.0 - chi2 / r0 * c2, dt - chi2 * chi / sqmu * c3
            fdot, gdot = sqmu / (r * r0) * chi * (z * c3 - 1.0), 1.0 - chi2 / r * c2
            arc = np.hstack([f[:, None] * r0v + g[:, None] * v0v,
                             fdot[:, None] * r0v + gdot[:, None] * v0v])
        out = arc.imag.T / _COMPLEX_STEP
        if not np.isfinite(out).all():
            raise PropagationError(f"non-finite Kepler input response at tau={tau}")
        return out


# coast_input_response: imaginary velocity step (a power of two, so dividing by
# it is exact) and Newton iteration cap; each call of the pinned satellite run
# takes at most 3 Newton steps
_COMPLEX_STEP = 2.0 ** -70
_KEPLER_ITERATIONS = 50
# Stumpff c2, c3: Taylor coefficients of sum (-z)^k / (2k+2)! and / (2k+3)!,
# used for |z| < 0.5, where these 10 terms are exact to rounding and the cos
# form loses more digits to cancellation the nearer z is to 0; one complex
# (2, 1) column per term, highest first, so that one Horner chain steps both
_C23 = np.array([[[(-1.0) ** k / math.factorial(2 * k + 2)],
                  [(-1.0) ** k / math.factorial(2 * k + 3)]] for k in range(10)][::-1],
                dtype=complex)


def _stumpff(z):
    """Stumpff functions c2(z), c3(z) of complex z: the series near 0, else
    cos and sin of sqrt(z), which are cosh and sinh of sqrt(-z) for z < 0.
    Both series step as the rows of one (2, n) array, each element with the
    operations of its own chain, so each has the bits of a chain alone."""
    c = np.zeros((2,) + z.shape, dtype=z.dtype)
    for a in _C23:
        c = c * z + a
    c2, c3 = c
    small = np.abs(z) < 0.5
    if small.all():
        return c2, c3
    zz = np.where(small, 1.0, z)
    s = np.sqrt(zz)
    return (np.where(small, c2, (1.0 - np.cos(s)) / zz),
            np.where(small, c3, (s - np.sin(s)) / (zz * s)))


class DebrisSpline:
    """Not-a-knot cubic spline through 3-D positions at knots, and its
    velocity: SciPy's CubicSpline(knots, y, axis=0) and its derivative(),
    bit for bit, without importing SciPy.

    The system is CubicSpline's (n > 3, not-a-knot at both ends), built in
    its order, and solved as reference LAPACK dgtsv solves it for
    solve_banded((1, 1), ...).  A system that would need a row interchange
    is rejected; uniform knots never need one.  c and vel_c are
    CubicSpline's c and derivative().c.  Both evaluations follow PPoly's
    compiled loop: the interval is searchsorted(knots[1:-1], t, 'right')
    (find_interval with extrapolation, NaN in the last interval), and a
    cubic sums (((0.0 + c3) + c2 s) + c1 (s s)) + c0 ((s s) s).
    """

    def __init__(self, knots, y):
        x = np.asarray(knots, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) < 4:
            raise ValueError(f"a not-a-knot spline needs 4 or more knots, got {len(x)}")
        dx = np.diff(x)
        dxr = dx[:, None]
        slope = np.diff(y, axis=0) / dxr
        b = np.empty_like(y)
        b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        d = x[2] - x[0]
        b[0] = ((dxr[0] + 2 * d) * dxr[1] * slope[0] + dxr[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        b[-1] = (dxr[-1] ** 2 * slope[-2] + (2 * d + dxr[-1]) * dxr[-2] * slope[-1]) / d
        dxl = dx.tolist()
        diag = [dxl[1]] + (2 * (dx[:-1] + dx[1:])).tolist() + [dxl[-2]]
        upper = [float(x[2] - x[0])] + dxl[:-1]
        lower = dxl[1:] + [float(x[-1] - x[-3])]
        s = np.array(_solve_tridiagonal(lower, diag, upper, b.T.tolist())).T
        # CubicHermiteSpline's coefficients, and PPoly.derivative's
        t = (s[:-1] + s[1:] - 2 * slope) / dxr
        self.c = np.stack((t / dxr, (slope - s[:-1]) / dxr - t, s[:-1], y[:-1]))
        self.vel_c = self.c[:-1] * np.array([3.0, 2.0, 1.0])[:, None, None]

        self._breaks = x[1:-1]
        pos = np.stack((*self.c[:3], 0.0 + self.c[3]), axis=-1)
        vel = np.stack((*self.vel_c[:2], 0.0 + self.vel_c[2]), axis=-1)
        # the array path's table, (5, 3, n - 1): c0, c1, c2, 0.0 + c3 and the
        # interval's start, each per component, so that one gather serves a call
        self._table = np.ascontiguousarray(np.concatenate(
            (pos.transpose(2, 1, 0), np.broadcast_to(x[:-1], (1, 3, len(x) - 1)))))
        self._inner = self._breaks.tolist()
        self._starts = x[:-1].tolist()
        # state's table, (n - 1, 21): pos's 4 and vel's 3 coefficients per component
        self._segments = np.concatenate((pos.reshape(-1, 12), vel.reshape(-1, 9)), axis=1)

    def __call__(self, t):
        """Positions at t, an array or a scalar, as (..., 3)."""
        t = np.asarray(t, dtype=float)
        c0, c1, c2, c3, start = self._table.take(self._breaks.searchsorted(t, "right"), 2)
        s = t - start
        ss = s * s
        return (((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)).T

    def state(self, t):
        """(position, velocity) at one float t, each a list of 3 floats,
        from one interval lookup."""
        i = bisect.bisect_right(self._inner, t)
        s = t - self._starts[i]
        ss = s * s
        sss = ss * s
        c = self._segments[i].tolist()
        return ([((c[k + 3] + c[k + 2] * s) + c[k + 1] * ss) + c[k] * sss for k in (0, 4, 8)],
                [(c[k + 2] + c[k + 1] * s) + c[k] * ss for k in (12, 15, 18)])


def _solve_tridiagonal(dl, d, du, columns):
    """Solutions of the tridiagonal system with sub-, main and
    super-diagonals dl, d, du for each right-hand side in columns, by
    reference LAPACK dgtsv's elimination and back substitution on Python
    floats, so with its roundings, for a system needing no row interchange."""
    n = len(d)
    d = list(d)
    facts = []
    for i in range(n - 1):
        if not abs(d[i]) >= abs(dl[i]):
            raise ValueError(f"the spline system needs a row interchange at row {i}")
        facts.append(dl[i] / d[i])
        d[i + 1] = d[i + 1] - facts[i] * du[i]
    for b in columns:
        for i, fact in enumerate(facts):
            b[i + 1] = b[i + 1] - fact * b[i]
        b[-1] = b[-1] / d[-1]
        b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
        for i in range(n - 3, -1, -1):
            # dgtsv zeroes DL(I) as it eliminates, and still subtracts DL(I) B(I+2)
            b[i] = (b[i] - du[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    return columns


class DebrisDistanceConstraint(ConstraintFunction):
    """h = h_max - ||r1 - r2(t)||, h_max = rho, against an interpolated debris
    trajectory.  The debris passes in under a second, less than one step of
    the pinned horizon grid, so the horizon scan takes two levels."""

    two_level = True

    def __init__(self, debris_spline: DebrisSpline, rho):
        self.spline = debris_spline
        self.h_max = float(rho)

    def _delta(self, t, x):
        x = np.asarray(x, dtype=float)
        return x[..., :3] - self.spline(t)

    def value(self, t, x):
        d = self._delta(t, x)
        # np.linalg.norm's own sum for real input, without its wrapper
        return self.h_max - np.sqrt(np.add.reduce(d * d, axis=-1))

    def partials(self, t, x):
        pos, vel = self.spline.state(t)
        delta = np.asarray(x, dtype=float)[:3] - pos
        # np.linalg.norm of a vector is the square root of its dot product
        d = max(math.sqrt(delta.dot(delta)), 1e-12)
        g = np.zeros(6)
        g[:3] = -delta / d
        return float(delta @ vel) / d, g


def _circular_state(a, mu_grav, inclination, angle):
    """Position/velocity on a circular orbit through the node (a, 0, 0)."""
    vc = math.sqrt(mu_grav / a)
    ca, sa = math.cos(angle), math.sin(angle)
    ci, si = math.cos(inclination), math.sin(inclination)
    r = a * np.array([ca, sa * ci, sa * si])
    v = vc * np.array([-sa, ca * ci, ca * si])
    return np.concatenate([r, v])


def _node_angle(p) -> float:
    """Orbit angle covered from t = 0 to the node (a, 0, 0) at conjunction."""
    _check_positive(p, "mu_grav", "radius")
    try:
        n_rate = math.sqrt(p["mu_grav"] / p["radius"] ** 3)
    except (OverflowError, ZeroDivisionError):  # radius**3 overflows or underflows to 0
        n_rate = math.inf
    if n_rate == math.inf:
        raise ConfigurationError(f"params.radius must give a finite orbit rate with "
                                 f"params.mu_grav = {p['mu_grav']}, got {p['radius']}")
    return n_rate * p["conjunction_time"]


def satellite_initial_state(cfg: ScenarioConfig) -> np.ndarray:
    p = cfg.params
    return _circular_state(p["radius"], p["mu_grav"], 0.0, -_node_angle(p))


def _zero_thrust(t, x):
    """The satellite's nominal law: no thrust, so the closed-loop field is the
    drift and the forecast a Keplerian arc."""
    x = np.asarray(x, dtype=float)
    return np.zeros(x.shape[:-1] + (3,))


def debris_knots(cfg: ScenarioConfig, model: TwoBodyModel):
    """(knots, positions): the debris propagated once over the mission
    window, at 1 s knots, by a zero-thrust OdePath's float knot chain."""
    p = cfg.params
    debris0 = _circular_state(p["radius"], p["mu_grav"], math.radians(p["inclination_deg"]),
                              -_node_angle(p) - p["phase_offset"])
    t_end = cfg.duration + cfg.T + 10.0
    knots = np.arange(0.0, t_end + 1.0, 1.0)
    path = OdePath(model, _zero_thrust, step=1.0, step_one=model.coast_step)
    with np.errstate(all="ignore"):  # a non-finite state is reported below
        try:
            return knots, path.evaluate_many(knots, 0.0, debris0)[:, :3]
        except PropagationError as exc:
            raise ConfigurationError(f"params.mu_grav must give a finite debris orbit, got "
                                     f"{p['mu_grav']} ({exc})") from None


def build_satellite(cfg: ScenarioConfig):
    """Returns (model, constraint, path); the path carries the nominal law.

    The debris trajectory is propagated once over the mission window and
    cubic-interpolated at 1 s knots.  The zero-control path must actually
    violate the safe set; otherwise the scenario construction is rejected.
    """
    p = cfg.params
    _check_positive(p, "rho")
    if not 0 < cfg.T <= _MAX_DEBRIS_WINDOW - cfg.duration:
        raise ConfigurationError(f"T must be positive with duration + T <= {_MAX_DEBRIS_WINDOW:g}"
                                 f" s on the satellite, got T = {cfg.T}, duration = {cfg.duration}")
    model = TwoBodyModel(p["mu_grav"])
    h = DebrisDistanceConstraint(DebrisSpline(*debris_knots(cfg, model)), p["rho"])
    path = OdePath(model, _zero_thrust, step=cfg.step, sensitivity=model.coast_input_response,
                   step_one=model.coast_step)

    max_h = zero_control_max_h(cfg, h, path)
    if max_h <= 0.5 * p["rho"]:
        raise ConfigurationError(
            f"configured orbits do not conjunct: zero-control max h = {max_h:.3f} "
            f"<= 0.5 rho"
        )
    return model, h, path


def zero_control_max_h(cfg: ScenarioConfig, h, path) -> float:
    """Max of h along the zero-control satellite trajectory, with the dip
    near closest approach re-sampled finely."""
    x0 = satellite_initial_state(cfg)
    taus = np.arange(0.0, cfg.duration + cfg.step, cfg.step)
    states = path.evaluate_many(taus, 0.0, x0)
    hv = np.asarray(h.value(taus, states), dtype=float)
    j = int(np.argmax(hv))
    lo = taus[max(j - 2, 0)]
    hi = taus[min(j + 2, len(taus) - 1)]
    fine = np.linspace(lo, hi, 801)
    fine_states = path.evaluate_many(fine, 0.0, x0)
    fine_h = np.asarray(h.value(fine, fine_states), dtype=float)
    return float(max(hv.max(), fine_h.max()))
