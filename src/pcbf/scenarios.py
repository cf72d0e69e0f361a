"""Scenario construction: intersection car pair and satellite conjunction.

All numeric defaults live in default_config; they are reconstructions chosen
to reproduce the qualitative phenomena (conflicting nominal timing at the
intersection, a debris conjunction that genuinely requires intervention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from pcbf.core import ConfigurationError, ConstraintFunction, DynamicsModel
from pcbf.paths import AnalyticCarPath, OdePath

SCENARIOS = ("intersection_cross", "intersection_left_turn", "satellite")
CONTROLLERS = ("pcbf", "ecbf", "none", "nominal")


@dataclass
class ScenarioConfig:
    scenario: str
    controller: str = "pcbf"
    T: float = 10.0
    N: int = 200
    duration: float = 30.0
    step: float = 0.05
    refine_tol: float = 1e-6
    root_tol: float = 1e-9
    gamma: float = 4.0
    slack_weight: float = 1e3
    ecbf_k1: float = 2.0
    ecbf_k2: float = 1.0
    two_level: bool = False
    params: dict = field(default_factory=dict)


_INTERSECTION_PARAMS = {
    "k": 1.0,
    "v1": 1.0,
    "v2": 1.0,
    "rho": 1.0,
    "z1_0": -12.0,
    "dz1_0": 1.0,
    "z2_0": -11.5,
    "dz2_0": 1.0,
    "turn_radius": 4.5,  # lane half-width 1.5 times 3
}

_SATELLITE_PARAMS = {
    "mu_grav": 398600.4418,  # km^3/s^2
    "radius": 7000.0,        # km, circular orbits for both objects
    "inclination_deg": 30.0,
    "conjunction_time": 450.0,
    "phase_offset": 1.5e-6,  # rad, debris lag; near-collision nominal course
    "rho": 1.0,              # km
}


def default_config(scenario: str, controller: str = "pcbf") -> ScenarioConfig:
    if scenario not in SCENARIOS:
        raise ConfigurationError(f"unknown scenario {scenario!r}")
    if controller not in CONTROLLERS:
        raise ConfigurationError(f"unknown controller {controller!r}")
    if scenario.startswith("intersection"):
        return ScenarioConfig(
            scenario=scenario, controller=controller,
            T=10.0, N=200, duration=30.0, step=0.05,
            gamma=4.0, ecbf_k1=2.0, ecbf_k2=0.05,
            params=dict(_INTERSECTION_PARAMS),
        )
    return ScenarioConfig(
        scenario=scenario, controller=controller,
        T=250.0, N=250, duration=700.0, step=1.0,
        gamma=2.0, ecbf_k1=0.2, ecbf_k2=0.01, two_level=True,
        params=dict(_SATELLITE_PARAMS),
    )


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
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(self._dir, z.shape + (2,)).copy()


class LeftTurnLane:
    """Straight approach from the south, quarter-circle left turn at the
    origin, straight exit heading west.  Arc-length parameterized, C1."""

    def __init__(self, radius):
        if radius <= 0:
            raise ConfigurationError(f"turn radius must be positive, got {radius}")
        self.R = float(radius)
        self._arc_len = self.R * math.pi / 2.0

    def point(self, z):
        z = np.asarray(z, dtype=float)
        theta = np.clip(z, 0.0, self._arc_len) / self.R
        out = np.empty(z.shape + (2,))
        # approach segment
        out[..., 0] = 0.0
        out[..., 1] = np.where(z <= 0, z, 0.0)
        # arc around (-R, 0)
        on_arc = (z > 0) & (z < self._arc_len)
        out[..., 0] = np.where(on_arc, -self.R + self.R * np.cos(theta), out[..., 0])
        out[..., 1] = np.where(on_arc, self.R * np.sin(theta), out[..., 1])
        # exit segment
        past = z >= self._arc_len
        out[..., 0] = np.where(past, -self.R - (z - self._arc_len), out[..., 0])
        out[..., 1] = np.where(past, self.R, out[..., 1])
        return out

    def tangent(self, z):
        z = np.asarray(z, dtype=float)
        theta = np.clip(z, 0.0, self._arc_len) / self.R
        out = np.empty(z.shape + (2,))
        out[..., 0] = np.where(z <= 0, 0.0, np.where(z >= self._arc_len, -1.0, -np.sin(theta)))
        out[..., 1] = np.where(z <= 0, 1.0, np.where(z >= self._arc_len, 0.0, np.cos(theta)))
        return out


class CarPairModel(DynamicsModel):
    """Two lane-following double integrators: zddot_i = u_i."""

    def drift(self, t, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 1]
        out[..., 2] = x[..., 3]
        return out

    def input_matrix(self, t, x):
        x = np.asarray(x, dtype=float)
        g = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        return np.broadcast_to(g, x.shape[:-1] + (4, 2))


class SeparationConstraint(ConstraintFunction):
    """h = rho - ||l1(z1) - l2(z2)||: positive when cars are too close."""

    def __init__(self, lane1, lane2, rho):
        self.lane1 = lane1
        self.lane2 = lane2
        self.rho = float(rho)
        self.h_max = float(rho)

    def _delta(self, x):
        x = np.asarray(x, dtype=float)
        return self.lane1.point(x[..., 0]) - self.lane2.point(x[..., 2])

    def value(self, t, x):
        d = np.linalg.norm(self._delta(x), axis=-1)
        return self.rho - d

    def grad_t(self, t, x):
        return 0.0

    def grad_x(self, t, x):
        delta = self._delta(x)
        d = max(float(np.linalg.norm(delta)), 1e-12)
        unit = delta / d
        g = np.zeros(4)
        g[0] = -float(unit @ self.lane1.tangent(np.asarray(x)[0]))
        g[2] = float(unit @ self.lane2.tangent(np.asarray(x)[2]))
        return g


def build_intersection(cfg: ScenarioConfig, lanes=None):
    """Returns (model, constraint, path, nominal control law)."""
    p = cfg.params
    k, v1, v2 = p["k"], p["v1"], p["v2"]
    if lanes is None:
        lane1 = StraightLane((1.0, 0.0))
        if cfg.scenario == "intersection_left_turn":
            lane2 = LeftTurnLane(p["turn_radius"])
        else:
            lane2 = StraightLane((0.0, 1.0))
        lanes = (lane1, lane2)
    for lane in lanes:
        zs = np.linspace(-20.0, 20.0, 101)
        speeds = np.linalg.norm(lane.tangent(zs), axis=-1)
        if np.max(np.abs(speeds - 1.0)) > 1e-9:
            raise ConfigurationError("lane parameterization is not unit-speed")

    model = CarPairModel()
    h = SeparationConstraint(lanes[0], lanes[1], p["rho"])
    path = AnalyticCarPath(k=k, v=np.array([v1, v2]))
    return model, h, path, path.nominal_control


def intersection_initial_state(cfg: ScenarioConfig) -> np.ndarray:
    p = cfg.params
    return np.array([p["z1_0"], p["dz1_0"], p["z2_0"], p["dz2_0"]])


# ---------------------------------------------------------------------------
# satellite scenario

class TwoBodyModel(DynamicsModel):
    """Controlled satellite under point-mass gravity; thrust enters the
    velocity states directly."""

    _EYE = np.eye(3)
    _G = np.vstack([np.zeros((3, 3)), _EYE])  # thrust enters the velocities
    _JAC = np.block([[np.zeros((3, 3)), _EYE], [np.zeros((3, 6))]])

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

    def drift_one(self, t, y):
        """drift of one state as 6 floats, bit for bit: |r|^2 summed left to
        right as np.add.reduce sums three, and rn**3 by the np.power ufunc,
        whose loop (SIMD where numpy has one) is the array power's; Python's
        ** (libm pow) differs in the last bit on ~5% of states.  rn**3 = 0
        takes drift itself, for numpy's inf or nan."""
        x0, x1, x2, v0, v1, v2 = y
        rn3 = float(np.power(math.sqrt(x0 * x0 + x1 * x1 + x2 * x2), 3))
        if rn3 == 0.0:
            return tuple(self.drift(t, np.array(y, dtype=float)).tolist())
        c = -self.mu_grav
        return (v0, v1, v2, c * x0 / rn3, c * x1 / rn3, c * x2 / rn3)

    def input_matrix(self, t, x):
        return np.broadcast_to(self._G, np.shape(x)[:-1] + (6, 3))

    def drift_jacobian(self, t, x):
        r = np.asarray(x, dtype=float)[:3]
        rn = np.linalg.norm(r)
        jac = self._JAC.copy()
        jac[3:, :3] = self.mu_grav * (3.0 * np.outer(r, r) / rn**5 - self._EYE / rn**3)
        return jac


class DebrisDistanceConstraint(ConstraintFunction):
    """h = rho - ||r1 - r2(t)|| against an interpolated debris trajectory."""

    def __init__(self, debris_spline: CubicSpline, rho):
        self.spline = debris_spline
        self.vel_spline = debris_spline.derivative()
        self.rho = float(rho)
        self.h_max = float(rho)

    def _delta(self, t, x):
        x = np.asarray(x, dtype=float)
        return x[..., :3] - self.spline(t)

    def value(self, t, x):
        d = np.linalg.norm(self._delta(t, x), axis=-1)
        return self.rho - d

    def grad_t(self, t, x):
        delta = self._delta(t, x)
        d = max(float(np.linalg.norm(delta)), 1e-12)
        return float(delta @ self.vel_spline(t)) / d

    def grad_x(self, t, x):
        delta = self._delta(t, x)
        d = max(float(np.linalg.norm(delta)), 1e-12)
        g = np.zeros(6)
        g[:3] = -delta / d
        return g


def _circular_state(a, mu_grav, inclination, angle):
    """Position/velocity on a circular orbit through the node (a, 0, 0)."""
    vc = math.sqrt(mu_grav / a)
    ca, sa = math.cos(angle), math.sin(angle)
    ci, si = math.cos(inclination), math.sin(inclination)
    r = a * np.array([ca, sa * ci, sa * si])
    v = vc * np.array([-sa, ca * ci, ca * si])
    return np.concatenate([r, v])


def satellite_initial_state(cfg: ScenarioConfig) -> np.ndarray:
    p = cfg.params
    n_rate = math.sqrt(p["mu_grav"] / p["radius"] ** 3)
    theta0 = n_rate * p["conjunction_time"]
    return _circular_state(p["radius"], p["mu_grav"], 0.0, -theta0)


def build_satellite(cfg: ScenarioConfig):
    """Returns (model, constraint, path, nominal control law).

    The debris trajectory is propagated once over the mission window and
    cubic-interpolated at 1 s knots.  The zero-control path must actually
    violate the safe set; otherwise the scenario construction is rejected.
    """
    p = cfg.params
    model = TwoBodyModel(p["mu_grav"])
    n_rate = math.sqrt(p["mu_grav"] / p["radius"] ** 3)
    theta0 = n_rate * p["conjunction_time"]
    inclination = math.radians(p["inclination_deg"])
    debris0 = _circular_state(p["radius"], p["mu_grav"], inclination,
                              -theta0 - p["phase_offset"])

    # a control-free nominal law: the closed-loop field and Jacobian are the drift's
    def mu(t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (3,))

    t_end = cfg.duration + cfg.T + 10.0
    knots = np.arange(0.0, t_end + 1.0, 1.0)
    debris_path = OdePath(model, mu, step=1.0, field_one=model.drift_one)
    debris_states = debris_path.evaluate_many(knots, 0.0, debris0)
    spline = CubicSpline(knots, debris_states[:, :3], axis=0)

    h = DebrisDistanceConstraint(spline, p["rho"])

    path = OdePath(model, mu, step=cfg.step, jacobian=model.drift_jacobian,
                   field_one=model.drift_one)

    max_h = zero_control_max_h(cfg, h, path)
    if max_h <= 0.5 * p["rho"]:
        raise ConfigurationError(
            f"configured orbits do not conjunct: zero-control max h = {max_h:.3f} "
            f"<= 0.5 rho"
        )
    return model, h, path, mu


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
