"""Scenario geometry, dynamics, and constraint gradients."""

import math

import numpy as np
import pytest

from pcbf.core import ConfigurationError, finite_diff_jacobian
from pcbf.scenarios import (
    CarPairModel,
    LeftTurnLane,
    SeparationConstraint,
    StraightLane,
    TwoBodyModel,
    build_intersection,
    build_satellite,
    default_config,
    intersection_initial_state,
    satellite_initial_state,
)


def test_default_config_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        default_config("no_such_scenario")
    with pytest.raises(ConfigurationError):
        default_config("satellite", "no_such_controller")


class TestLanes:
    def test_straight_lane(self):
        lane = StraightLane((0.0, 2.0))  # direction is normalized
        assert np.allclose(lane.point(3.0), [0.0, 3.0])
        assert np.allclose(lane.tangent(3.0), [0.0, 1.0])

    def test_left_turn_continuity(self):
        lane = LeftTurnLane(4.5)
        arc = 4.5 * math.pi / 2
        for z_joint in (0.0, arc):
            before = lane.point(z_joint - 1e-9)
            after = lane.point(z_joint + 1e-9)
            assert np.allclose(before, after, atol=1e-8)
            assert np.allclose(lane.tangent(z_joint - 1e-9),
                               lane.tangent(z_joint + 1e-9), atol=1e-8)

    def test_left_turn_unit_speed(self):
        lane = LeftTurnLane(4.5)
        zs = np.linspace(-10.0, 20.0, 500)
        speeds = np.linalg.norm(lane.tangent(zs), axis=-1)
        assert np.max(np.abs(speeds - 1.0)) < 1e-12
        # arc length consistency: chord length over small steps equals dz
        pts = lane.point(zs)
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=-1)
        assert np.allclose(seg, np.diff(zs), atol=1e-4)

    def test_left_turn_shape(self):
        lane = LeftTurnLane(4.5)
        assert np.allclose(lane.point(0.0), [0.0, 0.0])
        assert np.allclose(lane.point(4.5 * math.pi / 2), [-4.5, 4.5])
        assert np.allclose(lane.point(4.5 * math.pi / 2 + 2.0), [-6.5, 4.5])

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ConfigurationError):
            LeftTurnLane(0.0)


class _ScaledLane:
    """Deliberately non-arc-length parameterization."""

    def point(self, z):
        z = np.asarray(z, dtype=float)
        return np.stack([2.0 * z, np.zeros_like(z)], axis=-1)

    def tangent(self, z):
        z = np.asarray(z, dtype=float)
        return np.broadcast_to(np.array([2.0, 0.0]), z.shape + (2,))


def test_build_intersection_rejects_non_unit_lane():
    cfg = default_config("intersection_cross")
    with pytest.raises(ConfigurationError, match="unit-speed"):
        build_intersection(cfg, lanes=(_ScaledLane(), StraightLane((0.0, 1.0))))


def test_separation_constraint_coincidence_and_bound():
    h = SeparationConstraint(StraightLane((1.0, 0.0)), StraightLane((0.0, 1.0)),
                             rho=1.0)
    # both cars at the conflict point: h attains its maximum rho
    assert float(h.value(0.0, np.array([0.0, 1.0, 0.0, 1.0]))) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    X = rng.uniform(-20, 20, (500, 4))
    vals = h.value(0.0, X)
    assert np.all(vals <= h.h_max + 1e-12)


@pytest.mark.parametrize("scenario", ["intersection_cross", "intersection_left_turn"])
def test_separation_gradients_match_finite_difference(scenario):
    cfg = default_config(scenario)
    model, h, path, mu_law = build_intersection(cfg)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = np.concatenate([rng.uniform(-15, 15, 1), rng.uniform(-2, 2, 1),
                            rng.uniform(-15, 15, 1), rng.uniform(-2, 2, 1)])
        if abs(float(h.value(0.0, x)) - h.h_max) < 1e-3:
            continue  # gradient is undefined at exact coincidence
        grad = h.grad_x(0.0, x)
        fd = finite_diff_jacobian(lambda y: np.atleast_1d(h.value(0.0, y)), x)[0]
        hv = abs(float(h.value(0.0, x)))
        assert np.max(np.abs(grad - fd)) <= max(1e-6, 1e-5 * hv)
        assert h.grad_t(0.0, x) == 0.0


def test_satellite_gradients_match_finite_difference(satellite_setup):
    cfg, model, h, path, mu_law, x0 = satellite_setup
    rng = np.random.default_rng(2)
    for _ in range(1000):
        t = float(rng.uniform(0.0, 600.0))
        x = x0 + np.concatenate([rng.uniform(-100, 100, 3), rng.uniform(-0.1, 0.1, 3)])
        grad = h.grad_x(t, x)
        fd = finite_diff_jacobian(lambda y: np.atleast_1d(h.value(t, y)), x)[0]
        hv = abs(float(h.value(t, x)))
        assert np.max(np.abs(grad - fd)) <= max(1e-6, 1e-5 * hv)
        d = 1e-4
        fd_t = (float(h.value(t + d, x)) - float(h.value(t - d, x))) / (2 * d)
        assert h.grad_t(t, x) == pytest.approx(fd_t, abs=1e-5)


def test_two_body_jacobian_matches_finite_difference():
    model = TwoBodyModel(398600.4418)
    x = satellite_initial_state(default_config("satellite"))
    jac = model.drift_jacobian(0.0, x)
    fd = finite_diff_jacobian(lambda y: model.drift(0.0, y), x)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * (1.0 + np.max(np.abs(jac)))


def test_car_model_shapes():
    model = CarPairModel()
    x = np.arange(4.0)
    assert np.allclose(model.drift(0.0, x), [1.0, 0.0, 3.0, 0.0])
    X = np.tile(x, (5, 1))
    assert model.drift(0.0, X).shape == (5, 4)
    assert model.input_matrix(0.0, X).shape == (5, 4, 2)


def test_initial_states():
    cfg = default_config("intersection_cross")
    x0 = intersection_initial_state(cfg)
    assert x0[0] < 0 and x0[2] < 0  # both approaching the conflict point
    scfg = default_config("satellite")
    s0 = satellite_initial_state(scfg)
    a = scfg.params["radius"]
    assert np.linalg.norm(s0[:3]) == pytest.approx(a, rel=1e-12)
    vc = math.sqrt(scfg.params["mu_grav"] / a)
    assert np.linalg.norm(s0[3:]) == pytest.approx(vc, rel=1e-12)
    assert abs(float(np.dot(s0[:3], s0[3:]))) < 1e-6  # circular: r dot v = 0


def test_conjunction_precondition_enforced():
    cfg = default_config("satellite")
    cfg.params["phase_offset"] = 5e-3  # debris far behind: no close approach
    with pytest.raises(ConfigurationError, match="conjunct"):
        build_satellite(cfg)


def test_satellite_scenario_is_a_genuine_threat(satellite_setup):
    from pcbf.scenarios import zero_control_max_h
    cfg, model, h, path, mu_law, x0 = satellite_setup
    assert zero_control_max_h(cfg, h, path) > 0.5 * cfg.params["rho"]


def _two_body_drift(mu_grav, x):
    """The two-body drift through np.linalg.norm (oracle)."""
    r = x[..., :3]
    rn = np.linalg.norm(r, axis=-1, keepdims=True)
    out = np.empty_like(x)
    out[..., :3] = x[..., 3:]
    out[..., 3:] = -mu_grav * r / rn**3
    return out


def _two_body_jacobian(mu_grav, x):
    """The two-body drift Jacobian built from fresh blocks (oracle)."""
    r = x[:3]
    rn = np.linalg.norm(r)
    jac = np.zeros((6, 6))
    jac[:3, 3:] = np.eye(3)
    jac[3:, :3] = mu_grav * (3.0 * np.outer(r, r) / rn**5 - np.eye(3) / rn**3)
    return jac


def test_two_body_model_is_bit_identical_to_its_plain_form():
    model = TwoBodyModel(398600.4418)
    rng = np.random.default_rng(11)
    direction = rng.normal(size=(1000, 3))
    radius = 10.0 ** rng.uniform(3.0, 5.0, (1000, 1))  # |r| from 1e3 to 1e5 km
    X = np.hstack([radius * direction / np.linalg.norm(direction, axis=1, keepdims=True),
                   rng.uniform(-10.0, 10.0, (1000, 3))])
    assert np.array_equal(model.drift(0.0, X), _two_body_drift(model.mu_grav, X))
    g = np.vstack([np.zeros((3, 3)), np.eye(3)])
    assert np.array_equal(model.input_matrix(0.0, X), np.broadcast_to(g, (1000, 6, 3)))
    for x in X[:50]:
        assert np.array_equal(model.drift(0.0, x), _two_body_drift(model.mu_grav, x))
        assert np.array_equal(model.input_matrix(0.0, x), g)
        assert np.array_equal(model.drift_jacobian(0.0, x), _two_body_jacobian(model.mu_grav, x))
    # a caller may write to the Jacobian it gets without touching the next one
    model.drift_jacobian(0.0, X[0])[:] = np.nan
    assert np.array_equal(model.drift_jacobian(0.0, X[1]), _two_body_jacobian(model.mu_grav, X[1]))


def test_drift_one_is_bit_identical_to_drift():
    """The float drift equals the array drift of each single state, with
    whichever power loop numpy dispatches on this machine."""
    model = TwoBodyModel(398600.4418)
    rng = np.random.default_rng(12)
    direction = rng.normal(size=(20000, 3))
    radius = 10.0 ** rng.uniform(3.0, 5.0, (20000, 1))  # |r| from 1e3 to 1e5 km
    X = np.hstack([radius * direction / np.linalg.norm(direction, axis=1, keepdims=True),
                   rng.uniform(-10.0, 10.0, (20000, 3))])
    one = np.array([model.drift_one(0.0, x) for x in X.tolist()])
    assert np.array_equal(one, np.array([model.drift(0.0, x) for x in X]))
    assert isinstance(model.drift_one(0.0, X[0].tolist())[3], float)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0, 1.0, 2.0, 3.0], [1e-200, -1e-200, 0.0, 1.0, 2.0, 3.0]],
                         ids=["r_zero", "r_underflow"])
def test_drift_one_at_zero_radius_is_numpys(x):
    model = TwoBodyModel(398600.4418)
    assert np.array_equal(np.array(model.drift_one(0.0, x)), model.drift(0.0, np.array(x)),
                          equal_nan=True)
