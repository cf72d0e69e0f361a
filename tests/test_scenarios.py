"""Scenario geometry, dynamics, and constraint gradients."""

import bisect
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import CubicSpline

from pcbf import scenarios
from pcbf.core import ConfigurationError, PropagationError, finite_diff_jacobian, rk4
from pcbf.paths import OdePath
from pcbf.scenarios import (
    CarPairModel,
    DebrisSpline,
    LeftTurnLane,
    SeparationConstraint,
    StraightLane,
    TwoBodyModel,
    build_intersection,
    build_satellite,
    debris_knots,
    default_config,
    intersection_initial_state,
    satellite_initial_state,
)
from pcbf.simulate import build_scenario
from sensitivity_oracle import two_body_jacobian


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

    @pytest.mark.parametrize("radius", [0.1, 4.5, 1000.0])
    def test_left_turn_unit_speed(self, radius):
        """Any radius a config can give makes an arc-length lane: the
        approach, the whole arc and the exit, scaled with the radius."""
        lane = LeftTurnLane(radius)
        zs = np.linspace(-10.0, 20.0, 500) * (radius / 4.5)
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


def test_separation_constraint_coincidence_and_bound():
    h = SeparationConstraint(StraightLane((1.0, 0.0)), StraightLane((0.0, 1.0)),
                             rho=1.0)
    # both cars at the conflict point: h attains its maximum rho
    assert float(h.value(0.0, np.array([0.0, 1.0, 0.0, 1.0]))) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    X = rng.uniform(-20, 20, (500, 4))
    vals = h.value(0.0, X)
    assert np.all(vals <= h.h_max + 1e-12)


# The lane geometry, the separation value and the car input matrix in the
# forms they had before their ufunc calls were trimmed, kept as oracles: the
# lean forms must return their bits, apart from the left turn at NaN.

def _parent_straight_tangent(lane, z):
    z = np.asarray(z, dtype=float)
    return np.broadcast_to(lane._dir, z.shape + (2,)).copy()


def _parent_left_point(lane, z):
    z = np.asarray(z, dtype=float)
    theta = np.clip(z, 0.0, lane._arc_len) / lane.R
    out = np.empty(z.shape + (2,))
    out[..., 0] = 0.0
    out[..., 1] = np.where(z <= 0, z, 0.0)
    on_arc = (z > 0) & (z < lane._arc_len)
    out[..., 0] = np.where(on_arc, -lane.R + lane.R * np.cos(theta), out[..., 0])
    out[..., 1] = np.where(on_arc, lane.R * np.sin(theta), out[..., 1])
    past = z >= lane._arc_len
    out[..., 0] = np.where(past, -lane.R - (z - lane._arc_len), out[..., 0])
    out[..., 1] = np.where(past, lane.R, out[..., 1])
    return out


def _parent_left_tangent(lane, z):
    z = np.asarray(z, dtype=float)
    theta = np.clip(z, 0.0, lane._arc_len) / lane.R
    out = np.empty(z.shape + (2,))
    out[..., 0] = np.where(z <= 0, 0.0, np.where(z >= lane._arc_len, -1.0, -np.sin(theta)))
    out[..., 1] = np.where(z <= 0, 1.0, np.where(z >= lane._arc_len, 0.0, np.cos(theta)))
    return out


def _parent_separation_value(h, x):
    return h.h_max - np.linalg.norm(h._delta(x), axis=-1)


def _parent_input_matrix(x):
    x = np.asarray(x, dtype=float)
    g = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    return np.broadcast_to(g, x.shape[:-1] + (4, 2))


def _lane_probes(radius):
    """Both joints of a left turn of this radius and their neighbours,
    signed zeros, subnormals, and values far past both ends."""
    arc = radius * math.pi / 2
    joints = [0.0, -0.0, 5e-324, -5e-324, arc, 0.5 * arc]
    joints += [np.nextafter(j, d) for j in (0.0, arc) for d in (-np.inf, np.inf)]
    return joints + [-3.0, arc + 2.0, -1e300, 1e300, -np.inf, np.inf]


_RADII = [0.1, 4.5, 1000.0]


@pytest.mark.parametrize("radius", _RADII)
@settings(deadline=None, max_examples=50)
@given(drawn=st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
def test_lanes_match_parent_bit_for_bit(radius, drawn):
    """point and tangent of both lanes on a batch and on each 0-d z."""
    left, straight = LeftTurnLane(radius), StraightLane((3.0, -radius))
    zs = np.array(_lane_probes(radius) + drawn)
    for z in [zs, zs.reshape(2, -1) if zs.size % 2 == 0 else zs[None], *zs]:
        z = np.asarray(z)
        assert _same_bytes(left.point(z), _parent_left_point(left, z))
        assert _same_bytes(left.tangent(z), _parent_left_tangent(left, z))
        assert _same_bytes(straight.point(z), z[..., None] * straight._dir)
        assert _same_bytes(straight.tangent(z), _parent_straight_tangent(straight, z))
    assert _same_bytes(straight.tangent(2.0), _parent_straight_tangent(straight, 2.0))


@pytest.mark.parametrize("scenario", ["intersection_cross", "intersection_left_turn"])
@settings(deadline=None, max_examples=50)
@given(drawn=st.lists(st.floats(-1e3, 1e3), max_size=40))
def test_separation_value_matches_parent_bit_for_bit(scenario, drawn):
    """value on a batch of states and on each alone, with the joints' probes
    as positions of both cars."""
    h = build_intersection(default_config(scenario))[1]
    probes = _lane_probes(default_config("intersection_left_turn").params["turn_radius"])
    z = np.array(probes + drawn)
    xs = np.stack([z, np.ones_like(z), z[::-1], np.ones_like(z)], axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and 1e300 squared
        want = _parent_separation_value(h, xs)
        assert _same_bytes(h.value(0.0, xs), want)
        for x, w in zip(xs, want):
            assert _same_bytes(h.value(0.0, x), w)


def test_car_input_matrix_matches_parent():
    """Bit for bit on a single state and on batches; the single state's
    matrix is one read-only constant."""
    model = CarPairModel()
    for shape in [(4,), (3, 4), (2, 5, 4)]:
        x = np.ones(shape)
        g = model.input_matrix(0.0, x)
        assert g.shape == shape[:-1] + (4, 2) and _same_bytes(g, _parent_input_matrix(x))
        assert not g.flags.writeable
    assert model.input_matrix(1.0, [0.0, 1.0, 2.0, 3.0]) is model.input_matrix(0.0, np.zeros(4))


@pytest.mark.parametrize("scenario", ["intersection_cross", "intersection_left_turn"])
def test_lanes_and_separation_at_nan(scenario):
    """A NaN position gives a NaN point on either lane, and NaN in value and
    partials; the left turn once gave the origin, so h read 1.0.  The left
    turn's tangent there is NaN, and a straight lane's is its direction."""
    h = build_intersection(default_config(scenario))[1]
    lane = h.lane2
    assert np.isnan(lane.point(np.nan)).all() and np.isnan(h.lane1.point(np.nan)).all()
    assert np.isnan(lane.point(np.array([np.nan, 1.0]))).tolist() == [[True, True], [False, False]]
    if isinstance(lane, LeftTurnLane):
        assert np.isnan(lane.tangent(np.nan)).all()
    else:
        assert lane.tangent(np.nan).tolist() == [0.0, 1.0]
    x = np.array([0.0, 1.0, np.nan, 1.0])
    assert np.isnan(h.value(0.0, x))
    assert np.isnan(h.value(0.0, np.array([x, [0.0, 1.0, 3.0, 1.0]]))).tolist() == [True, False]
    dh_dt, g = h.partials(0.0, x)
    assert dh_dt == 0.0 and np.isnan(g[[0, 2]]).all()


@pytest.mark.parametrize("scenario", ["intersection_cross", "intersection_left_turn"])
def test_separation_gradients_match_finite_difference(scenario):
    cfg = default_config(scenario)
    model, h, path = build_intersection(cfg)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = np.concatenate([rng.uniform(-15, 15, 1), rng.uniform(-2, 2, 1),
                            rng.uniform(-15, 15, 1), rng.uniform(-2, 2, 1)])
        if abs(float(h.value(0.0, x)) - h.h_max) < 1e-3:
            continue  # gradient is undefined at exact coincidence
        dh_dt, grad = h.partials(0.0, x)
        fd = finite_diff_jacobian(lambda y: np.atleast_1d(h.value(0.0, y)), x)[0]
        hv = abs(float(h.value(0.0, x)))
        assert np.max(np.abs(grad - fd)) <= max(1e-6, 1e-5 * hv)
        assert dh_dt == 0.0


def test_satellite_gradients_match_finite_difference(satellite_setup):
    cfg, model, h, path, mu_law, x0 = satellite_setup
    rng = np.random.default_rng(2)
    for _ in range(1000):
        t = float(rng.uniform(0.0, 600.0))
        x = x0 + np.concatenate([rng.uniform(-100, 100, 3), rng.uniform(-0.1, 0.1, 3)])
        dh_dt, grad = h.partials(t, x)
        fd = finite_diff_jacobian(lambda y: np.atleast_1d(h.value(t, y)), x)[0]
        hv = abs(float(h.value(t, x)))
        assert np.max(np.abs(grad - fd)) <= max(1e-6, 1e-5 * hv)
        d = 1e-4
        fd_t = (float(h.value(t + d, x)) - float(h.value(t - d, x))) / (2 * d)
        assert dh_dt == pytest.approx(fd_t, abs=1e-5)


# The two partials of each constraint as they were before one partials call
# returned both, kept as oracles: partials must return their bits.

def _parent_separation_grad_x(h, t, x):
    delta = h._delta(x)
    d = max(float(np.linalg.norm(delta)), 1e-12)
    unit = delta / d
    g = np.zeros(4)
    g[0] = -float(unit @ h.lane1.tangent(np.asarray(x)[0]))
    g[2] = float(unit @ h.lane2.tangent(np.asarray(x)[2]))
    return g


def _parent_debris_splines(cfg):
    """The parent's debris position spline, scipy's CubicSpline on the
    debris knots, and its velocity spline."""
    spline = CubicSpline(*debris_knots(cfg, TwoBodyModel(cfg.params["mu_grav"])), axis=0)
    return spline, spline.derivative()


def _parent_debris_grad_t(splines, t, x):
    delta = np.asarray(x, dtype=float)[..., :3] - splines[0](t)
    d = max(float(np.linalg.norm(delta)), 1e-12)
    return float(delta @ splines[1](t)) / d


def _parent_debris_grad_x(splines, t, x):
    delta = np.asarray(x, dtype=float)[..., :3] - splines[0](t)
    d = max(float(np.linalg.norm(delta)), 1e-12)
    g = np.zeros(6)
    g[:3] = -delta / d
    return g


@pytest.mark.parametrize("fixture", ["intersection_pcbf", "intersection_left_pcbf",
                                     "satellite_pcbf"])
def test_partials_match_parent_bit_for_bit(fixture, request):
    """At every logged state of the pinned pcbf runs; the debris oracle
    evaluates scipy's splines, as the parent did."""
    log = request.getfixturevalue(fixture).log
    h = build_scenario(log.cfg)[1]
    if isinstance(h, SeparationConstraint):
        ref, grad_t, grad_x = h, (lambda h, t, x: 0.0), _parent_separation_grad_x
    else:
        ref = _parent_debris_splines(log.cfg)
        grad_t, grad_x = _parent_debris_grad_t, _parent_debris_grad_x
    for t, x in zip(log.t.tolist(), log.x):
        dh_dt, g = h.partials(t, x)
        assert type(dh_dt) is float and dh_dt == grad_t(ref, t, x)
        assert np.array_equal(g, grad_x(ref, t, x))


def test_debris_value_matches_parent_bit_for_bit(satellite_pcbf):
    """value on every logged state at once, and on each alone, against
    scipy's spline and np.linalg.norm, as the parent computed it."""
    log = satellite_pcbf.log
    h = build_scenario(log.cfg)[1]
    spline = _parent_debris_splines(log.cfg)[0]
    parent = h.h_max - np.linalg.norm(log.x[:, :3] - spline(log.t), axis=-1)
    assert h.value(log.t, log.x).tobytes() == parent.tobytes()
    for t, x, want in zip(log.t.tolist()[::7], log.x[::7], parent[::7]):
        assert h.value(t, x) == want


def test_debris_partials_call_each_spline_once(satellite_setup, monkeypatch):
    """One interval lookup per partials: one state call, which evaluates
    the position and the velocity there; the array path is not taken."""
    cfg, model, h, path, mu_law, x0 = satellite_setup
    calls, spline = [], h.spline

    class Recording:
        def __call__(self, t):
            calls.append("array")
            return spline(t)

        def state(self, t):
            calls.append("state")
            return spline.state(t)

    def bisect_right(a, t):
        calls.append("lookup")
        return bisect.bisect_right(a, t)

    monkeypatch.setattr(h, "spline", Recording())
    monkeypatch.setattr(scenarios, "bisect", types.SimpleNamespace(bisect_right=bisect_right))
    h.partials(120.5, x0)
    assert calls == ["state", "lookup"]


# DebrisSpline against its oracle, scipy's CubicSpline, byte for byte so that
# signed zeros and NaNs count.

def _same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _eccentric_track():
    """An orbit with e = 0.44 from perigee, over one period at 20 s knots."""
    model = TwoBodyModel(398600.4418)
    path = OdePath(model, lambda t, x: np.zeros(3), step=20.0, step_one=model.coast_step)
    knots = np.arange(0.0, 14000.0, 20.0)
    return knots, path.evaluate_many(knots, 0.0, np.array([7000.0, 0, 0, 0, 9.0, 1.0]))[:, :3]


def _pinned_track():
    cfg = default_config("satellite")
    return debris_knots(cfg, TwoBodyModel(cfg.params["mu_grav"]))


def _random_track(n, spacing, scale, seed):
    rng = np.random.default_rng(seed)
    return 3.0 + spacing * np.arange(n), scale * (1.0 + rng.normal(size=(n, 3)))


_TRACKS = {
    "pinned": _pinned_track,
    "eccentric": _eccentric_track,
    **{f"short-{n}": (lambda n=n: _random_track(n, 0.3 if n % 2 else 1.0, 1.0, n))
       for n in range(4, 11)},
    "large-r": lambda: _random_track(300, 0.5, 1e9, 11),
    "small-r": lambda: _random_track(40, 7.0, 1e-6, 12),
}


def _assert_is_scipys(knots, y, ts):
    ours, theirs = DebrisSpline(knots, y), CubicSpline(knots, y, axis=0)
    vel = theirs.derivative()
    assert _same_bytes(ours.c, theirs.c) and _same_bytes(ours.vel_c, vel.c)
    assert _same_bytes(ours(ts), theirs(ts))
    states = [ours.state(t) for t in ts.tolist()]
    assert _same_bytes([p for p, _ in states], theirs(ts))
    assert _same_bytes([v for _, v in states], vel(ts))
    for t in ts[::13]:  # numpy scalars, as the search hands them over
        assert _same_bytes(ours(t), theirs(t))
        pos, v = ours.state(t)
        assert _same_bytes(pos, theirs(t)) and _same_bytes(v, vel(t))


@pytest.mark.parametrize("track", sorted(_TRACKS))
def test_debris_spline_is_scipys_bit_for_bit(track):
    knots, y = _TRACKS[track]()
    a, b = knots[0], knots[-1]
    _assert_is_scipys(knots, y, np.concatenate([
        knots, (knots[:-1] + knots[1:]) / 2, np.nextafter(knots, -np.inf),
        [a, b, a - 7.5, b + 7.5, np.nextafter(b, np.inf), -0.0, np.nan],
        np.random.default_rng(0).uniform(a - 3, b + 3, 500)]))


_SUBNORMAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-323, -1.5e-323, 1.0]
# two tracks where a zero's sign shows: the evaluation's 0.0 + c3, and the
# 0.0 * B(I+2) that dgtsv still subtracts for its zeroed DL(I)
_SIGNED_ZERO_TRACKS = [
    [[-0.0, -5e-324, 0.0], [1e-323, -1.5e-323, 0.0], [-0.0, 1e-323, 1e-323],
     [-0.0, -1.5e-323, -5e-324], [-1.5e-323, 1e-323, 0.0]],
    [[5e-324, 0.0, -0.0], [-5e-324, -0.0, 1e-323], [0.0, -5e-324, 0.0],
     [-0.0, -1.5e-323, -1.5e-323], [0.0, 5e-324, -1.5e-323], [-5e-324, 1e-323, -0.0]],
]


def test_debris_spline_signed_zeros_are_scipys():
    """Short tracks of signed zeros and subnormals at 0.3 s knots, where
    sums and products round to a zero whose sign depends on the order of
    each operation."""
    rng = np.random.default_rng(14)
    tracks = _SIGNED_ZERO_TRACKS + [rng.choice(_SUBNORMAL_VALUES, size=(n, 3))
                                    for n in rng.integers(4, 9, 300)]
    for y in tracks:
        knots = 0.3 * np.arange(len(y))
        _assert_is_scipys(knots, np.array(y),
                          np.concatenate([knots, knots + 0.1, [-1.0, knots[-1] + 1.0]]))


def test_debris_spline_rejects_what_it_cannot_match():
    with pytest.raises(ValueError, match="4 or more knots"):
        DebrisSpline([0.0, 1.0, 2.0], np.zeros((3, 3)))
    # the second row's pivot, dx0 + dx1 = 2, is smaller than dx2 = 8
    with pytest.raises(ValueError, match="row interchange at row 1"):
        DebrisSpline([0.0, 1.0, 2.0, 10.0, 11.0], np.ones((5, 3)))


def test_two_body_jacobian_matches_finite_difference():
    """The analytic Jacobian of the co-integration oracle."""
    model = TwoBodyModel(398600.4418)
    x = satellite_initial_state(default_config("satellite"))
    jac = two_body_jacobian(model.mu_grav, x)
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


# log-uniform over [1e-300, 1e300]: far past where radius**3 leaves float
# range (radius above about 5.6e102 or below about 1.7e-108) and where the
# debris propagation overflows
_EXTREME = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@settings(derandomize=True, max_examples=80, deadline=None)
@given(radius=_EXTREME, mu_grav=_EXTREME)
def test_extreme_orbit_values_build_or_are_config_errors(radius, mu_grav):
    """Any positive finite radius and mu_grav either build the satellite
    scenario or raise ConfigurationError, never another exception."""
    cfg = default_config("satellite")
    cfg.params.update(radius=radius, mu_grav=mu_grav)
    try:
        build_scenario(cfg)
    except ConfigurationError:
        pass


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


@pytest.mark.parametrize("dt", [1.0, 0.37, 20.0])
def test_coast_step_is_bit_identical_to_rk4_of_drift(dt):
    """The fused float RK4 step equals core.rk4 of the array drift on each
    single state, with whichever power loop numpy dispatches on this
    machine."""
    model = TwoBodyModel(398600.4418)
    rng = np.random.default_rng(12)
    direction = rng.normal(size=(20000, 3))
    radius = 10.0 ** rng.uniform(3.0, 5.0, (20000, 1))  # |r| from 1e3 to 1e5 km
    X = np.hstack([radius * direction / np.linalg.norm(direction, axis=1, keepdims=True),
                   rng.uniform(-10.0, 10.0, (20000, 3))])
    one = np.array([model.coast_step(0.0, x, dt) for x in X.tolist()])
    assert np.array_equal(one, np.array([rk4(model.drift, 0.0, x, dt) for x in X]))
    assert isinstance(model.coast_step(0.0, X[0].tolist(), dt)[3], float)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0, 1.0, 2.0, 3.0],
                               [1e-200, -1e-200, 0.0, 1.0, 2.0, 3.0],
                               [1.0, 0.0, 0.0, -2.0, 0.0, 0.0]],
                         ids=["r_zero", "r_underflow", "r_zero_at_stage_2"])
def test_coast_step_at_zero_radius_is_numpys(x):
    """|r|^3 = 0 at the first stage, or only at the second (x + dt/2 v = 0
    at dt = 1), gives numpy's inf and nan of the array step."""
    model = TwoBodyModel(398600.4418)
    want = rk4(model.drift, 0.0, np.array(x), 1.0)
    assert not np.isfinite(want).all()
    assert np.array_equal(np.array(model.coast_step(0.0, x, 1.0)), want, equal_nan=True)


# The fused step and the Stumpff series in the forms they had before their
# numpy calls were paired, kept as oracles: the lean forms must return their
# bits.

def _parent_coast_step(model, t, y, dt):
    """coast_step with one np.power call per stage."""
    c, h2, h6 = -model.mu_grav, dt / 2, dt / 6
    x0, x1, x2, v0, v1, v2 = y
    try:
        r3 = float(np.power(math.sqrt(x0 * x0 + x1 * x1 + x2 * x2), 3.0))
        a0, a1, a2 = c * x0 / r3, c * x1 / r3, c * x2 / r3
        p0, p1, p2, w0, w1, w2 = (x0 + h2 * v0, x1 + h2 * v1, x2 + h2 * v2,
                                  v0 + h2 * a0, v1 + h2 * a1, v2 + h2 * a2)
        r3 = float(np.power(math.sqrt(p0 * p0 + p1 * p1 + p2 * p2), 3.0))
        b0, b1, b2 = c * p0 / r3, c * p1 / r3, c * p2 / r3
        q0, q1, q2, s0, s1, s2 = (x0 + h2 * w0, x1 + h2 * w1, x2 + h2 * w2,
                                  v0 + h2 * b0, v1 + h2 * b1, v2 + h2 * b2)
        r3 = float(np.power(math.sqrt(q0 * q0 + q1 * q1 + q2 * q2), 3.0))
        d0, d1, d2 = c * q0 / r3, c * q1 / r3, c * q2 / r3
        e0, e1, e2, f0, f1, f2 = (x0 + dt * s0, x1 + dt * s1, x2 + dt * s2,
                                  v0 + dt * d0, v1 + dt * d1, v2 + dt * d2)
        r3 = float(np.power(math.sqrt(e0 * e0 + e1 * e1 + e2 * e2), 3.0))
        return [x0 + h6 * (v0 + 2 * w0 + 2 * s0 + f0),
                x1 + h6 * (v1 + 2 * w1 + 2 * s1 + f1),
                x2 + h6 * (v2 + 2 * w2 + 2 * s2 + f2),
                v0 + h6 * (a0 + 2 * b0 + 2 * d0 + c * e0 / r3),
                v1 + h6 * (a1 + 2 * b1 + 2 * d1 + c * e1 / r3),
                v2 + h6 * (a2 + 2 * b2 + 2 * d2 + c * e2 / r3)]
    except ZeroDivisionError:
        return rk4(model.drift, t, np.array(y, dtype=float), dt).tolist()


_PARENT_C2 = [(-1.0) ** k / math.factorial(2 * k + 2) for k in range(10)][::-1]
_PARENT_C3 = [(-1.0) ** k / math.factorial(2 * k + 3) for k in range(10)][::-1]


def _parent_stumpff(z):
    """_stumpff with one Horner chain per function."""
    c2, c3 = np.zeros_like(z), np.zeros_like(z)
    for a2, a3 in zip(_PARENT_C2, _PARENT_C3):
        c2, c3 = c2 * z + a2, c3 * z + a3
    small = np.abs(z) < 0.5
    if small.all():
        return c2, c3
    zz = np.where(small, 1.0, z)
    s = np.sqrt(zz)
    return (np.where(small, c2, (1.0 - np.cos(s)) / zz),
            np.where(small, c3, (s - np.sin(s)) / (zz * s)))


def test_coast_step_on_orbits_is_rk4_and_the_parent_step():
    """On 12 000 seeded states from near-circular to hyperbolic speeds, at
    radii from low orbit to beyond geostationary, with dt from 1e-3 to 2 s,
    the paired-cube step equals core.rk4 of the drift and the one-cube-per-
    stage step bit for bit."""
    model = TwoBodyModel(398600.4418)
    rng = np.random.default_rng(29)
    n = 12000
    r_hat = rng.normal(size=(n, 3))
    r_hat /= np.linalg.norm(r_hat, axis=1, keepdims=True)
    along = rng.normal(size=(n, 3))
    along -= np.sum(along * r_hat, axis=1, keepdims=True) * r_hat
    along /= np.linalg.norm(along, axis=1, keepdims=True)
    radius = rng.uniform(6500.0, 50000.0, (n, 1))
    # speed in circular speeds: 1 circular, 1.2 eccentric, 1.5 hyperbolic (> sqrt 2)
    speed = rng.choice([1.0, 1.2, 1.5], (n, 1)) * (1.0 + 0.01 * rng.normal(size=(n, 1)))
    v = speed * np.sqrt(model.mu_grav / radius) * along
    X = np.hstack([radius * r_hat, v + 0.01 * np.abs(v) * rng.normal(size=(n, 3))])
    dts = (10.0 ** rng.uniform(-3.0, math.log10(2.0), n)).tolist()
    for x, dt in zip(X.tolist(), dts):
        step = model.coast_step(0.0, x, dt)
        assert step == rk4(model.drift, 0.0, np.array(x), dt).tolist()
        assert step == _parent_coast_step(model, 0.0, x, dt)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("x", [[1.0, 0.0, 0.0, -1.0, 0.0, 0.0],
                               [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
                         ids=["r_zero_at_stage_3", "r_zero_at_stage_4"])
def test_coast_step_at_zero_radius_in_the_second_pair_is_numpys(x):
    """At mu = 2 and dt = 1, stage 3's position x + dt/2 w or stage 4's
    x + dt s is 0 while the first pair's are not: the step still gives
    numpy's inf and nan of the array step, and the parent step's."""
    model = TwoBodyModel(2.0)
    want = rk4(model.drift, 0.0, np.array(x), 1.0)
    assert not np.isfinite(want).all()
    got = np.array(model.coast_step(0.0, x, 1.0))
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(got, np.array(_parent_coast_step(model, 0.0, x, 1.0)), equal_nan=True)


@pytest.mark.parametrize("size", [1, 3, 6])
@pytest.mark.parametrize("scale", [1e-6, 0.3, 0.49, 0.6, 40.0])
def test_stumpff_is_the_parent_pair_of_chains(size, scale):
    """c2 and c3 from one Horner chain have the bits of two chains, on
    seeded complex z with |z| below and above the series' 0.5 and
    imaginary parts down to 1e-30, as the complex step makes them."""
    rng = np.random.default_rng(size)
    for _ in range(300):
        z = (scale * rng.uniform(-1.0, 1.0, size)
             + 1j * rng.normal(size=size) * 10.0 ** rng.uniform(-30.0, -10.0, size))
        got, want = scenarios._stumpff(z), _parent_stumpff(z)
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]


@pytest.mark.parametrize("x, raises", [([0.0, 0.0, 0.0, 1.0, 2.0, 3.0], True),
                                       ([1e-200, -1e-200, 0.0, 1.0, 2.0, 3.0], True),
                                       ([1e62, 3e61, 0.0, 1.0, 2.0, 3.0], False),
                                       ([1e200, 0.0, 0.0, 1.0, 2.0, 3.0], True)],
                         ids=["r_zero", "r_underflow", "rn5_overflow", "rr_overflow"])
def test_kepler_response_at_extreme_radius(x, raises):
    """At |r| = 0, or an |r|^2 that underflows or overflows, the closed-form
    input response raises PropagationError naming tau, with no numpy
    warning.  At |r| = 1e62 gravity is nil, so the arc is a straight line
    and its response is [dt I; I]."""
    model = TwoBodyModel(398600.4418)
    if raises:
        with pytest.raises(PropagationError, match=r"at tau=13\.0"):
            model.coast_input_response(13.0, 3.0, np.array(x))
    else:
        assert np.allclose(model.coast_input_response(13.0, 3.0, np.array(x)),
                           np.vstack([10.0 * np.eye(3), np.eye(3)]), rtol=0.0, atol=1e-15)
