"""Path functions: closed-form car flow and RK4-propagated flows."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcbf.core import ConfigurationError, ConstraintFunction, DynamicsModel, PropagationError, rk4
from pcbf.horizon import scan
from pcbf.paths import AnalyticCarPath, OdePath
from pcbf.scenarios import CarPairModel, TwoBodyModel, default_config, satellite_initial_state
from sensitivity_oracle import cointegrated_sensitivity, two_body_jacobian


def _independent_rk4(field, t0, x0, t1, n_steps=2000):
    """Reference integrator, separate from the implementation under test."""
    dt = (t1 - t0) / n_steps
    x = np.asarray(x0, dtype=float).copy()
    t = t0
    for _ in range(n_steps):
        k1 = field(t, x)
        k2 = field(t + dt / 2, x + dt / 2 * k1)
        k3 = field(t + dt / 2, x + dt / 2 * k2)
        k4 = field(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return x


def _car_field(k, v):
    def field(t, x):
        u = k * (v - x[1::2])
        return np.array([x[1], u[0], x[3], u[1]])
    return field


def _parent_car_evaluate_many(path, taus, t, x):
    """AnalyticCarPath.evaluate_many as a Python loop over the two cars
    (bit-identity oracle)."""
    taus = np.asarray(taus, dtype=float)
    dt = taus - t
    e = np.exp(-path.k * dt)
    out = np.empty(taus.shape + (4,))
    for i in range(2):
        z, zdot = x[2 * i], x[2 * i + 1]
        v = path.v[i]
        out[..., 2 * i] = z + v * dt + (zdot - v) / path.k * (1.0 - e)
        out[..., 2 * i + 1] = v + (zdot - v) * e
    at_t = dt == 0.0
    if np.any(at_t):
        out[at_t] = x
    return out


class TestAnalyticCarPath:
    def test_evaluate_many_matches_parent_loop(self):
        rng = np.random.default_rng(8)
        for case in range(2000):
            path = AnalyticCarPath(k=rng.uniform(0.1, 3.0), v=rng.uniform(-2.0, 2.0, 2))
            x = rng.uniform(-20.0, 20.0, 4)
            t = rng.uniform(0.0, 30.0)
            taus = t + np.sort(rng.uniform(0.0, 10.0, 15))
            taus[rng.integers(0, 15, case % 3)] = t  # rows at tau = t
            assert np.array_equal(path.evaluate_many(taus, t, x),
                                  _parent_car_evaluate_many(path, taus, t, x))
        assert np.array_equal(path.evaluate_many([t], t, x)[0], x)

    def test_initial_time_exact(self):
        path = AnalyticCarPath(k=1.3, v=np.array([1.0, 0.7]))
        x = np.array([0.2, -0.4, 1.1, 2.0])
        assert np.array_equal(path.evaluate_many([5.0], 5.0, x)[0], x)

    def test_unit_example(self):
        # z=0, zdot=0, v=1, k=1, one second ahead
        path = AnalyticCarPath(k=1.0, v=np.array([1.0, 1.0]))
        x = np.zeros(4)
        p = path.evaluate_many([1.0], 0.0, x)[0]
        assert p[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert p[1] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
        # cross-check against an independent integration of the dynamics
        ref = _independent_rk4(_car_field(1.0, np.array([1.0, 1.0])), 0.0, x, 1.0)
        assert np.allclose(p, ref, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(k=st.floats(0.2, 3.0), v1=st.floats(-2.0, 2.0), v2=st.floats(-2.0, 2.0),
           z=st.floats(-5.0, 5.0), zd=st.floats(-2.0, 2.0), dt=st.floats(0.1, 5.0))
    def test_matches_independent_integration(self, k, v1, v2, z, zd, dt):
        v = np.array([v1, v2])
        path = AnalyticCarPath(k=k, v=v)
        x = np.array([z, zd, -z, -zd])
        p = path.evaluate_many([dt], 0.0, x)[0]
        ref = _independent_rk4(_car_field(k, v), 0.0, x, dt, n_steps=4000)
        assert np.allclose(p, ref, atol=1e-8)

    def test_tau_derivative_is_closed_loop_field(self):
        k, v = 0.8, np.array([1.0, 0.5])
        path = AnalyticCarPath(k=k, v=v)
        x = np.array([0.0, 0.3, 1.0, -0.2])
        zdot = x[1::2]
        for tau in (0.0, 0.7, 3.0):
            p = path.evaluate_many([tau], 0.0, x)[0]
            d = path.field(tau, p)
            assert np.allclose(d, _car_field(k, v)(tau, p), atol=1e-12)
            # closed form of the flow's tau-derivative
            e = math.exp(-k * tau)
            closed = np.empty(4)
            closed[0::2] = v + (zdot - v) * e
            closed[1::2] = -k * (zdot - v) * e
            assert np.allclose(d, closed, atol=1e-12)

    def test_sensitivity_matches_finite_difference(self):
        """dp/dx g against differences of the forecast along g's columns; at
        tau = t it is g bit for bit."""
        path = AnalyticCarPath(k=1.1, v=np.array([1.0, 1.0]))
        x = np.array([0.4, 0.9, -1.2, 0.1])
        tau = 2.3
        phi = path.state_sensitivity(tau, 0.0, x)
        g = CarPairModel().input_matrix(0.0, x)
        assert np.array_equal(path.state_sensitivity(0.0, 0.0, x), g)
        d = 1e-6
        fd = np.column_stack([(path.evaluate_many([tau], 0.0, x + d * g_j)[0]
                               - path.evaluate_many([tau], 0.0, x - d * g_j)[0]) / (2 * d)
                              for g_j in g.T])
        assert phi.shape == (4, 2)
        assert np.max(np.abs(phi - fd)) <= 1e-7 * np.linalg.norm(phi)

    def test_rejects_bad_gain(self):
        with pytest.raises(ConfigurationError):
            AnalyticCarPath(k=0.0, v=np.array([1.0, 1.0]))

    def test_tau_before_t_rejected(self):
        """As on OdePath: a tau before t raises ValueError, in any row of a
        batch, and one before t by rounding reads the forecast at t."""
        path, x = AnalyticCarPath(k=1.0, v=np.array([1.0, 1.0])), np.array([0.2, -0.4, 1.1, 2.0])
        with pytest.raises(ValueError, match="precedes"):
            path.evaluate_many([1.0], 2.0, x)
        with pytest.raises(ValueError, match="precedes"):
            path.evaluate_many(np.array([2.5, 1.0, 3.0]), 2.0, x)
        with pytest.raises(ValueError, match="precedes"):
            path.state_sensitivity(1.0, 2.0, x)
        assert np.array_equal(path.evaluate_many([2.0 - 1e-12], 2.0, x)[0], x)
        assert np.array_equal(path.state_sensitivity(2.0 - 1e-12, 2.0, x),
                              CarPairModel().input_matrix(2.0, x))


class _CubicBlowup(DynamicsModel):
    def drift(self, t, x):
        return x ** 3

    def input_matrix(self, t, x):
        return np.ones(x.shape[:-1] + (1, 1))


class _CountingCubic(_CubicBlowup):
    """xdot = x^3 as x * x * x, with a float RK4 step of one state making
    core.rk4's operations in its order, counting field calls."""

    def __init__(self):
        self.calls = 0

    def drift(self, t, x):
        self.calls += 1
        return x * x * x

    def _cube(self, y):
        self.calls += 1
        return [a * a * a for a in y]

    def step_one(self, t, y, dt):
        h2, h6 = dt / 2, dt / 6
        k1 = self._cube(y)
        k2 = self._cube([a + h2 * b for a, b in zip(y, k1)])
        k3 = self._cube([a + h2 * b for a, b in zip(y, k2)])
        k4 = self._cube([a + dt * b for a, b in zip(y, k3)])
        return [a + h6 * (b + 2 * c + 2 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]


class _CountingLinear(DynamicsModel):
    """xdot = A x + B u, counting calls to the drift (driven with u = 0 only)."""

    A = np.array([[0.0, 1.0], [-1.0, -0.2]])

    def __init__(self):
        self.calls = 0

    def drift(self, t, x):
        self.calls += 1
        return x @ self.A.T

    def input_matrix(self, t, x):
        return np.broadcast_to(np.array([[0.0], [1.0]]), np.shape(x)[:-1] + (2, 1))


class _FirstCoordinate(ConstraintFunction):
    h_max = 1.0

    def value(self, t, x):
        return np.asarray(x)[..., 0] - 10.0

    def partials(self, t, x):
        return 0.0, np.array([1.0, 0.0])


def _sat_path(step=1.0):
    model = TwoBodyModel(398600.4418)
    mu = lambda t, x: np.zeros(x.shape[:-1] + (3,))
    return model, OdePath(model, mu, step=step, sensitivity=model.coast_input_response)


def _sat_oracle(model, step=1.0, growth=1.0):
    """The satellite's input response by co-integration with the analytic
    drift Jacobian."""
    return cointegrated_sensitivity(model, lambda t, x: np.zeros(x.shape[:-1] + (3,)), step,
                                    jacobian=lambda t, x: two_body_jacobian(model.mu_grav, x),
                                    growth=growth)


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _sat_state(rng=None):
    a = 7000.0
    vc = math.sqrt(398600.4418 / a)
    return np.array([a, 0.0, 0.0, 0.0, vc * math.cos(0.3), vc * math.sin(0.3)])


class TestOdePath:
    def test_initial_time_exact(self):
        model, path = _sat_path()
        x = _sat_state()
        assert np.array_equal(path.evaluate_many([2.0], 2.0, x)[0], x)
        g = path.state_sensitivity(2.0, 2.0, x)
        assert g.tobytes() == np.ascontiguousarray(model.input_matrix(2.0, x)).tobytes()

    def test_tau_before_t_rejected(self):
        model, path = _sat_path()
        x = _sat_state()
        with pytest.raises(ValueError):
            path.evaluate_many([1.0], 2.0, x)
        with pytest.raises(ValueError, match="precedes"):
            path.state_sensitivity(1.0, 2.0, x)
        assert np.array_equal(path.evaluate_many([2.0 - 1e-12], 2.0, x)[0], x)
        assert np.array_equal(path.state_sensitivity(2.0 - 1e-12, 2.0, x),
                              model.input_matrix(2.0, x))

    def test_rejects_bad_step(self):
        model, _ = _sat_path()
        with pytest.raises(ConfigurationError):
            OdePath(model, lambda t, x: np.zeros(3), step=0.0)

    def test_input_response_needs_sensitivity(self):
        """A path built without sensitivity= forecasts, and asking it for the
        input response names the missing argument."""
        model = TwoBodyModel(398600.4418)
        path = OdePath(model, lambda t, x: np.zeros(x.shape[:-1] + (3,)), step=1.0)
        x = _sat_state()
        assert np.isfinite(path.evaluate_many([5.5], 2.0, x)).all()
        with pytest.raises(TypeError, match="without sensitivity="):
            path.state_sensitivity(5.5, 2.0, x)

    def test_field_derivative_consistency(self):
        """Tau-derivative of the flow matches a central difference of the
        propagated state at off-knot times."""
        _, path = _sat_path()
        x = _sat_state()
        rng = np.random.default_rng(3)
        for tau in rng.uniform(0.3, 40.0, 20):
            d = 1e-4
            ahead, behind = path.evaluate_many([tau + d, tau - d], 0.0, x)
            fd = (ahead - behind) / (2 * d)
            deriv = path.field(tau, path.evaluate_many([tau], 0.0, x)[0])
            assert np.linalg.norm(deriv - fd) <= 1e-6 * (1.0 + np.linalg.norm(deriv))

    def test_semigroup(self):
        _, path = _sat_path()
        x = _sat_state()
        rng = np.random.default_rng(4)
        for _ in range(10):
            t, sigma, tau = np.sort(rng.uniform(0.0, 60.0, 3))
            direct = path.evaluate_many([tau], t, x)[0]
            mid = path.evaluate_many([sigma], t, x)[0]
            relay = path.evaluate_many([tau], sigma, mid)[0]
            assert np.linalg.norm(direct - relay) <= 1e-6 * (1.0 + np.linalg.norm(direct))

    def test_sensitivity_matches_finite_difference(self):
        """dp/dx g against differences of the forecast along g's columns."""
        model, path = _sat_path()
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = _sat_state() + np.concatenate([rng.uniform(-50, 50, 3),
                                               rng.uniform(-0.05, 0.05, 3)])
            tau = rng.uniform(1.0, 60.0)
            phi = path.state_sensitivity(tau, 0.0, x)
            g = model.input_matrix(0.0, x)
            d = 1e-4
            fd = np.column_stack([(path.evaluate_many([tau], 0.0, x + d * g_j)[0]
                                   - path.evaluate_many([tau], 0.0, x - d * g_j)[0]) / (2 * d)
                                  for g_j in g.T])
            assert phi.shape == (6, 3)
            assert np.max(np.abs(phi - fd)) <= 1e-4 * np.linalg.norm(phi)

    def test_orbital_energy_conserved_over_one_orbit(self):
        model, path = _sat_path(step=1.0)
        x = _sat_state()
        mu_grav = model.mu_grav
        period = 2 * math.pi * math.sqrt(7000.0 ** 3 / mu_grav)

        def energy(s):
            return 0.5 * np.dot(s[3:], s[3:]) - mu_grav / np.linalg.norm(s[:3])

        e0 = energy(x)
        taus = np.linspace(0.0, period, 60)
        states = path.evaluate_many(taus, 0.0, x)
        drift = max(abs(energy(s) - e0) for s in states)
        assert drift <= 1e-8 * abs(e0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_nonfinite_propagation_raises(self):
        model = _CubicBlowup()
        path = OdePath(model, lambda t, x: np.zeros(x.shape[:-1] + (1,)), step=0.5)
        with pytest.raises(PropagationError):
            path.evaluate_many([50.0], 0.0, np.array([5.0]))

    def test_cache_distinguishes_nearby_large_states(self):
        """Regression: quantized cache keys must separate states that differ
        in a single component when all magnitudes exceed one."""
        _, path = _sat_path()
        x1 = _sat_state()
        x2 = x1.copy()
        x2[0] += 0.05  # 50 m apart at 7000 km magnitude
        p1 = path.evaluate_many([30.0], 0.0, x1)[0]
        p2 = path.evaluate_many([30.0], 0.0, x2)[0]
        assert not np.array_equal(p1, p2)

    def test_forecast_key_is_exact(self):
        """Regression: a state one part in 1e14 away from the last query is
        forecast from itself, not from the stored state."""
        _, path = _sat_path()
        x1 = satellite_initial_state(default_config("satellite"))
        p1 = path.evaluate_many([5.0], 0.0, x1)[0]
        x2 = x1.copy()
        x2[0] += 1e-10
        assert np.array_equal(path.evaluate_many([0.0], 0.0, x2)[0], x2)
        assert not np.array_equal(path.evaluate_many([5.0], 0.0, x2)[0], p1)

    def test_one_forecast_serves_every_query_on_its_knots(self):
        model = _CountingLinear()
        asked = []
        path = OdePath(model, lambda t, x: np.zeros(x.shape[:-1] + (1,)), step=0.5,
                       sensitivity=lambda tau, t, x: asked.append((tau, t)))
        t, x, K = 1.0, np.array([1.0, -0.5]), 6
        knots = t + path.step * np.arange(K + 1)
        end = path.evaluate_many([knots[-1]], t, x)[0]
        assert model.calls == 4 * K  # one RK4 step per knot
        assert path.knot_steps == K
        states = path.evaluate_many(knots, t, x)
        assert np.array_equal(states[-1], end)
        assert model.calls == 4 * K
        # the input response comes from the sensitivity alone: no knot step
        # and no field call, on the held forecast's key or on a new one
        path.state_sensitivity(knots[3], t, x)
        path.state_sensitivity(knots[2], t, x)
        path.state_sensitivity(knots[6] + 4.0, t, x + 1.0)
        assert asked == [(knots[3], t), (knots[2], t), (knots[6] + 4.0, t)]
        path.evaluate_many([knots[5]], t, x)
        assert model.calls == 4 * K and path.knot_steps == K
        # a new (t, x) starts a new forecast, which replaces the old one
        path.evaluate_many([knots[1]], t, x + 1e-3)
        assert model.calls == 4 * K + 4
        path.evaluate_many([knots[1]], t, x)
        assert model.calls == 4 * K + 8 and path.knot_steps == K + 2

    def test_off_knot_evaluation_steps_once(self):
        """An off-knot horizon evaluation away from the scan grid makes one
        partial RK4 step for the state and one field call for its
        tau-derivative: 4 + 1 drift calls.  The grid keeps it, so a second
        ask makes no drift call and returns the same object, also after the
        path forecasts from another (t, x).  A grid scanned next under the
        new token takes none of it and steps again, to the same bits."""
        model = _CountingLinear()
        path = OdePath(model, lambda t, x: np.zeros(x.shape[:-1] + (1,)), step=0.5)
        t, x = 1.0, np.array([1.0, -0.5])
        tau = t + 1.33  # between the scan's samples t + 1.3 and t + 1.4

        def asks(grid):
            """The two evaluations at tau and the drift calls of each."""
            evs, calls = [], []
            for _ in range(2):
                before = model.calls
                evs.append(grid.evaluation(tau))
                calls.append(model.calls - before)
            return evs, calls

        grid = scan(path, _FirstCoordinate(), t, x, 5.0, 50)
        (ev, again), calls = asks(grid)
        assert calls == [5, 0] and again is ev
        assert np.array_equal(ev.dp_dtau, path.field(tau, ev.state))
        path.evaluate_many([tau], t, x + 1e-3)
        (again, _), calls = asks(grid)
        assert calls == [0, 0] and again is ev
        new = scan(path, _FirstCoordinate(), t, x, 5.0, 50, prev=grid)
        assert new.token != grid.token
        (first, _), calls = asks(new)
        assert calls == [5, 0] and first is not ev  # its scan grew the knots
        assert np.array_equal(first.state, ev.state)
        assert np.array_equal(first.dp_dtau, ev.dp_dtau)


class _DrivenLinear(DynamicsModel):
    """xdot = A x + B u, driven below by a time-dependent nominal law."""

    A = np.array([[0.0, 1.0], [-1.0, -0.2]])

    def drift(self, t, x):
        return x @ self.A.T

    def input_matrix(self, t, x):
        return np.broadcast_to(np.array([[0.0], [1.0]]), np.shape(x)[:-1] + (2, 1))


def _time_law(t, x):
    """Nominal law that depends on time; t may hold one time per state."""
    return np.sin(3.0 * np.asarray(t, dtype=float))[..., None] - 0.5 * x[..., :1]


def _steep_law(t, x):
    """Nominal law so steep in time that a last-bit change of t moves the
    partial step's state."""
    return np.sin(1e9 * np.asarray(t, dtype=float))[..., None] - 0.5 * x[..., :1]


class TestForecastReuse:
    def test_next_step_from_knot_one_costs_one_knot(self):
        model = _CountingLinear()
        path = OdePath(model, lambda t, x: np.zeros(x.shape[:-1] + (1,)), step=0.5)
        t, x, K = 1.0, np.array([1.0, -0.5]), 6
        path.evaluate_many([t + K * path.step], t, x)
        assert model.calls == 4 * K
        x1 = path.evaluate_many([t + path.step], t, x)[0]
        path.evaluate_many([t + (K + 1) * path.step], t + path.step, x1)
        assert model.calls == 4 * K + 4

    @pytest.mark.parametrize("k", [1, 3])
    def test_reused_forecast_equals_fresh(self, k):
        """A kept forecast's states equal a fresh one's bit for bit, and the
        input response from its start matches the co-integration oracle."""
        model, path = _sat_path()
        t, x = 2.0, _sat_state()
        path.evaluate_many([t + 40.0], t, x)
        t1 = t + k * path.step
        x1 = path.evaluate_many([t1], t, x)[0]
        _, fresh = _sat_path()
        taus = t1 + np.array([0.0, 0.4, 1.0, 7.25, 30.0, 45.5, 60.0])
        assert np.array_equal(path.evaluate_many(taus, t1, x1),
                              fresh.evaluate_many(taus, t1, x1))
        oracle = _sat_oracle(model)
        for tau in taus:
            _assert_close(path.state_sensitivity(tau, t1, x1), oracle(tau, t1, x1))

    def test_time_dependent_law_matches_fresh_forecast(self):
        """With a non-dyadic step the held knot times t0 + (k+j) step and the
        fresh times t + j step part in the last bit somewhere; the states
        must still be those of a fresh forecast."""
        step, t, K = 0.1, 0.3, 40
        path = OdePath(_DrivenLinear(), _time_law, step=step)
        x = np.array([1.0, -0.5])
        path.evaluate_many([t + K * step], t, x)
        t1 = t + step
        assert any(t + (1 + j) * step != t1 + j * step for j in range(K))
        x1 = path.evaluate_many([t1], t, x)[0]
        fresh = OdePath(_DrivenLinear(), _time_law, step=step)
        taus = t1 + step * np.arange(K + 2) + 0.03
        assert np.array_equal(path.evaluate_many(taus, t1, x1),
                              fresh.evaluate_many(taus, t1, x1))
        on_knots = t1 + step * np.arange(K + 2)
        assert np.array_equal(path.evaluate_many(on_knots, t1, x1),
                              fresh.evaluate_many(on_knots, t1, x1))


    def test_knot_state_off_its_lattice_time_starts_afresh(self):
        """x with knot 3's bytes at t1 = 0.6, one bit before that knot's
        lattice time 6 * 0.1, starts a fresh forecast: a kept one would
        step its first interval from the other time."""
        step, t = 0.1, 0.3
        path = OdePath(_DrivenLinear(), _steep_law, step=step)
        x = np.array([1.0, -0.5])
        x1 = path.evaluate_many([6 * step, t + 4.0], t, x)[0]
        t1 = 0.6
        assert t1 != 6 * step and math.floor(t1 / step + 1e-9) == 6
        taus = t1 + step * np.arange(20) + 0.03
        got = path.evaluate_many(taus, t1, x1)
        assert path.forecast_restarts == 2
        fresh = OdePath(_DrivenLinear(), _steep_law, step=step)
        assert np.array_equal(got, fresh.evaluate_many(taus, t1, x1))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("make", [
        lambda: (_sat_path(step=1.0)[1], _sat_state(), 2.0),
        lambda: (OdePath(_DrivenLinear(), _steep_law, step=0.1), np.array([1.0, -0.5]), 0.3),
    ], ids=["satellite", "time_dependent"])
    def test_reused_off_knot_states_equal_fresh(self, make, k):
        """Partial steps taken before a reuse and asked for again after it
        give a fresh forecast's states, also where the knot times of the two
        forecasts part in the last bit."""
        path, x, t = make()
        s, K = path.step, 40
        rems = np.array([0.03125, 0.0625])  # dyadic: the same rem from either knot time

        def off_knot(t0):
            return ((t0 + s * np.arange(K))[:, None] + rems).ravel()

        path.evaluate_many(off_knot(t), t, x)
        t1 = t + k * s
        x1 = path.evaluate_many([t1], t, x)[0]
        fresh = OdePath(path.model, path.mu, step=s)
        for taus in (off_knot(t1), off_knot(t)[2 * k:]):
            assert np.array_equal(path.evaluate_many(taus, t1, x1),
                                  fresh.evaluate_many(taus, t1, x1))

    def test_fresh_forecast_serves_no_old_state(self):
        model = _CountingLinear()
        path = OdePath(model, lambda t, x: np.zeros(x.shape[:-1] + (1,)), step=0.5)
        t, x = 1.0, np.array([1.0, -0.5])
        taus = t + np.array([0.3, 1.2, 2.05])
        path.evaluate_many(taus, t, x)
        calls = model.calls
        got = path.evaluate_many(taus, t, x + 1e-3)
        assert model.calls == calls + 4 * 4 + 4  # four knots, one batched partial step
        assert (path.forecast_restarts, path.partial_steps) == (2, 6)
        fresh = OdePath(_CountingLinear(), path.mu, step=path.step)
        assert np.array_equal(got, fresh.evaluate_many(taus, t, x + 1e-3))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_partial_step_raises_again(self):
        path = OdePath(_CubicBlowup(), lambda t, x: np.zeros(x.shape[:-1] + (1,)), step=0.5)
        for _ in range(2):
            with pytest.raises(PropagationError):
                path.evaluate_many([0.3], 0.0, np.array([1e30]))


class TestBatchedEvaluation:
    @pytest.mark.parametrize("make, t", [
        (lambda: (_sat_path(step=1.0)[1], _sat_state()), 3.0),
        (lambda: (OdePath(_DrivenLinear(), _time_law, step=0.1), np.array([1.0, -0.5])), 3.0),
        (lambda: (_sat_path(step=1.0)[1], _sat_state()), 3.03),
        (lambda: (OdePath(_DrivenLinear(), _time_law, step=0.1), np.array([1.0, -0.5])), 3.03),
    ], ids=["satellite", "time_dependent", "satellite_off_lattice", "time_dependent_off_lattice"])
    def test_matches_per_tau_and_scalar_steps(self, make, t):
        """evaluate_many equals one call per tau and an independent chain of
        single RK4 steps: knot 0 at t, knot j >= 1 at the lattice time
        (k0 + j) step, each stepped from the knot before it, then one partial
        step from the last knot at or before tau."""
        path, x = make()
        s = path.step
        k0 = math.floor(t / s + 1e-9)
        taus = (k0 + np.array([0.0, 2.0, 2.5, 5.0, 9.75, 9.0, 0.0, 30.0, 41.6])) * s
        taus[0], taus[6] = t, t + 0.25 * s  # knot 0, and a partial step from it
        taus[3] += 2e-13  # within the remainder threshold of knot 5
        many = path.evaluate_many(taus[:7], t, x)  # knots grown to (k0 + 9) s
        many = np.vstack([many, path.evaluate_many(taus[7:], t, x)])
        single = np.array([path.evaluate_many([tau], t, x)[0] for tau in taus])
        assert np.array_equal(many, single)

        times = [t] + [(k0 + j) * s for j in range(1, 43)]
        knots = [x]
        for a, b in zip(times, times[1:]):
            knots.append(rk4(path.field, a, knots[-1], b - a))
        for tau, got in zip(taus, many):
            thr = 1e-12 * max(1.0, tau)
            k = bisect.bisect_right(times, tau + thr) - 1
            rem = tau - times[k]
            want = knots[k] if rem < thr else rk4(path.field, times[k], knots[k], rem)
            assert np.array_equal(got, want)
        assert np.array_equal(many[0], x)
        assert np.array_equal(many[3], knots[5])  # within the remainder threshold

    def test_rejects_tau_before_t(self):
        _, path = _sat_path()
        with pytest.raises(ValueError):
            path.evaluate_many(np.array([2.5, 1.0, 3.0]), 2.0, _sat_state())

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("x0, taus", [(1e30, [0.3, 0.1]),   # partial steps
                                          (5.0, [0.2, 50.0])])  # knot steps
    def test_nonfinite_partial_or_knot_step_raises(self, x0, taus):
        path = OdePath(_CubicBlowup(), lambda t, x: np.zeros(x.shape[:-1] + (1,)), step=0.5)
        with pytest.raises(PropagationError):
            path.evaluate_many(np.array(taus), 0.0, np.array([x0]))


def _sat_paths(step=1.0):
    """A satellite path whose knots step on floats and one on arrays."""
    model = TwoBodyModel(398600.4418)
    mu = lambda t, x: np.zeros(x.shape[:-1] + (3,))
    return (OdePath(model, mu, step=step, step_one=model.coast_step),
            OdePath(model, mu, step=step))


class TestFloatKnotChain:
    """Knot steps on Python floats (step_one, the fused two-body step) equal
    those on arrays bit for bit, and so does everything built on the knots."""

    TAUS = np.array([0.0, 0.4, 1.0, 7.25, 30.0, 45.5, 120.0, 249.0, 250.0])

    @staticmethod
    def _assert_same(one, arr, taus, t, x):
        assert np.array_equal(one.evaluate_many(taus, t, x), arr.evaluate_many(taus, t, x))

    @pytest.mark.parametrize("x", [
        satellite_initial_state(default_config("satellite")),
        np.array([6800.0, 1200.0, -900.0, 0.5, 8.3, 1.1]),  # eccentric, inclined
    ], ids=["pinned", "eccentric"])
    def test_whole_horizon(self, x):
        one, arr = _sat_paths()
        t = 2.0
        self._assert_same(one, arr, t + np.arange(0.0, 250.0, 0.37), t, x)
        self._assert_same(one, arr, t + self.TAUS, t, x)
        assert np.array_equal(np.array(one._states), np.array(arr._states))
        assert one.knot_steps == arr.knot_steps == 250  # the float chain counts alike

    @pytest.mark.parametrize("k", [1, 3])
    def test_after_reuse(self, k):
        one, arr = _sat_paths()
        t, x = 2.0, _sat_state()
        for path in (one, arr):
            path.evaluate_many([t + 250.0], t, x)
        t1 = t + k * one.step
        x1 = one.evaluate_many([t1], t, x)[0]
        assert np.array_equal(x1, arr.evaluate_many([t1], t, x)[0])
        self._assert_same(one, arr, t1 + self.TAUS, t1, x1)
        assert one.knot_steps == arr.knot_steps == 250 + k
        self._assert_same(one, _sat_paths()[1], t1 + self.TAUS, t1, x1)

    def test_debris_path_and_built_path(self, monkeypatch):
        """The debris knots equal an array-stepped OdePath's, and
        build_satellite's controller path forecasts alike with and without
        the float chain, bit for bit."""
        from pcbf import scenarios

        cfg = default_config("satellite")
        model = TwoBodyModel(cfg.params["mu_grav"])
        knots, debris = scenarios.debris_knots(cfg, model)
        p = cfg.params
        debris0 = scenarios._circular_state(
            p["radius"], p["mu_grav"], math.radians(p["inclination_deg"]),
            -scenarios._node_angle(p) - p["phase_offset"])
        reference = OdePath(model, scenarios._zero_thrust, step=1.0)
        assert np.array_equal(debris, reference.evaluate_many(knots, 0.0, debris0)[:, :3])

        _, _, path_one = scenarios.build_satellite(cfg)
        monkeypatch.setattr(scenarios, "OdePath",
                            lambda *a, step_one=None, **kw: OdePath(*a, **kw))
        _, _, path_arr = scenarios.build_satellite(cfg)
        assert path_one._step_one is not None and path_arr._step_one is None
        x0 = satellite_initial_state(cfg)
        taus = np.arange(0.0, cfg.duration + cfg.step, 0.7)
        assert np.array_equal(path_one.evaluate_many(taus, 0.0, x0),
                              path_arr.evaluate_many(taus, 0.0, x0))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_knot_mid_block_keeps_the_knots_before_it(self):
        """A float knot going non-finite deep inside one block of growth
        raises with the array chain's tau, and the finite knots stepped
        before it stay held."""
        t, x0, zero = 0.0, np.array([0.1]), lambda t, x: np.zeros(x.shape[:-1] + (1,))
        arr = OdePath(_CountingCubic(), zero, step=0.5)
        with pytest.raises(PropagationError) as want:
            arr.evaluate_many([t + 100.0], t, x0)
        model = _CountingCubic()
        one = OdePath(model, zero, step=0.5, step_one=model.step_one)
        with pytest.raises(PropagationError) as got:
            one.evaluate_many([t + 100.0], t, x0)
        last_tau = t + (len(one._states) - 1) * 0.5  # the last knot held
        assert str(got.value) == str(want.value)
        assert str(got.value).endswith(f"tau={last_tau + 0.5}")
        assert 10.0 < last_tau < 100.0  # after many finite knots of the block
        calls = model.calls
        last = one.evaluate_many([last_tau], t, x0)[0]
        assert model.calls == calls
        assert np.isfinite(last).all()
        assert np.array_equal(one._states, arr._states)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
    @pytest.mark.parametrize("x0", [
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],        # r = 0
        [1e-200, 0.0, 0.0, 0.0, 0.0, 0.0],     # |r|^2 underflows to 0
        [7000.0, 0.0, 0.0, 1e301, 0.0, 0.0],   # non-finite after many knots
    ], ids=["r_zero", "r_underflow", "late_overflow"])
    def test_nonfinite_knot_raises_alike(self, x0):
        errors = []
        for path in _sat_paths():
            with pytest.raises(PropagationError) as err:
                path.evaluate_many([3.0 + 100.0], 3.0, np.array(x0))
            errors.append(str(err.value))  # the message holds the tau
        assert errors[0] == errors[1]


def test_kepler_response_matches_cointegration():
    """The satellite path's closed-form input response equals the
    co-integrated one to 1e-12 relative, at knots and off them (0.5, 37.3),
    over the whole pinned horizon, fresh and from a forecast kept after a
    reuse: on a circular and an eccentric orbit."""
    for x in (_sat_state(), np.array([6800.0, 1200.0, -900.0, 0.5, 8.3, 1.1])):
        model, path = _sat_path()
        oracle = _sat_oracle(model)
        t = 2.0
        path.evaluate_many([t + 250.0], t, x)
        t1 = t + 3 * path.step
        x1 = path.evaluate_many([t1], t, x)[0]
        path.evaluate_many([t1 + 250.0], t1, x1)  # kept from knot 3 on
        assert np.array_equal(path._states[0], x1)
        for t0, x0 in ((t, x), (t1, x1)):
            for dt in (0.5, 1.0, 37.0, 37.3, 250.0):
                _assert_close(path.state_sensitivity(t0 + dt, t0, x0), oracle(t0 + dt, t0, x0))


_MU = 398600.4418
_V_ESCAPE = math.sqrt(2.0 * _MU / 7000.0)


_FAR_HYPERBOLIC = np.array([7000.0, 0.0, 0.0, 0.3, 1.5 * _V_ESCAPE, 0.2])


@pytest.mark.parametrize("x, dt, step, growth", [
    # one period at the pinned radius is 5 829 s
    (satellite_initial_state(default_config("satellite")), 5900.0, 1.0, 1.0),
    (_FAR_HYPERBOLIC, 250.0, 0.5, 1.0),
    (np.array([7000.0, 300.0, 0.0, -3.0, 1.5 * _V_ESCAPE, 0.2]), 1000.0, 0.5, 1.0),
    (np.array([7000.0, 0.0, 0.0, 0.0, _V_ESCAPE * (1.0 + 1e-12), 0.0]), 1000.0, 1.0, 1.0),
    (np.array([7000.0, 0.0, 0.0, 0.0, _V_ESCAPE * (1.0 - 1e-12), 0.0]), 1000.0, 1.0, 1.0),
    # far past periapsis: the oracle's steps grow with the escape's time scale
    (_FAR_HYPERBOLIC, 1e5, 0.5, 1.001),
    (_FAR_HYPERBOLIC, 1e6, 0.5, 1.001),
    # near-parabolic (alpha r0 = -2e-3) and long: Newton's plain steps from
    # either start run out of iterations, the bracketed ones converge
    (np.array([7000.0, 0.0, 0.0, 0.0, _V_ESCAPE * math.sqrt(1.001), 0.0]), 1e6, 0.25, 1.001),
], ids=["beyond_one_period", "hyperbolic", "hyperbolic_through_periapsis",
        "near_parabolic_open", "near_parabolic_closed", "hyperbolic_far_1e5",
        "hyperbolic_far_1e6", "near_parabolic_far_1e6"])
def test_kepler_response_across_conics(x, dt, step, growth):
    """The closed form beyond one period (its Stumpff functions by cos and
    sin, not the series), on hyperbolic and near-parabolic arcs, and far past
    periapsis, where Newton starts at Vallado's hyperbolic guess and keeps
    to a bracket of the root, matches the co-integration oracle to 1e-12
    relative."""
    model, path = _sat_path()
    _assert_close(path.state_sensitivity(3.0 + dt, 3.0, x),
                  _sat_oracle(model, step, growth)(3.0 + dt, 3.0, x))


def test_kepler_response_that_does_not_converge_raises(monkeypatch):
    """A Kepler solve that leaves Newton's iteration cap raises
    PropagationError naming tau, with no warning: the cap lowered to 2 on a
    hyperbolic arc 1e6 s past periapsis, whose solve needs 5."""
    from pcbf import scenarios

    monkeypatch.setattr(scenarios, "_KEPLER_ITERATIONS", 2)
    _, path = _sat_path()
    with pytest.raises(PropagationError, match=r"did not converge at tau=1000003\.0"):
        path.state_sensitivity(1e6 + 3.0, 3.0, _FAR_HYPERBOLIC)
