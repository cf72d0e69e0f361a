"""Horizon scan, maximizer extraction, and root search."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcbf.core import ConfigurationError, ConstraintFunction, DynamicsModel
from pcbf.horizon import find_maximizers, find_root_before, scan
from pcbf.paths import AnalyticCarPath, OdePath
from pcbf.scenarios import SeparationConstraint, StraightLane


class _StaticModel(DynamicsModel):
    """State never moves; h then depends on time only."""

    n = 1
    m = 1

    def drift(self, t, x):
        return np.zeros_like(x)

    def input_matrix(self, t, x):
        return np.ones(np.asarray(x).shape[:-1] + (1, 1))


class _TimeOnlyConstraint(ConstraintFunction):
    def __init__(self, func, dfunc, h_max=1.0):
        self.func = func
        self.dfunc = dfunc
        self.h_max = h_max

    def value(self, t, x):
        return self.func(np.asarray(t, dtype=float))

    def grad_t(self, t, x):
        return float(self.dfunc(t))

    def grad_x(self, t, x):
        return np.zeros(1)


def _static_path():
    return OdePath(_StaticModel(), lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1,)),
                   step=0.05)


def _scan_time_only(func, dfunc, T=10.0, N=200):
    h = _TimeOnlyConstraint(func, dfunc)
    grid = scan(_static_path(), h, 0.0, np.zeros(1), T, N)
    return grid


def test_scan_rejects_bad_arguments():
    h = _TimeOnlyConstraint(np.sin, np.cos)
    with pytest.raises(ConfigurationError):
        scan(_static_path(), h, 0.0, np.zeros(1), -1.0, 200)
    with pytest.raises(ConfigurationError):
        scan(_static_path(), h, 0.0, np.zeros(1), 10.0, 10)


def test_scan_grid_shape():
    grid = _scan_time_only(np.sin, np.cos)
    assert grid.taus[0] == 0.0
    assert grid.taus[-1] == 10.0
    assert len(grid.taus) == 201
    assert np.all(np.diff(grid.taus) > 0)
    assert np.array_equal(grid.states[0], np.zeros(1))


def test_sine_maximizers_refined():
    """Local maxima of sin on [0, 10] sit at pi/2 and pi/2 + 2 pi."""
    grid = _scan_time_only(np.sin, np.cos)
    mset = find_maximizers(grid, refine_tol=1e-8, root_tol=1e-9)
    interior = [e for e in mset.entries if not (e.at_start or e.at_end)]
    assert len(interior) == 2
    assert interior[0].tau == pytest.approx(math.pi / 2, abs=1e-6)
    assert interior[1].tau == pytest.approx(math.pi / 2 + 2 * math.pi, abs=1e-6)
    # sin never goes negative before the first peak, so the run is flagged
    # unsafe from the start; the second peak has an upcrossing root at 2 pi
    assert interior[0].already_unsafe
    assert not interior[1].already_unsafe
    assert interior[1].root_eta == pytest.approx(2 * math.pi, abs=1e-6)


def test_increasing_h_gives_end_maximizer_with_root():
    grid = _scan_time_only(lambda t: t / 10.0 - 0.5, lambda t: 0.1)
    mset = find_maximizers(grid, refine_tol=1e-8, root_tol=1e-12)
    assert len(mset.entries) == 1
    e = mset.first
    assert e.at_end and not e.at_start
    assert e.h_value == pytest.approx(0.5)
    assert not e.root_is_self and not e.already_unsafe
    assert e.root_eta == pytest.approx(5.0, abs=1e-9)


def test_decreasing_positive_h_is_unsafe_from_start():
    grid = _scan_time_only(lambda t: 0.5 - t / 10.0, lambda t: -0.1)
    mset = find_maximizers(grid, refine_tol=1e-8, root_tol=1e-9)
    e = mset.first
    assert e.at_start and e.already_unsafe and e.root_eta == 0.0


def test_safe_maximizer_is_own_root():
    grid = _scan_time_only(lambda t: -1.0 - (t - 4.0) ** 2 / 10.0,
                           lambda t: -(t - 4.0) / 5.0)
    mset = find_maximizers(grid, refine_tol=1e-8, root_tol=1e-9)
    e = mset.first
    assert e.root_is_self
    assert e.root_eta == e.tau
    assert e.tau == pytest.approx(4.0, abs=1e-6)


def test_plateau_contributes_first_time_only():
    grid = _scan_time_only(lambda t: np.full_like(np.asarray(t, dtype=float), -0.3),
                           lambda t: 0.0)
    mset = find_maximizers(grid, refine_tol=1e-8, root_tol=1e-9)
    assert len(mset.entries) >= 1
    assert mset.first.tau == 0.0
    assert mset.first.at_start


@settings(max_examples=25, deadline=None)
@given(freq=st.floats(0.3, 2.0), phase=st.floats(0.0, 6.28),
       offset=st.floats(-0.8, 0.8))
def test_entry_invariants_on_sinusoids(freq, phase, offset):
    func = lambda t: np.sin(freq * np.asarray(t, dtype=float) + phase) * 0.5 + offset
    dfunc = lambda t: 0.5 * freq * np.cos(freq * t + phase)
    grid = _scan_time_only(func, dfunc)
    mset = find_maximizers(grid, refine_tol=1e-7, root_tol=1e-9)
    assert len(mset.entries) >= 1
    taus = [e.tau for e in mset.entries]
    assert taus == sorted(taus)
    for e in mset.entries:
        assert 0.0 <= e.root_eta <= e.tau + 1e-12
        if e.h_value > 0 and not e.already_unsafe:
            assert e.root_eta < e.tau
            assert abs(grid.h_along(e.root_eta)) <= 1e-6
        if e.h_value <= 0:
            assert e.root_is_self and e.root_eta == e.tau


def test_root_before_safe_time_is_identity():
    grid = _scan_time_only(np.sin, np.cos)
    res = find_root_before(grid, 4.0, 1e-9)  # sin(4) < 0
    assert res.eta == 4.0 and not res.already_unsafe


def _car_grid(N):
    lane1, lane2 = StraightLane((1.0, 0.0)), StraightLane((0.0, 1.0))
    h = SeparationConstraint(lane1, lane2, rho=1.0)
    path = AnalyticCarPath(k=1.0, v=np.array([1.0, 1.0]))
    x = np.array([-12.0, 1.0, -11.5, 1.0])
    return scan(path, h, 0.0, x, 10.0, N)


def test_grid_refinement_consistency():
    """Refined maximizer times should not depend on the sampling density."""
    coarse = find_maximizers(_car_grid(100), refine_tol=1e-8, root_tol=1e-9)
    fine = find_maximizers(_car_grid(1000), refine_tol=1e-8, root_tol=1e-9)
    assert len(coarse.entries) == len(fine.entries)
    for a, b in zip(coarse.entries, fine.entries):
        assert a.tau == pytest.approx(b.tau, abs=1e-4)


def test_two_level_scan_inserts_dense_samples():
    func = lambda t: -0.2 - 0.1 * np.cos(np.asarray(t, dtype=float))
    h = _TimeOnlyConstraint(func, lambda t: 0.1 * math.sin(t))
    base = scan(_static_path(), h, 0.0, np.zeros(1), 10.0, 200)
    dense = scan(_static_path(), h, 0.0, np.zeros(1), 10.0, 200, two_level=True)
    assert len(dense.taus) > len(base.taus)
    assert dense.taus[0] == 0.0 and dense.taus[-1] == 10.0
    assert np.all(np.diff(dense.taus) > 0)
    assert np.allclose(dense.h_values, func(dense.taus))
