"""Margin and class-K function construction."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pcbf.core import (
    ConfigurationError,
    finite_diff_jacobian,
    make_compatible_alpha,
    margin,
    margin_slope,
)


def test_margin_values():
    assert margin(0.0, 1.0, 10.0) == 0.0
    assert margin(10.0, 1.0, 10.0) == pytest.approx(1.0)
    assert margin(5.0, 1.0, 10.0) == pytest.approx(0.25)
    assert margin_slope(10.0, 1.0, 10.0) == pytest.approx(0.2)
    assert margin_slope(0.0, 1.0, 10.0) == 0.0


def test_margin_rejects_bad_args():
    """The margin's scale and horizon are checked where its class-K
    companion is built."""
    with pytest.raises(ConfigurationError, match="h_max must be positive"):
        make_compatible_alpha(0.0, 10.0, 1.0)
    with pytest.raises(ConfigurationError, match="T must be positive"):
        make_compatible_alpha(1.0, -1.0, 1.0)


def test_alpha_rejects_negative_gamma():
    with pytest.raises(ConfigurationError):
        make_compatible_alpha(1.0, 10.0, -1.0)
    with pytest.raises(ConfigurationError, match="gamma"):
        make_compatible_alpha(1.0, 10.0, float("nan"))


@given(h_max=st.floats(1e-3, 1e3), T=st.floats(1e-2, 1e3),
       gamma=st.floats(0.0, 100.0), frac=st.floats(1e-6, 1.0))
def test_alpha_dominates_margin_slope(h_max, T, gamma, frac):
    """alpha(m(lam)) >= m'(lam) on (0, T] and alpha(m(T)) >= gamma, where
    m(T) is h_max exactly, the value alpha's linear slope divides by."""
    alpha = make_compatible_alpha(h_max, T, gamma)
    lam = frac * T
    assert alpha(margin(lam, h_max, T)) >= margin_slope(lam, h_max, T) * (1 - 1e-12)
    assert margin(T, h_max, T) == h_max
    assert alpha(margin(T, h_max, T)) >= gamma * (1 - 1e-12)


@given(h_max=st.floats(1e-3, 1e3), T=st.floats(1e-2, 1e3),
       gamma=st.floats(0.0, 100.0),
       s1=st.floats(-10.0, 10.0), s2=st.floats(-10.0, 10.0))
@example(h_max=0.5, T=1.0, gamma=0.0, s1=-5e-324, s2=0.0)  # h_max |s1| underflows to 0
@example(h_max=1.625, T=1.0, gamma=0.0, s1=-10.0, s2=-9.999999999999998)  # one ulp, one value
def test_alpha_class_k(h_max, T, gamma, s1, s2):
    """Odd, zero at zero, with the sign of its argument, and increasing:
    non-decreasing on every pair of floats, and strictly increasing where
    the two have one sign, are at least 1e-300 in size and differ by more
    than 1e-12 of the larger.

    Closer floats may share a value: the root branch has slope
    (1/T) sqrt(h_max / |s|), 0.40 at h_max = 1.625, T = 1, s = -10, so a
    correctly rounded root maps neighbours there to one float.  A relative
    gap of 1e-12 moves the root branch by 5e-13 and the linear one by 1e-12
    of their values, far more than alpha's few roundings (2.2e-16 each);
    the size bound keeps h_max |s| a normal float, whose roundings are
    relative."""
    alpha = make_compatible_alpha(h_max, T, gamma)
    assert alpha(0.0) == 0.0
    assert alpha(-s1) == pytest.approx(-alpha(s1), abs=1e-15)
    for s in (s1, s2):
        assert np.sign(alpha(s)) == np.sign(s)
    lo, hi = sorted((s1, s2))
    assert alpha(lo) <= alpha(hi)
    if ((lo > 0) == (hi > 0) and min(abs(lo), abs(hi)) >= 1e-300
            and hi - lo > 1e-12 * max(abs(lo), abs(hi))):
        assert alpha(lo) < alpha(hi)


def test_margin_monotone_nondecreasing():
    lams = np.linspace(0.0, 7.0, 200)
    vals = [margin(l, 2.5, 7.0) for l in lams]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # slope consistent with value
    for lam in (0.5, 3.0, 6.9):
        fd = (margin(lam + 1e-6, 2.5, 7.0) - margin(lam - 1e-6, 2.5, 7.0)) / 2e-6
        assert margin_slope(lam, 2.5, 7.0) == pytest.approx(fd, rel=1e-6)


def test_finite_diff_jacobian_quadratic():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])

    def func(x):
        return A @ x + np.array([x[0] ** 2, x[0] * x[1]])

    x = np.array([0.3, -0.7])
    jac = finite_diff_jacobian(func, x)
    exact = A + np.array([[2 * x[0], 0.0], [x[1], x[0]]])
    assert np.allclose(jac, exact, atol=1e-8)


def _parent_finite_diff_jacobian(func, x, base_step=1e-6, rel_step=1e-7):
    """finite_diff_jacobian as it was before it lost its unused base value
    and step options (oracle)."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(func(x), dtype=float))
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        d = max(base_step, rel_step * abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += d
        xm[i] -= d
        jac[:, i] = (np.atleast_1d(func(xp)) - np.atleast_1d(func(xm))) / (2.0 * d)
    return jac


def test_finite_diff_jacobian_is_bit_identical_to_its_parent_form():
    rng = np.random.default_rng(5)

    def scalar(x):
        return float(np.sin(x[0]) * x[-1] + x @ x)

    def vector(x):
        return np.array([x[0] * x[1], np.exp(-x[2] ** 2), np.sqrt(x @ x)])

    for scale in (1e-3, 1.0, 1e2, 1e4):  # steps from base (1e-6) to relative
        x = rng.uniform(-scale, scale, 3)
        for func, k in ((scalar, 1), (vector, 3)):
            got = finite_diff_jacobian(func, x)
            assert got.shape == (k, 3)
            assert np.array_equal(got, _parent_finite_diff_jacobian(func, x))
