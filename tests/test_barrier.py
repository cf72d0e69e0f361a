"""Predictive barrier value and its control-affine derivative."""

import math

import numpy as np
import pytest

from pcbf.barrier import (
    CASE_BOUNDARY_ROOT_SELF,
    CASE_END_ROOT_BEFORE,
    CASE_INTERIOR,
    PcbfContext,
    classify_case,
    derivative_affine,
    eval_hp,
    eval_pcbf,
    inner_product_monitor,
    maximizer_sensitivity,
    root_sensitivity_C1,
)
from pcbf.core import (
    ConstraintFunction,
    DegenerateMaximizerError,
    DynamicsModel,
    InternalConsistencyError,
    TangentialCrossingError,
    make_default_margin,
)
from pcbf.horizon import MaximizerEntry
from pcbf.paths import OdePath
from pcbf.simulate import build_scenario, make_context


class _StaticModel(DynamicsModel):
    n = 1
    m = 1

    def drift(self, t, x):
        return np.zeros_like(x)

    def input_matrix(self, t, x):
        return np.ones(np.asarray(x).shape[:-1] + (1, 1))


class _FuncConstraint(ConstraintFunction):
    """h(t, x) from explicit callables, for synthetic oracles."""

    def __init__(self, value, grad_t, grad_x, h_max=1.0):
        self._v, self._gt, self._gx = value, grad_t, grad_x
        self.h_max = h_max

    def value(self, t, x):
        return self._v(np.asarray(t, dtype=float), np.asarray(x, dtype=float))

    def grad_t(self, t, x):
        return float(self._gt(t, np.asarray(x, dtype=float)))

    def grad_x(self, t, x):
        return np.atleast_1d(self._gx(t, np.asarray(x, dtype=float)))


def _static_ctx(h, T=10.0, N=200, root_tol=1e-9):
    model = _StaticModel()
    path = OdePath(model, lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1,)),
                   step=0.05)
    margin = make_default_margin(h.h_max, T)
    return PcbfContext(model=model, path=path, h=h, margin=margin, T=T, N=N,
                       root_tol=root_tol)


def _fd_hstar_rate(ctx, model, t, x, u, d=1e-4):
    """Central finite difference of the barrier value along the flow under a
    held control input."""
    xdot = model.drift(t, x) + model.input_matrix(t, x) @ u
    hp = eval_pcbf(t + d, x + d * xdot, ctx).h_star
    hm = eval_pcbf(t - d, x - d * xdot, ctx).h_star
    return (hp - hm) / (2 * d)


def test_value_consistency_intersection():
    cfg, model, h, path, mu_law, x0 = _intersection()
    ctx = make_context(cfg, model, h, path)
    for t, x in [(0.0, x0), (3.0, np.array([-9.0, 1.0, -8.2, 1.1])),
                 (6.0, np.array([-4.0, 0.7, -5.0, 1.0]))]:
        val = eval_pcbf(t, x, ctx)
        assert val.h_vector[0] == val.h_star
        first = val.maximizers.first
        assert val.m_star_tau == first.tau
        assert val.root_eta == first.root_eta
        # recompute the definition directly
        recomputed = (val.grid.h_along(first.tau)
                      - ctx.margin.value(first.root_eta - t))
        assert abs(val.h_star - recomputed) <= 1e-10
        # eval_hp agrees at the maximizer
        assert eval_hp(first.tau, t, x, ctx, val.grid) == pytest.approx(
            val.h_star, abs=1e-10)


def _intersection():
    from pcbf.scenarios import default_config
    cfg = default_config("intersection_cross")
    model, h, path, mu_law, x0 = build_scenario(cfg)
    return cfg, model, h, path, mu_law, x0


def test_classify_case_table():
    mk = lambda **kw: MaximizerEntry(tau=5.0, h_value=0.1, at_start=False,
                                     at_end=False, root_eta=3.0,
                                     root_is_self=False, already_unsafe=False,
                                     **kw)
    assert classify_case(mk()) == CASE_INTERIOR
    assert classify_case(MaximizerEntry(10.0, 0.1, False, True, 3.0, False)) \
        == CASE_END_ROOT_BEFORE
    assert classify_case(MaximizerEntry(10.0, -0.1, False, True, 10.0, True)) \
        == CASE_BOUNDARY_ROOT_SELF
    assert classify_case(MaximizerEntry(0.0, 0.5, True, False, 0.0, False, True)) \
        == CASE_BOUNDARY_ROOT_SELF
    with pytest.raises(InternalConsistencyError):
        classify_case(MaximizerEntry(0.0, 0.5, True, False, 0.0, False, False))


def test_maximizer_sensitivity_quadratic_oracle():
    """h = -(tau - x)^2 under frozen dynamics: the maximizer time is x itself,
    so its state sensitivity is exactly one."""
    h = _FuncConstraint(
        value=lambda t, x: -((t - x[..., 0]) ** 2),
        grad_t=lambda t, x: -2.0 * (t - x[0]),
        grad_x=lambda t, x: np.array([2.0 * (t - x[0])]),
    )
    ctx = _static_ctx(h)
    x = np.array([4.0])
    grid = ctx.scan(0.0, x)
    sens = maximizer_sensitivity(4.0, 0.0, x, ctx, grid)
    assert sens[0] == pytest.approx(1.0, abs=1e-5)


def test_maximizer_sensitivity_flat_maximum_raises():
    h = _FuncConstraint(
        value=lambda t, x: np.full_like(np.asarray(t, dtype=float), -0.5),
        grad_t=lambda t, x: 0.0,
        grad_x=lambda t, x: np.zeros(1),
    )
    ctx = _static_ctx(h)
    x = np.zeros(1)
    grid = ctx.scan(0.0, x)
    with pytest.raises(DegenerateMaximizerError):
        maximizer_sensitivity(5.0, 0.0, x, ctx, grid)


def test_tangential_root_raises():
    """h = 0.1 (tau - 4)^3 crosses zero with zero slope at the root."""
    h = _FuncConstraint(
        value=lambda t, x: 0.1 * (np.asarray(t, dtype=float) - 4.0) ** 3,
        grad_t=lambda t, x: 0.3 * (t - 4.0) ** 2,
        grad_x=lambda t, x: np.zeros(1),
    )
    ctx = _static_ctx(h, root_tol=1e-12)
    x = np.zeros(1)
    grid = ctx.scan(0.0, x)
    from pcbf.horizon import find_root_before
    root = find_root_before(grid, 9.0, ctx.root_tol)
    assert root.eta == pytest.approx(4.0, abs=1e-3)
    with pytest.raises(TangentialCrossingError):
        root_sensitivity_C1(root.eta, 0.0, x, ctx, grid)


def test_root_sensitivity_matches_rescan(intersection_pcbf):
    """Perturb the first state coordinate and re-run the root search; the
    finite-difference root shift must match the analytic sensitivity."""
    log = intersection_pcbf.log
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, model, h, path)
    k = log.case.index(CASE_END_ROOT_BEFORE)
    t, x = float(log.t[k]), log.x[k]
    val = eval_pcbf(t, x, ctx)
    first = val.maximizers.first
    assert first.root_eta < first.tau
    C1 = root_sensitivity_C1(first.root_eta, t, x, ctx, val.grid)
    d = 1e-4
    for i in (0, 1):
        xp, xm = x.copy(), x.copy()
        xp[i] += d
        xm[i] -= d
        eta_p = eval_pcbf(t, xp, ctx).root_eta
        eta_m = eval_pcbf(t, xm, ctx).root_eta
        fd = (eta_p - eta_m) / (2 * d)
        assert C1[i] == pytest.approx(fd, rel=1e-3, abs=1e-6)


def test_already_unsafe_derivative_is_direct_h_rate():
    """With the cars overlapping and separating, the barrier equals h(t, x)
    and its derivative reduces to the instantaneous chain rule."""
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, model, h, path)
    x = np.array([0.0, 1.0, 0.05, 1.0])
    t = 1.0
    val = eval_pcbf(t, x, ctx)
    assert val.already_unsafe
    assert val.h_star == pytest.approx(float(h.value(t, x)), abs=1e-9)
    deriv = derivative_affine(val.maximizers.first, t, x, ctx, val.grid)
    mu = path.nominal_control(t, x)
    analytic = deriv.constant + float(deriv.row @ (mu - mu))
    fd = _fd_hstar_rate(ctx, model, t, x, mu)
    assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("case", [CASE_INTERIOR, CASE_END_ROOT_BEFORE,
                                  CASE_BOUNDARY_ROOT_SELF])
def test_derivative_matches_finite_difference(case, intersection_pcbf):
    """Spot check of each structural case against the finite-difference
    oracle; the acceptance suite covers 50+ states per case."""
    log = intersection_pcbf.log
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, model, h, path)
    n = len(log.t)
    checked = 0
    for k in range(n):
        if checked >= 5:
            break
        if log.case[k] != case:
            continue
        if any(log.case[j] != case for j in range(max(k - 2, 0), min(k + 3, n))):
            continue
        t, x, u = float(log.t[k]), log.x[k], log.u[k]
        val = eval_pcbf(t, x, ctx)
        if val.maximizers.first.already_unsafe:
            continue
        deriv = derivative_affine(val.maximizers.first, t, x, ctx, val.grid)
        if deriv.diagnostics:
            continue
        mu = path.nominal_control(t, x)
        analytic = deriv.constant + float(deriv.row @ (u - mu))
        fd = _fd_hstar_rate(ctx, model, t, x, u)
        assert abs(analytic - fd) <= max(1e-3, 1e-2 * abs(fd))
        checked += 1
    assert checked > 0


def test_inner_product_monitor_self_root():
    e = MaximizerEntry(4.0, -0.2, False, False, 4.0, True)
    assert inner_product_monitor(e, None, None)


def test_inner_product_monitor_reads_derivative_evaluations(intersection_pcbf):
    """The monitor's verdict is taken from the path evaluations of the
    derivative step, which evaluates the maximizer and its root once each;
    it equals the inner product of freshly evaluated gradients."""
    log = intersection_pcbf.log
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, model, h, path)
    checked = 0
    for k in range(0, len(log.t), 3):
        t, x = float(log.t[k]), log.x[k]
        val = eval_pcbf(t, x, ctx)
        grid = val.grid
        for entry in val.maximizers.entries:
            if entry.root_is_self or entry.already_unsafe:
                continue
            seen = []
            evaluation = grid.evaluation
            grid.evaluation = lambda tau: seen.append(tau) or evaluation(tau)
            try:
                deriv = derivative_affine(entry, t, x, ctx, grid)
            except TangentialCrossingError:
                continue
            finally:
                del grid.evaluation
            assert sorted(seen) == sorted([entry.tau, entry.root_eta])
            gx_tau = h.grad_x(entry.tau, grid.evaluation(entry.tau).state)
            gx_eta = h.grad_x(entry.root_eta, grid.evaluation(entry.root_eta).state)
            assert deriv.aligned == (float(np.dot(gx_tau, gx_eta)) >= 0.0)
            assert inner_product_monitor(entry, gx_tau, gx_eta) == deriv.aligned
            checked += 1
    assert checked >= 20


def test_inner_product_monitor_flags_opposed_gradients():
    """h = 1 - (tau - 5)^2 on a frozen state peaks at 5 after its root at 4;
    with grad_x h = tau - 4.5 the gradients there point apart."""
    h = _FuncConstraint(
        value=lambda t, x: 1.0 - (t - 5.0) ** 2 + 0.0 * x[..., 0],
        grad_t=lambda t, x: -2.0 * (t - 5.0),
        grad_x=lambda t, x: np.array([t - 4.5]),
    )
    ctx = _static_ctx(h)
    x = np.zeros(1)
    val = eval_pcbf(0.0, x, ctx)
    entry = val.maximizers.first
    assert entry.tau == pytest.approx(5.0, abs=1e-5)
    assert entry.root_eta == pytest.approx(4.0, abs=1e-6)
    assert not derivative_affine(entry, 0.0, x, ctx, val.grid).aligned
