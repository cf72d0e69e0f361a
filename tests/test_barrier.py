"""Predictive barrier value and its control-affine derivative."""

import numpy as np
import pytest

from pcbf import barrier
from pcbf.barrier import (
    CASE_BOUNDARY_ROOT_SELF,
    CASE_END_ROOT_BEFORE,
    CASE_INTERIOR,
    AffineDerivative,
    PcbfContext,
    classify_case,
    derivative_affine,
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
from pcbf.horizon import REFINE_TOL, ROOT_TOL, MaximizerEntry, find_maximizers, find_root_before
from pcbf.paths import OdePath
from pcbf.simulate import build_scenario, make_context


class _StaticModel(DynamicsModel):
    def drift(self, t, x):
        return np.zeros_like(x)

    def input_matrix(self, t, x):
        return np.ones(np.asarray(x).shape[:-1] + (1, 1))


class _FuncConstraint(ConstraintFunction):
    """h(t, x) from explicit callables, for synthetic oracles."""

    def __init__(self, value, dh_dt, grad_x, h_max=1.0):
        self._v, self._dt, self._gx = value, dh_dt, grad_x
        self.h_max = h_max

    def value(self, t, x):
        return self._v(np.asarray(t, dtype=float), np.asarray(x, dtype=float))

    def partials(self, t, x):
        x = np.asarray(x, dtype=float)
        return float(self._dt(t, x)), np.atleast_1d(self._gx(t, x))


def _static_ctx(h, T=10.0, N=200):
    # frozen dynamics: dp/dx is the identity, so the input response is g itself
    path = OdePath(_StaticModel(), lambda t, x: np.zeros(np.asarray(x).shape[:-1] + (1,)),
                   step=0.05, sensitivity=lambda tau, t, x: _StaticModel().input_matrix(t, x))
    margin = make_default_margin(h.h_max, T)
    return PcbfContext(path=path, h=h, margin=margin, T=T, N=N)


def _fd_hstar_rate(ctx, model, t, x, u, d=1e-4):
    """Central finite difference of the barrier value along the flow under a
    held control input."""
    xdot = model.drift(t, x) + model.input_matrix(t, x) @ u
    hp = eval_pcbf(t + d, x + d * xdot, ctx).h_star
    hm = eval_pcbf(t - d, x - d * xdot, ctx).h_star
    return (hp - hm) / (2 * d)


def _eval_hp(tau, t, ctx, grid):
    """Predicted safety at horizon time tau: h along the path minus the
    margin in the time until the path first becomes unsafe."""
    h_tau = float(grid.h_many([tau])[0])
    eta, _ = find_root_before(grid, tau, h_tau, ROOT_TOL)
    return h_tau - ctx.margin.value(eta - t)


def test_value_consistency_intersection():
    cfg, model, h, path, mu_law, x0 = _intersection()
    ctx = make_context(cfg, h, path)
    for t, x in [(0.0, x0), (3.0, np.array([-9.0, 1.0, -8.2, 1.1])),
                 (6.0, np.array([-4.0, 0.7, -5.0, 1.0]))]:
        val = eval_pcbf(t, x, ctx)
        assert val.h_vector[0] == val.h_star
        first = val.maximizers.first
        assert val.case_label == classify_case(first)
        # recompute the definition directly
        recomputed = (val.grid.h_many([first.tau])[0]
                      - ctx.margin.value(first.root_eta - t))
        assert abs(val.h_star - recomputed) <= 1e-10
        # the predicted safety at the maximizer agrees
        assert _eval_hp(first.tau, t, ctx, val.grid) == pytest.approx(
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
        dh_dt=lambda t, x: -2.0 * (t - x[0]),
        grad_x=lambda t, x: np.array([2.0 * (t - x[0])]),
    )
    ctx = _static_ctx(h)
    x = np.array([4.0])
    grid = ctx.scan(0.0, x)
    sens = maximizer_sensitivity(4.0, ctx, grid)()
    assert sens[0] == pytest.approx(1.0, abs=1e-5)


def test_maximizer_sensitivity_flat_maximum_raises():
    h = _FuncConstraint(
        value=lambda t, x: np.full_like(np.asarray(t, dtype=float), -0.5),
        dh_dt=lambda t, x: 0.0,
        grad_x=lambda t, x: np.zeros(1),
    )
    ctx = _static_ctx(h)
    x = np.zeros(1)
    grid = ctx.scan(0.0, x)
    with pytest.raises(DegenerateMaximizerError):
        maximizer_sensitivity(5.0, ctx, grid)


def test_tangential_root_raises():
    """h = 0.1 (tau - 4)^3 crosses zero with zero slope at the root."""
    h = _FuncConstraint(
        value=lambda t, x: 0.1 * (np.asarray(t, dtype=float) - 4.0) ** 3,
        dh_dt=lambda t, x: 0.3 * (t - 4.0) ** 2,
        grad_x=lambda t, x: np.zeros(1),
    )
    ctx = _static_ctx(h)
    x = np.zeros(1)
    grid = ctx.scan(0.0, x)
    eta, _ = find_root_before(grid, 9.0, grid.h_many([9.0])[0], 1e-12)
    assert eta == pytest.approx(4.0, abs=1e-3)
    with pytest.raises(TangentialCrossingError):
        root_sensitivity_C1(eta, grid)


def test_root_sensitivity_matches_rescan(intersection_pcbf):
    """Perturb the state along each input direction (column of g) and re-run
    the root search; the finite-difference root shift must match the
    analytic sensitivity."""
    log = intersection_pcbf.log
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, h, path)
    k = log.case.index(CASE_END_ROOT_BEFORE)
    t, x = float(log.t[k]), log.x[k]
    val = eval_pcbf(t, x, ctx)
    first = val.maximizers.first
    assert first.root_eta < first.tau
    C1 = root_sensitivity_C1(first.root_eta, val.grid)[0]()
    d = 1e-4
    for j, g_j in enumerate(model.input_matrix(t, x).T):
        eta_p = eval_pcbf(t, x + d * g_j, ctx).maximizers.first.root_eta
        eta_m = eval_pcbf(t, x - d * g_j, ctx).maximizers.first.root_eta
        fd = (eta_p - eta_m) / (2 * d)
        assert C1[j] == pytest.approx(fd, rel=1e-3, abs=1e-6)


def test_already_unsafe_derivative_is_direct_h_rate():
    """With the cars overlapping and separating, the barrier equals h(t, x)
    and its derivative reduces to the instantaneous chain rule."""
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, h, path)
    x = np.array([0.0, 1.0, 0.05, 1.0])
    t = 1.0
    val = eval_pcbf(t, x, ctx)
    assert val.maximizers.first.already_unsafe
    assert val.h_star == pytest.approx(float(h.value(t, x)), abs=1e-9)
    deriv = derivative_affine(val.maximizers.first, ctx, val.grid)
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
    ctx = make_context(cfg, h, path)
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
        deriv = derivative_affine(val.maximizers.first, ctx, val.grid)
        if deriv.diagnostics:
            continue
        mu = path.nominal_control(t, x)
        analytic = deriv.constant + float(deriv.row @ (u - mu))
        fd = _fd_hstar_rate(ctx, model, t, x, u)
        assert abs(analytic - fd) <= max(1e-3, 1e-2 * abs(fd))
        checked += 1
    assert checked > 0


def test_inner_product_monitor_self_root(intersection_pcbf, monkeypatch):
    """An entry that is its own root needs no monitor: the derivative step
    reports it aligned without calling it, at the horizon start and in the
    boundary formula at the horizon end."""
    log = intersection_pcbf.log
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, h, path)

    def monitor(grad_tau, grad_eta):
        raise AssertionError("monitor called for a self-root entry")

    monkeypatch.setattr(barrier, "inner_product_monitor", monitor)
    seen = set()
    for k in range(0, len(log.t), 10):
        val = eval_pcbf(float(log.t[k]), log.x[k], ctx)
        for entry in val.maximizers.entries:
            if entry.root_is_self:
                deriv = derivative_affine(entry, ctx, val.grid, case=CASE_BOUNDARY_ROOT_SELF)
                assert deriv.aligned
                seen.add(entry.at_start)
    assert seen == {True, False}


def test_inner_product_monitor_reads_derivative_evaluations(intersection_pcbf):
    """The monitor's verdict is taken from the path evaluations of the
    derivative step, which evaluates the maximizer and its root once each;
    it equals the inner product of freshly evaluated gradients."""
    log = intersection_pcbf.log
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, h, path)
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
            grid.evaluation = lambda tau, state=None: (seen.append(tau)
                                                       or evaluation(tau, state))
            try:
                deriv = derivative_affine(entry, ctx, grid)
            except TangentialCrossingError:
                continue
            finally:
                del grid.evaluation
            assert sorted(seen) == sorted([entry.tau, entry.root_eta])
            gx_tau = h.partials(entry.tau, grid.evaluation(entry.tau).state)[1]
            gx_eta = h.partials(entry.root_eta, grid.evaluation(entry.root_eta).state)[1]
            assert deriv.aligned == (float(np.dot(gx_tau, gx_eta)) >= 0.0)
            assert inner_product_monitor(gx_tau, gx_eta) == deriv.aligned
            checked += 1
    assert checked >= 20


def test_inner_product_monitor_flags_opposed_gradients():
    """h = 1 - (tau - 5)^2 on a frozen state peaks at 5 after its root at 4;
    with grad_x h = tau - 4.5 the gradients there point apart."""
    h = _FuncConstraint(
        value=lambda t, x: 1.0 - (t - 5.0) ** 2 + 0.0 * x[..., 0],
        dh_dt=lambda t, x: -2.0 * (t - 5.0),
        grad_x=lambda t, x: np.array([t - 4.5]),
    )
    ctx = _static_ctx(h)
    x = np.zeros(1)
    val = eval_pcbf(0.0, x, ctx)
    entry = val.maximizers.first
    assert entry.tau == pytest.approx(5.0, abs=1e-5)
    assert entry.root_eta == pytest.approx(4.0, abs=1e-6)
    assert not derivative_affine(entry, ctx, val.grid).aligned


# The derivative functions as they were before they shared one path-
# evaluation record, kept as oracles on the path's input response
# (grid.sensitivity is dp/dx g): the library must return their bits.

def _parent_evaluation(grid, tau):
    state = grid.path.evaluate_many([tau], grid.t, grid.x)[0]
    dp_dtau = grid.path.field(tau, state)
    dh_dt, grad_x = grid.h.partials(tau, state)
    dh_dtau = float(dh_dt + grad_x @ dp_dtau)
    return state, dp_dtau, dh_dtau


def _parent_root_sensitivity_C1(eta, ctx, grid):
    state, dp_dtau, _ = _parent_evaluation(grid, eta)
    dh_dt, row_h = ctx.h.partials(eta, state)
    advect = float(row_h @ dp_dtau)
    bracket = float(dh_dt) + advect
    if abs(bracket) < 1e-8 * (1.0 + abs(advect)):
        raise TangentialCrossingError(
            f"root at eta={eta} is tangential (dh/dtau={bracket:.3e})"
        )
    return (lambda: -(row_h @ grid.sensitivity(eta)) / bracket), row_h


def _parent_maximizer_sensitivity(tau, ctx, grid):
    t, x = grid.t, grid.x
    step = ctx.grid_step
    lo = max(tau - step, t)
    hi = min(tau + step, t + ctx.T)
    dF_dtau = (_parent_evaluation(grid, hi)[2] - _parent_evaluation(grid, lo)[2]) / (hi - lo)
    state, _, dh_dtau = _parent_evaluation(grid, tau)
    if abs(dF_dtau) < 1e-8 * (1.0 + abs(dh_dtau)):
        raise DegenerateMaximizerError(
            f"flat maximum at tau={tau}: dF/dtau={dF_dtau:.3e}"
        )

    def F_of_state(y):
        dh_dt, grad_x = ctx.h.partials(tau, y)
        return float(dh_dt + grad_x @ ctx.path.field(tau, y))

    def sensitivity():
        dp_du = grid.sensitivity(tau)
        dF_du = np.empty(dp_du.shape[1])
        for j in range(dp_du.shape[1]):
            d = 1e-6
            dp = dp_du[:, j] * d
            dF_du[j] = (F_of_state(state + dp) - F_of_state(state - dp)) / (2.0 * d)
        return -dF_du / dF_dtau

    return sensitivity


def _parent_inner_product_monitor(entry, grad_tau, grad_eta):
    if entry.root_is_self:
        return True
    return float(np.dot(grad_tau, grad_eta)) >= 0.0


def _parent_derivative_affine(entry, ctx, grid, case=None):
    if case is None:
        case = classify_case(entry)
    t, x = grid.t, grid.x
    mprime = ctx.margin.derivative

    def grad_at(tau):
        return ctx.h.partials(tau, _parent_evaluation(grid, tau)[0])[1]

    if entry.already_unsafe or (case == CASE_BOUNDARY_ROOT_SELF and entry.at_start):
        dh_dt, row_h = ctx.h.partials(t, x)
        c0 = float(dh_dt + row_h @ ctx.path.field(t, x))
        row = row_h @ grid.sensitivity(t)
        aligned = entry.root_is_self or _parent_inner_product_monitor(
            entry, grad_at(entry.tau), row_h)
        return AffineDerivative(constant=c0, build_row=lambda: row, aligned=aligned)

    state, _, dh_dtau = _parent_evaluation(grid, entry.tau)
    row_h = ctx.h.partials(entry.tau, state)[1]

    def row_h_phi():
        return row_h @ grid.sensitivity(entry.tau)

    if case == CASE_BOUNDARY_ROOT_SELF:
        dtau_dt = 1.0 if dh_dtau > 0 else 0.0
        c0 = dh_dtau * dtau_dt - mprime(ctx.T) * (dtau_dt - 1.0)
        aligned = entry.root_is_self or _parent_inner_product_monitor(
            entry, row_h, grad_at(entry.root_eta))
        return AffineDerivative(constant=float(c0), aligned=aligned,
                                build_row=row_h_phi)

    lam = entry.root_eta - t
    diagnostics = None
    aligned = True
    if case == CASE_INTERIOR and entry.root_is_self:
        try:
            C = _parent_maximizer_sensitivity(entry.tau, ctx, grid)
        except DegenerateMaximizerError as exc:
            C = lambda: np.zeros(row_h_phi().shape)
            diagnostics = f"flat-maximum fallback: {exc}"
    else:
        C, row_h_eta = _parent_root_sensitivity_C1(entry.root_eta, ctx, grid)
        aligned = _parent_inner_product_monitor(entry, row_h, row_h_eta)

    def row():
        return row_h_phi() - mprime(lam) * C()

    if case == CASE_END_ROOT_BEFORE:
        return AffineDerivative(constant=float(dh_dtau + mprime(lam)),
                                build_row=row, aligned=aligned)
    return AffineDerivative(constant=mprime(lam), build_row=row, diagnostics=diagnostics,
                            aligned=aligned, row_must_be_nonzero=not entry.root_is_self)


def _held_cases(entry):
    """The case= values PcbfController._held_case can pass with this entry:
    its own case, or the previous one held across a boundary."""
    raw = classify_case(entry)
    if entry.at_start or entry.already_unsafe:
        return [raw]
    cases = {raw, CASE_BOUNDARY_ROOT_SELF}  # held near the horizon end or h = 0
    if raw != CASE_INTERIOR or not entry.root_is_self:
        cases.add(CASE_INTERIOR)  # held near the horizon end
    if raw == CASE_INTERIOR and not entry.root_is_self:
        cases.add(CASE_END_ROOT_BEFORE)  # needs an earlier root
    return sorted(cases)


def _outcome(derive):
    """(constant, aligned, diagnostics, row, diagnostics after the row), or
    the error raised, as (type, message)."""
    try:
        d = derive()
    except (TangentialCrossingError, DegenerateMaximizerError) as exc:
        return type(exc), str(exc)
    before = d.diagnostics
    return d.constant, d.aligned, before, d.row, d.diagnostics


def _assert_matches_parent(entry, ctx, grid):
    """derivative_affine gives the parent's bits, or its error, under each
    case the hysteresis can hold; returns the outcomes compared."""
    outcomes = []
    for case in _held_cases(entry):
        got = _outcome(lambda: derivative_affine(entry, ctx, grid, case=case))
        want = _outcome(lambda: _parent_derivative_affine(entry, ctx, grid, case))
        assert got[:3] == want[:3]
        if len(want) == 5:
            assert np.array_equal(got[3], want[3])
            assert got[4] == want[4]
        outcomes.append((case, want))
    return outcomes


@pytest.mark.parametrize("fixture", ["intersection_pcbf", "satellite_pcbf"])
def test_derivative_matches_parent_bit_for_bit(fixture, request):
    """Every entry at every 10th logged state, under each case the
    hysteresis can hold."""
    log = request.getfixturevalue(fixture).log
    model, h, path, mu_law, _ = build_scenario(log.cfg)
    ctx = make_context(log.cfg, h, path)
    seen = set()
    for k in range(0, len(log.t), 10):
        val = eval_pcbf(float(log.t[k]), log.x[k], ctx)
        for entry in val.maximizers.entries:
            for case, _ in _assert_matches_parent(entry, ctx, val.grid):
                seen.add((classify_case(entry), case, bool(entry.root_is_self)))
    # the interior formula on an end maximizer that is its own root
    assert (CASE_BOUNDARY_ROOT_SELF, CASE_INTERIOR, True) in seen
    assert len(seen) >= 8


def test_derivative_matches_parent_where_runs_rarely_go():
    """What the pinned runs do not reach: an already unsafe state (the
    monitor at the start), a flat interior maximizer (the fallback), a
    tangential root (the parent's error and message) and opposed gradients
    (the monitor's verdict)."""
    cfg, model, h, path, mu_law, _ = _intersection()
    ctx = make_context(cfg, h, path)
    val = eval_pcbf(1.0, np.array([0.0, 1.0, 0.05, 1.0]), ctx)
    assert val.maximizers.first.already_unsafe
    for entry in val.maximizers.entries:
        _assert_matches_parent(entry, ctx, val.grid)

    flat = _FuncConstraint(
        value=lambda t, x: np.full_like(np.asarray(t, dtype=float), -0.5),
        dh_dt=lambda t, x: 0.0,
        grad_x=lambda t, x: np.zeros(1),
    )
    tangential = _FuncConstraint(
        value=lambda t, x: 0.1 * (np.asarray(t, dtype=float) - 4.0) ** 3,
        dh_dt=lambda t, x: 0.3 * (t - 4.0) ** 2,
        grad_x=lambda t, x: np.zeros(1),
    )
    opposed = _FuncConstraint(
        value=lambda t, x: 1.0 - (t - 5.0) ** 2 + 0.0 * x[..., 0],
        dh_dt=lambda t, x: -2.0 * (t - 5.0),
        grad_x=lambda t, x: np.array([t - 4.5]),
    )
    outcomes = []
    for h, root_tol in [(flat, ROOT_TOL), (tangential, 1e-12), (opposed, ROOT_TOL)]:
        ctx = _static_ctx(h)
        grid = ctx.scan(0.0, np.zeros(1))
        for entry in find_maximizers(grid, REFINE_TOL, root_tol).entries + [
                MaximizerEntry(5.0, -0.5, False, False, 5.0, True),
                MaximizerEntry(9.0, 0.5, False, False, 4.0, False),
                MaximizerEntry(10.0, 0.5, False, True, 4.0, False)]:
            outcomes += [want for _, want in _assert_matches_parent(entry, ctx, grid)]
    assert any(want[0] is TangentialCrossingError for want in outcomes)
    assert any(len(want) == 5 and want[2] and "flat-maximum" in want[2] for want in outcomes)
    assert any(len(want) == 5 and not want[1] for want in outcomes)
