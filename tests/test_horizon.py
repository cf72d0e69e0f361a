"""Horizon scan, maximizer extraction, and root search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcbf import horizon
from pcbf.core import ConfigurationError, ConstraintFunction, DynamicsModel, rk4
from pcbf.horizon import (REFINE_TOL, ROOT_TOL, HorizonGrid, MaximizerEntry, MaximizerSet,
                          _bisect_root, _golden_max, find_maximizers, find_root_before,
                          scan)
from pcbf.paths import AnalyticCarPath, OdePath
from pcbf.scenarios import LeftTurnLane, SeparationConstraint, StraightLane


class _StaticModel(DynamicsModel):
    """State never moves; h then depends on time only."""


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

    def partials(self, t, x):
        return float(self.dfunc(t)), np.zeros(1)


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


@pytest.mark.parametrize("build", [
    lambda: scan(_static_path(), _TimeOnlyConstraint(np.sin, np.cos), 0.0, np.zeros(1),
                 math.nan, 200),
    lambda: scan(_static_path(), _TimeOnlyConstraint(np.sin, np.cos), 0.0, np.zeros(1),
                 math.inf, 200),
    lambda: OdePath(_StaticModel(), None, step=math.nan),
    lambda: AnalyticCarPath(k=math.nan, v=np.array([1.0, 1.0])),
    lambda: LeftTurnLane(math.nan),
], ids=["scan_T_nan", "scan_T_inf", "ode_step_nan", "car_k_nan", "turn_radius_nan"])
def test_positivity_guards_reject_nan(build):
    """Each positivity guard is written `not x > 0`, so NaN (and, for the
    horizon, an infinite T) is a configuration error at once rather than an
    IndexError far from its cause."""
    with pytest.raises(ConfigurationError):
        build()


@pytest.mark.parametrize("refine_tol, root_tol, key", [
    (0.0, 1e-9, "refine_tol"), (-1e-6, 1e-9, "refine_tol"), (float("nan"), 1e-9, "refine_tol"),
    (1e-6, -1.0, "root_tol"), (1e-6, float("nan"), "root_tol")])
def test_find_maximizers_rejects_bad_tolerances(refine_tol, root_tol, key):
    """A zero refine_tol would never end the golden-section search."""
    grid = _scan_time_only(np.sin, np.cos)
    with pytest.raises(ConfigurationError, match=key):
        find_maximizers(grid, refine_tol=refine_tol, root_tol=root_tol)


def test_scan_grid_shape():
    grid = _scan_time_only(np.sin, np.cos)
    assert grid.taus[0] == 0.0
    assert grid.taus[-1] == 10.0
    assert len(grid.taus) == 201
    assert np.all(np.diff(grid.taus) > 0)
    assert np.array_equal(grid.h_values, np.sin(grid.taus))


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
            assert abs(grid.h_many([e.root_eta])[0]) <= 1e-6
        if e.h_value <= 0:
            assert e.root_is_self and e.root_eta == e.tau


def test_root_before_safe_time_is_identity():
    grid = _scan_time_only(np.sin, np.cos)
    eta, already_unsafe = find_root_before(grid, 4.0, math.sin(4.0), 1e-9)  # sin(4) < 0
    assert eta == 4.0 and not already_unsafe


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
    h.two_level = True
    dense = scan(_static_path(), h, 0.0, np.zeros(1), 10.0, 200)
    assert len(dense.taus) > len(base.taus)
    assert dense.taus[0] == 0.0 and dense.taus[-1] == 10.0
    assert np.all(np.diff(dense.taus) > 0)
    assert np.allclose(dense.h_values, func(dense.taus))


class _Clock:
    """A path whose state is time itself."""

    def evaluate_many(self, taus, t, x):
        return np.array(taus, dtype=float)[:, None]

    def memo_token(self, t, x):
        return None


class _Envelope(ConstraintFunction):
    """h of the state tau: the upper envelope of peaks (p, a, s_left,
    s_right), each a - s |tau - p|^q with s = s_left before p and s_right
    after it."""

    h_max = 1.0

    def __init__(self, q, peaks, two_level=False):
        self.q, self.two_level = q, two_level
        self.p, self.a, self.s_left, self.s_right = map(np.array, zip(*peaks))

    def value(self, t, x):
        d = x[..., :1] - self.p
        return np.max(self.a - np.where(d < 0, self.s_left, self.s_right) * np.abs(d) ** self.q,
                      axis=-1)


def _check_two_level_samples(grid, h, t, T, N):
    """N + 1 coarse samples plus _REFINE_FACTOR - 1 for each interval with a
    hot endpoint, none closer than one dense step."""
    coarse = t + np.arange(N + 1) * (T / N)
    coarse[-1] = t + T
    hot = h.value(coarse, coarse[:, None]) >= -horizon._THREAT_FRACTION * h.h_max
    refined = int(np.count_nonzero(hot[:-1] | hot[1:]))
    assert len(grid.taus) == N + 1 + (horizon._REFINE_FACTOR - 1) * refined
    step = T / N / (horizon._REFINE_FACTOR if refined else 1)
    assert np.diff(grid.taus).min() >= step * (1 - 1e-9)
    assert np.array_equal(grid.h_values, h.value(grid.taus, grid.taus[:, None]))


# The stand-in of a hot satellite step: a tent rising at slope 0.3 to its
# peak at 450.3125 and falling at 0.5, scanned from t = 411 over T = 250.
_TENT = (411.0, 250.0, 250, True, 1, [(450.3125, 0.0, 0.3, 0.5)], [450.3125])


def test_two_level_scan_refines_each_hot_interval_once():
    """The four intervals with an endpoint at 449, 450 or 451 are refined
    once each, so no two samples nearly coincide and the tent has one
    maximizer."""
    t, T, N, two_level, q, peaks, _ = _TENT
    h = _Envelope(q, peaks, two_level)
    grid = scan(_Clock(), h, t, np.zeros(1), T, N)
    entries = find_maximizers(grid, REFINE_TOL, ROOT_TOL).entries
    assert len(entries) == 1 and abs(entries[0].tau - 450.3125) <= REFINE_TOL
    assert len(grid.taus) == 251 + 4 * 49
    _check_two_level_samples(grid, h, t, T, N)


@st.composite
def _peaked_horizons(draw):
    """(t, T, N, two_level, q, peaks, interior peak times): h the envelope of
    tents (q = 1) or parabolas (q = 2) of one slope s, peaked >= 3 coarse
    steps apart and >= 2 from the horizon ends, with heights in [-2, 1].
    Neighbour heights differ so little that each peak keeps >= 1.5 steps on
    either side.  A peak may sit at or beyond a horizon end, which then is a
    maximizer."""
    N = draw(st.integers(50, 300))
    T = draw(st.floats(10.0, 300.0))
    t = draw(st.floats(0.0, 1000.0))
    two_level, q = draw(st.booleans()), draw(st.sampled_from([1, 2]))
    ds = T / N
    s = draw(st.floats(0.05, 2.0)) / min(ds, 1.0) ** q  # >= 0.05 in a step or a second
    units = [draw(st.floats(2.0, N - 2.0))]
    for gap in draw(st.lists(st.floats(3.0, 40.0), max_size=4)):
        if units[-1] + gap > N - 2.0:
            break
        units.append(units[-1] + gap)
    before = draw(st.none() | st.floats(0.0, 5.0))  # steps before t
    after = draw(st.none() | st.floats(0.0, 5.0))  # steps after t + T
    units = ([min(-before, units[0] - 3.0)] if before is not None else []) + units + (
        [max(N + after, units[-1] + 3.0)] if after is not None else [])

    heights = [draw(st.floats(-2.0, 1.0))]
    for u0, u1 in zip(units, units[1:]):
        # within reach, the two cross >= 1.5 steps from either peak
        reach = max(s * (((u1 - u0 - 1.5) * ds) ** q - (1.5 * ds) ** q), 0.0)
        heights.append(min(max(heights[-1] + draw(st.floats(-1.0, 1.0)) * reach, -2.0), 1.0))
    peaks = [(t + u * ds, a, s, s) for u, a in zip(units, heights)]
    interior = [p for p, *_ in peaks if t < p < t + T]
    return t, T, N, two_level, q, peaks, interior


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_peaked_horizons())
@example(case=_TENT)
def test_maximizers_are_the_drawn_peaks(case):
    """Every peak at the claimed resolution is found within REFINE_TOL, and
    every maximizer entry is one of them or a horizon end."""
    t, T, N, two_level, q, peaks, interior = case
    h = _Envelope(q, peaks, two_level)
    grid = scan(_Clock(), h, t, np.zeros(1), T, N)
    entries = find_maximizers(grid, REFINE_TOL, ROOT_TOL).entries
    taus = np.array([e.tau for e in entries])
    for p in interior:
        assert np.abs(taus - p).min() <= REFINE_TOL
    for e in entries:
        assert e.at_start or e.at_end or min(abs(e.tau - p) for p in interior) <= REFINE_TOL
    if two_level:
        _check_two_level_samples(grid, h, t, T, N)


# -- batched lookahead against the sequential searches ------------------------

def _sequential_golden(f, lo, hi, tol):
    """The golden-section search evaluating one probe at a time (oracle)."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    tau = 0.5 * (a + b)
    return tau, f(tau)


def _sequential_bisect(f, lo, hi, root_tol):
    """The bisection evaluating one probe at a time (oracle)."""
    flo, fhi = f(lo), f(hi)
    if abs(fhi) <= root_tol:
        return hi
    if abs(flo) <= root_tol:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) <= root_tol or (hi - lo) < 1e-15 * max(1.0, abs(mid)):
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_SHAPES = {
    "sine": lambda t, s: 0.5 * np.sin(3.0 * t + s) + 0.1 * s,
    "constant": lambda t, s: np.full_like(t, s),
    "kink": lambda t, s: -np.abs(t - s),
    "quadratic": lambda t, s: -(t - s) ** 2,
    "line": lambda t, s: t - s,
    "cubic": lambda t, s: (t - s) ** 3,
}


def _alone(func):
    """f(tau) evaluating each probe on its own, and the list of probes."""
    probes = []

    def f(tau):
        probes.append(tau)
        return float(func(np.array([tau]))[0])
    return f, probes


def _batches(func):
    """h_many over func, and the size of each batch it was asked for."""
    sizes = []

    def h_many(taus):
        sizes.append(len(taus))
        return func(np.asarray(taus, dtype=float))
    return h_many, sizes


def _assert_batching(sizes, sequential):
    # the depth-_LOOKAHEAD tree and two probes per step of the predicted path
    assert all(n <= 2 ** horizon._LOOKAHEAD - 1 + 2 * horizon._WALK for n in sizes)
    assert len(sizes) <= math.ceil(sequential / 4) + 1


def _golden_matches(func, lo, hi, tol):
    f, probes = _alone(func)
    h_many, sizes = _batches(func)
    assert _golden_max(h_many, lo, hi, tol) == _sequential_golden(f, lo, hi, tol)
    _assert_batching(sizes, len(probes))


def _bisect_matches(func, lo, hi, root_tol):
    f, probes = _alone(func)
    want = _sequential_bisect(f, lo, hi, root_tol)
    h_many, sizes = _batches(func)
    flo, fhi = (float(func(np.array([v]))[0]) for v in (lo, hi))
    assert _bisect_root(h_many, lo, hi, flo, fhi, root_tol) == want
    _assert_batching(sizes, len(probes) - 2)  # the oracle also evaluates lo and hi
    return want


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(sorted(_SHAPES)), lo=st.floats(-5.0, 5.0),
       width=st.floats(1e-6, 5.0), shift=st.floats(-1.0, 1.0),
       tol_frac=st.floats(1e-9, 2.0))
def test_golden_max_is_the_sequential_search(shape, lo, width, shift, tol_frac):
    func = lambda t: _SHAPES[shape](t, lo + shift * width)
    _golden_matches(func, lo, lo + width, tol_frac * width)


@settings(max_examples=200, deadline=None)
@given(shape=st.sampled_from(sorted(_SHAPES)), lo=st.floats(-5.0, 5.0),
       width=st.floats(1e-6, 5.0), shift=st.floats(0.0, 1.0),
       root_tol=st.sampled_from([0.0, 1e-12, 1e-9, 1e-4, 10.0]))
def test_bisect_root_is_the_sequential_search(shape, lo, width, shift, root_tol):
    func = lambda t: _SHAPES[shape](t, lo + shift * width)
    _bisect_matches(func, lo, lo + width, root_tol)


@pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.5, 1.0, 3.0])
def test_golden_max_on_constant_h(tol):
    """fc == fd at every step: the search always keeps the left part."""
    _golden_matches(lambda t: np.full_like(t, -0.25), 0.0, 1.0, tol)


@pytest.mark.parametrize("root_tol", [0.0, 1e-9])
@pytest.mark.parametrize("at", ["lo", "hi"])
def test_bisect_root_exact_zero_at_an_end(at, root_tol):
    lo, hi = 0.3, 1.7
    zero = lo if at == "lo" else hi
    _bisect_matches(lambda t: t - zero, lo, hi, root_tol)
    h_many, sizes = _batches(lambda t: t - zero)
    assert _bisect_root(h_many, lo, hi, lo - zero, hi - zero, root_tol) == zero
    assert sizes == []


def test_bisect_root_width_stop():
    """With root_tol = 0 and no double where h is exactly zero, only the
    width test ends the search."""
    func = lambda t: np.sin(t) - 0.3
    eta = _bisect_matches(func, 0.0, 1.0, 0.0)
    assert func(np.array([eta]))[0] != 0.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=st.sampled_from(["quadratic", "sine"]), lo=st.floats(-5.0, 5.0),
       width=st.floats(1e-3, 0.1), shift=st.floats(-1.0, 1.0),
       tol_frac=st.floats(1e-6, 0.5), seeded=st.booleans())
def test_golden_max_on_smooth_h_takes_three_batches(shape, lo, width, shift, tol_frac, seeded):
    """Where h is smooth on the scale of the bracket, here at most two grid
    steps of the pinned intersections wide, and the tolerance is above its
    rounding, the parabola predicts the path so far that a search takes at
    most three batches, seeded by samples at the bracket's ends and middle
    or not."""
    func = lambda t: _SHAPES[shape](t, lo + shift * width)
    hi = lo + width
    samples = tuple((t, float(func(np.array([t]))[0])) for t in (lo, 0.5 * (lo + hi), hi))
    f, _ = _alone(func)
    h_many, sizes = _batches(func)
    got = _golden_max(h_many, lo, hi, tol_frac * width, *([samples] if seeded else []))
    assert got == _sequential_golden(f, lo, hi, tol_frac * width)
    assert len(sizes) <= 3


_UPCROSSINGS = {  # h(t, s) and an upcrossing root, with h rising within 0.25 of it
    "quadratic": (lambda t, s: 1.0 - (t - s) ** 2, lambda s: s - 1.0),
    "sine": (_SHAPES["sine"], lambda s: (math.asin(-0.2 * s) - s) / 3.0),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shape=st.sampled_from(sorted(_UPCROSSINGS)), s=st.floats(-1.0, 1.0),
       left=st.floats(1e-3, 0.025), right=st.floats(1e-3, 0.025),
       root_tol=st.sampled_from([1e-12, 1e-9, 1e-4]))
def test_bisect_root_on_smooth_h_takes_three_batches(shape, s, left, right, root_tol):
    """Bisection of a bracket at most one grid step of the pinned
    intersections wide around an upcrossing of smooth h, to a root
    tolerance above the rounding of h, takes at most three batches."""
    h, root = _UPCROSSINGS[shape]
    func = lambda t: h(t, s)
    lo, hi = root(s) - left, root(s) + right
    flo, fhi = (float(func(np.array([v]))[0]) for v in (lo, hi))
    assert flo < 0 <= fhi
    f, _ = _alone(func)
    h_many, sizes = _batches(func)
    assert _bisect_root(h_many, lo, hi, flo, fhi, root_tol) == _sequential_bisect(
        f, lo, hi, root_tol)
    assert len(sizes) <= 3


@settings(max_examples=100, deadline=None)
@given(shape=st.sampled_from(sorted(_SHAPES)), lo=st.floats(-5.0, 5.0),
       width=st.floats(1e-6, 5.0), shift=st.floats(-1.0, 1.0),
       tol_frac=st.floats(1e-9, 2.0), root_tol=st.sampled_from([0.0, 1e-9, 1e-4]))
def test_wrong_predictions_cost_batches_not_bits(shape, lo, width, shift, tol_frac, root_tol):
    """Models that predict every comparison wrong, -h itself, leave each
    search the sequential search's result, within the count bound that the
    lookahead tree in every batch keeps."""
    func = lambda t: _SHAPES[shape](t, lo + shift * width)
    wrong = lambda *fit: (lambda tau: -float(func(np.array([tau]))[0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(horizon, "_parabola", wrong)
        mp.setattr(horizon, "_secant", wrong)
        _golden_matches(func, lo, lo + width, tol_frac * width)
        _bisect_matches(func, lo, lo + width, root_tol)


# -- one-pass peak detection against the sequential scan ----------------------

def _sequential_find_maximizers(grid, refine_tol, root_tol, golden):
    """find_maximizers walking the samples one at a time (oracle)."""
    taus, hv = grid.taus, grid.h_values
    K = len(taus) - 1
    t, tend = grid.t, taus[-1]
    candidates = []
    if hv[0] >= hv[1]:
        candidates.append((t, float(hv[0]), True, False))
    j = 1
    while j < K:
        tol_j = horizon._PLATEAU_TOL * (1.0 + abs(hv[j]))
        if hv[j] >= hv[j - 1] - tol_j and hv[j] >= hv[j + 1] - tol_j:
            strict = (hv[j] > hv[j - 1] + tol_j) or (hv[j] > hv[j + 1] + tol_j)
            if strict:
                jj = j
                while jj + 1 < K and abs(hv[jj + 1] - hv[j]) <= tol_j:
                    jj += 1
                tau_r, h_r = golden(grid.h_many, taus[j - 1], taus[min(j + 1, K)], refine_tol)
                candidates.append((tau_r, h_r, False, False))
                j = jj
        j += 1
    if hv[K] >= hv[K - 1]:
        candidates.append((tend, float(hv[K]), False, True))
    candidates.sort(key=lambda c: c[0])
    merged = []
    for c in candidates:
        if not (merged and c[0] - merged[-1][0] <= refine_tol):
            merged.append(c)
    entries = []
    for tau, h_val, at_start, at_end in merged:
        eta, unsafe = find_root_before(grid, tau, h_val, root_tol)
        entries.append(MaximizerEntry(
            tau=tau, h_value=h_val, at_start=at_start, at_end=at_end, root_eta=eta,
            root_is_self=(eta == tau and not unsafe), already_unsafe=unsafe,
        ))
    return MaximizerSet(entries=entries)


class _Samples:
    """A path that is time itself, and h the linear interpolant of samples."""

    h_max = 1.0

    def __init__(self, taus, hv):
        self.taus, self.hv = taus, hv

    def evaluate_many(self, taus, t, x):
        return np.asarray(taus, dtype=float)[:, None]

    def memo_token(self, t, x):
        return None

    def value(self, t, x):
        return np.interp(x[..., 0], self.taus, self.hv)


_LEVELS = [-1.0, -0.5, -1e-3, 0.0, 0.25, 0.5]
_JITTER = [0.0, 0.0, 0.0, 2e-13, -2e-13, 9e-13, -9e-13, 3e-12, -3e-12]  # tol ~1e-12


@settings(max_examples=300, deadline=None)
@given(levels=st.lists(st.sampled_from(_LEVELS), min_size=3, max_size=40),
       jitter=st.lists(st.sampled_from(_JITTER), min_size=40, max_size=40))
@example(levels=[0.0, 0.5, 0.0, 0.5, 0.5, 0.5, 0.0], jitter=[0.0] * 40)  # peaks at 1, K-1
@example(levels=[0.0, 0.5, 0.5, 0.0, 0.25, 0.25], jitter=[0.0, 0.0, 9e-13] + [0.0] * 37)
@example(levels=[0.25] * 5, jitter=[0.0, 2e-13, -2e-13, 9e-13, 0.0] + [0.0] * 35)
def test_one_pass_peaks_match_sequential_scan(levels, jitter):
    hv = np.array(levels) + np.array(jitter[:len(levels)])
    taus = np.arange(len(hv), dtype=float)
    samples = _Samples(taus, hv)
    grid = HorizonGrid(t=0.0, x=np.zeros(1), taus=taus, h_values=hv, path=samples, h=samples)
    brackets = {"one_pass": [], "sequential": []}

    def recording(key):
        def golden(h_many, lo, hi, tol, *samples):
            brackets[key].append((lo, hi))
            return _golden_max(h_many, lo, hi, tol, *samples)
        return golden

    want = _sequential_find_maximizers(grid, 1e-6, 1e-9, recording("sequential"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(horizon, "_golden_max", recording("one_pass"))
        assert find_maximizers(grid, 1e-6, 1e-9) == want
    assert brackets["one_pass"] == brackets["sequential"]


# -- the horizon memo along a kept forecast -----------------------------------

class _Oscillator(DynamicsModel):
    """xdot = A x + B u, a lightly damped oscillator."""

    A = np.array([[0.0, 1.0], [-4.0, -0.1]])

    def drift(self, t, x):
        return x @ self.A.T

    def input_matrix(self, t, x):
        return np.broadcast_to(np.array([[0.0], [1.0]]), np.shape(x)[:-1] + (2, 1))


def _wavy_law(t, x):
    """A nominal law that depends on time; t may hold one time per state."""
    return 0.3 * np.sin(3.0 * np.asarray(t, dtype=float))[..., None]


def _steep_law(t, x):
    """A nominal law so steep in time that a last-bit change of a step's
    start time moves the state it reaches."""
    return np.sin(1e9 * np.asarray(t, dtype=float))[..., None] - 0.5 * x[..., :1]


class _Height(ConstraintFunction):
    """h = p - 0.2 + 0.05 sin(5 tau): the position above a wavy ceiling, so
    the forecast has interior peaks, some unsafe with a root before them."""

    h_max = 1.0

    def __init__(self, two_level=False):
        self.two_level = two_level

    def value(self, t, x):
        return x[..., 0] - 0.2 + 0.05 * np.sin(5.0 * np.asarray(t, dtype=float))

    def partials(self, t, x):
        return 0.25 * math.cos(5.0 * t), np.array([1.0, 0.0])


def _searched_bits(grid):
    """The grid's taus and h values, every field of its maximizer set, and
    the evaluation at each entry's tau and root_eta, as bytes."""
    mset = find_maximizers(grid, REFINE_TOL, ROOT_TOL)
    fields = [[e.tau, e.h_value, e.root_eta, e.at_start, e.at_end, e.root_is_self,
               e.already_unsafe] for e in mset.entries]
    evs = [grid.evaluation(tau) for e in mset.entries for tau in (e.tau, e.root_eta)]
    evs = [np.concatenate([ev.state, ev.dp_dtau, ev.grad_x, [ev.dh_dtau]]) for ev in evs]
    return (grid.taus.tobytes(), grid.h_values.tobytes(),
            np.array(fields, dtype=float).tobytes(), np.array(evs).tobytes())


def _fresh_grid(path, t, x, T, N, two_level=False):
    """A scan with no prev on a fresh path like `path`."""
    fresh = OdePath(path.model, path.mu, step=path.step)
    return scan(fresh, _Height(two_level), t, x, T, N)


def _fresh_bits(path, t, x, T, N, two_level=False):
    """_searched_bits of _fresh_grid(path, t, x, T, N, two_level)."""
    return _searched_bits(_fresh_grid(path, t, x, T, N, two_level))


def _chain(path, h, T, N):
    """scan(t, x) on the path, each grid started from the last, as
    PcbfContext.scan does."""
    last = None

    def next_scan(t, x):
        nonlocal last
        last = scan(path, h, t, x, T, N, prev=last)
        return last
    return next_scan


def test_memo_serves_a_kept_forecast():
    """With the grid step equal to the control step, each step after the
    first finds its scan times and search brackets in the last grid, and
    the result is a fresh path's bit for bit."""
    path, h = OdePath(_Oscillator(), _wavy_law, step=0.25), _Height()
    t, x, T, N = 0.0, np.array([1.0, 0.0]), 20.0, 80
    next_scan = _chain(path, h, T, N)
    for k in range(1, 6):
        grid = next_scan(t, x)
        assert _searched_bits(grid) == _fresh_bits(path, t, x, T, N)
        x, t = path.evaluate_many([k * path.step], t, x)[0], k * path.step
    assert path.forecast_restarts == 1
    assert grid.h_misses == (N + 1) + 4 and grid.h_hits == 4 * N  # one new end per step
    assert grid.search_hits > 0


@settings(max_examples=40, deadline=None)
@given(step=st.sampled_from([0.05, 0.1, 0.125, 0.25, 0.3]),
       N=st.integers(50, 120), grid_steps=st.sampled_from([1.0, 2.0, 0.5, None]),
       T=st.floats(1.0, 4.0), two_level=st.booleans(), start=st.sampled_from([0.0, 0.3, 0.7]),
       moves=st.lists(st.sampled_from(["follow", "follow", "intervene"]), min_size=2, max_size=5))
def test_memo_is_bit_for_bit_with_a_fresh_path(step, N, grid_steps, T, two_level, start, moves):
    """Along forecasts that the plant follows or leaves, scan and
    find_maximizers on grids each started from the last equal, bit for bit,
    those of a fresh path at the same (t, x): taus, h values, every
    maximizer entry and the evaluation at each entry's tau and root_eta.
    The grid step T/N is drawn apart from the control step too, so scan
    times and search probes fall between knots, and the first start,
    start * step, may lie off the knot time lattice, from which the first
    followed step joins it."""
    if grid_steps is not None:
        T = N * step * grid_steps
    path = OdePath(_Oscillator(), _wavy_law, step=step)
    next_scan = _chain(path, _Height(two_level), T, N)
    t, x = start * step, np.array([1.0, 0.0])
    for k, move in enumerate(moves, start=1):
        grid = next_scan(t, x)
        assert _searched_bits(grid) == _fresh_bits(path, t, x, T, N, two_level)
        x = path.evaluate_many([k * step], t, x)[0]  # the plant follows the forecast
        if move == "intervene":
            x = x + np.array([1e-3, 0.0])
        t = k * step


class TestMemoInvalidation:
    """A fresh forecast starts a grid with nothing of the last, a followed
    step carries the last grid's values on, and each later value is a fresh
    path's."""

    T, N = 3.0, 60

    def _first_scan(self, t, step):
        path = OdePath(_Oscillator(), _steep_law, step=step)
        x = np.array([1.0, -0.5])
        grid = scan(path, _Height(), t, x, self.T, self.N)
        _searched_bits(grid)
        assert grid.searches and grid.evaluations  # there is a result to drop
        return path, x, grid

    def _assert_dropped(self, path, prev, t, x):
        hits = (prev.h_hits, prev.search_hits)
        grid = scan(path, _Height(), t, x, self.T, self.N, prev=prev)
        assert _searched_bits(grid) == _fresh_bits(path, t, x, self.T, self.N)
        assert (grid.h_hits, grid.search_hits) == hits
        assert grid.token != prev.token

    def test_followed_step_keeps_every_knot(self):
        """At step 0.1 from t = 0.3 the plant follows the forecast to
        t1 = 0.4, knot 1's lattice time: every knot is kept, the next scan
        starts from the last grid's values, and its values are a fresh
        path's, although t + j step and t1 + j step part in the last bit at
        some j."""
        t, step = 0.3, 0.1
        path, x, grid = self._first_scan(t, step)
        t1, knot_steps = t + step, path.knot_steps
        assert t1 == 4 * step
        assert any(t + (1 + j) * step != t1 + j * step for j in range(int(self.T / step)))
        x1 = path.evaluate_many([t1], t, x)[0]
        kept = scan(path, _Height(), t1, x1, self.T, self.N, prev=grid)
        assert _searched_bits(kept) == _fresh_bits(path, t1, x1, self.T, self.N)
        assert path.forecast_restarts == 1 and kept.token == grid.token
        assert path.knot_steps == knot_steps + 1  # the new horizon end's knot alone
        # every scan time that the first scan looked up bit for bit is served
        served = np.isin(kept.taus, grid.taus).sum()
        assert kept.h_hits == grid.h_hits + served and served > self.N // 2
        assert kept.search_hits > grid.search_hits

    def test_carried_values_start_at_t(self):
        """A grid scanned along the kept forecast from t1 starts with every
        h, evaluation and search of the last grid at or after t1, the same
        objects, and none before; one scanned under a new token starts with
        nothing of the last grid's."""
        t, step = 0.3, 0.1
        path, x, grid = self._first_scan(t, step)
        t1 = t + step
        grid.evaluation(t)
        grid.searched(_golden_max, t, t + 2 * step, REFINE_TOL)
        assert (grid.table[0] < t1).any()
        x1 = path.evaluate_many([t1], t, x)[0]
        kept = scan(path, _Height(), t1, x1, self.T, self.N, prev=grid)
        assert kept.token == grid.token and kept.table[0].min() >= t1
        assert np.isin(grid.table[0][grid.table[0] >= t1], kept.table[0]).all()
        assert kept.evaluations == {tau: ev for tau, ev in grid.evaluations.items() if tau >= t1}
        assert kept.searches == {key: r for key, r in grid.searches.items() if key[1] >= t1}
        assert kept.evaluations and kept.searches
        assert all(kept.evaluations[tau] is grid.evaluations[tau] for tau in kept.evaluations)
        other = scan(path, _Height(), t1, x1 + np.array([1e-3, 0.0]), self.T, self.N, prev=kept)
        assert other.token != kept.token
        assert not other.searches and not other.evaluations
        assert other.h_hits == kept.h_hits
        assert other.h_misses == kept.h_misses + len(other.taus)

    def test_evaluation_at_a_given_state_is_not_kept(self):
        """An evaluation at a given state, as the maximizer sensitivity makes
        them, is neither kept nor served in place of the path state's."""
        path, x, grid = self._first_scan(0.25, 0.125)
        tau = 0.25 + 1.234
        want = _fresh_grid(path, 0.25, x, self.T, self.N).evaluation(tau)
        ev = grid.evaluation(tau, want.state + 1e-3)
        assert tau not in grid.evaluations and not np.array_equal(ev.state, want.state)
        got = grid.evaluation(tau)
        assert np.array_equal(got.state, want.state) and got.dh_dtau == want.dh_dtau

    def test_off_lattice_start_steps_to_the_lattice(self):
        """A fresh forecast from t = 0.03 at step 0.1 takes its first step to
        0.1 and then steps along the lattice, as an independent chain of
        single RK4 steps does; the plant following it to 0.1 keeps it."""
        t, step = 0.03, 0.1
        path, x, grid = self._first_scan(t, step)
        times = [t] + [j * step for j in range(1, 40)]
        knots = [x]
        for a, b in zip(times, times[1:]):
            knots.append(rk4(path.field, a, knots[-1], b - a))
        assert np.array_equal(path.evaluate_many(times[:32], t, x), np.array(knots[:32]))
        tau = times[5] + 0.04
        want = rk4(path.field, times[5], knots[5], tau - times[5])
        assert np.array_equal(path.evaluate_many([tau], t, x)[0], want)
        t1, x1 = times[1], knots[1]
        kept = scan(path, _Height(), t1, x1, self.T, self.N, prev=grid)
        assert _searched_bits(kept) == _fresh_bits(path, t1, x1, self.T, self.N)
        assert path.forecast_restarts == 1 and kept.token == grid.token

    def test_fresh_forecast_after_an_intervening_step(self):
        """The plant leaves the forecast, so a fresh one starts."""
        t, step = 0.25, 0.125
        path, x, grid = self._first_scan(t, step)
        x1 = path.evaluate_many([t + step], t, x)[0] + np.array([1e-9, 0.0])
        self._assert_dropped(path, grid, t + step, x1)
        assert path.forecast_restarts == 2

    def test_grid_that_outlives_its_forecast(self):
        """After the path forecasts from another (t, x), a grid of the old
        forecast still serves its own searches and evaluations, without a
        step of the path: its values are a fresh path's."""
        t, step = 0.25, 0.125
        path, x, grid = self._first_scan(t, step)
        want = _fresh_bits(path, t, x, self.T, self.N)
        other = scan(path, _Height(), t, x + np.array([1e-3, 0.0]), self.T, self.N, prev=grid)
        _searched_bits(other)
        assert other.searches and other.evaluations
        assert _searched_bits(grid) == want
        assert path.forecast_restarts == 2
