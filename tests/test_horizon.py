"""Horizon scan, maximizer extraction, and root search."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcbf import horizon
from pcbf.core import ConfigurationError, ConstraintFunction, DynamicsModel
from pcbf.horizon import (REFINE_TOL, ROOT_TOL, HorizonGrid, MaximizerEntry, MaximizerSet,
                          _bisect_root, _golden_max,
                          find_maximizers, find_root_before, scan)
from pcbf.paths import AnalyticCarPath, OdePath
from pcbf.scenarios import SeparationConstraint, StraightLane


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
    res = find_root_before(grid, 4.0, math.sin(4.0), 1e-9)  # sin(4) < 0
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


class _Clock:
    """A path whose state is time itself."""

    def evaluate_many(self, taus, t, x):
        return np.array(taus, dtype=float)[:, None]


class _Envelope(ConstraintFunction):
    """h of the state tau: the upper envelope of peaks (p, a, s_left,
    s_right), each a - s |tau - p|^q with s = s_left before p and s_right
    after it."""

    h_max = 1.0

    def __init__(self, q, peaks):
        self.q = q
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
    h = _Envelope(q, peaks)
    grid = scan(_Clock(), h, t, np.zeros(1), T, N, two_level)
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
    h = _Envelope(q, peaks)
    grid = scan(_Clock(), h, t, np.zeros(1), T, N, two_level)
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
    assert all(n <= 15 for n in sizes)
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


# -- one-pass peak detection against the sequential scan ----------------------

def _sequential_find_maximizers(grid, refine_tol, root_tol, golden):
    """find_maximizers walking the samples one at a time (oracle)."""
    taus, hv = grid.taus, grid.h_values
    K = len(taus) - 1
    t, tend = grid.t, grid.t + grid.T
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
        root = find_root_before(grid, tau, h_val, root_tol)
        entries.append(MaximizerEntry(
            tau=tau, h_value=h_val, at_start=at_start, at_end=at_end,
            root_eta=root.eta, root_is_self=(root.eta == tau and not root.already_unsafe),
            already_unsafe=root.already_unsafe,
        ))
    return MaximizerSet(entries=entries)


class _Samples:
    """A path that is time itself, and h the linear interpolant of samples."""

    h_max = 1.0

    def __init__(self, taus, hv):
        self.taus, self.hv = taus, hv

    def evaluate_many(self, taus, t, x):
        return np.asarray(taus, dtype=float)[:, None]

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
    grid = HorizonGrid(t=0.0, x=np.zeros(1), T=taus[-1], taus=taus, h_values=hv,
                       path=samples, h=samples)
    brackets = {"one_pass": [], "sequential": []}

    def recording(key):
        def golden(h_many, lo, hi, tol):
            brackets[key].append((lo, hi))
            return _golden_max(h_many, lo, hi, tol)
        return golden

    want = _sequential_find_maximizers(grid, 1e-6, 1e-9, recording("sequential"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(horizon, "_golden_max", recording("one_pass"))
        assert find_maximizers(grid, 1e-6, 1e-9) == want
    assert brackets["one_pass"] == brackets["sequential"]
