"""Times of interest along the propagated trajectory.

A dense grid over [t, t+T] locates candidate local maximizers of
h(tau, p(tau; t, x)); golden-section search refines interior candidates and
bisection finds the last upcrossing zero preceding each unsafe maximizer.
Each search is written once, as a generator of its probes, and _run
batches it by rerunning it from the start: a run takes the values held and,
at each tau not held, a model's value, and one batch evaluates the taus a
run missed.  The model is the polynomial through the held values nearest
the run's first missing tau, a line through two and a parabola through
three (Press et al., Numerical Recipes, 3rd ed., sections 3.2 and 10.3),
seeded by the grid samples around the peak for golden section and by the
bracket's ends for bisection.  Batching keeps each value's bits, and a run
that misses nothing made the sequential comparisons, so both searches
return what one probe per step returns; a wrong prediction costs a batch,
never a bit.

Each HorizonGrid keeps what is looked up along its own path state: h by
tau, the evaluations at path states by tau, and each search's result by its
inputs; a search that runs reads h directly, as its probes recur only when
the whole search does.  It keeps the states its searches' batches computed,
too: a search returns one of its probes, save a bisection whose bracket end
is already a root, so the evaluation at a maximizer or root takes that
probe's state and asks the path for none.  Under one Path.memo_token the
path state at tau depends on tau alone (OdePath's knots sit on the absolute
time lattice), so a scan given the last grid along the same forecast starts
from that grid's values at or after its t.  A carried value has the bits a
fresh evaluation returns, and a grid that outlives its forecast still holds
only its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from pcbf.core import ConfigurationError
from pcbf.paths import Path

_PLATEAU_TOL = 1e-12
REFINE_TOL = 1e-6       # golden section: final bracket width, s
ROOT_TOL = 1e-9         # bisection: |h| at which a midpoint is the root
_THREAT_FRACTION = 0.5  # two-level scan: re-sample where h >= -this * h_max
_REFINE_FACTOR = 50     # two-level scan: dense step = grid step / this
# scan: N bound, 400x the pinned 250; memory grows with N.  One pcbf step at
# 1e5 took 0.03 s, 40 MB peak RSS on intersection_cross (t = 10.1) and 0.32 s,
# 98 MB on the two-level satellite (t = 411), on a 2-vCPU host.
_MAX_N = 10**5


@dataclass(frozen=True)
class PathEvaluation:
    """Snapshot of the path and constraint at one horizon time."""

    state: np.ndarray
    dp_dtau: np.ndarray
    grad_x: np.ndarray
    dh_dtau: float


_COUNTERS = ("h_hits", "h_misses", "search_hits", "search_misses", "search_batches",
             "search_probes", "evaluation_hits", "evaluation_misses", "probe_states")


class HorizonGrid:
    """Sampled trajectory of h along the path over [t, t+T], with the values
    looked up along the path state from (t, x).

    taus are strictly increasing with taus[0] = t and taus[-1] = t + T; they
    are uniform unless the two-level scan split each interval with a hot
    endpoint into _REFINE_FACTOR equal steps.  token is the path's
    memo_token(t, x).  table is h along the path, sorted by its first row,
    tau, with h(tau, p(tau)) in its second and an end column at tau = inf
    that keeps every lookup in range; evaluations maps tau to the
    PathEvaluation at p(tau), and searches maps (search, *inputs) to its
    result.  Given prev, the last grid, the grid starts with prev's entries
    at or after t when both share a token that is not None, and with none
    otherwise.  probed maps each tau of this grid's search batches to its
    state row, not carried; a row has a one-tau call's bytes where the path
    computes each row alone (the car path, the two-body coast; a field that
    multiplies the batch in one BLAS matmul may part in the last bit).
    Plain integer work counters, carried on from prev: h_hits and h_misses
    per tau looked up in the table, search_hits and search_misses per
    search, search_batches and search_probes per h batch and probe that a
    missed search evaluates, evaluation_hits and evaluation_misses per
    evaluation at a path state, and probe_states per missed evaluation
    whose state came from a probe.
    """

    def __init__(self, t, x, taus, h_values, path: Path, h, token=None, prev=None):
        self.t, self.x, self.taus, self.h_values = t, x, taus, h_values
        self.path, self.h, self.token = path, h, token
        for name in _COUNTERS:
            setattr(self, name, 0 if prev is None else getattr(prev, name))
        self.table, self.searches, self.evaluations = np.array([[np.inf], [np.nan]]), {}, {}
        self.probed = {}
        if prev is not None and token is not None and token == prev.token:
            self.table = prev.table[:, np.searchsorted(prev.table[0], t):]
            self.searches = {key: v for key, v in prev.searches.items() if key[1] >= t}
            self.evaluations = {tau: v for tau, v in prev.evaluations.items() if tau >= t}

    def h_many(self, taus) -> np.ndarray:
        """h along the path at each of taus."""
        taus = np.asarray(taus, dtype=float)
        return self.h.value(taus, self.path.evaluate_many(taus, self.t, self.x))

    def h_kept(self, taus) -> np.ndarray:
        """h_many(taus) through the table, whose misses it evaluates in one
        batch and keeps."""
        at = np.searchsorted(self.table[0], taus)
        miss = np.flatnonzero(self.table[0, at] != taus)
        values = self.table[1, at]
        self.h_hits += len(taus) - len(miss)
        self.h_misses += len(miss)
        if miss.size:
            values[miss] = self.h_many(taus[miss])
            table = np.concatenate([[taus[miss], values[miss]], self.table], axis=1)
            self.table = table[:, np.argsort(table[0])]
        return values

    def searched(self, search, *inputs, seeds=()):
        """The value of the search generator search(*inputs), kept by its
        inputs, run by _run on h_many counted per batch and probe, with
        seeds for its model."""
        key = (search, *inputs)
        if key in self.searches:
            self.search_hits += 1
            return self.searches[key]
        self.search_misses += 1
        result = self.searches[key] = _run(self._search_batch, lambda: search(*inputs), seeds)
        return result

    def _search_batch(self, taus):
        self.search_batches += 1
        self.search_probes += len(taus)
        at = np.asarray(taus, dtype=float)
        states = self.path.evaluate_many(at, self.t, self.x)
        self.probed.update(zip(taus, states))
        return self.h.value(at, states)

    def evaluation(self, tau: float, state=None) -> PathEvaluation:
        """The field, grad_x h and dh/dtau at the path state at tau, kept by
        tau, or at the given state, not kept.  The path state is a search
        probe's where one was at tau."""
        if state is not None:
            return self._evaluate(tau, state)
        ev = self.evaluations.get(tau)
        if ev is not None:
            self.evaluation_hits += 1
            return ev
        self.evaluation_misses += 1
        state = self.probed.get(tau)
        if state is None:
            state = self.path.evaluate_many([tau], self.t, self.x)[0]
        else:
            self.probe_states += 1
        ev = self.evaluations[tau] = self._evaluate(tau, state)
        return ev

    def _evaluate(self, tau, state) -> PathEvaluation:
        dp_dtau = self.path.field(tau, state)
        dh_dt, grad_x = self.h.partials(tau, state)
        dh_dtau = float(dh_dt + grad_x @ dp_dtau)
        return PathEvaluation(state, dp_dtau, grad_x, dh_dtau)

    def sensitivity(self, tau: float) -> np.ndarray:
        """dp(tau; t, x)/dx g(t, x), the path's input response."""
        return self.path.state_sensitivity(tau, self.t, self.x)


@dataclass
class MaximizerEntry:
    """One element of the maximizer set with its preceding root."""

    tau: float
    h_value: float
    at_start: bool
    at_end: bool
    root_eta: float
    root_is_self: bool
    already_unsafe: bool = False


@dataclass
class MaximizerSet:
    entries: list[MaximizerEntry] = field(default_factory=list)

    @property
    def first(self) -> MaximizerEntry:
        return self.entries[0]


def scan(path, h, t, x, T, N, prev=None):
    """Sample h along the path at N+1 uniform times over [t, t+T].

    Where h.two_level is true, each interval [lo, lo + T/N] with an endpoint
    whose h-value comes within _THREAT_FRACTION * h_max of zero is refined
    once, at lo + k T/N/_REFINE_FACTOR for k = 1 .. _REFINE_FACTOR - 1, so
    narrow violation spikes are resolved without a uniformly fine grid.  The
    grid starts from prev, the last grid, as HorizonGrid says.  It reads h
    through its table unless the path keeps no forecast (token None): no
    later grid takes that table, and building it costs more than h does.
    """
    if not 0 < T < np.inf:  # NaN included
        raise ConfigurationError(f"horizon T must be positive and finite, got {T}")
    if not 50 <= N <= _MAX_N:
        raise ConfigurationError(f"grid sample count N must be in [50, {_MAX_N}], got {N}")
    taus = t + np.arange(N + 1) * (T / N)
    taus[-1] = t + T
    grid = HorizonGrid(float(t), np.asarray(x, dtype=float), taus, None, path, h,
                       path.memo_token(t, x), prev)
    h_many = grid.h_many if grid.token is None else grid.h_kept
    h_values = np.asarray(h_many(taus), dtype=float)

    if h.two_level:
        hot = h_values >= -_THREAT_FRACTION * h.h_max
        lo = taus[:-1][hot[:-1] | hot[1:]]
        new = (lo[:, None] + np.arange(1, _REFINE_FACTOR) * (T / N / _REFINE_FACTOR)).ravel()
        if new.size:
            taus = np.concatenate([taus, new])
            h_values = np.concatenate([h_values, h_many(new)])
            order = np.argsort(taus, kind="stable")
            taus, h_values = taus[order], h_values[order]

    grid.taus, grid.h_values = taus, h_values
    return grid


def _run(h_many, start, seeds=()):
    """The value of the search generator that start() returns, which yields
    each tau it probes and is sent h there.  Each run from the start is sent
    the held value at a held tau and, at any other, the value of one model:
    _model of the held values and seeds, (tau, h) pairs, near the run's
    first missing tau (NaN where it gives none).  One h_many batch evaluates
    the taus a run missed; a run that missed none made the sequential
    search's comparisons, so its value is the search's."""
    seeds, held = {float(tau): float(v) for tau, v in seeds}, {}
    while True:
        search, missing, value = start(), [], None
        try:
            while True:
                tau = search.send(value)
                if tau in held:
                    value = held[tau]
                    continue
                if not missing:
                    model = _model({**seeds, **held}, tau) or (lambda tau: math.nan)
                value = model(tau)
                missing.append(tau)
        except StopIteration as stop:
            if not missing:
                return stop.value
        taus = list(dict.fromkeys(missing))
        held.update(zip(taus, h_many(taus).tolist()))


def _model(held, near):
    """h as the polynomial through held, a dict of h by tau, at the (up to)
    three taus nearest near, in Newton form: a line through two, a parabola
    through three; None where fewer than two are held or the fit is not
    finite."""
    taus = sorted(held, key=lambda tau: abs(tau - near))[:3]
    if len(taus) < 2:
        return None
    x0, x1 = taus[:2]
    s01 = (held[x1] - held[x0]) / (x1 - x0)
    c = 0.0
    if len(taus) == 3:
        x2 = taus[2]
        c = ((held[x2] - held[x1]) / (x2 - x1) - s01) / (x2 - x0)
    if not (math.isfinite(s01) and math.isfinite(c)):
        return None
    f0 = held[x0]
    return lambda tau: f0 + (tau - x0) * (s01 + (tau - x1) * c)


def _golden_max(lo, hi, tol):
    """Golden-section maximization of h on [lo, hi] to an interval of width
    tol, or down to the last few ulps of the ends where tol is below them:
    yields each probe, is sent h there, and returns (tau, h(tau)) at the
    final bracket's midpoint."""
    a, b = float(lo), float(hi)
    tol = max(float(tol), 1e-15 * max(1.0, abs(a), abs(b)))
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = yield c
    fd = yield d
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = yield c
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = yield d
    tau = 0.5 * (a + b)
    return tau, (yield tau)


def find_maximizers(grid: HorizonGrid, refine_tol: float, root_tol: float) -> MaximizerSet:
    """Extract the finite maximizer set from the sampled horizon.

    Interior discrete maxima are refined by golden-section search; a plateau
    of equal values contributes only its first time; the horizon boundaries
    are included when the sampled sequence is nonincreasing away from them,
    so the set is never empty.  A peak is found only if it is a discrete
    maximum of the samples: after a narrow lopsided trough the samples may
    fall monotonically through it, however far it lies from the next peak.
    """
    if not refine_tol > 0:
        raise ConfigurationError(f"refine_tol must be positive, got {refine_tol}")
    if not root_tol >= 0:
        raise ConfigurationError(f"root_tol must be nonnegative, got {root_tol}")
    taus, hv = grid.taus, grid.h_values
    K = len(taus) - 1
    t, tend = grid.t, taus[-1]

    candidates = []  # (tau, h_value, at_start, at_end)
    if hv[0] >= hv[1]:
        candidates.append((t, float(hv[0]), True, False))
    prev, mid, nxt = hv[:K - 1], hv[1:K], hv[2:]
    tol = _PLATEAU_TOL * (1.0 + np.abs(mid))
    peak = ((mid >= prev - tol) & (mid >= nxt - tol)
            & ((mid > prev + tol) | (mid > nxt + tol)))
    end = 0
    for j in (np.flatnonzero(peak) + 1).tolist():
        if j <= end:
            continue  # first-of-plateau: skip the following equal samples
        tol_j = tol[j - 1]
        end = j
        while end + 1 < K and abs(hv[end + 1] - hv[j]) <= tol_j:
            end += 1
        tau_r, h_r = grid.searched(_golden_max, taus[j - 1], taus[j + 1], refine_tol,
                                   seeds=zip(taus[j - 1:j + 2], hv[j - 1:j + 2]))
        candidates.append((tau_r, h_r, False, False))
    if hv[K] >= hv[K - 1]:
        candidates.append((tend, float(hv[K]), False, True))

    candidates.sort(key=lambda c: c[0])
    merged = []
    for c in candidates:
        if merged and c[0] - merged[-1][0] <= refine_tol:
            continue  # coincident refined maximizers: keep the earlier
        merged.append(c)

    entries = []
    for tau, h_val, at_start, at_end in merged:
        eta, unsafe = find_root_before(grid, tau, h_val, root_tol)
        entries.append(MaximizerEntry(
            tau=tau, h_value=h_val, at_start=at_start, at_end=at_end, root_eta=eta,
            root_is_self=(eta == tau and not unsafe), already_unsafe=unsafe,
        ))
    return MaximizerSet(entries=entries)


def find_root_before(grid: HorizonGrid, tau: float, h_tau: float,
                     root_tol: float) -> tuple[float, bool]:
    """(eta, already_unsafe): the latest upcrossing zero eta of h along the
    path at or before tau, where h(tau) = h_tau.

    eta is tau itself when the path is safe there.  When h(tau) > 0 and no
    sign change exists on [t, tau], the state is already outside the safe
    set; eta is the start time and already_unsafe is true.
    """
    if h_tau <= 0:
        return tau, False

    idx = np.searchsorted(grid.taus, tau + 1e-12)
    knot_taus = np.append(grid.taus[:idx], tau)
    knot_h = np.append(grid.h_values[:idx], h_tau)
    for j in range(len(knot_taus) - 2, -1, -1):
        if knot_h[j] < 0 <= knot_h[j + 1]:
            return grid.searched(_bisect_root, knot_taus[j], knot_taus[j + 1],
                                 knot_h[j], knot_h[j + 1], root_tol,
                                 seeds=zip(knot_taus[j:j + 2], knot_h[j:j + 2])), False
    return grid.t, True


def _bisect_root(lo, hi, flo, fhi, root_tol):
    """Bisection on [lo, hi] with flo = h(lo) < 0 <= h(hi) = fhi, to
    |h| <= root_tol: yields each midpoint, is sent h there, and returns the
    root."""
    lo, hi, flo, fhi = float(lo), float(hi), float(flo), float(fhi)
    if abs(fhi) <= root_tol:
        return hi
    if abs(flo) <= root_tol:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = yield mid
        if abs(fm) <= root_tol or (hi - lo) < 1e-15 * max(1.0, abs(mid)):
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
