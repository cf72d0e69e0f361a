"""Times of interest along the propagated trajectory.

A dense grid over [t, t+T] locates candidate local maximizers of
h(tau, p(tau; t, x)); golden-section search refines interior candidates and
bisection finds the last upcrossing zero preceding each unsafe maximizer.
Each search evaluates a missing probe in one batch with every probe its next
_LOOKAHEAD steps could ask for, either way each comparison goes.  Batching
keeps each value's bits, so both return what one probe per step returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from pcbf.core import ConfigurationError
from pcbf.paths import Path

_PLATEAU_TOL = 1e-12
REFINE_TOL = 1e-6       # golden section: final bracket width, s
ROOT_TOL = 1e-9         # bisection: |h| at which a midpoint is the root
_THREAT_FRACTION = 0.5  # two-level scan: re-sample where h >= -this * h_max
_REFINE_FACTOR = 50     # two-level scan: dense step = grid step / this
_LOOKAHEAD = 4          # search steps evaluated ahead per batch (<= 15 probes)
# scan: N bound, 400x the pinned 250; memory grows with N.  One pcbf step at
# 1e5 took 0.03 s, 40 MB peak RSS on intersection_cross (t = 10.1) and 0.32 s,
# 98 MB on the two-level satellite (t = 411), on a 2-vCPU host.
_MAX_N = 10**5


@dataclass
class PathEvaluation:
    """Snapshot of the path and constraint at one horizon time."""

    state: np.ndarray
    dp_dtau: np.ndarray
    grad_x: np.ndarray
    dh_dtau: float


@dataclass
class HorizonGrid:
    """Sampled trajectory of h along the path over [t, t+T].

    taus are strictly increasing with taus[0] = t and taus[-1] = t + T; they
    are uniform unless the two-level scan split each interval with a hot
    endpoint into _REFINE_FACTOR equal steps.
    """

    t: float
    x: np.ndarray
    T: float
    taus: np.ndarray
    h_values: np.ndarray
    path: Path
    h: object

    def h_many(self, taus) -> np.ndarray:
        """h along the path at each of taus."""
        taus = np.asarray(taus, dtype=float)
        return self.h.value(taus, self.path.evaluate_many(taus, self.t, self.x))

    def evaluation(self, tau: float, state=None) -> PathEvaluation:
        """The field, grad_x h and dh/dtau at the path state at tau, or at
        the given state."""
        if state is None:
            state = self.path.evaluate(tau, self.t, self.x)
        dp_dtau = self.path.field(tau, state)
        dh_dt, grad_x = self.h.partials(tau, state)
        dh_dtau = float(dh_dt + grad_x @ dp_dtau)
        return PathEvaluation(state, dp_dtau, grad_x, dh_dtau)

    def sensitivity(self, tau: float) -> np.ndarray:
        """dp(tau; t, x)/dx."""
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


@dataclass(frozen=True)
class RootResult:
    eta: float
    already_unsafe: bool


def scan(path, h, t, x, T, N, two_level=False):
    """Sample h along the path at N+1 uniform times over [t, t+T].

    With two_level=True, each interval [lo, lo + T/N] with an endpoint whose
    h-value comes within _THREAT_FRACTION * h_max of zero is refined once, at
    lo + k T/N/_REFINE_FACTOR for k = 1 .. _REFINE_FACTOR - 1, so narrow
    violation spikes are resolved without a uniformly fine grid.
    """
    if T <= 0:
        raise ConfigurationError(f"horizon T must be positive, got {T}")
    if not 50 <= N <= _MAX_N:
        raise ConfigurationError(f"grid sample count N must be in [50, {_MAX_N}], got {N}")
    taus = t + np.arange(N + 1) * (T / N)
    taus[-1] = t + T
    h_values = np.asarray(h.value(taus, path.evaluate_many(taus, t, x)), dtype=float)

    if two_level:
        hot = h_values >= -_THREAT_FRACTION * h.h_max
        lo = taus[:-1][hot[:-1] | hot[1:]]
        new = (lo[:, None] + np.arange(1, _REFINE_FACTOR) * (T / N / _REFINE_FACTOR)).ravel()
        if new.size:
            taus = np.concatenate([taus, new])
            h_values = np.concatenate([h_values, h.value(new, path.evaluate_many(new, t, x))])
            order = np.argsort(taus, kind="stable")
            taus, h_values = taus[order], h_values[order]

    return HorizonGrid(t=float(t), x=np.asarray(x, dtype=float), T=float(T), taus=taus,
                       h_values=h_values, path=path, h=h)


def _batched(h_many, tree):
    """h through a memo; a miss evaluates tree(*state), the probes due next."""
    memo = {}

    def f(tau, *state):
        if tau not in memo:
            taus = tree(*state)
            memo.update(zip(taus, h_many(taus).tolist()))
        return memo[tau]
    return f


def _golden_max(h_many, lo, hi, tol):
    """Golden-section maximization of h on [lo, hi] to an interval of width tol."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0

    def tree(a, b, c, d, pending, depth=_LOOKAHEAD):
        # pending probes, then both outcomes of each comparison that follows
        out, depth = list(pending), depth - len(pending)
        if depth and b - a > tol:
            c2, d2 = d - invphi * (d - a), c + invphi * (b - c)
            out += tree(a, d, c2, c, (c2,), depth) + tree(c, b, d, d2, (d2,), depth)
        elif depth:
            out.append(0.5 * (a + b))
        return out

    f = _batched(h_many, tree)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c, a, b, c, d, (c, d)), f(d, a, b, c, d, (d,))
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c, a, b, c, d, (c,))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d, a, b, c, d, (d,))
    tau = 0.5 * (a + b)
    return tau, f(tau, a, b, c, d, (tau,), 1)


def find_maximizers(grid: HorizonGrid, refine_tol: float, root_tol: float) -> MaximizerSet:
    """Extract the finite maximizer set from the sampled horizon.

    Interior discrete maxima are refined by golden-section search; a plateau
    of equal values contributes only its first time; the horizon boundaries
    are included when the sampled sequence is nonincreasing away from them,
    so the set is never empty.
    """
    if not refine_tol > 0:
        raise ConfigurationError(f"refine_tol must be positive, got {refine_tol}")
    if not root_tol >= 0:
        raise ConfigurationError(f"root_tol must be nonnegative, got {root_tol}")
    taus, hv = grid.taus, grid.h_values
    K = len(taus) - 1
    t, tend = grid.t, grid.t + grid.T

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
        tau_r, h_r = _golden_max(grid.h_many, taus[j - 1], taus[j + 1], refine_tol)
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
        root = find_root_before(grid, tau, h_val, root_tol)
        entries.append(MaximizerEntry(
            tau=tau, h_value=h_val, at_start=at_start, at_end=at_end,
            root_eta=root.eta, root_is_self=(root.eta == tau and not root.already_unsafe),
            already_unsafe=root.already_unsafe,
        ))
    return MaximizerSet(entries=entries)


def find_root_before(grid: HorizonGrid, tau: float, h_tau: float, root_tol: float) -> RootResult:
    """Latest upcrossing zero of h along the path at or before tau; h(tau) = h_tau.

    Returns tau itself when the path is safe there.  When h(tau) > 0 and no
    sign change exists on [t, tau], the state is already outside the safe
    set; the start time is returned with the already_unsafe flag raised.
    """
    if h_tau <= 0:
        return RootResult(eta=tau, already_unsafe=False)

    idx = np.searchsorted(grid.taus, tau + 1e-12)
    knot_taus = np.append(grid.taus[:idx], tau)
    knot_h = np.append(grid.h_values[:idx], h_tau)
    for j in range(len(knot_taus) - 2, -1, -1):
        if knot_h[j] < 0 <= knot_h[j + 1]:
            eta = _bisect_root(grid.h_many, knot_taus[j], knot_taus[j + 1],
                               knot_h[j], knot_h[j + 1], root_tol)
            return RootResult(eta=eta, already_unsafe=False)
    return RootResult(eta=grid.t, already_unsafe=True)


def _bisect_root(h_many, lo, hi, flo, fhi, root_tol):
    """Bisection on [lo, hi] with flo = h(lo) < 0 <= h(hi) = fhi, to |h| <= root_tol."""
    def tree(lo, hi, depth=_LOOKAHEAD):
        # the midpoint, then those of both halves it may keep
        mid = 0.5 * (lo + hi)
        return [mid] + (tree(lo, mid, depth - 1) + tree(mid, hi, depth - 1) if depth > 1 else [])

    f = _batched(h_many, tree)
    if abs(fhi) <= root_tol:
        return hi
    if abs(flo) <= root_tol:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid, lo, hi)
        if abs(fm) <= root_tol or (hi - lo) < 1e-15 * max(1.0, abs(mid)):
            return mid
        if fm < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
