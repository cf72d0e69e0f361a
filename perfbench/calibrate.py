"""Host-speed calibration: times reported at a fixed reference speed.

The shared host this benchmark was made on changes speed by up to 1.8x
within minutes (contention from other tenants; process CPU time rises
with wall time, so it is not steal).  A run takes whole phases of it,
so raw wall times of the same code spread past any useful bound.

The runner therefore runs a fixed kernel, owned by the benchmark and never
by the library, every INTERVAL seconds between control steps, and scales
each measured time by REFERENCE_S / (the kernel's time around it).  The
kernel mixes what pcbf spends its time on: an RK4 step of a small ODE with
its 6x6 variational matrix in numpy, and a scalar golden-section search in
plain Python.  A change to pcbf cannot move the kernel, so it still moves
the calibrated times by its own share; a change in host speed moves both.
Raw wall times are kept next to the calibrated ones in each result record.

Set-up time is mostly interpreter start and imports, which the kernel does
not resemble, so each set-up probe is instead followed by IMPORT_PROBE, a
fresh interpreter that imports the third-party modules pcbf imports, and
scaled by REFERENCE_IMPORT_S / its time.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REFERENCE_S = 0.006    # calibrated times are seconds at this kernel time
REFERENCE_IMPORT_S = 0.6   # calibrated set-up is seconds at this probe time
IMPORT_PROBE = ("import sys, numpy, scipy.interpolate\n"
                "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
INTERVAL = 0.1         # seconds of work between two kernel runs
WINDOW = 4             # a step is scaled by the median of 2*WINDOW+1 samples


def _field(x):
    r = x[:3]
    n = math.sqrt(float(r @ r))
    return np.concatenate((x[3:], -r / n**3))


def _jacobian(x):
    r = x[:3]
    n = math.sqrt(float(r @ r))
    a = np.zeros((6, 6))
    a[:3, 3:] = np.eye(3)
    a[3:, :3] = (3.0 * np.outer(r, r) / n**2 - np.eye(3)) / n**3
    return a


def _objective(s):
    return math.sin(3.0 * s) + 0.1 * s * s


def kernel(steps: int = 120, searches: int = 200) -> float:
    """A fixed amount of numpy RK4 and plain-Python search work."""
    x = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.05])
    phi = np.eye(6)
    dt = 0.01
    for _ in range(steps):
        k1 = _field(x)
        k2 = _field(x + dt / 2 * k1)
        k3 = _field(x + dt / 2 * k2)
        k4 = _field(x + dt * k3)
        phi = phi + dt * (_jacobian(x) @ phi)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    a, b = 0.0, 3.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(searches):
        c, d = b - g * (b - a), a + g * (b - a)
        if _objective(c) < _objective(d):
            b = d
        else:
            a = c
        if b - a < 1e-12:
            a, b = 0.0, 3.0
    return float(x[0] + phi[0, 0] + a)


class Calibrator:
    """Samples the kernel between steps and turns raw times into calibrated ones."""

    def __init__(self):
        kernel()  # warm-up, not sampled
        self.at: list[float] = []       # perf_counter at each sample's end
        self.took: list[float] = []     # the kernel's wall time
        self.last = time.perf_counter()

    def maybe_sample(self) -> float:
        """Run the kernel if INTERVAL has passed; return the seconds it took."""
        if time.perf_counter() - self.last < INTERVAL:
            return 0.0
        return self.sample()

    def sample(self) -> float:
        """Run the kernel now; return the seconds it took."""
        tic = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.at.append(self.last)
        self.took.append(self.last - tic)
        return self.last - tic

    def factor(self, lo: int, hi: int) -> float:
        """REFERENCE_S over the median kernel time of samples lo..hi-1."""
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def local_factors(self, stamps: list[float], lo: int, hi: int) -> list[float]:
        """A factor for each time stamp, from the 2*WINDOW+1 samples of
        lo..hi-1 nearest to it in time."""
        at = self.at[lo:hi]
        took = self.took[lo:hi]
        out = []
        for t in stamps:
            i = bisect.bisect_left(at, t)
            a = max(0, min(i - WINDOW, len(took) - 2 * WINDOW - 1))
            out.append(REFERENCE_S / statistics.median(took[a:a + 2 * WINDOW + 1]))
        return out
