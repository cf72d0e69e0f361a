"""Predictive control barrier functions.

Propagates a nominal path over a receding horizon, locates the maximizers
and roots of a constraint function along it, builds the predictive barrier
and its control-affine derivative, and filters a nominal control law through
a minimum-deviation QP so that trajectories stay inside the safe set.
"""

from pcbf.core import (
    ConfigurationError,
    MarginFunction,
    make_compatible_alpha,
    make_default_margin,
)
from pcbf.barrier import PcbfContext, PcbfValue, eval_pcbf
from pcbf.qp import solve_min_deviation

__all__ = [
    "ConfigurationError",
    "MarginFunction",
    "make_compatible_alpha",
    "make_default_margin",
    "PcbfContext",
    "PcbfValue",
    "eval_pcbf",
    "solve_min_deviation",
]
