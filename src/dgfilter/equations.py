"""Semi-discrete nodal DG right-hand sides on a single spectral element.

Supported problems: linear advection with constant or variable wave speed
(inflow boundary at the left) and Burgers' equation in conservative or
split (skew-symmetric) form with periodic coupling of the two element faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .operators import OperatorSet

PDE_KINDS = (
    "advection_constant",
    "advection_variable",
    "burgers_conservative",
    "burgers_skew",
)


@dataclass(frozen=True)
class ProblemSpec:
    """PDE selection and domain for one run.

    The PDE fixes the boundary treatment: advection problems impose the
    Dirichlet trace ``inflow`` = g(t) weakly at the left endpoint, Burgers
    runs couple the two element faces periodically. ``inflow`` must accept
    an array of times and return g elementwise: the linear studies ask for
    many stage times in one call.
    """

    pde: str
    domain: tuple[float, float] = (-1.0, 1.0)
    wave_speed: float = 1.0
    wave_speed_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inflow: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.pde not in PDE_KINDS:
            raise ValueError(f"unknown pde kind {self.pde!r}")
        x_l, x_r = self.domain
        if not x_r > x_l:
            raise ValueError("domain must satisfy x_L < x_R")
        if self.pde == "advection_constant" and self.wave_speed < 0:
            raise ValueError("inflow at the left requires a non-negative wave speed")
        if self.pde == "advection_variable" and self.wave_speed_fn is None:
            raise ValueError("variable-speed advection needs wave_speed_fn")

    @property
    def dx(self) -> float:
        return self.domain[1] - self.domain[0]

    @property
    def scale(self) -> float:
        # reference-to-physical derivative factor 2 / dx
        return 2.0 / self.dx

    def physical_nodes(self, ref_nodes: np.ndarray) -> np.ndarray:
        return self.domain[0] + 0.5 * self.dx * (ref_nodes + 1.0)


def make_rhs(problem: ProblemSpec, ops: OperatorSet) -> Callable[[np.ndarray, float], np.ndarray]:
    """Bind a problem to its operators as an array-level rhs(u, t) closure.

    This is the one right-hand-side entry point for every PDE kind. It
    precomputes everything the kernels need so the time loop touches no
    Python-level problem logic; the kernels themselves are looked up on
    :mod:`kernels` at call time, so a tracer can swap them.
    """
    dmat, w, scale = ops.D, ops.weights, problem.scale
    if problem.pde == "advection_constant":
        a, g_fn = problem.wave_speed, problem.inflow

        def rhs(u, t):
            return kernels.advection_rhs(u, dmat, w, scale, a, float(g_fn(t)))

    elif problem.pde == "burgers_conservative":
        neg_scale, face = kernels.burgers_constants(w, scale)

        def rhs(u, t):
            return kernels.burgers_cons_rhs(u, dmat, neg_scale, face)

    elif problem.pde == "burgers_skew":
        neg_scale, face = kernels.burgers_constants(w, scale)

        def rhs(u, t):
            return kernels.burgers_skew_rhs(u, dmat, neg_scale, face)

    else:
        x = problem.physical_nodes(ops.nodes)
        a_nodes = np.ascontiguousarray(problem.wave_speed_fn(x), dtype=float)
        a_left = float(a_nodes[0])
        if a_left < 0:
            raise ValueError("wave speed must be non-negative at the left endpoint")
        g_fn = problem.inflow

        def rhs(u, t):
            return kernels.varspeed_rhs(u, dmat, a_nodes, w, scale, a_left,
                                        float(g_fn(t)))

    return rhs
