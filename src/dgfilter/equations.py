"""Semi-discrete nodal DG right-hand sides on a single spectral element.

Supported problems: linear advection u_t + a(x) u_x = 0 with the wave speed
``a`` given at the nodes and inflow at the left, and Burgers' equation in
conservative or split (skew-symmetric) form with periodic coupling of the
two element faces. Advection is linear, so it is assembled once as the
matrix and vector of u' = L u + r g(t) (:func:`linear_operator`, O(N^2));
Burgers is a per-state closure (:func:`make_rhs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .operators import OperatorSet

PDE_KINDS = ("advection_variable", "burgers_conservative", "burgers_skew")


@dataclass(frozen=True)
class ProblemSpec:
    """PDE selection and domain for one run.

    The PDE fixes the boundary treatment: advection problems impose the
    Dirichlet trace ``inflow`` = g(t) weakly at the left endpoint, Burgers
    runs couple the two element faces periodically. ``inflow`` must accept
    an array of times and return g elementwise: a linear study asks for the
    stage times of up to 4096 steps, a (steps, 3) array, in one call, and
    for a truncated last step's times one float at a time.
    """

    pde: str
    domain: tuple[float, float] = (-1.0, 1.0)
    wave_speed_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inflow: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.pde not in PDE_KINDS:
            raise ValueError(f"unknown pde kind {self.pde!r}")
        x_l, x_r = self.domain
        if not x_r > x_l:
            raise ValueError("domain must satisfy x_L < x_R")
        if self.pde == "advection_variable" and self.wave_speed_fn is None:
            raise ValueError("advection needs wave_speed_fn")

    @property
    def dx(self) -> float:
        return self.domain[1] - self.domain[0]

    @property
    def scale(self) -> float:
        # reference-to-physical derivative factor 2 / dx
        return 2.0 / self.dx

    def physical_nodes(self, ref_nodes: np.ndarray) -> np.ndarray:
        return self.domain[0] + 0.5 * self.dx * (ref_nodes + 1.0)


def linear_operator(problem: ProblemSpec, ops: OperatorSet) -> tuple[np.ndarray, np.ndarray]:
    """(L, r) with u' = L u + r g(t), g = ``problem.inflow``, for an advection problem.

    The wave speed is ``problem.wave_speed_fn`` at the physical nodes; it
    must be non-negative at the left endpoint, where the inflow enters. The
    body is looked up on :mod:`kernels` at call time, so a tracer can swap it.
    """
    if problem.pde != "advection_variable":
        raise ValueError(f"{problem.pde!r} is not linear")
    x = problem.physical_nodes(ops.nodes)
    a_nodes = np.ascontiguousarray(problem.wave_speed_fn(x), dtype=float)
    if a_nodes[0] < 0:
        raise ValueError("wave speed must be non-negative at the left endpoint")
    return kernels.advection_rhs(ops.D, a_nodes, ops.weights, problem.scale)


def make_rhs(problem: ProblemSpec, ops: OperatorSet) -> Callable[[np.ndarray, float], np.ndarray]:
    """Bind a Burgers problem to its operators as an array-level rhs(u, t) closure.

    It precomputes everything the kernels need so the time loop touches no
    Python-level problem logic; the kernels themselves are looked up on
    :mod:`kernels` at call time, so a tracer can swap them. Advection is
    :func:`linear_operator` instead.
    """
    if problem.pde == "advection_variable":
        raise ValueError("advection is linear: use linear_operator")
    dmat = ops.D
    neg_scale, face = kernels.burgers_constants(ops.weights, problem.scale)
    if problem.pde == "burgers_conservative":
        def rhs(u, t):
            return kernels.burgers_cons_rhs(u, dmat, neg_scale, face)
    else:
        def rhs(u, t):
            return kernels.burgers_skew_rhs(u, dmat, neg_scale, face)
    return rhs
