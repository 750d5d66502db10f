"""First-order finite-volume reference solver for periodic Burgers runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

import numpy as np

from . import kernels
from .timestepping import MAX_STEPS, check_step_budget

# Cell updates (cells x steps) one reference solve may make: about a minute
# at the 1.5e8 updates per second of the LLF sweep on a 2-core machine.
MAX_CELL_UPDATES = 10**10
# cells per block in which the caps read the initial data
_CAP_BLOCK = 1 << 16


@dataclass(frozen=True)
class FvConfig:
    """Grid and stepping parameters for the reference solve on the fixed domain [0, 2]."""

    cells: int = 10000
    cfl: float = 0.9
    t_final: float = 2.25
    domain: ClassVar[tuple[float, float]] = (0.0, 2.0)

    def __post_init__(self):
        if not 10 <= self.cells <= MAX_STEPS:
            raise ValueError(f"reference grid needs 10 to {MAX_STEPS} cells, got {self.cells}")
        if not 0.0 < self.cfl <= 0.95:
            raise ValueError("forward Euler needs cfl in (0, 0.95]")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError("final time must be positive and finite")

    @property
    def dx(self) -> float:
        return (self.domain[1] - self.domain[0]) / self.cells


def cell_centers(config: FvConfig, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
    """Centers of cells lo..hi-1 (all by default); each one as in the whole grid."""
    x_l = config.domain[0]
    return x_l + config.dx * (np.arange(lo, config.cells if hi is None else hi) + 0.5)


def solve_fv_burgers(config: FvConfig,
                     init: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the reference solver; returns (cell centers, final averages, steps).

    Cell averages are initialized with midpoint sampling, first-order
    consistent with the scheme itself. Local Lax-Friedrichs interface
    fluxes telescope, so total mass is conserved to roundoff. The first step
    ``cfl dx / max|u0|`` (unbounded when u0 = 0) must reach ``t_final``
    within ``MAX_STEPS`` steps; by the maximum principle no later step is
    shorter. Nor may cells times the steps it bounds exceed
    ``MAX_CELL_UPDATES``. Both caps read max|u0| a block of cells at a time,
    before the grid is allocated, so a rejected run allocates no grid.
    """
    bounds = [*range(0, config.cells, _CAP_BLOCK), config.cells]
    u_max = float(np.max([np.max(np.abs(init(cell_centers(config, lo, hi))))
                          for lo, hi in zip(bounds, bounds[1:])]))
    dt0 = config.cfl * config.dx / u_max if u_max > 0 else math.inf
    check_step_budget(config.t_final, dt0)
    if config.cells * config.t_final > MAX_CELL_UPDATES * dt0:
        raise ValueError(f"cells x steps exceeds the work cap of "
                         f"{MAX_CELL_UPDATES:.0e} cell updates")
    x = cell_centers(config)
    u0 = np.ascontiguousarray(init(x), dtype=float)
    u, steps = kernels.fv_burgers(u0, config.dx, config.cfl, config.t_final)
    return x, u, steps
