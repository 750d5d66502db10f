"""First-order finite-volume reference solver for periodic Burgers runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from . import kernels
from .timestepping import check_step_budget

# Cell updates (cells x steps) one reference solve may make: about a minute
# at the 1.5e8 updates per second of the LLF sweep on a 2-core machine.
MAX_CELL_UPDATES = 10**10
# Grid cap, checked before the grid is allocated: above every grid that the
# work cap lets the study's initial data run (145 296 cells at cfl 0.95)
MAX_CELLS = 2 * 10**5


@dataclass(frozen=True)
class FvConfig:
    """Grid and stepping parameters for the reference solve on the fixed domain [0, 2];
    10 to ``MAX_CELLS`` cells, checked before any grid exists."""

    cells: int = 10000
    cfl: float = 0.9
    t_final: float = 2.25
    domain: ClassVar[tuple[float, float]] = (0.0, 2.0)

    def __post_init__(self):
        if not 10 <= self.cells <= MAX_CELLS:
            raise ValueError(f"reference grid needs 10 to {MAX_CELLS} cells, got {self.cells}")
        if not 0.0 < self.cfl <= 0.95:
            raise ValueError("forward Euler needs cfl in (0, 0.95]")
        if not (math.isfinite(self.t_final) and self.t_final > 0):
            raise ValueError("final time must be positive and finite")

    @property
    def dx(self) -> float:
        return (self.domain[1] - self.domain[0]) / self.cells


def cell_centers(config: FvConfig) -> np.ndarray:
    """Centers x_l + dx (i + 1/2) of the grid's cells i = 0..cells-1."""
    return config.domain[0] + config.dx * (np.arange(config.cells) + 0.5)


def solve_fv_burgers(config: FvConfig,
                     init: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the reference solver; returns (cell centers, final averages, steps).

    Cell averages are initialized with midpoint sampling, first-order
    consistent with the scheme itself. Local Lax-Friedrichs interface
    fluxes telescope, so total mass is conserved to roundoff. The first step
    ``cfl dx / max|u0|`` (unbounded when u0 = 0) must reach ``t_final``
    within ``MAX_STEPS`` steps; by the maximum principle no later step is
    shorter. Nor may cells times the steps it bounds exceed
    ``MAX_CELL_UPDATES``. ``init`` is evaluated once, on the grid, and both
    caps read max|u0| from that array before the kernel runs; ``FvConfig``
    has already bounded the grid by ``MAX_CELLS``.
    """
    x = cell_centers(config)
    u0 = np.ascontiguousarray(init(x), dtype=float)
    u_max = float(np.max(np.abs(u0)))
    dt0 = config.cfl * config.dx / u_max if u_max > 0 else math.inf
    check_step_budget(config.t_final, dt0)
    if config.cells * config.t_final > MAX_CELL_UPDATES * dt0:
        raise ValueError(f"cells x steps exceeds the work cap of "
                         f"{MAX_CELL_UPDATES:.0e} cell updates")
    u, steps = kernels.fv_burgers(u0, config.dx, config.cfl, config.t_final)
    return x, u, steps
