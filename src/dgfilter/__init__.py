"""Stable modal filtering for nodal discontinuous Galerkin methods on LGL grids."""

from .equations import ProblemSpec, llf_flux, make_rhs
from .filters import (
    FilterMatrices,
    FilterSpec,
    auxiliary_filter,
    build_filter,
    contraction_check,
    contractivity_spectrum,
    cutoff_profile,
    quadrature_gram,
    verify_filter,
)
from .operators import (
    OperatorSet,
    build_operators,
    derivative_matrix,
    discrete_inner,
    discrete_norm,
    interpolation_matrix,
    legendre_normalized,
    lgl_nodes_weights,
    sbp_residual,
    vandermonde,
)
from .timestepping import FilterSchedule, RunConfig, Trajectory, integrate, rk3_step

__version__ = "0.1.0"
