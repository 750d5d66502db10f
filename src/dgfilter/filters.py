"""Modal cutoff filters for LGL collocation and their stability diagnostics.

The filter acts in the normalized Legendre basis: transform nodal values to
modal coefficients, damp each mode by a factor sigma_i in [0, 1], transform
back. Contractivity in the LGL quadrature norm hinges on the interplay
between the filter matrix and the mass matrix, which the helpers below
measure directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import OperatorSet, check_count, gram_diagonal
from .timestepping import check_positive


@dataclass(frozen=True)
class FilterSpec:
    """Parameters of the exponential cutoff profile.

    alpha: exponent scale; exp(-alpha) is the damping of the last mode.
    s: even filter order ("strength"); 16 is strong, 32 is weak.
    nc: number of leading modes left untouched.
    clip_highest: force the last mode's coefficient to exactly zero.
    """

    alpha: float = 36.0
    s: int = 16
    nc: int = 4
    clip_highest: bool = True

    def __post_init__(self):
        check_positive(self.alpha, "alpha")
        object.__setattr__(self, "s", check_count(self.s, "filter order s", 1))
        if self.s % 2:
            raise ValueError(f"filter order s must be even, got {self.s}")
        object.__setattr__(self, "nc", check_count(self.nc, "unaffected mode count nc", 0))


@dataclass(frozen=True)
class FilterMatrices:
    """The nodal filter F = V diag(sigma) Vinv for one degree: what a run applies.

    The adjoint filter and the Gram matrix are verification quantities,
    formed only by :func:`verify_filter`. Immutable after construction.
    """

    F: np.ndarray


def cutoff_profile(n: int, spec: FilterSpec) -> np.ndarray:
    """Modal damping factors sigma_0..sigma_n of the exponential profile.

    The first ``nc`` modes keep sigma = 1 (every mode when ``nc > n``, so
    ``nc`` is clamped to n + 1); mode i >= nc gets exp(-alpha eta^s) with
    eta = (i + 1 - nc) / (n + 1 - nc). Clipping then sets sigma_n = 0.
    ``float_power`` rounds the power like the scalar ``eta ** s``, where the
    array ``**`` does not.
    """
    nc = min(spec.nc, n + 1)
    sig = np.ones(n + 1)
    eta = np.arange(1, n + 2 - nc) / (n + 1 - nc)
    sig[nc:] = np.exp(-spec.alpha * np.float_power(eta, spec.s))
    if spec.clip_highest:
        sig[n] = 0.0
    return sig


def auxiliary_filter(w: np.ndarray, fmat: np.ndarray) -> np.ndarray:
    """Adjoint filter M^-1 F^T M of ``fmat`` with respect to the quadrature.

    For LGL collocation operators this coincides with F itself, which is
    what makes the explicit filter contractive. Computed entrywise from the
    quadrature weights ``w``, the diagonal of M.
    """
    if np.any(w <= 0):
        raise ValueError("quadrature weights must be positive")
    return (fmat.T * w[None, :]) / w[:, None]


def _mass_product(xmat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X^T M X for the diagonal mass matrix M = diag(w).

    Scaling the columns of X^T by the weights costs O(N^2), where a product
    with the dense diagonal costs O(N^3). The C-ordered copy makes the
    remaining product the same BLAS call as (X^T M) X, with the same
    rounding.
    """
    return np.ascontiguousarray(xmat.T * w) @ xmat


def quadrature_gram(vmat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gram matrix V^T M V of the modal basis under the quadrature rule.

    For exact LGL operators this is diag(:func:`gram_diagonal`).
    """
    return _mass_product(vmat, w)


def contractivity_spectrum(fmat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the symmetrized matrix F^T M F - M, M = diag(w).

    A non-positive spectrum is exactly the statement that the filter never
    amplifies the quadrature norm. The product is symmetric in exact
    arithmetic; symmetrizing kills roundoff asymmetry before the solve.
    """
    a = _mass_product(fmat, w)
    a[np.diag_indices_from(a)] -= w
    a += a.T
    a *= 0.5
    return np.linalg.eigvalsh(a)


def build_filter(ops: OperatorSet, spec: FilterSpec) -> FilterMatrices:
    """Assemble the nodal filter F = V diag(sigma) Vinv for one operator set.

    Its eigenpairs are (sigma_j, nodal values of mode j).
    """
    sig = cutoff_profile(ops.N, spec)
    return FilterMatrices(F=(ops.V * sig) @ ops.Vinv)


@dataclass(frozen=True)
class FilterVerification:
    """Measured stability quantities for one (degree, filter) pair."""

    n: int
    gram_offdiag: float
    gram_last: float
    gram_error: float
    adjoint_gap: float
    adjoint_tol: float
    lambda_max: float
    lambda_tol: float

    GRAM_TOL = 1e-10

    @property
    def passed(self) -> bool:
        return (
            self.gram_offdiag <= self.GRAM_TOL
            and self.gram_error <= self.GRAM_TOL
            and self.adjoint_gap <= self.adjoint_tol
            and self.lambda_max <= self.lambda_tol
        )


def verify_filter(ops: OperatorSet, spec: FilterSpec) -> FilterVerification:
    """Measure the Gram pattern, adjoint identity and contractivity spectrum."""
    fmat = build_filter(ops, spec).F
    n = ops.N
    # reduce the N^2 diagnostics to their scalars before the spectrum's own
    gap = auxiliary_filter(ops.weights, fmat)
    gap -= fmat
    adjoint_gap = float(np.max(np.abs(gap, out=gap)))
    del gap
    kmat = quadrature_gram(ops.V, ops.weights)
    gram_last = float(kmat[n, n])
    gram_error = float(np.max(np.abs(np.diag(kmat) - gram_diagonal(n))))
    np.fill_diagonal(kmat, 0.0)
    gram_offdiag = float(np.max(np.abs(kmat, out=kmat)))
    del kmat
    lam = contractivity_spectrum(fmat, ops.weights)
    return FilterVerification(
        n=n,
        gram_offdiag=gram_offdiag,
        gram_last=gram_last,
        gram_error=gram_error,
        adjoint_gap=adjoint_gap,
        adjoint_tol=1e-10 * float(np.max(np.abs(fmat))),
        lambda_max=float(lam[-1]),
        lambda_tol=1e-12 * float(np.max(ops.weights)),
    )
