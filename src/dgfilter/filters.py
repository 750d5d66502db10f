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

from .operators import OperatorSet, discrete_norm


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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.s <= 0 or self.s % 2 != 0:
            raise ValueError("filter order s must be a positive even integer")
        if self.nc < 0:
            raise ValueError("number of unaffected modes must be non-negative")


@dataclass(frozen=True)
class FilterMatrices:
    """Cutoff and filter matrices for one degree: what a run applies.

    C: diagonal modal cutoff; F: nodal filter V C Vinv. The adjoint filter
    and the Gram matrix are verification quantities, formed only by
    :func:`verify_filter`. Immutable after construction.
    """

    spec: FilterSpec
    C: np.ndarray
    F: np.ndarray


def sigma_exponential(i: int, n: int, spec: FilterSpec) -> float:
    """Damping factor of mode ``i`` at degree ``n`` for the exponential profile."""
    if not 0 <= i <= n:
        raise ValueError(f"mode index {i} outside 0..{n}")
    if spec.nc > n:
        raise ValueError(f"unaffected-mode count {spec.nc} exceeds degree {n}")
    if spec.clip_highest and i == n:
        return 0.0
    if i <= spec.nc - 1:
        return 1.0
    eta = (i + 1 - spec.nc) / (n + 1 - spec.nc)
    return float(np.exp(-spec.alpha * eta**spec.s))


def cutoff_matrix(n: int, spec: FilterSpec) -> np.ndarray:
    """Diagonal modal cutoff matrix diag(sigma_0, ..., sigma_n).

    With ``nc > n`` every mode falls in the unaffected branch and the
    matrix is the identity (modulo clipping). Validates that all
    coefficients lie in [0, 1] and, when at least one mode is unaffected,
    that sigma_0 is exactly 1.
    """
    if spec.nc > n:
        sig = np.ones(n + 1)
        if spec.clip_highest:
            sig[n] = 0.0
    else:
        sig = np.array([sigma_exponential(i, n, spec) for i in range(n + 1)])
    if np.any(sig < 0.0) or np.any(sig > 1.0):
        raise ValueError("cutoff coefficients must lie in [0, 1]")
    if spec.nc >= 1 and sig[0] != 1.0:
        raise ValueError("sigma_0 must equal 1 when low modes are unaffected")
    return np.diag(sig)


def filter_matrix(vmat: np.ndarray, vinv: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """Nodal filter F = V C Vinv; eigenpairs are (sigma_j, nodal mode j)."""
    return vmat @ cmat @ vinv


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

    For exact LGL operators this is diag(1, ..., 1, 2 + 1/N): every product
    of modes is integrated exactly except the last mode against itself.
    """
    return _mass_product(vmat, w)


def gram_offdiag_max(kmat: np.ndarray) -> float:
    """Largest off-diagonal magnitude of a Gram matrix."""
    return float(np.max(np.abs(kmat - np.diag(np.diag(kmat)))))


def contractivity_spectrum(fmat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of the symmetrized matrix F^T M F - M, M = diag(w).

    A non-positive spectrum is exactly the statement that the filter never
    amplifies the quadrature norm. The product is symmetric in exact
    arithmetic; symmetrizing kills roundoff asymmetry before the solve.
    """
    a = _mass_product(fmat, w) - np.diag(w)
    return np.linalg.eigvalsh(0.5 * (a + a.T))


def contraction_check(fmat: np.ndarray, w: np.ndarray, u: np.ndarray) -> tuple[float, float]:
    """Return (||F u||, ||u||) in the quadrature norm with weights ``w``."""
    return discrete_norm(fmat @ u, w), discrete_norm(u, w)


def build_filter(ops: OperatorSet, spec: FilterSpec) -> FilterMatrices:
    """Assemble the cutoff and filter matrices for one operator set."""
    cmat = cutoff_matrix(ops.N, spec)
    return FilterMatrices(spec=spec, C=cmat, F=filter_matrix(ops.V, ops.Vinv, cmat))


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
    gmat = auxiliary_filter(ops.weights, fmat)
    kmat = quadrature_gram(ops.V, ops.weights)
    n = ops.N
    gram_last = float(kmat[n, n])
    gram_error = max(
        float(np.max(np.abs(np.diag(kmat)[:n] - 1.0))) if n > 0 else 0.0,
        abs(gram_last - (2.0 + 1.0 / n)),
    )
    adjoint_gap = float(np.max(np.abs(gmat - fmat)))
    lam = contractivity_spectrum(fmat, ops.weights)
    return FilterVerification(
        n=n,
        gram_offdiag=gram_offdiag_max(kmat),
        gram_last=gram_last,
        gram_error=gram_error,
        adjoint_gap=adjoint_gap,
        adjoint_tol=1e-10 * float(np.max(np.abs(fmat))),
        lambda_max=float(lam[-1]),
        lambda_tol=1e-12 * float(np.max(ops.weights)),
    )
