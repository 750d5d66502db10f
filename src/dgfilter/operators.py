"""Legendre-Gauss-Lobatto collocation operators on the reference interval [-1, 1]."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Degree cap: keeps the Newton solve, the barycentric weights and the Gram
# identity behind Vinv comfortably inside double-precision roundoff.
MAX_DEGREE = 512

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100
# degrees per outer product of (2k + 1) x factors in the Legendre recurrence
_FACTOR_BLOCK = 64
# n * max|step| bound under which the next Newton pass is expected to be the last
_TABLE_PREDICT = 3e-8


@dataclass(frozen=True)
class OperatorSet:
    """The collocation operators one run needs, for one polynomial degree N.

    Treated as read-only after construction; safe to share across threads.

    Attributes
    ----------
    N : polynomial degree (nodes run 0..N)
    nodes : N+1 LGL nodes in [-1, 1], ascending
    weights : N+1 positive quadrature weights, the diagonal of the mass matrix
    D : dense nodal differentiation matrix
    V : Vandermonde matrix of the normalized Legendre basis at the nodes
    Vinv : inverse of V (nodal -> modal transform), K^-1 V^T M, K of :func:`gram_diagonal`
    """

    N: int
    nodes: np.ndarray
    weights: np.ndarray
    D: np.ndarray
    V: np.ndarray
    Vinv: np.ndarray


def _legendre_pair(n: int, x: np.ndarray, table=None) -> tuple[np.ndarray, np.ndarray]:
    """Return (P_n(x), P_{n-1}(x)) by the three-term recurrence, n >= 1.

    Each step is ((2k + 1) x P_k - k P_{k-1}) / (k + 1) in four numpy calls;
    the (2k + 1) x factors come ``_FACTOR_BLOCK`` degrees at a time from one
    outer product, which rounds as (2k + 1) * x does. The steps run in three
    rotating buffers, or, given an ``(n + 1) x x.size`` array ``table``, in
    its rows, so that row k receives P_k(x). Every operation is
    sign-symmetric: P_k(-x) = (-1)^k P_k(x) bit for bit.
    """
    rows = iter(table) if table is not None else itertools.cycle(np.empty((3, x.size)))
    p_prev, p = next(rows), next(rows)
    p_prev[...], p[...] = 1.0, x
    scaled = np.empty_like(p)
    for k0 in range(1, n, _FACTOR_BLOCK):
        k1 = min(k0 + _FACTOR_BLOCK, n)
        factors = np.multiply.outer(np.arange(2 * k0 + 1, 2 * k1, 2, dtype=float), x)
        for k, fac, nxt in zip(range(k0, k1), factors, rows):
            np.multiply(fac, p, out=nxt)
            np.multiply(p_prev, k, out=scaled)
            nxt -= scaled
            nxt /= k + 1
            p_prev, p = p, nxt
    return p, p_prev


def lgl_nodes_weights(n: int, table=None) -> tuple[np.ndarray, np.ndarray]:
    """Legendre-Gauss-Lobatto nodes and quadrature weights for degree ``n``.

    The interior nodes are the roots of P_n' = c P^(1,1)_{n-1}, found by
    Newton iteration seeded with the Gatteschi-Pittaluga asymptotic for
    Jacobi zeros, x_k = cos(phi_k - 3 / (8 rho^2 tan phi_k)) with
    phi_k = (k + 1/4) pi / rho, rho = n + 1/2 and k = n-1..1 (ascending x).
    The seed is within 1e-4 of the roots at n = 3 and 3e-9 at n = 512.
    Symmetrized once, the iterate is exactly antisymmetric, and the
    recurrence and the step are sign-symmetric, so Newton runs on the nodes
    x >= 0 only (the middle node stays exactly 0) and the rest are their
    mirror images. Each pass evaluates the recurrence at the iterate; once
    max|step| <= ``_NEWTON_TOL`` the iteration stops without taking that
    step, three passes for every n >= 3. The weights
    2 / (n (n + 1) P_n(x)^2) take P_n from that last pass. The rule is exact
    for polynomials of degree <= 2n - 1.

    Parameters
    ----------
    n : polynomial degree, at least 1
    table : optional ``(n + 1) x (n + 1)`` array that receives
        P_k(nodes_j) in row k, bit for bit the table :func:`vandermonde`
        evaluates. The pass that quadratic convergence predicts to be the
        last one (``n`` times the previous max|step| at most
        ``_TABLE_PREDICT``) writes it; if the stopping pass did not, one
        more recurrence at the final nodes does.

    Returns
    -------
    (nodes, weights) : two arrays of length n + 1
    """
    if n < 1:
        raise ValueError("degree must be >= 1 (a single node has no boundary matrix)")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the configured maximum {MAX_DEGREE}")

    nodes = np.empty(n + 1)
    nodes[n] = 1.0
    weights = np.full(n + 1, 2.0 / (n * (n + 1)))  # P_n(+-1)^2 = 1
    if table is not None:
        table[:, n] = 1.0
    # nodes h..n-1 are the interior ones with x >= 0; nodes[h] = 0 for even n
    h = (n + 1) // 2
    if n >= 2:
        rho = n + 0.5
        phi = (np.arange(n - 1, 0, -1) + 0.25) * (np.pi / rho)
        x = np.cos(phi - 3.0 / (8.0 * rho * rho * np.tan(phi)))
        # symmetrize and keep x >= 0: the pairs become exact negatives, the
        # middle node exactly 0, and the sign-symmetric passes keep them so
        x = 0.5 * (x[h - 1:] - x[n - h - 1::-1])
        half = None if table is None else table[:, h:n]
        last_step = np.inf
        for _ in range(_NEWTON_MAXIT):
            written = half is not None and n * last_step <= _TABLE_PREDICT
            p, p_prev = _legendre_pair(n, x, half if written else None)
            # dP_n and d2P_n from the standard identities; x is interior so
            # the 1 - x^2 factors are safe.
            omx2 = 1.0 - x * x
            dp = n * (p_prev - x * p) / omx2
            d2p = (2.0 * x * dp - n * (n + 1) * p) / omx2
            step = dp / d2p
            last_step = np.max(np.abs(step))
            if last_step <= _NEWTON_TOL:
                break
            x -= step
        else:
            raise RuntimeError(f"LGL Newton iteration failed to converge for n={n}")
        if half is not None and not written:
            _legendre_pair(n, x, half)
        nodes[h:n] = x
        weights[h:n] = 2.0 / (n * (n + 1) * p * p)
    # mirror the x >= 0 half: P_k(-x) = (-1)^k P_k(x)
    nodes[:h] = -nodes[n:n - h:-1]
    weights[:h] = weights[n:n - h:-1]
    if table is not None:
        table[:, :h] = table[:, n:n - h:-1]
        table[1::2, :h] *= -1.0
    return nodes, weights


def _barycentric_weights(weights: np.ndarray) -> np.ndarray:
    """Barycentric weights (-1)^j sqrt(w_j) of an LGL rule, up to a common factor.

    By Legendre's equation the weights 1 / prod_k (x_j - x_k) are
    proportional to 1 / P_N(x_j), and w_j = 2 / (N (N + 1) P_N(x_j)^2) with
    P_N alternating in sign over the nodes. This avoids the roundoff that
    the N-factor products gather at high degree.
    """
    bw = np.sqrt(np.asarray(weights, dtype=float))
    bw[1::2] *= -1.0
    return bw


def derivative_matrix(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Nodal differentiation matrix at the LGL nodes via barycentric weights.

    Needs the LGL rule: the barycentric weights come from its quadrature
    ``weights``. Entry (i, j) is the derivative of the j-th Lagrange
    cardinal polynomial at node i. Diagonal entries use the negative-sum
    trick, which pins the row sums (the derivative of a constant) at the
    roundoff floor.
    """
    x = np.asarray(nodes, dtype=float)
    if np.any(np.diff(np.sort(x)) == 0.0):
        raise ValueError("duplicate nodes")
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = _barycentric_weights(weights)
    dmat = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(dmat, 0.0)
    np.fill_diagonal(dmat, -np.sum(dmat, axis=1))
    return dmat


def gram_diagonal(n: int) -> np.ndarray:
    """Diagonal of K = V^T M V = diag(1, ..., 1, 2 + 1/N): the LGL rule of degree
    N integrates every product of normalized modes exactly but P_N P_N."""
    return np.append(np.ones(n), 2.0 + 1.0 / n)


def vandermonde(nodes: np.ndarray, weights: np.ndarray,
                table=None) -> tuple[np.ndarray, np.ndarray]:
    """Vandermonde matrix of the normalized Legendre basis and its inverse.

    V maps modal coefficients to nodal values: the table P_k(nodes_j) of
    :func:`_legendre_pair`, normalized and transposed to C order in one pass.
    A ``table`` that :func:`lgl_nodes_weights` has filled for these nodes is
    used as it is, with no recurrence of its own. Needs the LGL rule, whose
    Gram matrix V^T M V is K = diag(:func:`gram_diagonal`), M = diag(weights), so
    Vinv = K^-1 V^T M with no linear solve; ``ops check`` measures V Vinv - I.
    """
    n = len(nodes) - 1
    if table is None:
        table = np.empty((n + 1, n + 1))
        _legendre_pair(n, np.asarray(nodes, dtype=float), table)
    vmat = np.multiply(table.T, np.sqrt(np.arange(n + 1) + 0.5), order="C")
    vinv = vmat.T * weights
    vinv /= gram_diagonal(n)[:, None]
    return vmat, vinv


def sbp_tolerance(n: int) -> float:
    """Bound on :func:`sbp_residual` at degree ``n``: 1e-12, growing like N above N = 64."""
    return 1e-12 * max(1.0, n / 64.0)


def sbp_residual(ops: OperatorSet) -> float:
    """Max-abs entry of M D + (M D)^T - B; a construction self-check.

    M = diag(weights) scales the rows of D, and the boundary matrix
    B = diag(-1, 0, ..., 0, 1) only touches the two corners.
    """
    md = ops.weights[:, None] * ops.D
    resid = md + md.T
    resid[0, 0] += 1.0
    resid[-1, -1] -= 1.0
    return float(np.max(np.abs(resid, out=resid)))


def build_operators(n: int, check: bool = True) -> OperatorSet:
    """Construct the operator set for degree ``n``.

    The last Newton pass of :func:`lgl_nodes_weights` also fills the
    Legendre table behind V, so one build runs three recurrences for every
    n >= 4. With ``check`` enabled the summation-by-parts residual is held
    to :func:`sbp_tolerance` before returning.
    """
    table = np.empty((n + 1, n + 1))
    nodes, weights = lgl_nodes_weights(n, table)
    dmat = derivative_matrix(nodes, weights)
    vmat, vinv = vandermonde(nodes, weights, table)
    ops = OperatorSet(N=n, nodes=nodes, weights=weights, D=dmat, V=vmat, Vinv=vinv)
    if check:
        resid = sbp_residual(ops)
        if resid > sbp_tolerance(n):
            raise ArithmeticError(f"summation-by-parts residual {resid:.3e} at degree {n}")
    return ops
