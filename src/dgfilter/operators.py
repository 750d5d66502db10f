"""Legendre-Gauss-Lobatto collocation operators on the reference interval [-1, 1]."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Degree cap: keeps the Newton solve, the barycentric weights and the Gram
# identity behind Vinv comfortably inside double-precision roundoff.
MAX_DEGREE = 512

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100


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

    Each step is ((2k + 1) x P_k - k P_{k-1}) / (k + 1), evaluated in place
    in three rotating buffers, operation for operation. Given an
    ``(n + 1) x x.size`` array ``table``, row k also receives P_k(x).
    """
    p_prev = np.ones_like(x)
    p = np.array(x, dtype=float, copy=True)
    nxt = np.empty_like(p)
    if table is not None:
        table[0], table[1] = p_prev, p
    for k in range(1, n):
        np.multiply(x, 2 * k + 1, out=nxt)
        nxt *= p
        p_prev *= k
        nxt -= p_prev
        nxt /= k + 1
        p_prev, p, nxt = p, nxt, p_prev
        if table is not None:
            table[k + 1] = p
    return p, p_prev


def lgl_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Legendre-Gauss-Lobatto nodes and quadrature weights for degree ``n``.

    The interior nodes are the roots of P_n' = c P^(1,1)_{n-1}, found by
    Newton iteration seeded with the Gatteschi-Pittaluga asymptotic for
    Jacobi zeros, x_k = cos(phi_k - 3 / (8 rho^2 tan phi_k)) with
    phi_k = (k + 1/4) pi / rho, rho = n + 1/2 and k = n-1..1 (ascending x).
    The seed is within 1e-4 of the roots at n = 3 and 3e-9 at n = 512. Each
    pass symmetrizes the iterate and evaluates the recurrence at it; once
    max|step| <= ``_NEWTON_TOL`` the iteration stops without taking that
    step, three passes for every n >= 3. The weights
    2 / (n (n + 1) P_n(x)^2) take P_n from that last pass. The rule is exact
    for polynomials of degree <= 2n - 1.

    Parameters
    ----------
    n : polynomial degree, at least 1

    Returns
    -------
    (nodes, weights) : two arrays of length n + 1
    """
    if n < 1:
        raise ValueError("degree must be >= 1 (a single node has no boundary matrix)")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the configured maximum {MAX_DEGREE}")

    nodes = np.empty(n + 1)
    nodes[0], nodes[n] = -1.0, 1.0
    weights = np.full(n + 1, 2.0 / (n * (n + 1)))  # P_n(+-1)^2 = 1
    if n >= 2:
        rho = n + 0.5
        phi = (np.arange(n - 1, 0, -1) + 0.25) * (np.pi / rho)
        x = np.cos(phi - 3.0 / (8.0 * rho * rho * np.tan(phi)))
        for _ in range(_NEWTON_MAXIT):
            # symmetrize: pairs become exact negatives, middle node exactly 0
            x = 0.5 * (x - x[::-1])
            p, p_prev = _legendre_pair(n, x)
            # dP_n and d2P_n from the standard identities; x is interior so
            # the 1 - x^2 factors are safe.
            omx2 = 1.0 - x * x
            dp = n * (p_prev - x * p) / omx2
            d2p = (2.0 * x * dp - n * (n + 1) * p) / omx2
            step = dp / d2p
            if np.max(np.abs(step)) <= _NEWTON_TOL:
                break
            x -= step
        else:
            raise RuntimeError(f"LGL Newton iteration failed to converge for n={n}")
        nodes[1:n] = x
        weights[1:n] = 2.0 / (n * (n + 1) * p * p)
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


def vandermonde(nodes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vandermonde matrix of the normalized Legendre basis and its inverse.

    V maps modal coefficients to nodal values: the table of :func:`_legendre_pair`,
    normalized and transposed to C order in one pass. Needs the LGL rule, whose
    Gram matrix V^T M V is K = diag(:func:`gram_diagonal`), M = diag(weights), so
    Vinv = K^-1 V^T M with no linear solve; ``ops check`` measures V Vinv - I.
    """
    n = len(nodes) - 1
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

    With ``check`` enabled the summation-by-parts residual is held to
    :func:`sbp_tolerance` before returning.
    """
    nodes, weights = lgl_nodes_weights(n)
    dmat = derivative_matrix(nodes, weights)
    vmat, vinv = vandermonde(nodes, weights)
    ops = OperatorSet(N=n, nodes=nodes, weights=weights, D=dmat, V=vmat, Vinv=vinv)
    if check:
        resid = sbp_residual(ops)
        if resid > sbp_tolerance(n):
            raise ArithmeticError(f"summation-by-parts residual {resid:.3e} at degree {n}")
    return ops
