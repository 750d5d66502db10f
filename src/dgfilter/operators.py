"""Legendre-Gauss-Lobatto collocation operators on the reference interval [-1, 1]."""

from __future__ import annotations

import ctypes
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# Degree cap: keeps the Newton solve, the barycentric weights and the Gram
# identity behind Vinv comfortably inside double-precision roundoff.
MAX_DEGREE = 512

_NEWTON_TOL = 1e-15
_NEWTON_MAXIT = 100
# degrees per outer product of (2k + 1) x factors in the Legendre recurrence
_FACTOR_BLOCK = 64
# k as 0-d float arrays, the recurrence's fastest scalar operands
_K = [np.array(float(k)) for k in range(MAX_DEGREE + 1)]
# doubles in the largest N^2 array; also the cap on one solve's shared table
_MAX_SQUARE = (MAX_DEGREE + 1) ** 2

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# twice the largest N^2 array: every such array comes from the heap, not
# from an mmap of its own that its free unmaps
_MMAP_THRESHOLD = 2 * _MAX_SQUARE * np.dtype(float).itemsize
# the heap's free top is kept up to this size, well above a process's peak
# (about 18 MB of heap after a sweep of checks up to N = 512)
_TRIM_THRESHOLD = 16 * _MMAP_THRESHOLD


@functools.cache
def keep_freed_memory() -> bool:
    """Have glibc keep freed memory in the process, once; True if it took both settings.

    :func:`build_operators` and :func:`build_operator_sets` call it, so every
    process that builds operators gets it. By default glibc serves a large
    N^2 array from an mmap of its own, or trims the heap's free top, and the
    next build or run faults the same pages in again: about 47 000 minor
    faults in a sweep of 166 ``ops check`` and ``filter verify`` commands up
    to N = 512. No arithmetic changes, so every output keeps its bytes.
    Where the C library has no ``mallopt`` (macOS, Windows), nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)


@dataclass(frozen=True)
class OperatorSet:
    """The collocation operators one run needs, for one polynomial degree N.

    Read-only after construction (every array is unwriteable); safe to share
    across threads. :func:`build_operators` holds the last set it built, one
    set only (at most about 6.3 MB, at N = 512), and hands that same object
    to the next call at its degree.

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


def _legendre_table(x: np.ndarray, table) -> None:
    """P_k(x) into row k of ``table``, k = 0..m, m = len(table) - 1 >= 1, by the
    three-term recurrence; elementwise, so each x gets the bits it gets alone.

    Each step is ((2k + 1) x P_k - k P_{k-1}) / (k + 1) in four numpy calls,
    with k and k + 1 as 0-d arrays (faster ufunc operands than ints, rounded
    alike) and the (2k + 1) x factors from one outer product per
    ``_FACTOR_BLOCK`` degrees. Every operation is sign-symmetric:
    P_k(-x) = (-1)^k P_k(x) bit for bit.
    """
    m = len(table) - 1
    rows = iter(table)
    p_prev, p = next(rows), next(rows)
    p_prev[...], p[...] = 1.0, x
    scaled = np.empty_like(p)
    for k0 in range(1, m, _FACTOR_BLOCK):
        k1 = min(k0 + _FACTOR_BLOCK, m)
        factors = np.multiply.outer(np.arange(2 * k0 + 1, 2 * k1, 2, dtype=float), x)
        for k, fac, nxt in zip(range(k0, k1), factors, rows):
            np.multiply(fac, p, out=nxt)
            np.multiply(p_prev, _K[k], out=scaled)
            nxt -= scaled
            nxt /= _K[k + 1]
            p_prev, p = p, nxt


def _check_degree(n: int) -> int:
    """``n`` as a plain int in [1, MAX_DEGREE]; ``ValueError`` for a bool, a
    non-integer (``1.0`` too) or a degree out of range."""
    try:
        index = None if isinstance(n, bool) else operator.index(n)
    except TypeError:
        index = None
    if index is None:
        raise ValueError(f"degree must be an integer, not {n!r}")
    n = index
    if n < 1:
        raise ValueError("degree must be >= 1 (a single node has no boundary matrix)")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the configured maximum {MAX_DEGREE}")
    return n


def _lgl_newton(ns: Sequence[int], half) -> tuple[np.ndarray, np.ndarray, dict]:
    """(x, P_n(x), segments): the n // 2 interior LGL nodes x >= 0 (roots of P_n')
    of each distinct degree n >= 2 of ``ns`` in x[segments[n]], by one Newton solve.

    The seed is the Gatteschi-Pittaluga asymptotic x_k = cos(phi_k - 3 /
    (8 rho^2 tan phi_k)), phi_k = (k + 1/4) pi / rho, rho = n + 1/2, within
    1e-4 of the roots at n = 3 and 3e-9 at n = 512, symmetrized so that
    Newton, being sign-symmetric, need only run on x >= 0. Each pass runs
    :func:`_legendre_table` over all the nodes into the ``(max(ns) + 1) x
    x.size`` array ``half`` and reads each node's P_n and P_{n-1} from it, at
    the node's own n; a degree stops without its step once its max|step| <=
    ``_NEWTON_TOL``. The last pass, where every degree has stopped, leaves P_k
    at the final nodes in row k of ``half``, and P_n is from that pass: n = 2
    takes one recurrence (its seed, 0, is the root), n >= 3 three.
    """
    if not ns:
        return np.empty(0), np.empty(0), {}
    seeds = []
    for n in ns:
        rho, h = n + 0.5, (n + 1) // 2
        phi = (np.arange(n - 1, 0, -1) + 0.25) * (np.pi / rho)
        x = np.cos(phi - 3.0 / (8.0 * rho * rho * np.tan(phi)))
        # symmetrize and keep x >= 0: the pairs become exact negatives, the
        # middle node exactly 0, and the sign-symmetric passes keep them so
        seeds.append(0.5 * (x[h - 1:] - x[n - h - 1::-1]))
    sizes = [n // 2 for n in ns]
    cuts = list(itertools.accumulate(sizes, initial=0))
    segments = {n: slice(lo, hi) for n, lo, hi in zip(ns, cuts, cuts[1:])}
    x = np.concatenate(seeds)
    # each node's own degree, and its column of half
    deg, cols = np.repeat(ns, sizes), np.arange(x.size)
    # dP_n and d2P_n from the standard identities, at each node's own n (and
    # the exact n (n + 1)); x is interior so the 1 - x^2 factors are safe
    nodal = deg.astype(float)
    nodal_n1 = nodal * (nodal + 1.0)
    for _ in range(_NEWTON_MAXIT):
        _legendre_table(x, half)
        p, p_prev = half[deg, cols], half[deg - 1, cols]
        omx2 = 1.0 - x * x
        dp = nodal * (p_prev - x * p) / omx2
        d2p = (2.0 * x * dp - nodal_n1 * p) / omx2
        step = dp / d2p
        worst = np.maximum.reduceat(np.abs(step), cuts[:-1]).tolist()
        moving = [not s <= _NEWTON_TOL for s in worst]
        if not any(moving):
            break
        if not all(moving):
            step *= np.repeat(moving, sizes)  # x - 0 = x: stopped nodes keep their bits
        x -= step
    else:
        raise RuntimeError(f"LGL Newton iteration failed to converge for n in {ns}")
    return x, p, segments


def _lgl_rule(n: int, x: np.ndarray, p: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """Degree-n nodes, weights and table mirrored from :func:`_lgl_newton`'s x >= 0 and P_n(x)."""
    nodes = np.empty(n + 1)
    nodes[n] = 1.0
    weights = np.full(n + 1, 2.0 / (n * (n + 1)))  # P_n(+-1)^2 = 1
    h = (n + 1) // 2
    nodes[h:n] = x
    weights[h:n] = 2.0 / (n * (n + 1) * p * p)
    # mirror the x >= 0 half: P_k(-x) = (-1)^k P_k(x)
    nodes[:h] = -nodes[n:n - h:-1]
    weights[:h] = weights[n:n - h:-1]
    table[:, n] = 1.0
    table[:, :h] = table[:, n:n - h:-1]
    table[1::2, :h] *= -1.0
    return nodes, weights


def lgl_nodes_weights(n: int, table=None) -> tuple[np.ndarray, np.ndarray]:
    """LGL nodes and weights (exact to degree 2n - 1) for degree ``n`` >= 1, by the one-degree
    :func:`_lgl_newton` (0, 1 and 3 recurrences at n = 1, 2 and >= 3), whose last pass fills an
    ``(n + 1) x (n + 1)`` table, the caller's ``table`` or its own, with P_k(nodes_j) in row k,
    bit for bit the table :func:`vandermonde` evaluates."""
    n = _check_degree(n)
    table = np.empty((n + 1, n + 1)) if table is None else table
    x, p, _ = _lgl_newton([n] if n >= 2 else [], table[:, (n + 1) // 2:n])
    return _lgl_rule(n, x, p, table)


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
    :func:`_legendre_table`, normalized and transposed to C order in one pass.
    A ``table`` that :func:`lgl_nodes_weights` has filled for these nodes is
    used as it is; with none, its own recurrence at the nodes is the
    independent reference for that table. Needs the LGL rule, whose
    Gram matrix V^T M V is K = diag(:func:`gram_diagonal`), M = diag(weights), so
    Vinv = K^-1 V^T M with no linear solve; ``ops check`` measures V Vinv - I.
    """
    n = len(nodes) - 1
    if table is None:
        table = np.empty((n + 1, n + 1))
        _legendre_table(np.asarray(nodes, dtype=float), table)
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


def _assemble(n: int, nodes, weights, table) -> OperatorSet:
    """The read-only operator set of an LGL rule and its filled Legendre ``table``."""
    dmat = derivative_matrix(nodes, weights)
    vmat, vinv = vandermonde(nodes, weights, table)
    for a in (nodes, weights, dmat, vmat, vinv):
        a.setflags(write=False)
    return OperatorSet(N=n, nodes=nodes, weights=weights, D=dmat, V=vmat, Vinv=vinv)


def _check_sbp(ops: OperatorSet) -> OperatorSet:
    """``ops``, once its SBP residual is within :func:`sbp_tolerance`; else ``ArithmeticError``."""
    resid = sbp_residual(ops)
    if resid > sbp_tolerance(ops.N):
        raise ArithmeticError(f"summation-by-parts residual {resid:.3e} at degree {ops.N}")
    return ops


# the last set build_operators built, handed back to the next call at its degree
_held: OperatorSet | None = None


def build_operators(n: int, check: bool = True) -> OperatorSet:
    """The operator set for degree ``n``; three recurrences for n >= 3 (one at
    n = 2, none at n = 1), the last Newton pass of :func:`lgl_nodes_weights`
    filling V's table. With ``check`` the SBP residual is held to
    :func:`sbp_tolerance` on every call. The degree is checked, and
    :func:`keep_freed_memory` called, before the ``(n + 1) x (n + 1)`` table is
    allocated.

    The last set built is held and handed back, the same object, to the next
    call at its degree. A call at another degree drops it before allocating,
    so one set at most (about 6.3 MB at N = 512, memory the allocator policy
    keeps in the process anyway) outlives its callers. Sets are read-only and
    the held one is swapped by one assignment: two threads may each build a
    set, but every call gets a set of its own degree.
    """
    global _held
    n = _check_degree(n)
    ops = _held
    if ops is None or ops.N != n:
        _held = ops = None
        keep_freed_memory()
        table = np.empty((n + 1, n + 1))
        nodes, weights = lgl_nodes_weights(n, table)
        _held = ops = _assemble(n, nodes, weights, table)
    return _check_sbp(ops) if check else ops


def build_operator_sets(ns: Sequence[int]) -> Iterator[OperatorSet]:
    """Yield ``build_operators(n)`` for each n of ``ns`` in order, bit for bit.

    The nodes of every distinct degree >= 2 come from one :func:`_lgl_newton`
    solve: three recurrences to the largest degree (one for n = 2 alone), the
    last filling the batch's shared table. The recurrence is elementwise, so a
    degree's bits do not depend on its batch. D, V, Vinv and the SBP check
    follow one set at a time. The degrees are checked, and a batch whose
    shared table, (max + 1) x sum(n // 2), would hold more than
    ``_MAX_SQUARE`` doubles (one N = 512 square) is rejected with
    ``ValueError``, before anything is allocated; build such degrees alone
    or in smaller batches.
    """
    ns = [_check_degree(n) for n in ns]
    solve = sorted({n for n in ns if n >= 2})
    # degree 1 has no interior node: it takes empty slices of any solve
    rows, cols = max(solve, default=1) + 1, sum(n // 2 for n in solve)
    if rows * cols > _MAX_SQUARE:
        raise ValueError(f"a batch to degree {rows - 1} needs a {rows} x {cols} shared table, "
                         f"above the {_MAX_SQUARE} doubles of one degree-{MAX_DEGREE} square")
    keep_freed_memory()
    half = np.empty((rows, cols))
    x, p, segments = _lgl_newton(solve, half)
    for n in ns:
        s = segments.get(n, slice(0, 0))
        table = np.empty((n + 1, n + 1))
        table[:, (n + 1) // 2:n] = half[:n + 1, s]
        yield _check_sbp(_assemble(n, *_lgl_rule(n, x[s], p[s], table), table))
