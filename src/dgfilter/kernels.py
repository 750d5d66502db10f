"""numpy bodies of the right-hand sides, and the FV sweep.

``equations`` looks these up at call time: ``linear_operator`` assembles
advection at nodal speed a(x) once, in O(N^2), as (L, r), and ``make_rhs``
binds a Burgers body per state. All work on the reference element:
``scale`` is 2 / dx and ``w`` the LGL weight vector. The per-step Burgers
and FV paths take scalars as 0-d float64 arrays and products with D as
``dmat.dot``: faster in numpy, same rounding.
"""

import numpy as np

_HALF, _TWO_THIRDS, _THIRD = np.array(0.5), np.array(2.0 / 3.0), np.array(1.0 / 3.0)


def advection_rhs(dmat, a_nodes, w, scale):
    """(L, r) with u' = L u + r g(t) for u_t + a(x) u_x = 0, inflow g at the left.

    ``a_nodes`` is a at the nodes, ``a_nodes[0] >= 0``. r is the inflow penalty on the first
    node plus signed zeros. The zeros are those of the per-state form -a (scale (D u)) of the
    study CSVs: ``dmat + 0.0`` stores D's diagonal -0.0 (N = 21, 29, ...) as the +0.0 of D times I,
    and ``a * -0.0`` is -a (scale (D times 0)) for non-NaN a: each row of D has a positive entry.
    """
    lmat = -a_nodes[:, None] * (scale * (dmat + 0.0))
    lmat[0, 0] -= scale * a_nodes[0] / w[0]
    r = a_nodes * -0.0
    r[0] += scale * a_nodes[0] / w[0]
    return lmat, r


def burgers_constants(w, scale):
    """The Burgers kernels' constants, prepared once per problem: -scale as a
    0-d array, and the face's (scale, w[0], w[-1]) as Python floats."""
    return np.array(-scale), (float(scale), float(w[0]), float(w[-1]))


def _add_llf_face(dudt, u, f, face):
    """Add the periodic LLF surface terms of Burgers at the shared face.

    ``face`` is (scale, w[0], w[-1]) from :func:`burgers_constants`. The
    face values are taken as Python floats: the same IEEE doubles as numpy
    scalars, without numpy's per-operation dispatch.
    """
    scale, w_first, w_last = face
    u_l, u_r = float(u[-1]), float(u[0])
    f_l, f_r = float(f[-1]), float(f[0])
    lam = max(abs(u_r), abs(u_l))
    fstar = 0.5 * (f_l + f_r) - 0.5 * lam * (u_r - u_l)
    dudt[0] += scale * (fstar - f_r) / w_first
    dudt[-1] -= scale * (fstar - f_l) / w_last


def burgers_cons_rhs(u, dmat, neg_scale, face):
    """Conservative Burgers on one periodic element; LLF flux at the shared face."""
    f = _HALF * u * u
    dudt = neg_scale * dmat.dot(f)
    _add_llf_face(dudt, u, f, face)
    return dudt


def burgers_skew_rhs(u, dmat, neg_scale, face):
    """Split-form Burgers volume term, conservative surface term, periodic."""
    f = _HALF * u * u
    dudt = neg_scale * (_TWO_THIRDS * dmat.dot(f) + _THIRD * u * dmat.dot(u))
    _add_llf_face(dudt, u, f, face)
    return dudt


# A second name for the one advection body. perfbench/spans.py patches both
# names through getattr, and its table changes only with the benchmark's own
# upkeep (ROADMAP), which drops this alias and both table entries together.
varspeed_rhs = advection_rhs


def fv_burgers(u0, dx, cfl, t_end):
    """First-order finite-volume Burgers sweep, periodic, forward Euler.

    Local Lax-Friedrichs interface fluxes, CFL-adaptive step size. Returns
    (final cell averages, number of steps).

    Layout: the n cells sit in ``ug[:n]`` and one periodic ghost cell
    ``ug[n]`` holds a copy of ``u[0]``, so the n faces i + 1/2 are formed
    from ``ug[:-1]`` and ``ug[1:]`` without shifted copies. They go to
    ``fface[1:]``, and the wrap face ``fface[0]`` is a copy of the last
    one, so cell i is updated with ``fface[i + 1] - fface[i]``. The six
    buffers are cut once per solve from one block, each starting on a
    64-byte boundary, and updated in place: their relative placement, and so
    the sweep's speed, does not depend on what the heap held before.
    """
    n = u0.size
    stride = -(-(n + 1) // 8) * 8  # n + 1 doubles, rounded up to 64 bytes
    block = np.empty(6 * stride + 7)
    start = (-block.ctypes.data % 64) // 8
    ug, absu, f, fface, lam, jump = (block[start + k * stride:][:n + 1] for k in range(6))
    lam, jump = lam[:n], jump[:n]
    ug[:n] = u0
    u = ug[:n]
    face = fface[1:]
    t = 0.0
    steps = 0
    while t < t_end - 1e-14:
        ug[n] = ug[0]
        np.abs(ug, out=absu)
        umax = float(absu[:n].max())
        dt = t_end - t if umax <= 1e-14 else min(cfl * dx / umax, t_end - t)
        np.multiply(ug, _HALF, out=f)
        f *= ug
        np.maximum(absu[:-1], absu[1:], out=lam)
        np.add(f[:-1], f[1:], out=face)
        face *= _HALF
        lam *= _HALF
        np.subtract(ug[1:], ug[:-1], out=jump)
        jump *= lam
        face -= jump
        fface[0] = fface[n]
        np.subtract(face, fface[:-1], out=jump)
        jump *= np.array(dt / dx)
        u -= jump
        t += dt
        steps += 1
    return u.copy(), steps
