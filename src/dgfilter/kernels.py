"""numpy RHS bodies and FV sweep.

``equations.make_rhs`` binds the right-hand sides to a problem and looks
them up here at call time. All of them work on the reference element:
``scale`` is 2 / dx and ``w`` the LGL weight vector; boundary data enters
as plain floats. The per-step Burgers and FV paths take scalars as 0-d
float64 arrays and products with D as ``dmat.dot``: faster in numpy, same rounding.
"""

import numpy as np

_HALF, _TWO_THIRDS, _THIRD = np.array(0.5), np.array(2.0 / 3.0), np.array(1.0 / 3.0)


def advection_rhs(u, dmat, w, scale, a, u_in):
    """Conservative constant-speed advection: upwind data u_in at the left face."""
    f = a * u
    dudt = -scale * (dmat @ f)
    fstar = 0.5 * (a * u_in + f[0]) - 0.5 * abs(a) * (u[0] - u_in)
    dudt[0] += scale * (fstar - f[0]) / w[0]
    # right face is outflow for a >= 0: exterior copies interior, no jump
    return dudt


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


def varspeed_rhs(u, dmat, a_nodes, w, scale, a_left, g_in):
    """Advective-form variable-speed transport with a left inflow penalty."""
    dudt = -a_nodes.reshape((-1,) + (1,) * (u.ndim - 1)) * (scale * (dmat @ u))
    dudt[0] -= scale * a_left * (u[0] - g_in) / w[0]
    return dudt


def fv_burgers(u0, dx, cfl, t_end):
    """First-order finite-volume Burgers sweep, periodic, forward Euler.

    Local Lax-Friedrichs interface fluxes, CFL-adaptive step size. Returns
    (final cell averages, number of steps).

    Layout: the n cells sit in ``ug[:n]`` and one periodic ghost cell
    ``ug[n]`` holds a copy of ``u[0]``, so the n faces i + 1/2 are formed
    from ``ug[:-1]`` and ``ug[1:]`` without shifted copies. They go to
    ``fface[1:]``, and the wrap face ``fface[0]`` is a copy of the last
    one, so cell i is updated with ``fface[i + 1] - fface[i]``. All buffers
    are allocated once per solve and updated in place.
    """
    n = u0.size
    ug = np.empty(n + 1)
    ug[:n] = u0
    u = ug[:n]
    absu, f, fface = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    face = fface[1:]
    lam, jump = np.empty(n), np.empty(n)
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
