"""numpy RHS bodies and FV sweep.

``equations.make_rhs`` binds the right-hand sides to a problem and looks
them up here at call time. All of them work on the reference element:
``scale`` is 2 / dx and ``w`` the LGL weight vector; boundary data enters
as plain floats.
"""

import numpy as np


def advection_rhs(u, dmat, w, scale, a, u_in):
    """Conservative constant-speed advection: upwind data u_in at the left face."""
    f = a * u
    dudt = -scale * (dmat @ f)
    fstar = 0.5 * (a * u_in + f[0]) - 0.5 * abs(a) * (u[0] - u_in)
    dudt[0] += scale * (fstar - f[0]) / w[0]
    # right face is outflow for a >= 0: exterior copies interior, no jump
    return dudt


def _add_llf_face(dudt, u, f, w, scale):
    """Add the periodic LLF surface terms of Burgers at the shared face.

    The face values are taken as Python floats: the same IEEE doubles as
    numpy scalars, without numpy's per-operation dispatch.
    """
    u_l, u_r = float(u[-1]), float(u[0])
    f_l, f_r = float(f[-1]), float(f[0])
    lam = max(abs(u_r), abs(u_l))
    fstar = 0.5 * (f_l + f_r) - 0.5 * lam * (u_r - u_l)
    dudt[0] += scale * (fstar - f_r) / float(w[0])
    dudt[-1] -= scale * (fstar - f_l) / float(w[-1])


def burgers_cons_rhs(u, dmat, w, scale):
    """Conservative Burgers on one periodic element; LLF flux at the shared face."""
    f = 0.5 * u * u
    dudt = -scale * (dmat @ f)
    _add_llf_face(dudt, u, f, w, scale)
    return dudt


def burgers_skew_rhs(u, dmat, w, scale):
    """Split-form Burgers volume term, conservative surface term, periodic."""
    f = 0.5 * u * u
    dudt = -scale * ((2.0 / 3.0) * (dmat @ f) + (1.0 / 3.0) * u * (dmat @ u))
    _add_llf_face(dudt, u, f, w, scale)
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
        np.multiply(ug, 0.5, out=f)
        f *= ug
        np.maximum(absu[:-1], absu[1:], out=lam)
        np.add(f[:-1], f[1:], out=face)
        face *= 0.5
        lam *= 0.5
        np.subtract(ug[1:], ug[:-1], out=jump)
        jump *= lam
        face -= jump
        fface[0] = fface[n]
        np.subtract(face, fface[:-1], out=jump)
        jump *= dt / dx
        u -= jump
        t += dt
        steps += 1
    return u.copy(), steps
