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


def burgers_cons_rhs(u, dmat, w, scale):
    """Conservative Burgers on one periodic element; LLF flux at the shared face."""
    f = 0.5 * u * u
    dudt = -scale * (dmat @ f)
    lam = max(abs(u[0]), abs(u[-1]))
    fstar = 0.5 * (f[-1] + f[0]) - 0.5 * lam * (u[0] - u[-1])
    dudt[0] += scale * (fstar - f[0]) / w[0]
    dudt[-1] -= scale * (fstar - f[-1]) / w[-1]
    return dudt


def burgers_skew_rhs(u, dmat, w, scale):
    """Split-form Burgers volume term, conservative surface term, periodic."""
    f = 0.5 * u * u
    dudt = -scale * ((2.0 / 3.0) * (dmat @ f) + (1.0 / 3.0) * u * (dmat @ u))
    lam = max(abs(u[0]), abs(u[-1]))
    fstar = 0.5 * (f[-1] + f[0]) - 0.5 * lam * (u[0] - u[-1])
    dudt[0] += scale * (fstar - f[0]) / w[0]
    dudt[-1] -= scale * (fstar - f[-1]) / w[-1]
    return dudt


def varspeed_rhs(u, dmat, a_nodes, w, scale, a_left, g_in):
    """Advective-form variable-speed transport with a left inflow penalty."""
    dudt = -a_nodes * (scale * (dmat @ u))
    dudt[0] -= scale * a_left * (u[0] - g_in) / w[0]
    return dudt


def fv_burgers(u0, dx, cfl, t_end):
    """First-order finite-volume Burgers sweep, periodic, forward Euler.

    Local Lax-Friedrichs interface fluxes, CFL-adaptive step size. Returns
    (final cell averages, number of steps).
    """
    u = u0.copy()
    t = 0.0
    steps = 0
    while t < t_end - 1e-14:
        umax = float(np.max(np.abs(u)))
        dt = t_end - t if umax <= 1e-14 else min(cfl * dx / umax, t_end - t)
        f = 0.5 * u * u
        ur = np.roll(u, -1)
        fr = np.roll(f, -1)
        lam = np.maximum(np.abs(u), np.abs(ur))
        fface = 0.5 * (f + fr) - 0.5 * lam * (ur - u)
        u = u - (dt / dx) * (fface - np.roll(fface, 1))
        t += dt
        steps += 1
    return u, steps
