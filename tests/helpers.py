"""What only the tests use: the quadrature norm, a shock locator, the
trapezoid weights that the negative controls put in place of the LGL rule,
the exact entropy solution of the Burgers study, the right-hand side
L u + r g of an advection problem, and two per-state advection formulas
that the assembled (L, r) is checked against.

Test modules import this file as ``helpers``: pytest's default import mode
puts ``tests/`` on ``sys.path``, and so does running a test file as a script.
"""

import numpy as np

from dgfilter.equations import linear_operator


def discrete_norm(u: np.ndarray, w: np.ndarray) -> float:
    """Quadrature norm sqrt(sum_i u_i w_i u_i) with LGL weights ``w``."""
    return float(np.sqrt(np.sum(u * w * u)))


def shock_position(x: np.ndarray, u: np.ndarray) -> float:
    """Midpoint of the steepest descent between adjacent samples.

    Descents only: compressive shocks always drop, which keeps spurious
    ascending wiggles from being mistaken for the shock.
    """
    i = int(np.argmin(np.diff(u)))
    return 0.5 * (x[i] + x[i + 1])


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights on the (non-uniform) node set."""
    w = np.empty(nodes.size)
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    return w


def burgers_entropy_solution(x: np.ndarray, t: float) -> np.ndarray:
    """Entropy solution at the points ``x`` (1-D) and time t > 0 of
    u_t + (u^2/2)_x = 0, u(x, 0) = 0.2 (1 + cos pi x).

    Lax-Oleinik: u = (x - y*) / t with y* the minimizer of
    U0(y) + (x - y)^2 / (2t), U0(y) = 0.2 (y + sin(pi y) / pi) the
    antiderivative of u0 on the real line, so no periodic wrap is needed.
    The speeds lie in [0, 0.4], so y* lies in [x - 0.4 t, x]: a search on
    401 points there picks the basin, and Newton on the stationarity
    condition u0(y) = (x - y) / t refines it to roundoff. Two basins tie
    only at a shock, so the search's cost error can pick the wrong one only
    within about 2e-6 of it at t = 2.25. The x values are taken 2048 at a
    time, which bounds the search arrays at 6.6 MB each.
    """
    x = np.asarray(x, dtype=float)
    y_star = np.empty_like(x)
    s, chunk = np.linspace(0.0, 1.0, 401), 2048
    for lo in range(0, x.size, chunk):
        xc = x[lo:lo + chunk, None]
        y = xc - 0.4 * t * s
        cost = 0.2 * (y + np.sin(np.pi * y) / np.pi) + (xc - y) ** 2 / (2.0 * t)
        yc = np.take_along_axis(y, np.argmin(cost, axis=1)[:, None], axis=1)[:, 0]
        xc = xc[:, 0]
        for _ in range(30):
            g = 0.2 * (1.0 + np.cos(np.pi * yc)) - (xc - yc) / t
            yc = yc - g / (-0.2 * np.pi * np.sin(np.pi * yc) + 1.0 / t)
        y_star[lo:lo + chunk] = yc
    return (x - y_star) / t


def linear_rhs(problem, ops):
    """rhs(u, t) = L u + r g(t) of an advection problem, from its assembled (L, r)."""
    lmat, r = linear_operator(problem, ops)
    return lambda u, t: lmat @ u + r * problem.inflow(t)


def conservative_advection_rhs(u, dmat, w, scale, a, u_in):
    """Conservative constant-speed advection of one state: upwind data u_in at the left face."""
    f = a * u
    dudt = -scale * (dmat @ f)
    fstar = 0.5 * (a * u_in + f[0]) - 0.5 * abs(a) * (u[0] - u_in)
    dudt[0] += scale * (fstar - f[0]) / w[0]
    # right face is outflow for a >= 0: exterior copies interior, no jump
    return dudt


def varspeed_advection_rhs(u, dmat, a_nodes, w, scale, a_left, g_in):
    """Advective-form variable-speed transport of one state with a left inflow penalty."""
    dudt = -a_nodes * (scale * (dmat @ u))
    dudt[0] -= scale * a_left * (u[0] - g_in) / w[0]
    return dudt
