"""What only the tests use: the quadrature norm, a shock locator and the
trapezoid weights that the negative controls put in place of the LGL rule.

Test modules import this file as ``helpers``: pytest's default import mode
puts ``tests/`` on ``sys.path``, and so does running a test file as a script.
"""

import numpy as np


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
