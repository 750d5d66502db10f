"""The Burgers kernels and the FV sweep against straightforward references.

The references below are the plain numpy forms of the same arithmetic:
face fluxes on numpy scalars, and an FV sweep that builds its neighbours
with ``np.roll`` and allocates every intermediate. The kernels reorganise
the work (Python floats at the face, 0-d array scalars and ``dmat.dot``;
one periodic ghost cell and buffers reused in place) without changing any
floating-point operation or its order, so the results must be bitwise equal.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dgfilter import kernels
from dgfilter.operators import build_operators

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def roll_fv_burgers(u0, dx, cfl, t_end):
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


def _face_terms(dudt, u, f, w, scale):
    lam = max(abs(u[0]), abs(u[-1]))
    fstar = 0.5 * (f[-1] + f[0]) - 0.5 * lam * (u[0] - u[-1])
    dudt[0] += scale * (fstar - f[0]) / w[0]
    dudt[-1] -= scale * (fstar - f[-1]) / w[-1]
    return dudt


def scalar_burgers_cons_rhs(u, dmat, w, scale):
    f = 0.5 * u * u
    return _face_terms(-scale * (dmat @ f), u, f, w, scale)


def scalar_burgers_skew_rhs(u, dmat, w, scale):
    f = 0.5 * u * u
    dudt = -scale * ((2.0 / 3.0) * (dmat @ f) + (1.0 / 3.0) * u * (dmat @ u))
    return _face_terms(dudt, u, f, w, scale)


BURGERS = [(kernels.burgers_cons_rhs, scalar_burgers_cons_rhs),
           (kernels.burgers_skew_rhs, scalar_burgers_skew_rhs)]


def call_kernel(kernel, u, dmat, w, scale):
    """A Burgers kernel called as its reference is, with the constants
    built by ``kernels.burgers_constants`` as ``make_rhs`` builds them."""
    return kernel(u, dmat, *kernels.burgers_constants(w, scale))


@PROPERTY
@given(st.integers(2, 128).flatmap(lambda cells: arrays(
           np.float64, cells, elements=st.floats(-1.0, 1.0))),
       st.floats(1e-3, 1.0), st.sampled_from((0.45, 0.9)))
@example(np.zeros(16), 0.5, 0.9)  # umax <= 1e-14: one step to t_end
def test_fv_sweep_matches_the_roll_reference(u0, t_end, cfl):
    dx = 2.0 / u0.size
    u, steps = kernels.fv_burgers(u0, dx, cfl, t_end)
    ref_u, ref_steps = roll_fv_burgers(u0, dx, cfl, t_end)
    assert steps == ref_steps
    assert np.array_equal(u, ref_u)


def test_fv_sweep_takes_one_step_on_zero_data():
    u, steps = kernels.fv_burgers(np.zeros(16), 0.125, 0.9, 0.5)
    assert steps == 1 and np.array_equal(u, np.zeros(16))


@st.composite
def burgers_states(draw):
    n = draw(st.integers(1, 128))
    scale = draw(st.floats(1e-3, 1e3))
    return build_operators(n), scale, draw(arrays(np.float64, n + 1, elements=st.floats(-1e3, 1e3)))


STUDY_OPS = build_operators(128)


@PROPERTY
@given(burgers_states())
# the study's regime: N = 128, scale 2 / dx = 1 and its initial state in [0, 0.4]
@example((STUDY_OPS, 1.0, 0.2 * (1.0 + np.cos(np.pi * (STUDY_OPS.nodes + 1.0)))))
def test_burgers_kernels_match_the_numpy_scalar_reference(case):
    ops, scale, u = case
    for kernel, reference in BURGERS:
        assert np.array_equal(call_kernel(kernel, u, ops.D, ops.weights, scale),
                              reference(u, ops.D, ops.weights, scale))


@pytest.mark.parametrize("kernel, reference", BURGERS)
@pytest.mark.parametrize("where", [0, 3, -1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_burgers_kernels_keep_a_non_finite_state_non_finite(kernel, reference, where, bad):
    ops = build_operators(8)
    u = np.linspace(-0.5, 0.5, 9)
    u[where] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        out = call_kernel(kernel, u, ops.D, ops.weights, 1.0)
        ref = reference(u, ops.D, ops.weights, 1.0)
    assert not np.all(np.isfinite(out))
    assert np.array_equal(out, ref, equal_nan=True)


def advection_kernels(rng, n):
    """The two advection kernels as functions of (u, dmat), with random
    speeds, weights, scale and inflow data at degree ``n``. The constant
    speed is a multiple of 1/4, so that ``a * u`` is exact for small
    integers ``u``."""
    w = rng.uniform(0.1, 1.0, n + 1)
    a_nodes = rng.uniform(-1.0, 1.0, n + 1)
    scale, g_in = rng.uniform(0.5, 4.0, 2)
    a = rng.integers(1, 8) / 4
    return [lambda u, dmat: kernels.advection_rhs(u, dmat, w, scale, a, g_in),
            lambda u, dmat: kernels.varspeed_rhs(u, dmat, a_nodes, w, scale, abs(a), g_in)]


def by_columns(kernel, u, dmat):
    return np.stack([kernel(u[:, j], dmat) for j in range(u.shape[1])], axis=1)


@pytest.mark.parametrize("n", [1, 7, 64, 256, 512])
def test_advection_kernels_take_a_stack_of_one_entry_states(n):
    # As in the batched L of the linear studies, each column holds one
    # nonzero entry. Every sum in D @ u then has one nonzero term, so it is
    # exact in any order, and the stack equals the columns bit for bit.
    rng = np.random.default_rng(n)
    dmat = build_operators(n).D
    m = 2 * n + 3
    u = np.zeros((n + 1, m))
    u[rng.integers(0, n + 1, m), np.arange(m)] = rng.uniform(-2.0, 2.0, m)
    for kernel in advection_kernels(rng, n):
        out = kernel(u, dmat)
        assert out.shape == u.shape
        assert out.tobytes() == by_columns(kernel, u, dmat).tobytes()


@pytest.mark.parametrize("n", [1, 7, 64, 256])
def test_advection_kernels_take_a_stack_of_dense_states(n):
    # With dense columns, the matrix product may sum in another order than
    # the matrix-vector product. Small integers in D and u (and a dyadic
    # constant speed) keep every sum exact, so the rest of each kernel is
    # compared bit for bit.
    rng = np.random.default_rng(n)
    dmat = rng.integers(-4, 5, (n + 1, n + 1)).astype(float)
    u = rng.integers(-8, 9, (n + 1, 5)).astype(float)
    for kernel in advection_kernels(rng, n):
        assert kernel(u, dmat).tobytes() == by_columns(kernel, u, dmat).tobytes()
