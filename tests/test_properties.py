"""Randomised invariants: filter contractivity, the adjoint identity and the
split-form Burgers energy bound, on drawn degrees, filter parameters and states.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dgfilter.equations import ProblemSpec, make_rhs
from dgfilter.filters import FilterSpec, auxiliary_filter, build_filter
from dgfilter.operators import build_operators, discrete_norm

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def nodal_states(n):
    return arrays(np.float64, n + 1,
                  elements=st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))


@st.composite
def filtered_states(draw):
    """(operators, filter spec, nodal state) with N <= 128, even s and nc <= N."""
    n = draw(st.integers(1, 128))
    spec = FilterSpec(
        alpha=draw(st.floats(0.5, 60.0)),
        s=2 * draw(st.integers(1, 32)),
        nc=draw(st.integers(0, n)),
        clip_highest=draw(st.booleans()),
    )
    return build_operators(n), spec, draw(nodal_states(n))


@PROPERTY
@given(filtered_states())
def test_filter_never_grows_the_quadrature_norm(case):
    ops, spec, u = case
    fmat = build_filter(ops, spec).F
    assert discrete_norm(fmat @ u, ops.weights) <= discrete_norm(u, ops.weights) * (1.0 + 1e-12)


@PROPERTY
@given(filtered_states())
def test_adjoint_filter_equals_filter(case):
    ops, spec, _ = case
    fmat = build_filter(ops, spec).F
    gap = float(np.max(np.abs(auxiliary_filter(ops.weights, fmat) - fmat)))
    assert gap <= 1e-10 * float(np.max(np.abs(fmat)))  # verify_filter's adjoint_tol


@st.composite
def burgers_states(draw):
    n = draw(st.integers(1, 128))
    return build_operators(n), draw(nodal_states(n))


@PROPERTY
@given(burgers_states())
def test_split_form_energy_rate_is_nonpositive(case):
    """(dx/2) sum w u rhs(u) <= 0: the split volume term conserves energy and
    the LLF surface flux only dissipates it (Gassner, SISC 2013)."""
    ops, u = case
    problem = ProblemSpec(pde="burgers_skew", domain=(0.0, 2.0))
    rate = (problem.dx / 2.0) * float(np.sum(ops.weights * u * make_rhs(problem, ops)(u, 0.0)))
    # roundoff: the volume terms cancel in the rate up to the errors of D's
    # entries, which are of order (N + 1) eps times the row sums of |D|
    volume = (problem.dx / 2.0) * problem.scale * float(np.max(u * u)) * float(
        np.sum(ops.weights * np.abs(u) * np.sum(np.abs(ops.D), axis=1)))
    assert rate <= 10 * (ops.N + 1) * np.finfo(float).eps * volume
