"""Randomised invariants on drawn degrees, filter parameters and states:
filter contractivity (for the exponential profile and for any profile with
|sigma_i| <= 1), the adjoint identity, the semi-discrete energy bound of the
assembled advection operator, the split-form Burgers energy bound,
conservation of mass by the filter, the conservative-form DG
Burgers step and the finite-volume reference solver, byte-identical
CSVs from repeated linear studies, and CSV rows that format every double
as the f-string ``{v:.17g}`` does.

Hypothesis runs derandomized: each test's draws are seeded from the test
itself, so the same code in the same test session draws the same examples.
They are not fixed across edits, though. Hypothesis 6.155 mixes numeric
literals from the loaded local modules (``dgfilter`` and these tests) into
about 5% of its draws (``_get_local_constants``), so an edit to ``src/``
that adds or changes a literal changes which examples are drawn, and so
can the set of modules a session has loaded. An input found to fail is
pinned with ``@example``.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dgfilter.equations import ProblemSpec, linear_operator, make_rhs
from dgfilter.experiments import ExperimentRecord, run_convergence, run_varspeed, write_csv
from dgfilter.filters import FilterSpec, auxiliary_filter, build_filter, contractivity_spectrum
from dgfilter.fv import FvConfig, solve_fv_burgers
from dgfilter.operators import build_operators, sbp_tolerance
from dgfilter.timestepping import integrate
from helpers import discrete_norm

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)
EPS = np.finfo(float).eps


def nodal_states(n):
    return arrays(np.float64, n + 1,
                  elements=st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))


@st.composite
def filtered_states(draw, min_nc=0):
    """(operators, filter spec, nodal state) with N <= 128, even s and min_nc <= nc <= N."""
    n = draw(st.integers(max(1, min_nc), 128))
    spec = FilterSpec(
        alpha=draw(st.floats(0.5, 60.0)),
        s=2 * draw(st.integers(1, 32)),
        nc=draw(st.integers(min_nc, n)),
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
@given(st.integers(1, 128).flatmap(lambda n: arrays(
    np.float64, n + 1, elements=st.one_of(st.just(1.0), st.floats(-1.0, 1.0)))))
def test_any_profile_in_the_unit_interval_contracts(sig):
    """F^T M F - M <= 0 for F = V diag(sigma) Vinv whenever every |sigma_i| <= 1:
    with the LGL Gram matrix K = V^T M V = diag(1, ..., 1, 2 + 1/N) it is
    Vinv^T diag((sigma_i^2 - 1) K_ii) Vinv. Nothing else of the exponential
    profile is needed. Raising sigma_N just above 1 breaks it, and the check
    has to see that."""
    n = sig.size - 1
    ops = build_operators(n)
    tol = 1e-12 * float(np.max(ops.weights))  # verify_filter's lambda_tol
    assert contractivity_spectrum((ops.V * sig) @ ops.Vinv, ops.weights)[-1] <= tol
    sig[n] = 1.0 + 1e-6
    assert contractivity_spectrum((ops.V * sig) @ ops.Vinv, ops.weights)[-1] > tol


@PROPERTY
@given(filtered_states())
def test_adjoint_filter_equals_filter(case):
    ops, spec, _ = case
    fmat = build_filter(ops, spec).F
    gap = float(np.max(np.abs(auxiliary_filter(ops.weights, fmat) - fmat)))
    assert gap <= 1e-10 * float(np.max(np.abs(fmat)))  # verify_filter's adjoint_tol


@PROPERTY
@given(filtered_states(min_nc=1))
def test_filter_conserves_mass_when_mode_zero_is_kept(case):
    """sum w (F u) = sum w u: sigma_0 = 1, and the quadrature integrates every
    higher mode against the constant exactly, to zero. F is formed from V and
    Vinv, so its roundoff scales with |V| |Vinv|, not with |F|; below the
    smallest normal number roundoff is absolute."""
    ops, spec, u = case
    fmat = build_filter(ops, spec).F
    drift = abs(float(np.sum(ops.weights * (fmat @ u))) - float(np.sum(ops.weights * u)))
    size = np.abs(ops.V) @ (np.abs(ops.Vinv) @ np.abs(u))
    assert drift <= (ops.N + 1) * EPS * float(np.sum(ops.weights * size)) + np.finfo(float).tiny


@PROPERTY
@given(st.integers(1, 512), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_advection_operator_has_a_semi_discrete_energy_bound(n, a, dx):
    """W L + (W L)^T = diag(-a scale, 0, ..., 0, -a scale) with W = diag(w),
    for a constant speed a > 0 on a domain of length dx: the SBP identity
    W D + (W D)^T = diag(-1, 0, ..., 0, 1) plus the inflow penalty
    -scale a / w_0 on the first node. Under zero inflow the quadrature
    energy then only decays, the semi-discrete bound that the paper's
    filter-stability argument takes for granted."""
    ops = build_operators(n)
    problem = ProblemSpec(pde="advection_variable", domain=(0.0, dx),
                          wave_speed_fn=lambda x: np.full_like(x, a), inflow=lambda t: 0.0)
    lmat, _ = linear_operator(problem, ops)
    wl = ops.weights[:, None] * lmat
    resid = wl + wl.T
    resid[0, 0] += a * problem.scale
    resid[-1, -1] += a * problem.scale
    assert float(np.max(np.abs(resid))) <= a * problem.scale * sbp_tolerance(n)


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


@PROPERTY
@given(burgers_states())
def test_conservative_burgers_conserves_mass(case):
    """sum w u is constant under the conservative-form step: the volume term
    integrates to f(1) - f(-1), which the periodic surface terms cancel.

    Rough random data is unstable in this form, so the run is short (100
    steps at CFL 0.02); the bound is roundoff in the rate and the update."""
    ops, u0 = case
    problem = ProblemSpec(pde="burgers_conservative", domain=(0.0, 2.0))
    umax0 = max(float(np.max(np.abs(u0))), 1e-3)
    dt = 0.02 * 0.5 * problem.dx * float(np.min(np.diff(ops.nodes))) / umax0
    traj = integrate(u0, make_rhs(problem, ops), 100 * dt, dt_fn=lambda u: dt,
                     observers={"mass": lambda t, u: float(np.sum(ops.weights * u)),
                                "umax": lambda t, u: float(np.max(np.abs(u)))})
    assert not traj.crashed
    umax = float(np.max(traj.series["umax"]))
    rate = problem.scale * float(np.sum(ops.weights * np.sum(np.abs(ops.D), axis=1))) * umax**2
    drift = float(np.max(np.abs(traj.series["mass"] - traj.series["mass"][0])))
    assert drift <= traj.n_steps * EPS * (dt * rate + 2.0 * umax)


@PROPERTY
@given(st.integers(10, 128).flatmap(lambda cells: st.tuples(
    st.just(cells), arrays(np.float64, cells, elements=st.floats(-1.0, 1.0)),
    st.floats(0.01, 1.0))))
# two rounded sums of the mass 1.709 differ by 2 ulp here, above the bound
@example((88, np.array([0.0] + [0.8640999439653871] * 87), 1 / 64))
def test_fv_conserves_mass(case):
    """Periodic LLF interface fluxes telescope, so total mass only moves by
    the roundoff of each step's cell updates. The change of the cell sum is
    taken in one exact sum, so the test's own summation adds no roundoff."""
    cells, u0, t_final = case
    config = FvConfig(cells=cells, t_final=t_final)
    _, u, steps = solve_fv_burgers(config, lambda x: u0)
    drift = abs(math.fsum(np.concatenate([u, -u0]))) * config.dx
    assert drift <= steps * cells * EPS * float(np.max(np.abs(u0))) * config.dx


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(st.sampled_from(("convergence", "varspeed")), st.integers(7, 24),
       st.floats(1e-3, 5e-3), st.booleans())
def test_linear_study_csv_is_byte_deterministic(study, n, dt, filtered):
    """The same study written twice gives the same bytes."""
    def record():
        if study == "convergence":
            return run_convergence([n], dt, filtered, t_final=0.1).record
        return run_varspeed(n, dt, filtered=filtered, t_final=0.1).record

    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / name for name in ("a.csv", "b.csv")]
        for path in paths:
            write_csv(path, [record()])
        assert paths[0].read_bytes() == paths[1].read_bytes()


def fstring_row(experiment, variant, n, dt, t_or_n, value, extra):
    """Reference: one CSV row formatted field by field with f-strings."""
    return (f"{experiment},{variant},{int(n)},{dt:.17g},"
            f"{t_or_n:.17g},{value:.17g},{extra}")


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 10**6), st.floats(),
                          st.one_of(st.floats(), st.integers(-10**6, 10**6)), st.floats(),
                          st.sampled_from(("", "energy", "crash", "solution"))),
                min_size=1, max_size=20))
@example([(128, np.nan, np.inf, -np.inf, "crash"), (7, -0.0, 5e-324, 2.2250738585072e-308, ""),
          (3, 0.1, 3, 1.0 / 3.0, "energy")])
def test_csv_rows_match_the_fstring_format(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(path, [ExperimentRecord("burgers", "cons_unfiltered", rows=list(rows))])
        lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[1:] == [fstring_row("burgers", "cons_unfiltered", *row) for row in rows] + [""]
