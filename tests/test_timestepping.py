"""Tests for the low-storage RK3 stepper and the filtered integration loop."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dgfilter import experiments, fv
from dgfilter.equations import ProblemSpec
from dgfilter.experiments import gaussian_pulse
from dgfilter.filters import FilterSpec, build_filter
from dgfilter.operators import build_operators
from dgfilter.timestepping import (MAX_STEPS, RK3_A, RK3_B, RK3_C, check_step_budget,
                                   fixed_steps, integrate, rk3_step)
from helpers import discrete_norm, linear_rhs


def decay(u, t):
    return -u


def run_scalar(dt, t_end=1.0):
    y, t = 1.0, 0.0
    while t < t_end - 1e-12:
        h = min(dt, t_end - t)
        y = rk3_step(y, t, h, decay)
        t += h
    return y


class TestRk3Step:
    def test_zero_rhs_is_identity(self):
        u = np.array([1.0, -2.0, 3.0])
        out = rk3_step(u, 0.0, 0.1, lambda v, t: np.zeros_like(v))
        assert np.array_equal(out, u)

    def test_scalar_decay_accuracy(self):
        # ten steps of size 0.1 against the closed form
        assert abs(run_scalar(0.1) - math.exp(-1.0)) <= 2e-5

    def test_halving_dt_gives_third_order(self):
        e1 = abs(run_scalar(0.1) - math.exp(-1.0))
        e2 = abs(run_scalar(0.05) - math.exp(-1.0))
        assert 7.0 <= e1 / e2 <= 9.0

    def test_observed_order_slope(self):
        dts = [0.1, 0.05, 0.025, 0.0125]
        errs = [abs(run_scalar(dt) - math.exp(-1.0)) for dt in dts]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert 2.8 <= slope <= 3.2

    def test_nonautonomous_rhs_uses_stage_times(self):
        # y' = 3 t^2 integrates exactly (rhs polynomial of degree 2 in t)
        y = rk3_step(0.0, 0.0, 1.0, lambda u, t: 3.0 * t * t)
        assert y == pytest.approx(1.0, abs=1e-14)


def textbook_rk3_step(u, t, dt, rhs):
    """Reference: the low-storage step on Python-float coefficients."""
    du = 0.0
    for a, b, c in zip(RK3_A, RK3_B, RK3_C):
        du = a * du + dt * rhs(u, t + c * dt)
        u = u + b * du
    return u


# The aliasing case returns its argument; the others depend on the time.
# "signed" reads the sign of a zero state, so a step that dropped the first
# stage's 0.0 + (du = dt rhs in place of 0.0 + dt rhs) reads differently.
CONTRACT_RHS = {
    "identity": lambda u, t: u,
    "quadratic": lambda u, t: t * (u * u) - u,
    "matrix": lambda u, t: np.cos(t) * (np.tri(u.shape[0]) @ u) + t,
    "signed": lambda u, t: u + t * np.copysign(1.0, u),
}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
# vectors and (n, m) stacks; the floats include -0.0 and subnormals
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=12),
              elements=st.floats(-1e3, 1e3)),
       st.floats(-10.0, 10.0), st.floats(1e-6, 1.0),
       st.sampled_from(sorted(CONTRACT_RHS)))
@example(np.array([-0.0, 0.0, 1.0]), 0.0, 0.5, "signed")
def test_rk3_step_is_the_textbook_step_and_writes_no_array(u, t, dt, name):
    rhs = CONTRACT_RHS[name]
    seen = []

    def recorded(v, s):
        out = rhs(v, s)
        seen.append((out, out.tobytes()))
        return out

    before = u.tobytes()
    with np.errstate(over="ignore", invalid="ignore"):
        out = rk3_step(u, t, dt, recorded)
        ref = textbook_rk3_step(u.copy(), t, dt, rhs)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    # a new array, and no state or rhs result written: run_burgers keys its
    # energy cache on the identity of each state
    assert out is not u and not np.shares_memory(out, u)
    assert u.tobytes() == before
    assert all(arr.tobytes() == data for arr, data in seen)


def loop_fixed_steps(t_final, dt):
    """Reference: the step schedule built one ``t += dt`` at a time."""
    eps = 1e-12 * max(1.0, abs(t_final))
    t, starts = 0.0, []
    while t < t_final - eps:
        starts.append(t)
        t += min(dt, t_final - t)
    return np.array(starts), min(dt, t_final - starts[-1]) if starts else dt


def loop_step_ends(t_final, dt):
    """End time of each step integrate takes with ``dt_fn = lambda u: dt``."""
    eps = 1e-12 * max(1.0, abs(t_final))
    t, ends = 0.0, []
    while t < t_final - eps:
        t += min(dt, t_final - t)
        ends.append(t)
    return tuple(ends)


class TestFixedSteps:
    @pytest.mark.parametrize("t_final, dt", [
        (0.5, 4e-4), (4.0, 5e-4), (2.25, 1e-3), (1.0, 1.0 / 3.0), (4.0, 1e-5),
        (0.3011, 2e-3),     # last step truncated
        (0.3, 2e-3),        # last step short by roundoff
        (0.25, 1.0 / 64),   # exact multiple
        (0.7, 0.1),
        (1.0, 2.0),         # one step, shorter than dt
        (1e-13, 1e-3),      # no step at all
        (0.5, 1e308),       # candidates near the largest double, which must not overflow
        (1.5e308, 1.7e308),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_the_loop(self, t_final, dt):
        starts, h_last = fixed_steps(t_final, dt)
        ref_starts, ref_h_last = loop_fixed_steps(t_final, dt)
        assert np.array_equal(starts, ref_starts)
        assert h_last == ref_h_last

    @pytest.mark.parametrize("t_final, dt", [
        (-1.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (0.0, 0.1),
        (1.0, math.nan), (1.0, math.inf), (1.0, 0.0), (1.0, -1.0), (1.0, 1e-17),
    ])
    def test_rejects_bad_values(self, t_final, dt):
        with pytest.raises(ValueError):
            fixed_steps(t_final, dt)

    def test_step_cap(self):
        # MAX_STEPS steps of dt pass the cap, twice as many do not. The count
        # is not asserted: the cumulative roundoff of t += dt leaves a 2.5e-10
        # sliver before t_final, which takes one more step, as integrate does
        starts, _ = fixed_steps(1.0, 1.0 / MAX_STEPS)
        assert starts.size >= MAX_STEPS
        with pytest.raises(ValueError, match="step cap"):
            fixed_steps(1.0, 0.5 / MAX_STEPS)

    def test_peak_allocation_at_a_million_steps(self):
        tracemalloc.start()
        try:
            starts, _ = fixed_steps(1.0, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert starts.size == 10**6
        assert peak < 3 * starts.nbytes


class TestStepBudget:
    DT = 2.0**-20  # MAX_STEPS * DT is exact

    def test_exactly_max_steps_pass_and_just_beyond_fails(self):
        t_final = MAX_STEPS * self.DT
        check_step_budget(t_final, self.DT)
        with pytest.raises(ValueError, match="step cap"):
            check_step_budget(np.nextafter(t_final, math.inf), self.DT)
        with pytest.raises(ValueError, match="step cap"):
            check_step_budget(t_final, np.nextafter(self.DT, 0.0))

    def test_an_unbounded_step_passes(self):
        check_step_budget(1e300, math.inf)

    def test_fixed_steps_rejects_just_beyond_the_boundary(self):
        # before allocating: the accepted side is test_step_cap's
        with pytest.raises(ValueError, match="step cap"):
            fixed_steps(np.nextafter(MAX_STEPS * self.DT, math.inf), self.DT)

    def test_the_cfl_stepped_first_steps_go_through_it(self, monkeypatch):
        # Burgers: t_final and the step of u0; FV: t_final and cfl dx / max|u0|
        seen = []

        class Budget(Exception):
            pass

        def spy(t_final, dt):
            seen.append((t_final, dt))
            raise Budget

        for module in (experiments, fv):
            monkeypatch.setattr(module, "check_step_budget", spy)
        with pytest.raises(Budget):
            experiments.run_burgers("skew_unfiltered", n=8, cfl=0.3, t_final=0.7)
        h_min = experiments.min_node_spacing(build_operators(8),
                                             ProblemSpec(pde="burgers_skew", domain=(0.0, 2.0)))
        assert seen.pop() == (0.7, 0.3 * h_min / 0.4)
        with pytest.raises(Budget):
            fv.solve_fv_burgers(fv.FvConfig(cells=100, cfl=0.5, t_final=0.7),
                                lambda x: 0.25 + 0.0 * x)
        assert seen.pop() == (0.7, 0.5 * 0.02 / 0.25)


def advection_setup(n=24, g=None):
    problem = ProblemSpec(pde="advection_variable", domain=(0.0, 1.0), wave_speed_fn=np.ones_like,
                          inflow=g or (lambda t: float(gaussian_pulse(0.0, t))))
    ops = build_operators(n)
    x = problem.physical_nodes(ops.nodes)
    return problem, ops, x


class TestIntegrate:
    def test_lands_exactly_on_final_time(self):
        traj = integrate(np.ones(3), lambda u, t: -u, 0.35, dt_fn=lambda u: 0.1)
        assert traj.t_final == pytest.approx(0.35, abs=1e-14)
        assert traj.n_steps == 4

    def test_unfiltered_matches_manual_loop(self):
        problem, ops, x = advection_setup()
        rhs = linear_rhs(problem, ops)
        u0 = gaussian_pulse(x, 0.0)
        traj = integrate(u0, rhs, 0.1, dt_fn=lambda u: 0.01)

        u, t = u0.copy(), 0.0
        for _ in range(10):
            u = rk3_step(u, t, 0.01, rhs)
            t += 0.01
        assert np.array_equal(traj.u_final, u)

    def test_filter_after_each_step_bounds_norm_with_homogeneous_inflow(self):
        problem, ops, x = advection_setup(g=lambda t: 0.0)
        fm = build_filter(ops, FilterSpec())
        u0 = gaussian_pulse(x, 0.25)  # pulse centered inside the domain
        traj = integrate(
            u0, linear_rhs(problem, ops), 0.5, dt_fn=lambda u: 1e-3,
            schedule=(fm.F, loop_step_ends(0.5, 1e-3)),
            observers={"norm": lambda t, u: discrete_norm(u, ops.weights)},
        )
        assert len(traj.filter_events) == traj.n_steps == 500
        norms = traj.series["norm"]
        assert np.all(norms <= norms[0] * (1.0 + 1e-12))

    def test_at_times_snaps_to_step_boundaries(self):
        problem, ops, x = advection_setup(n=8)
        fm = build_filter(ops, FilterSpec(nc=2))
        traj = integrate(
            gaussian_pulse(x, 0.0), linear_rhs(problem, ops), 0.4, dt_fn=lambda u: 0.03,
            schedule=(fm.F, (0.1, 0.2, 0.4)),
            norm_fn=lambda u: discrete_norm(u, ops.weights),
        )
        event_times = [t for t, _, _ in traj.filter_events]
        # 0.1 -> boundary 0.12, 0.2 -> 0.21, 0.4 -> final truncated step
        assert np.allclose(event_times, [0.12, 0.21, 0.4], atol=1e-12)
        for _, before, after in traj.filter_events:
            assert after <= before * (1.0 + 1e-12)

    def test_times_due_by_one_step_end_filter_once(self):
        # steps of 0.25 on [0, 1]: 0.1 to 0.25 are due at 0.25, 0.3 at 0.5,
        # none by 0.75, and 1.5 lies past the horizon
        traj = integrate(np.ones(2), lambda u, t: 0.0 * u, 1.0, dt_fn=lambda u: 0.25,
                         schedule=(0.5 * np.eye(2), (0.1, 0.2, 0.25, 0.3, 1.5)))
        assert np.array_equal(traj.filter_events[:, 0], [0.25, 0.5])
        assert np.array_equal(traj.u_final, [0.25, 0.25])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_crash_returns_partial_series(self):
        # blow-up ODE passes through inf to nan within the horizon
        traj = integrate(np.array([1.0]), lambda u, t: u * u * 1e3, 1.0, dt_fn=lambda u: 0.05)
        assert traj.crashed
        assert traj.crash_time is not None and traj.crash_time < 1.0
        assert traj.times[-1] == pytest.approx(traj.crash_time)

    def test_custom_crash_check(self):
        traj = integrate(np.array([1.0]), lambda u, t: u, 2.0, dt_fn=lambda u: 0.1,
                         crash_check=lambda u: float(np.max(u)) > 2.0)
        assert traj.crashed and traj.crash_time < 1.5

    def test_cfl_stepping_needs_dt_fn(self):
        # every step size comes from dt_fn, a required keyword
        with pytest.raises(TypeError, match="dt_fn"):
            integrate(np.ones(2), lambda u, t: -u, 1.0)

    @pytest.mark.parametrize("t_final", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_bad_final_time(self, t_final):
        with pytest.raises(ValueError, match="final time"):
            integrate(np.ones(2), lambda u, t: -u, t_final, dt_fn=lambda u: 0.1)

    def test_dt_fn_sets_each_step(self):
        sizes = iter([0.5, 0.25, 0.125, 10.0])
        traj = integrate(np.ones(2), lambda u, t: -u, 1.0, dt_fn=lambda u: next(sizes))
        assert np.allclose(traj.times, [0.0, 0.5, 0.75, 0.875, 1.0], atol=1e-15)

    def test_records_each_step(self):
        traj = integrate(np.ones(2), lambda u, t: -u, 1.0, dt_fn=lambda u: 0.1,
                         observers={"sum": lambda t, u: float(np.sum(u))})
        # t = 0 plus every step boundary
        assert traj.n_steps == 10
        assert np.allclose(traj.times, np.linspace(0.0, 1.0, 11), atol=1e-12)
        assert traj.series["sum"].size == traj.times.size == 11
