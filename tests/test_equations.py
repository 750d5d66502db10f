"""Tests for the semi-discrete right-hand sides and their numerical fluxes."""

import numpy as np
import pytest

from dgfilter.equations import ProblemSpec, make_rhs
from dgfilter.experiments import (
    burgers_initial,
    varspeed_exact,
    varspeed_wave_speed,
)
from dgfilter.filters import FilterSpec, build_filter
from dgfilter.operators import build_operators


def advection_problem(g, a=1.0, domain=(0.0, 1.0)):
    return ProblemSpec(pde="advection_constant", domain=domain, wave_speed=a, inflow=g)


def burgers_problem(pde="burgers_conservative"):
    return ProblemSpec(pde=pde, domain=(0.0, 2.0))


def varspeed_problem():
    return ProblemSpec(pde="advection_variable", domain=(-1.0, 1.0),
                       wave_speed_fn=varspeed_wave_speed,
                       inflow=lambda t: float(varspeed_exact(-1.0, t)))


def energy(problem, ops, u):
    """Discrete integral of u^2 / 2 over the physical domain."""
    return 0.5 * (problem.dx / 2.0) * float(np.sum(ops.weights * u * u))


class TestProblemSpec:
    def test_rejects_negative_speed_inflow(self):
        with pytest.raises(ValueError):
            ProblemSpec(pde="advection_constant", wave_speed=-1.0, inflow=lambda t: 0.0)

    def test_rejects_reversed_domain(self):
        with pytest.raises(ValueError):
            ProblemSpec(pde="burgers_skew", domain=(1.0, 0.0))

    def test_rejects_unknown_pde(self):
        with pytest.raises(ValueError):
            ProblemSpec(pde="traffic")

    def test_mapping(self):
        p = burgers_problem()
        assert p.dx == 2.0 and p.scale == 1.0
        x = p.physical_nodes(np.array([-1.0, 0.0, 1.0]))
        assert np.allclose(x, [0.0, 1.0, 2.0])


class TestLlfFlux:
    """The local Lax-Friedrichs face flux, read off the right-hand sides."""

    def test_consistency(self):
        # equal states on both sides of a face: the flux is the exact flux,
        # so the surface term vanishes and only the volume term is left
        ops = build_operators(8)
        u = np.linspace(0.7, -0.3, 9)
        problem = advection_problem(lambda t: 0.7, a=2.0)
        rhs = make_rhs(problem, ops)(u, 0.0)
        assert rhs[0] == pytest.approx(-problem.scale * (ops.D @ (2.0 * u))[0])
        u = 0.7 + 0.2 * (1.0 - ops.nodes**2)
        problem = burgers_problem()
        rhs = make_rhs(problem, ops)(u, 0.0)
        volume = -problem.scale * (ops.D @ (0.5 * u * u))
        assert rhs[0] == pytest.approx(volume[0]) and rhs[-1] == pytest.approx(volume[-1])

    def test_advection_upwinds(self):
        # u = 0 inside, inflow 2, a = 1: half sum of fluxes plus half jump,
        # 1 - (-1) = 2, enters through the left weight
        ops = build_operators(8)
        problem = advection_problem(lambda t: 2.0)
        rhs = make_rhs(problem, ops)(np.zeros(9), 0.0)
        assert rhs[0] == pytest.approx(problem.scale * 2.0 / ops.weights[0])

    def test_burgers_hand_value(self):
        # u = xi: the periodic face sees u = 1 on its left and -1 on its
        # right; fluxes are both 0.5, max speed 1, jump -2, so f* = 1.5.
        # The volume term -d(xi^2 / 2)/dxi = -xi is exact at degree 6.
        ops = build_operators(6)
        problem = ProblemSpec(pde="burgers_conservative", domain=(-1.0, 1.0))
        rhs = make_rhs(problem, ops)(ops.nodes.copy(), 0.0)
        assert rhs[0] == pytest.approx(1.0 + (1.5 - 0.5) / ops.weights[0])
        assert rhs[-1] == pytest.approx(-1.0 - (1.5 - 0.5) / ops.weights[-1])


class TestConservativeRhs:
    def test_constant_is_steady_for_advection(self):
        ops = build_operators(12)
        rhs = make_rhs(advection_problem(lambda t: 3.0), ops)
        assert np.max(np.abs(rhs(np.full(13, 3.0), 0.0))) <= 1e-13

    def test_constant_is_steady_for_burgers(self):
        ops = build_operators(12)
        rhs = make_rhs(burgers_problem(), ops)
        assert np.max(np.abs(rhs(np.full(13, 0.4), 0.0))) <= 1e-13

    def test_linear_profile_exact_transport(self):
        # u(x, 0) = xi on [-1, 1] with matching inflow data: u_t = -u_x = -1
        ops = build_operators(8)
        rhs = make_rhs(advection_problem(lambda t: -1.0 - t, domain=(-1.0, 1.0)), ops)
        assert np.allclose(rhs(ops.nodes.copy(), 0.0), -np.ones(9), atol=1e-13)

    @pytest.mark.parametrize("n", [6, 20])
    def test_polynomial_exactness(self, n):
        """Degree <= n-1 data with matching boundary data gives the exact derivative."""
        rng = np.random.default_rng(n)
        coeffs = rng.uniform(-1, 1, n)  # degree n - 1
        p = np.polynomial.Polynomial(coeffs)
        dp = p.deriv()
        ops = build_operators(n)
        problem = advection_problem(lambda t, p=p: float(p(0.0)), domain=(0.0, 1.0))
        x = problem.physical_nodes(ops.nodes)
        assert np.max(np.abs(make_rhs(problem, ops)(p(x), 0.0) + dp(x))) <= 1e-11


class TestSkewRhs:
    def test_constant_is_steady(self):
        ops = build_operators(10)
        rhs = make_rhs(burgers_problem("burgers_skew"), ops)
        assert np.max(np.abs(rhs(np.full(11, 0.7), 0.0))) <= 1e-13

    def test_single_mode_volume_identity(self):
        # u = xi: (2/3) d(u^2/2) + (1/3) u u' = xi, so the volume part of the
        # rhs is -xi; subtract the (shared) surface term to isolate it
        ops = build_operators(6)
        problem = ProblemSpec(pde="burgers_skew", domain=(-1.0, 1.0))
        u = ops.nodes.copy()
        full = make_rhs(problem, ops)(u, 0.0)
        f = 0.5 * u * u
        fstar = 1.5  # LLF flux of u[-1] = 1 against u[0] = -1, see TestLlfFlux
        surface = np.zeros(7)
        surface[0] = (fstar - f[0]) / ops.weights[0]
        surface[-1] = -(fstar - f[-1]) / ops.weights[-1]
        assert np.allclose(full - surface, -ops.nodes, atol=1e-12)

    def test_energy_rate_nonpositive(self):
        """Semi-discrete energy bound: split volume term plus dissipative flux."""
        n = 24
        ops = build_operators(n)
        problem = burgers_problem("burgers_skew")
        rhs = make_rhs(problem, ops)
        rng = np.random.default_rng(42)
        for _ in range(100):
            coeffs = rng.normal(size=n + 1) * np.exp(-0.25 * np.arange(n + 1))
            u = ops.V @ coeffs
            rate = (problem.dx / 2.0) * float(np.sum(ops.weights * u * rhs(u, 0.0)))
            assert rate <= 1e-10


class TestVariableSpeedRhs:
    def test_wave_speed_at_left_endpoint(self):
        assert varspeed_wave_speed(-1.0) == pytest.approx(np.sin(1.0) / np.pi, rel=1e-14)
        assert varspeed_wave_speed(-1.0) == pytest.approx(0.2678, abs=5e-5)

    def test_reduces_to_conservative_for_constant_data(self):
        ops = build_operators(10)
        problem = ProblemSpec(pde="advection_variable", domain=(0.0, 1.0),
                              wave_speed_fn=lambda x: np.full_like(x, 2.0),
                              inflow=lambda t: 0.6)
        dudt = make_rhs(problem, ops)(np.full(11, 0.6), 0.0)

        cons = make_rhs(advection_problem(lambda t: 0.6, a=2.0), ops)
        assert np.allclose(dudt, cons(np.full(11, 0.6), 0.0), atol=1e-12)

    def test_constant_state_with_matching_data_is_steady(self):
        ops = build_operators(12)
        problem = ProblemSpec(pde="advection_variable", domain=(-1.0, 1.0),
                              wave_speed_fn=varspeed_wave_speed,
                              inflow=lambda t: 0.9)
        assert np.max(np.abs(make_rhs(problem, ops)(np.full(13, 0.9), 0.0))) <= 1e-13

    def test_rejects_negative_inflow_speed(self):
        ops = build_operators(6)
        problem = ProblemSpec(pde="advection_variable", domain=(-1.0, 1.0),
                              wave_speed_fn=lambda x: x,  # negative at x = -1
                              inflow=lambda t: 0.0)
        with pytest.raises(ValueError):
            make_rhs(problem, ops)

    @pytest.mark.parametrize("n,tol", [(8, 1e-2), (16, 1e-8), (32, 1e-9)])
    def test_matches_time_derivative_of_exact_solution(self, n, tol):
        """Central finite difference of the closed-form solution as oracle."""
        ops = build_operators(n)
        problem = varspeed_problem()
        x = problem.physical_nodes(ops.nodes)
        dudt = make_rhs(problem, ops)(varspeed_exact(x, 0.0), 0.0)
        h = 1e-5
        ut = (varspeed_exact(x, h) - varspeed_exact(x, -h)) / (2.0 * h)
        assert np.max(np.abs(dudt - ut)) <= tol

    def test_truncation_error_decays_with_degree(self):
        problem = varspeed_problem()
        errs = []
        for n in (8, 16):
            ops = build_operators(n)
            x = problem.physical_nodes(ops.nodes)
            dudt = make_rhs(problem, ops)(varspeed_exact(x, 0.0), 0.0)
            h = 1e-5
            ut = (varspeed_exact(x, h) - varspeed_exact(x, -h)) / (2.0 * h)
            errs.append(np.max(np.abs(dudt - ut)))
        assert errs[1] < errs[0] / 1e3


class TestEnergy:
    def test_unit_constant(self):
        ops = build_operators(8)
        assert energy(burgers_problem(), ops, np.ones(9)) == pytest.approx(1.0, abs=1e-14)

    def test_cosine_initial_data_closed_form(self):
        # int over [0, 2] of (1 + cos(pi x))^2 / 50 dx = 3/50
        ops = build_operators(128)
        problem = burgers_problem()
        u0 = burgers_initial(problem.physical_nodes(ops.nodes))
        assert energy(problem, ops, u0) == pytest.approx(0.06, abs=1e-10)

    def test_filtering_never_adds_energy(self):
        ops = build_operators(20)
        problem = burgers_problem()
        fm = build_filter(ops, FilterSpec())
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.uniform(-1, 1, 21)
            before = energy(problem, ops, u)
            after = energy(problem, ops, fm.F @ u)
            assert after <= before * (1.0 + 1e-12)


class TestMakeRhs:
    def test_nonfinite_states_propagate(self):
        # NaNs flow through so the time-loop driver can flag the crash
        ops = build_operators(6)
        rhs = make_rhs(burgers_problem(), ops)
        u = np.full(7, np.nan)
        assert not np.all(np.isfinite(rhs(u, 0.0)))
