"""End-to-end verification suite.

Every documented guarantee of the package runs here at its stated
tolerance, one test per criterion, each printing a single pass/fail line
(run with ``pytest -s`` to see them). The expensive simulations are shared
through module-scoped fixtures.
"""

import numpy as np
import pytest
from numpy.polynomial import legendre

from dgfilter.experiments import (
    run_burgers,
    run_convergence,
    run_fv_reference,
    run_varspeed,
)
from dgfilter.filters import (
    FilterSpec,
    auxiliary_filter,
    build_filter,
    contractivity_spectrum,
)
from dgfilter.operators import build_operators, sbp_residual
from helpers import burgers_entropy_solution, discrete_norm, shock_position, trapezoid_weights


def check(label: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def burgers_runs():
    return {
        variant: run_burgers(variant)
        for variant in ("cons_unfiltered", "cons_filtered",
                        "skew_unfiltered", "skew_filtered")
    }


@pytest.fixture(scope="module")
def fv_reference():
    return run_fv_reference()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_operator_identities():
    worst_sbp = 0.0
    worst_gram = 0.0
    for n in range(1, 65):
        ops = build_operators(n)
        worst_sbp = max(worst_sbp, sbp_residual(ops))
        target = np.diag(np.concatenate([np.ones(n), [2.0 + 1.0 / n]]))
        gram = (ops.V.T * ops.weights) @ ops.V
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - target))))
    check(
        "criterion 1: operator identities (SBP and modal Gram, N = 1..64)",
        worst_sbp <= 1e-12 and worst_gram <= 1e-10,
        f"max SBP residual {worst_sbp:.2e}, max Gram deviation {worst_gram:.2e}",
    )


def test_criterion_2_adjoint_filter_identity():
    worst = 0.0
    for n in range(4, 65):
        ops = build_operators(n)
        for s in (16, 32):
            fm = build_filter(ops, FilterSpec(s=s))
            gmat = auxiliary_filter(ops.weights, fm.F)
            gap = float(np.max(np.abs(gmat - fm.F))) / float(np.max(np.abs(fm.F)))
            worst = max(worst, gap)
    check(
        "criterion 2: adjoint filter equals filter (N = 4..64, s = 16 and 32)",
        worst <= 1e-10,
        f"max relative gap {worst:.2e}",
    )


def test_criterion_3_contractivity():
    worst_lam = -np.inf
    for n in range(4, 65):
        ops = build_operators(n)
        for s in (16, 32):
            fm = build_filter(ops, FilterSpec(s=s))
            lam = contractivity_spectrum(fm.F, ops.weights)[-1]
            worst_lam = max(worst_lam, lam / float(np.max(ops.weights)))
    spectrum_ok = worst_lam <= 1e-12

    rng = np.random.default_rng(20240)
    worst_growth = 0.0
    for n in (8, 24, 64):
        ops = build_operators(n)
        fm = build_filter(ops, FilterSpec())
        for _ in range(1000):
            u = rng.uniform(-1.0, 1.0, n + 1)
            growth = discrete_norm(fm.F @ u, ops.weights) / discrete_norm(u, ops.weights)
            worst_growth = max(worst_growth, growth)
    states_ok = worst_growth <= 1.0 + 1e-12

    check(
        "criterion 3: filter is contractive (spectrum sweep + 3000 random states)",
        spectrum_ok and states_ok,
        f"max lambda/max(M) {worst_lam:.2e}, max norm growth - 1 {worst_growth - 1.0:.2e}",
    )


def test_criterion_4_spectral_convergence():
    n_list = [7, 15, 23, 31]
    dt = 4e-3
    errs = run_convergence(n_list, dt).errors
    errs_half = run_convergence(n_list, dt / 2.0).errors

    def decreasing_until_plateau(errors):
        plateau = errors[-1]
        for a, b in zip(errors, errors[1:]):
            if b > 2.0 * plateau and a / b < 10.0:
                return False
        return True

    spectral_ok = decreasing_until_plateau(errs) and decreasing_until_plateau(errs_half)
    floor_ok = errs[0] / errs[1] >= 10.0
    ratio = errs[-1] / errs_half[-1]
    ratio_ok = 6.0 <= ratio <= 10.0
    check(
        "criterion 4: spectral convergence with per-step filtering + dt-halving",
        spectral_ok and floor_ok and ratio_ok,
        f"errors {[f'{e:.2e}' for e in errs]}, plateau ratio {ratio:.2f}",
    )


def test_criterion_5_variable_speed_filtering():
    filtered = run_varspeed(filtered=True)
    unfiltered = run_varspeed(filtered=False)
    tv_ok = filtered.tv < unfiltered.tv
    err_ok = filtered.linf_error < unfiltered.linf_error
    check(
        "criterion 5: filtering suppresses oscillations at steep gradients",
        tv_ok and err_ok,
        f"TV {filtered.tv:.2f} < {unfiltered.tv:.2f}, "
        f"error {filtered.linf_error:.3f} < {unfiltered.linf_error:.3f}",
    )


def test_criterion_6_burgers_energy_study(burgers_runs):
    skew_unf = burgers_runs["skew_unfiltered"].trajectory
    cons_unf = burgers_runs["cons_unfiltered"].trajectory
    cons_fil = burgers_runs["cons_filtered"].trajectory
    skew_fil = burgers_runs["skew_filtered"].trajectory

    a_ok = (not skew_unf.crashed) and np.max(skew_unf.series["energy"]) <= 1.0 + 1e-8
    b_ok = cons_unf.crashed and 1.5 < cons_unf.crash_time < 2.25
    c_ok = (not cons_fil.crashed) and np.max(cons_fil.series["energy"]) <= 2.0
    d_ok = (not skew_fil.crashed) and (
        skew_fil.series["energy"][-1] <= skew_unf.series["energy"][-1]
    )
    e_ok = all(
        after <= before * (1.0 + 1e-12)
        for run in (cons_fil, skew_fil)
        for _, before, after in run.filter_events
    )
    check(
        "criterion 6: Burgers energy study (four scheme variants)",
        a_ok and b_ok and c_ok and d_ok and e_ok,
        f"skew bounded {a_ok}, cons crash at "
        f"{cons_unf.crash_time and round(cons_unf.crash_time, 3)}, "
        f"cons_filtered completes {c_ok}, filtered less energetic {d_ok}, "
        f"filter steps dissipative {e_ok}",
    )


def test_criterion_7_fv_cross_check(burgers_runs, fv_reference):
    dg = burgers_runs["skew_filtered"]
    ops, u = dg.ops, dg.trajectory.u_final
    # the DG solution as the Legendre series of its modal coefficients, on
    # [0, 2] = [-1, 1] + 1; V's columns are P_k scaled by sqrt(k + 1/2)
    n = ops.nodes.size - 1
    coef = (ops.Vinv @ u) * np.sqrt(np.arange(n + 1) + 0.5)
    u_dg = legendre.legval(fv_reference.x - 1.0, coef)
    # the series must reproduce the nodal values it came from
    resample = float(np.max(np.abs(legendre.legval(ops.nodes, coef) - u)))
    resample_ok = resample <= 1e-12 * float(np.max(np.abs(u)))

    dx = fv_reference.x[1] - fv_reference.x[0]
    xs_fv = shock_position(fv_reference.x, fv_reference.u_final)
    xs_dg = shock_position(fv_reference.x, u_dg)
    shock_ok = abs(xs_fv - xs_dg) <= 5.0 * dx

    smooth = np.abs(fv_reference.x - xs_fv) > 0.1
    l1 = float(np.sum(np.abs(u_dg - fv_reference.u_final)[smooth]) * dx)
    l1_ok = l1 <= 2e-2
    check(
        "criterion 7: filtered DG agrees with the finite-volume reference",
        shock_ok and l1_ok and resample_ok,
        f"shock offset {abs(xs_fv - xs_dg):.1e} (tol {5 * dx:.1e}), "
        f"smooth-region L1 {l1:.2e}, nodal resample error {resample:.1e}",
    )


def test_criterion_8_mismatched_mass_negative_control():
    found_positive = False
    details = []
    for n in (8, 16, 24):
        ops = build_operators(n)
        w_trap = trapezoid_weights(ops.nodes)
        for s in (16, 32):
            lam = contractivity_spectrum(build_filter(ops, FilterSpec(s=s)).F, w_trap)[-1]
            details.append(f"N={n} s={s}: {lam:.1e}")
            if lam > 1e-6:
                found_positive = True
    check(
        "criterion 8: contractivity fails with a mismatched mass matrix",
        found_positive,
        "; ".join(details[:3]) + " ...",
    )


def test_criterion_9_entropy_solution_cross_check(burgers_runs, fv_reference):
    # the exact solution and the DG runs on the FV cell centres, the DG
    # series sampled as in criterion 7; no run beyond the shared fixtures
    x = fv_reference.x
    dx = x[1] - x[0]
    exact = burgers_entropy_solution(x, 2.25)
    xs = shock_position(x, exact)
    smooth = np.abs(x - xs) > 0.1

    def offset_and_linf(variant):
        ops, u = burgers_runs[variant].ops, burgers_runs[variant].trajectory.u_final
        coef = (ops.Vinv @ u) * np.sqrt(np.arange(ops.N + 1) + 0.5)
        u_dg = legendre.legval(x - 1.0, coef)
        return abs(shock_position(x, u_dg) - xs), float(np.max(np.abs(u_dg - exact)[smooth]))

    fv_l1 = float(np.sum(np.abs(fv_reference.u_final - exact)) * dx)
    measured = {v: offset_and_linf(v) for v in ("cons_filtered", "skew_filtered",
                                                "skew_unfiltered")}
    within = {v: off <= 5.0 * dx and linf <= 0.05 for v, (off, linf) in measured.items()}
    check(
        "criterion 9: filtered DG and FV agree with the exact entropy solution",
        abs(xs - 0.95) <= dx and fv_l1 <= 1e-4 and within["cons_filtered"]
        and within["skew_filtered"] and not within["skew_unfiltered"],
        f"exact shock {xs:.4f}, FV L1 {fv_l1:.1e}; shock offset and smooth-region Linf: "
        + ", ".join(f"{v} {off:.1e} {linf:.3f}" for v, (off, linf) in measured.items()),
    )
