"""Tests for the modal cutoff filter and its contractivity diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dgfilter.filters import (
    FilterSpec,
    auxiliary_filter,
    build_filter,
    contractivity_spectrum,
    cutoff_profile,
    quadrature_gram,
    verify_filter,
)
from dgfilter.operators import build_operators
from helpers import discrete_norm, trapezoid_weights


class TestFilterSpec:
    def test_defaults(self):
        spec = FilterSpec()
        assert spec.alpha == 36.0 and spec.s == 16 and spec.nc == 4
        assert spec.clip_highest

    @pytest.mark.parametrize("bad", [dict(alpha=0.0), dict(alpha=-1.0),
                                     dict(s=15), dict(s=0), dict(nc=-1),
                                     dict(alpha=math.nan), dict(alpha=math.inf),
                                     dict(nc=2.5), dict(nc=True), dict(s=16.0)])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            FilterSpec(**bad)


class TestSigma:
    def test_unaffected_mode(self):
        assert cutoff_profile(10, FilterSpec(nc=4))[2] == 1.0

    def test_last_mode_without_clipping(self):
        # the exponent ratio is exactly 1 at i = n, leaving exp(-alpha)
        val = cutoff_profile(12, FilterSpec(clip_highest=False))[12]
        assert val == pytest.approx(math.exp(-36.0), rel=1e-15)
        assert val == pytest.approx(2.3195228302435696e-16, rel=1e-12)

    def test_last_mode_clipped(self):
        assert cutoff_profile(12, FilterSpec())[12] == 0.0


class TestCutoffMatrix:
    """The cutoff profile sigma: the diagonal of the modal cutoff matrix."""

    def test_all_modes_unaffected_gives_identity(self):
        sig = cutoff_profile(7, FilterSpec(nc=8, clip_highest=False))
        assert np.array_equal(sig, np.ones(8))

    @pytest.mark.parametrize("clip", [True, False])
    @pytest.mark.parametrize("nc", [10, 10**20])
    def test_unaffected_count_beyond_the_modes_is_clamped(self, nc, clip):
        # every nc >= n + 1 leaves every mode untouched, however large
        assert np.array_equal(cutoff_profile(8, FilterSpec(nc=nc, clip_highest=clip)),
                              cutoff_profile(8, FilterSpec(nc=9, clip_highest=clip)))

    def test_clipping_beats_unaffected_count(self):
        # clipping zeroes the last mode even when nc covers every mode
        assert np.array_equal(cutoff_profile(7, FilterSpec(nc=8)), [1, 1, 1, 1, 1, 1, 1, 0])

    def test_hand_evaluated_pattern(self):
        sig = cutoff_profile(7, FilterSpec(nc=4))
        expected = np.array(
            [1.0, 1.0, 1.0, 1.0]
            + [math.exp(-36.0 * ((i - 3) / 4.0) ** 16) for i in (4, 5, 6)]
            + [0.0]
        )
        assert np.allclose(sig, expected, rtol=1e-15)

    @pytest.mark.parametrize("spec", [FilterSpec(), FilterSpec(s=32, nc=0),
                                      FilterSpec(alpha=10.0, clip_highest=False)])
    def test_range(self, spec):
        sig = cutoff_profile(12, spec)
        assert np.all(sig >= 0.0) and np.all(sig <= 1.0)

    @pytest.mark.parametrize("spec", [FilterSpec(), FilterSpec(s=32, nc=0),
                                      FilterSpec(alpha=10.0, clip_highest=False),
                                      FilterSpec(nc=9, clip_highest=False)])
    @pytest.mark.parametrize("n", [1, 7, 8, 63, 128])
    def test_matches_scalar_formula(self, spec, n):
        # bitwise against the per-mode scalar evaluation of the profile
        ref = []
        for i in range(n + 1):
            if spec.clip_highest and i == n:
                ref.append(0.0)
            elif i < spec.nc:
                ref.append(1.0)
            else:
                eta = (i + 1 - spec.nc) / (n + 1 - spec.nc)
                ref.append(float(np.exp(-spec.alpha * eta**spec.s)))
        assert np.array_equal(cutoff_profile(n, spec), ref)


class TestFilterMatrix:
    def test_identity_cutoff(self):
        ops = build_operators(9)
        f = build_filter(ops, FilterSpec(nc=10, clip_highest=False)).F
        assert np.max(np.abs(f - np.eye(10))) <= 1e-12

    def test_eigenstructure_per_mode(self):
        ops = build_operators(11)
        spec = FilterSpec()
        fm = build_filter(ops, spec)
        sig = cutoff_profile(11, spec)
        for j in range(12):
            mode = ops.V[:, j]
            assert np.allclose(fm.F @ mode, sig[j] * mode, atol=1e-10)

    def test_double_application_squares_cutoff(self):
        ops = build_operators(8)
        spec = FilterSpec()
        fm = build_filter(ops, spec)
        f2 = (ops.V * cutoff_profile(8, spec) ** 2) @ ops.Vinv
        rng = np.random.default_rng(3)
        u = rng.uniform(-1, 1, 9)
        assert np.allclose(fm.F @ (fm.F @ u), f2 @ u, atol=1e-12)

    def test_modal_similarity(self):
        ops = build_operators(16)
        spec = FilterSpec(s=32)
        fm = build_filter(ops, spec)
        sig = cutoff_profile(16, spec)
        assert np.max(np.abs(ops.Vinv @ fm.F @ ops.V - np.diag(sig))) <= 1e-10

    def test_matches_dense_definition(self):
        # V diag(sigma) Vinv, with the cutoff formed as a dense diagonal
        ops = build_operators(24)
        spec = FilterSpec()
        fm = build_filter(ops, spec)
        dense = ops.V @ np.diag(cutoff_profile(24, spec)) @ ops.Vinv
        assert np.array_equal(fm.F, dense)

    def test_low_modes_preserved(self):
        ops = build_operators(14)
        spec = FilterSpec()
        fm = build_filter(ops, spec)
        for j in range(spec.nc):
            mode = ops.V[:, j]
            assert np.max(np.abs(fm.F @ mode - mode)) <= 1e-10


class TestAuxiliaryFilter:
    @pytest.mark.parametrize("n", [4, 16, 40, 64])
    @pytest.mark.parametrize("s", [16, 32])
    def test_adjoint_equals_filter_on_lgl(self, n, s):
        ops = build_operators(n)
        fm = build_filter(ops, FilterSpec(s=s))
        tol = 1e-10 * np.max(np.abs(fm.F))
        assert np.max(np.abs(auxiliary_filter(ops.weights, fm.F) - fm.F)) <= tol

    def test_identity_filter(self):
        ops = build_operators(6)
        assert np.array_equal(auxiliary_filter(ops.weights, np.eye(7)), np.eye(7))

    def test_non_lgl_mass_breaks_identity(self):
        # negative control: with trapezoid weights the adjoint differs
        ops = build_operators(16)
        fm = build_filter(ops, FilterSpec())
        g = auxiliary_filter(trapezoid_weights(ops.nodes), fm.F)
        assert np.max(np.abs(g - fm.F)) > 1e-3

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            auxiliary_filter(np.array([1.0, 0.0, 1.0]), np.eye(3))


class TestQuadratureGram:
    @pytest.mark.parametrize("n", [7, 63, 128])
    def test_matches_dense_definition(self, n):
        ops = build_operators(n)
        dense = ops.V.T @ np.diag(ops.weights) @ ops.V
        assert np.allclose(quadrature_gram(ops.V, ops.weights), dense, rtol=0.0, atol=1e-14)

    def test_degree_four_pattern(self):
        ops = build_operators(4)
        k = quadrature_gram(ops.V, ops.weights)
        assert np.allclose(np.diag(k), [1, 1, 1, 1, 2.25], atol=1e-13)

    def test_degree_sixteen_last_entry(self):
        ops = build_operators(16)
        k = quadrature_gram(ops.V, ops.weights)
        assert k[16, 16] == pytest.approx(2.0 + 1.0 / 16.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 32, 64])
    def test_offdiagonal_small(self, n):
        ops = build_operators(n)
        assert verify_filter(ops, FilterSpec()).gram_offdiag <= 1e-12


class TestContractivity:
    @pytest.mark.parametrize("n", [7, 63, 128])
    def test_matches_dense_definition(self, n):
        ops = build_operators(n)
        fmat = build_filter(ops, FilterSpec()).F
        mass = np.diag(ops.weights)
        dense = fmat.T @ mass @ fmat - mass
        lam = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert np.allclose(contractivity_spectrum(fmat, ops.weights), lam, rtol=0.0, atol=1e-14)

    def test_identity_filter_spectrum_is_zero(self):
        ops = build_operators(10)
        lam = contractivity_spectrum(np.eye(11), ops.weights)
        assert np.max(np.abs(lam)) <= 1e-15

    @pytest.mark.parametrize("n", [4, 24, 64])
    @pytest.mark.parametrize("s", [16, 32])
    def test_clipped_filter_never_amplifies(self, n, s):
        ops = build_operators(n)
        fm = build_filter(ops, FilterSpec(s=s))
        lam = contractivity_spectrum(fm.F, ops.weights)
        assert lam[-1] <= 1e-12 * np.max(ops.weights)

    @pytest.mark.parametrize("n", [8, 24])
    def test_unclipped_still_contracts_numerically(self, n):
        # exp(-36) is below the resolution of the -1 - 1/n gap in the last
        # diagonal entry, so the spectrum stays non-positive in practice
        ops = build_operators(n)
        fm = build_filter(ops, FilterSpec(clip_highest=False))
        lam = contractivity_spectrum(fm.F, ops.weights)
        assert lam[-1] <= 1e-12 * np.max(ops.weights)

    def test_mismatched_mass_is_indefinite(self):
        # halving the last quadrature weight breaks the mass-filter pairing
        ops = build_operators(16)
        fm = build_filter(ops, FilterSpec())
        w = ops.weights.copy()
        w[-1] *= 0.5
        lam = contractivity_spectrum(fm.F, w)
        assert lam[0] < -1e-8 and lam[-1] > 1e-8

    def test_unaffected_mode_keeps_norm(self):
        ops = build_operators(12)
        fm = build_filter(ops, FilterSpec())
        mode = ops.V[:, 0]
        filtered = discrete_norm(fm.F @ mode, ops.weights)
        assert filtered == pytest.approx(discrete_norm(mode, ops.weights), rel=1e-13)

    def test_clipped_mode_is_removed(self):
        ops = build_operators(12)
        fm = build_filter(ops, FilterSpec())
        assert discrete_norm(fm.F @ ops.V[:, 12], ops.weights) <= 1e-12

    @pytest.mark.parametrize("n", [8, 24])
    def test_random_states_contract(self, n):
        ops = build_operators(n)
        fm = build_filter(ops, FilterSpec())
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            u = rng.uniform(-1.0, 1.0, n + 1)
            filtered = discrete_norm(fm.F @ u, ops.weights)
            assert filtered <= discrete_norm(u, ops.weights) * (1.0 + 1e-12)


class TestVerifyFilter:
    def test_report_passes_on_lgl(self):
        rep = verify_filter(build_operators(24), FilterSpec())
        assert rep.passed
        assert rep.gram_last == pytest.approx(2.0 + 1.0 / 24.0, abs=1e-12)

    @pytest.mark.parametrize("quantity, tol", [
        ("gram_offdiag", "GRAM_TOL"), ("gram_error", "GRAM_TOL"),
        ("adjoint_gap", "adjoint_tol"), ("lambda_max", "lambda_tol"),
    ])
    def test_each_check_passes_at_its_tolerance_and_fails_just_above(self, quantity, tol):
        rep = verify_filter(build_operators(24), FilterSpec())
        bound = getattr(rep, tol)
        assert replace(rep, **{quantity: bound}).passed
        assert not replace(rep, **{quantity: float(np.nextafter(bound, np.inf))}).passed

    def test_report_fails_when_quantities_degrade(self):
        rep = verify_filter(build_operators(24), FilterSpec())
        bad = type(rep)(n=rep.n, gram_offdiag=1e-3, gram_last=rep.gram_last,
                        gram_error=rep.gram_error, adjoint_gap=rep.adjoint_gap,
                        adjoint_tol=rep.adjoint_tol, lambda_max=rep.lambda_max,
                        lambda_tol=rep.lambda_tol)
        assert not bad.passed
