"""Tests for the LGL collocation operators: nodes, weights, D, V, inner products."""

import platform
import resource
import sys
import threading
import tracemalloc
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgfilter import operators
from dgfilter.cli import main
from dgfilter.experiments import run_varspeed
from dgfilter.operators import (
    MAX_DEGREE,
    _barycentric_weights,
    build_operator_sets,
    build_operators,
    derivative_matrix,
    lgl_nodes_weights,
    sbp_residual,
    vandermonde,
)
from helpers import discrete_norm, trapezoid_weights

# the degrees the benchmark's verify sweep runs: 1..64 and a spread up to 512
SWEEP_NS = (*range(1, 65), *sorted({*range(96, 513, 32), 397, 440, 498, 504, 507}))


def _longdouble_polish(n, nodes):
    """Interior nodes and weights after three long-double Newton passes from ``nodes``."""
    def pair(x):
        p_prev, p = np.ones_like(x), x.copy()
        for k in range(1, n):
            p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
        return p, p_prev

    x = np.asarray(nodes[1:-1], dtype=np.longdouble)
    for _ in range(3):
        p, p_prev = pair(x)
        omx2 = 1 - x * x
        dp = n * (p_prev - x * p) / omx2
        x = x - dp / ((2 * x * dp - n * (n + 1) * p) / omx2)
    p = pair(x)[0]
    return x, 2 / (n * (n + 1) * p * p)


class TestNodesWeights:
    def test_degree_one_is_endpoints(self):
        nodes, weights = lgl_nodes_weights(1)
        assert np.array_equal(nodes, [-1.0, 1.0])
        assert np.allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_degree_two_hand_solved(self):
        # moment equations sum w x^k = int x^k for k = 0..3 give
        # w = (1/3, 4/3, 1/3) at nodes (-1, 0, 1)
        nodes, weights = lgl_nodes_weights(2)
        assert np.allclose(nodes, [-1.0, 0.0, 1.0], atol=1e-15)
        assert np.allclose(weights, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33, 64, 512])
    def test_structure(self, n):
        nodes, weights = lgl_nodes_weights(n)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        assert abs(np.sum(weights) - 2.0) <= 1e-13

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            lgl_nodes_weights(0)

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError):
            lgl_nodes_weights(513)

    @pytest.mark.parametrize("n", [-5, 0, 100000])
    def test_build_rejects_the_degree_before_allocating(self, n):
        # an (n + 1)^2 table first would fail as numpy's memory or shape error
        with pytest.raises(ValueError, match="degree"):
            build_operators(n)

    @pytest.mark.skipif(np.finfo(np.longdouble).precision <= np.finfo(float).precision,
                        reason="long double is no wider than double on this platform")
    @pytest.mark.parametrize("n", SWEEP_NS[1:])
    def test_matches_a_long_double_polish(self, n):
        nodes, weights = lgl_nodes_weights(n)
        x, w = _longdouble_polish(n, nodes)
        assert float(np.max(np.abs(nodes[1:-1] - x))) <= 2e-16
        assert float(np.max(np.abs(weights[1:-1] / w - 1))) <= 1e-12

    @pytest.mark.parametrize("n", SWEEP_NS)
    def test_at_most_three_legendre_passes(self, n, monkeypatch):
        """The asymptotic seed converges in exactly three Newton passes, and N = 2's
        seed, 0, is its root; the last pass also gives the weights and the table behind
        V, so a build runs exactly 0, 1 and 3 recurrences at N = 1, 2 and >= 3, and so
        does lgl_nodes_weights alone, which fills a table of its own. The solve's one
        stop rule, over all the nodes of a batch, rests on this: no degree >= 3 stops
        before its third pass, and N = 2's zero steps leave its node as it is, so a
        batch with N = 2 runs as many recurrences as the other degree alone."""
        calls = []
        fill = operators._legendre_table

        def counted(x, table):
            calls.append(len(table) - 1)
            fill(x, table)

        monkeypatch.setattr(operators, "_legendre_table", counted)
        build_operators(n)
        built = len(calls)
        lgl_nodes_weights(n)
        passes = {1: 0, 2: 1}.get(n, 3)
        assert (built, len(calls) - built) == (passes, passes)
        assert calls == [n] * (2 * passes)
        del calls[:]
        list(build_operator_sets([2, n]))
        assert calls == [max(n, 2)] * max(passes, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 397, 512])
    def test_fills_its_own_table_when_none_is_passed(self, n, monkeypatch):
        """With no table passed, lgl_nodes_weights fills one of its own: the bytes of
        vandermonde's own recurrence, with the rule it returns for the caller's table."""
        tables = []
        rule = operators._lgl_rule

        def kept(n, x, p, table):
            tables.append(table)
            return rule(n, x, p, table)

        monkeypatch.setattr(operators, "_lgl_rule", kept)
        nodes, weights = lgl_nodes_weights(n)
        given_table = np.empty((n + 1, n + 1))
        given = lgl_nodes_weights(n, given_table)
        assert tables[1] is given_table and tables[0] is not given_table
        assert nodes.tobytes() == given[0].tobytes()
        assert weights.tobytes() == given[1].tobytes()
        reference = np.empty((n + 1, n + 1))
        operators._legendre_table(nodes, reference)
        assert tables[0].tobytes() == reference.tobytes() == given_table.tobytes()
        own = vandermonde(nodes, weights, tables[0])
        assert [a.tobytes() for a in own] == [a.tobytes() for a in vandermonde(nodes, weights)]

    @pytest.mark.parametrize("n", [1, 2, 64, 512])
    def test_recurrence_table_rows_are_the_pair(self, n):
        """Rows k - 1 and k of a table are the last two rows of a (k + 1)-row table, bit
        for bit: the pair a Newton pass reads at degree k is in the table behind V."""
        x = np.concatenate([lgl_nodes_weights(n)[0],
                            np.random.default_rng(n).uniform(-1.0, 1.0, 7)])
        table = np.empty((n + 1, x.size))
        operators._legendre_table(x, table)
        assert table[0].tobytes() == np.ones_like(x).tobytes()
        for k in range(1, n + 1):
            alone = np.empty((k + 1, x.size))
            operators._legendre_table(x, alone)
            assert table[k - 1:k + 1].tobytes() == alone[k - 1:].tobytes()

    @pytest.mark.parametrize("ns", [[1, 2], [3, 64, 65], [2, 7, 512]])
    def test_one_recurrence_gives_each_segment_its_own_pair(self, ns):
        """Each column block of one table is the table of that block alone, bit for bit,
        at the table's height and at the block's own degree."""
        x = np.random.default_rng(len(ns)).uniform(-1.0, 1.0, 5 * len(ns))
        table = np.empty((max(ns) + 1, x.size))
        operators._legendre_table(x, table)
        for i, n in enumerate(ns):
            s = slice(5 * i, 5 * i + 5)
            for rows in (len(table), n + 1):
                alone = np.empty((rows, 5))
                operators._legendre_table(x[s], alone)
                assert table[:rows, s].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 64, 65, 397, 512])
    def test_build_folds_the_vandermonde_table_into_newton(self, n):
        """The table of the last Newton pass, mirrored, is the one vandermonde evaluates."""
        ops = build_operators(n)
        nodes, weights = lgl_nodes_weights(n)
        v, vinv = vandermonde(nodes, weights)
        assert ops.nodes.tobytes() == nodes.tobytes()
        assert ops.weights.tobytes() == weights.tobytes()
        assert ops.V.tobytes() == v.tobytes()
        assert ops.Vinv.tobytes() == vinv.tobytes()

    @pytest.mark.parametrize("n", [2, 5, 16, 48])
    def test_quadrature_exactness(self, n):
        """Random polynomial products of degree <= 2n - 1 integrate exactly."""
        rng = np.random.default_rng(1234 + n)
        nodes, weights = lgl_nodes_weights(n)
        for _ in range(20):
            dp = int(rng.integers(0, n + 1))
            dq = 2 * n - 1 - dp
            p = np.polynomial.Polynomial(rng.uniform(-1, 1, dp + 1))
            q = np.polynomial.Polynomial(rng.uniform(-1, 1, max(dq, 0) + 1))
            quad = float(np.sum(weights * p(nodes) * q(nodes)))
            prim = (p * q).integ()
            exact = prim(1.0) - prim(-1.0)
            norm_p = np.sqrt((p * p).integ()(1.0) - (p * p).integ()(-1.0))
            norm_q = np.sqrt((q * q).integ()(1.0) - (q * q).integ()(-1.0))
            assert abs(quad - exact) <= 1e-12 * max(1.0, norm_p * norm_q)


def _set_bytes(ops):
    return [a.tobytes() for a in (ops.nodes, ops.weights, ops.D, ops.V, ops.Vinv)]


class TestOperatorSets:
    """One Newton solve for a list of degrees gives each the bits it gets alone."""

    @pytest.mark.parametrize("ns", [
        [1, 2, 3], [9, 7, 7, 63], [512, 7, 256],
        # unsorted, with 512 and 1 each due twice; its table, 513 x 449, fits the bound
        [512, 1, 256, 2, 128, 512, 1],
    ])
    def test_match_per_degree_builds(self, ns):
        sets = list(build_operator_sets(ns))
        assert [ops.N for ops in sets] == ns
        for ops, n in zip(sets, ns):
            assert _set_bytes(ops) == _set_bytes(build_operators(n))

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(st.lists(st.integers(1, MAX_DEGREE), min_size=1, max_size=8))
    def test_match_per_degree_builds_on_drawn_lists(self, ns):
        # a list either fits the shared-table bound and matches, or is refused at once
        solve = {n for n in ns if n >= 2}
        sets = build_operator_sets(ns)
        if (max(solve, default=1) + 1) * sum(n // 2 for n in solve) > (MAX_DEGREE + 1) ** 2:
            with pytest.raises(ValueError, match="shared table"):
                next(sets)
            return
        for ops, n in zip(sets, ns, strict=True):
            assert _set_bytes(ops) == _set_bytes(build_operators(n))

    @pytest.mark.parametrize("field", ["nodes", "weights", "D", "V", "Vinv"])
    def test_built_sets_are_read_only(self, field):
        for ops in (build_operators(7), *build_operator_sets([1, 2, 7, 64])):
            array = getattr(ops, field)
            before = array.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0
            assert array.tobytes() == before

    @pytest.mark.parametrize("ns", [[7, 0], [7, 513]])
    def test_degrees_are_checked_before_any_set(self, ns):
        with pytest.raises(ValueError, match="degree"):
            next(build_operator_sets(ns))

    def test_no_shared_table_exceeds_the_largest_square(self):
        # [4, 511, 512] fills exactly one 513 x 513 table; [6, 511, 512] needs one more column
        for ops, n in zip(build_operator_sets([4, 511, 512]), [4, 511, 512], strict=True):
            assert _set_bytes(ops) == _set_bytes(build_operators(n))
        for ns in ([6, 511, 512], [512, 1, 300, 511, 2, 400, 509, 512, 1]):
            with pytest.raises(ValueError, match="shared table"):
                next(build_operator_sets(ns))

    def test_every_degree_in_bounded_memory(self):
        # refused before the table exists: 1..512 in one batch would need a
        # 513 x 65536 table (269 MB), the sweep's spread of 19 degrees 513 x 3300
        spread = [n for n in SWEEP_NS if n > 64]
        tracemalloc.start()
        try:
            for ns in (range(1, MAX_DEGREE + 1), spread):
                with pytest.raises(ValueError, match="shared table"):
                    next(build_operator_sets(ns))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(spread) == 19
        assert peak < 2**20


class TestHeldSet:
    """build_operators hands its last set to the next call at the same degree."""

    def test_same_degree_builds_once(self, monkeypatch):
        calls = []
        fill = operators._legendre_table

        def counted(x, table):
            calls.append(len(table) - 1)
            fill(x, table)

        monkeypatch.setattr(operators, "_legendre_table", counted)
        ops = build_operators(24)
        assert calls == [24] * 3
        assert build_operators(24) is ops
        assert build_operators(24, check=False) is ops
        assert build_operators(np.int64(24)) is ops
        assert calls == [24] * 3

    def test_another_degree_drops_the_held_set_before_it_builds(self, monkeypatch):
        old = weakref.ref(build_operators(24))
        dead_at_build = []
        rule = operators.lgl_nodes_weights

        def watched(n, table=None):
            dead_at_build.append(old() is None)
            return rule(n, table)

        monkeypatch.setattr(operators, "lgl_nodes_weights", watched)
        new = build_operators(25)
        assert dead_at_build == [True]
        assert new.N == 25 and build_operators(25) is new

    def test_a_reused_set_is_checked_again(self, monkeypatch):
        ops = build_operators(16)
        assert operators.sbp_residual(ops) > 0.0
        monkeypatch.setattr(operators, "sbp_tolerance", lambda n: 0.0)
        assert build_operators(16, check=False) is ops
        with pytest.raises(ArithmeticError, match="summation-by-parts"):
            build_operators(16)

    def test_threads_asking_for_alternating_degrees_get_their_own(self):
        degrees = (15, 16)
        expected = {n: _set_bytes(next(build_operator_sets([n]))) for n in degrees}
        wrong = []
        start = threading.Barrier(4)

        def ask(first):
            start.wait()
            for i in range(100):
                n = degrees[(first + i) % 2]
                ops = build_operators(n)
                fields = (ops.nodes, ops.weights, ops.D, ops.V, ops.Vinv)
                if (ops.N != n or _set_bytes(ops) != expected[n]
                        or any(a.flags.writeable for a in fields)):
                    wrong.append((n, ops.N))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    @pytest.mark.parametrize("n", SWEEP_NS)
    def test_sweep_stdout_matches_fresh_builds(self, n, capsys):
        # ops check then filter verify at one degree, as the verify sweep runs
        # them, print what each prints after a fresh build
        commands = (["ops", "check", "--n", str(n)], ["filter", "verify", "--n", str(n)])
        reused = []
        for argv in commands:
            main(argv)
            reused.append(capsys.readouterr().out)
        fresh = []
        for argv in commands:
            operators._held = None
            main(argv)
            fresh.append(capsys.readouterr().out)
        assert reused == fresh

    @pytest.mark.parametrize("n", [True, False, 1.0, 16.0, np.float64(16), "16", None,
                                   np.True_, np.array([16])])
    def test_a_degree_must_be_an_integer(self, n):
        build_operators(1)  # held, and True == 1.0 == 1: neither may be handed it
        for build in (build_operators, lgl_nodes_weights):
            with pytest.raises(ValueError, match="degree must be an integer"):
                build(n)
        with pytest.raises(ValueError, match="degree must be an integer"):
            next(build_operator_sets([7, n]))

    def test_an_integer_degree_is_a_plain_int(self):
        ops = build_operators(np.int64(16))
        assert type(ops.N) is int and ops.N == 16
        assert [type(s.N) for s in build_operator_sets([np.int32(7), 9])] == [int, int]
        assert lgl_nodes_weights(np.int16(3))[0].shape == (4,)


def _no_c_library(name):
    raise OSError("no C library")


class TestAllocatorPolicy:
    """The first operator build has glibc keep freed memory; without ``mallopt``
    everything runs the same."""

    @pytest.fixture
    def policy_reset(self):
        yield
        operators.keep_freed_memory.cache_clear()  # the next build sets the policy again

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_a_freed_array_comes_back_without_page_faults(self):
        # the largest N^2 array; under glibc's default trimming its second
        # allocation faults in about 500 pages again
        build_operators(8)
        assert operators.keep_freed_memory()
        size = (MAX_DEGREE + 1) ** 2
        freed = np.ones(size)
        del freed
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        again = np.ones(size)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before == 0
        assert again[-1] == 1.0

    @pytest.mark.parametrize("cdll", [
        pytest.param(lambda name: types.SimpleNamespace(), id="no-mallopt"),
        pytest.param(_no_c_library, id="no-c-library"),
    ])
    def test_without_mallopt_outputs_keep_their_bytes(self, cdll, capsys, monkeypatch,
                                                      policy_reset):
        argv = ["filter", "verify", "--n", "24"]
        assert main(argv) == 0
        expected = capsys.readouterr().out, run_varspeed(n=16, dt=0.005).u_final.tobytes()
        operators.keep_freed_memory.cache_clear()
        monkeypatch.setattr(operators.ctypes, "CDLL", cdll)
        assert main(argv) == 0
        assert not operators.keep_freed_memory()
        assert (capsys.readouterr().out,
                run_varspeed(n=16, dt=0.005).u_final.tobytes()) == expected


class TestLegendreNormalized:
    """The normalized Legendre basis: the columns of the Vandermonde matrix."""

    def test_mode_one_at_right_endpoint(self):
        v, _ = vandermonde(np.array([-1.0, 1.0]), np.ones(2))
        assert v[1, 1] == pytest.approx(np.sqrt(1.5), abs=1e-15)

    @pytest.mark.parametrize("n", [3, 8, 24])
    def test_discrete_orthonormality(self, n):
        """<L_j, L_k> = delta_jk under LGL quadrature while j + k <= 2n - 1."""
        nodes, weights = lgl_nodes_weights(n)
        v, _ = vandermonde(nodes, weights)
        for j in range(n + 1):
            for k in range(n + 1):
                if j + k > 2 * n - 1:
                    continue
                val = float(np.sum(v[:, j] * weights * v[:, k]))
                assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)


class TestDerivativeMatrix:
    def test_degree_one_hand_derived(self):
        d = derivative_matrix(np.array([-1.0, 1.0]), np.ones(2))
        assert np.array_equal(d, [[-0.5, 0.5], [-0.5, 0.5]])

    def test_constant_derivative_vanishes(self):
        # rows sum to zero by construction; the matvec reorders the sum so
        # only the roundoff floor remains
        nodes, weights = lgl_nodes_weights(12)
        assert np.max(np.abs(derivative_matrix(nodes, weights) @ np.ones(13))) <= 1e-13

    def test_identity_derivative(self):
        nodes, weights = lgl_nodes_weights(9)
        assert np.allclose(derivative_matrix(nodes, weights) @ nodes, np.ones(10), atol=1e-13)

    def test_rejects_duplicate_nodes(self):
        # adjacent, unsorted and non-adjacent, and equal only as signed zeros
        for nodes in ([-1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [-0.0, 0.0, 1.0]):
            with pytest.raises(ValueError):
                derivative_matrix(np.array(nodes), np.ones(len(nodes)))

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_monomial_exactness(self, n):
        nodes, weights = lgl_nodes_weights(n)
        d = derivative_matrix(nodes, weights)
        worst = 0.0
        for k in range(1, n + 1):
            err = np.max(np.abs(d @ nodes**k - k * nodes ** (k - 1)))
            worst = max(worst, err)
        assert worst <= 1e-10


class TestVandermonde:
    def test_constant_column(self):
        nodes, weights = lgl_nodes_weights(6)
        v, _ = vandermonde(nodes, weights)
        assert np.allclose(v[:, 0], np.sqrt(0.5), atol=1e-15)

    @pytest.mark.parametrize("n", [1, 8, 32, 64])
    def test_inverse(self, n):
        nodes, weights = lgl_nodes_weights(n)
        v, vinv = vandermonde(nodes, weights)
        assert np.max(np.abs(vinv @ v - np.eye(n + 1))) <= 1e-12

    def test_modal_transform_picks_out_mode(self):
        nodes, weights = lgl_nodes_weights(7)
        v, vinv = vandermonde(nodes, weights)
        coeffs = vinv @ v[:, 2]
        expected = np.zeros(8)
        expected[2] = 1.0
        assert np.allclose(coeffs, expected, atol=1e-13)

    @pytest.mark.parametrize("n", SWEEP_NS)
    def test_gram_inverse_matches_lu(self, n):
        """Vinv = K^-1 V^T M agrees with an LU solve against the identity."""
        ops = build_operators(n)
        lu = np.linalg.solve(ops.V, np.eye(n + 1))
        assert np.max(np.abs(ops.Vinv - lu)) <= 1e-13

    def test_trapezoid_weights_break_the_identity(self):
        # negative control: the Gram identity, and so Vinv, needs the LGL rule
        n = 16
        nodes = lgl_nodes_weights(n)[0]
        v, vinv = vandermonde(nodes, trapezoid_weights(nodes))
        assert np.max(np.abs(v @ vinv - np.eye(n + 1))) > 1e-6


class TestBarycentricWeights:
    @pytest.mark.parametrize("n", SWEEP_NS)
    def test_proportional_to_reciprocal_top_mode(self, n):
        """(-1)^j sqrt(w_j) is a constant multiple of 1 / P_N(x_j), signs included."""
        ops = build_operators(n)
        ratio = _barycentric_weights(ops.weights) * ops.V[:, n]
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) <= 1e-14


class TestInnerProducts:
    def test_constant(self):
        _, weights = lgl_nodes_weights(5)
        assert discrete_norm(np.ones(6), weights) ** 2 == pytest.approx(2.0, abs=1e-14)

    def test_linear(self):
        # int x^2 over [-1, 1]; exact for n >= 2
        nodes, weights = lgl_nodes_weights(4)
        assert discrete_norm(nodes, weights) ** 2 == pytest.approx(2.0 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_top_mode_norm(self, n):
        """The discrete norm of the top mode overshoots: ||L_n||^2 = 2 + 1/n."""
        nodes, weights = lgl_nodes_weights(n)
        val = discrete_norm(vandermonde(nodes, weights)[0][:, n], weights) ** 2
        assert val == pytest.approx(2.0 + 1.0 / n, rel=1e-12)


class TestSbp:
    def test_degree_one_exact(self):
        assert sbp_residual(build_operators(1)) == 0.0

    @pytest.mark.parametrize("n", [7, 63, 128, 397])
    def test_matches_dense_definition(self, n):
        # row scaling by the weights reproduces M D with the dense mass matrix
        ops = build_operators(n, check=False)
        md = np.diag(ops.weights) @ ops.D
        bmat = np.zeros((n + 1, n + 1))
        bmat[0, 0], bmat[n, n] = -1.0, 1.0
        assert sbp_residual(ops) == float(np.max(np.abs(md + md.T - bmat)))

    @pytest.mark.parametrize("n", list(range(1, 65)))
    def test_residual_sweep(self, n):
        assert sbp_residual(build_operators(n)) <= 1e-12

    def test_perturbation_is_detected(self):
        # at degree 1 the mass matrix is the identity, so a perturbation of
        # D passes through at full size (doubled by the transpose term)
        ops = build_operators(1)
        d_bad = ops.D.copy()
        d_bad[0, 0] += 1e-3
        assert sbp_residual(replace(ops, D=d_bad)) >= 1e-3

    def test_build_holds_the_ops_check_tolerance(self, monkeypatch):
        # a residual of 1e-10 is below a loose fixed bound such as 1e-9 but
        # above the tolerance that ops check and every build share
        derivative_matrix = operators.derivative_matrix

        def perturbed(nodes, weights):
            dmat = derivative_matrix(nodes, weights)
            dmat[0, 1] += 1e-10 / weights[0]
            return dmat

        monkeypatch.setattr(operators, "derivative_matrix", perturbed)
        assert 5e-11 < sbp_residual(build_operators(16, check=False)) < 1e-9
        with pytest.raises(ArithmeticError, match="summation-by-parts"):
            build_operators(16)
        with pytest.raises(ArithmeticError, match="summation-by-parts"):
            next(build_operator_sets([7, 16]))

    def test_perturbation_scales_with_weight(self):
        ops = build_operators(16)
        d_bad = ops.D.copy()
        d_bad[0, 0] += 1e-3
        assert sbp_residual(replace(ops, D=d_bad)) >= 2.0 * ops.weights[0] * 1e-3 * 0.999
