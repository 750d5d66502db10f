"""Tests for the experiment drivers, diagnostics and CSV emission."""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dgfilter import experiments, operators
from dgfilter.equations import ProblemSpec, linear_operator
from dgfilter.experiments import (
    BURGERS_VARIANTS,
    CSV_HEADER,
    ExperimentRecord,
    FILTER_PARAMS,
    STEP_CHUNK,
    STUDY_FILTER,
    _run_linear,
    burgers_initial,
    error_linf,
    filter_tag,
    gaussian_pulse,
    run_burgers,
    run_convergence,
    run_varspeed,
    run_fv_reference,
    total_variation,
    varspeed_exact,
    varspeed_wave_speed,
    write_csv,
)
from dgfilter.filters import FilterSpec, build_filter
from dgfilter.fv import FvConfig
from dgfilter.operators import build_operators
from dgfilter.timestepping import (MAX_STEPS, RK3_C, FilterSchedule, fixed_steps, integrate,
                                   rk3_affine_step, rk3_step)
from helpers import (conservative_advection_rhs, linear_rhs, shock_position,
                     varspeed_advection_rhs, zero_product_affine_step)


def held_bytes(fn):
    """(fn's result, traced bytes still allocated while the result is alive)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = fn()
        gc.collect()
        return res, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestProblemData:
    def test_pulse_peak_location_moves(self):
        assert gaussian_pulse(0.25, 0.0) == pytest.approx(1.0)
        assert gaussian_pulse(0.75, 0.5) == pytest.approx(1.0)

    def test_varspeed_exact_reduces_to_initial_condition(self):
        x = np.linspace(-1.0, 1.0, 101)
        assert np.allclose(varspeed_exact(x, 0.0), np.sin(np.pi * x), atol=1e-12)

    def test_varspeed_gradient_location(self):
        # the long-time profile is sin(1) except near x = (1 - pi)/pi
        x = np.linspace(-1.0, 1.0, 20001)
        u = varspeed_exact(x, 4.0)
        idx = np.argmax(np.abs(np.diff(u)))
        x_star = (1.0 - np.pi) / np.pi
        assert abs(0.5 * (x[idx] + x[idx + 1]) - x_star) <= 1e-2
        assert x_star == pytest.approx(-0.6817, abs=5e-5)

    def test_burgers_initial_range(self):
        x = np.linspace(0.0, 2.0, 101)
        u = burgers_initial(x)
        assert np.min(u) >= 0.0 and np.max(u) == pytest.approx(0.4)


class TestDiagnostics:
    def test_error_linf_zero_on_exact_samples(self):
        x = np.linspace(0.0, 1.0, 33)
        assert error_linf(gaussian_pulse(x, 0.1), lambda xx: gaussian_pulse(xx, 0.1), x) == 0.0

    def test_total_variation_monotone(self):
        u = np.array([0.0, 0.3, 0.9, 2.0])
        assert total_variation(u) == pytest.approx(abs(u[-1] - u[0]))

    def test_total_variation_hat(self):
        assert total_variation(np.array([0.0, 1.0, 0.0])) == pytest.approx(2.0)

    def test_shock_position_midpoint(self):
        x = np.linspace(0.0, 1.0, 11)
        u = np.where(x < 0.45, 1.0, 0.0)
        assert shock_position(x, u) == pytest.approx(0.45, abs=0.051)


class TestCsv:
    def test_round_trip_format(self, tmp_path):
        res = run_convergence([7, 9], dt=1e-2)
        path = tmp_path / "conv.csv"
        write_csv(path, [res.record])
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4  # header + 2 rows + trailing newline
        fields = lines[1].split(",")
        assert fields[0] == "convergence"
        assert fields[2] == "7"
        assert len(fields) == 7

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, [run_convergence([7, 9], dt=1e-2).record])
        write_csv(p2, [run_convergence([7, 9], dt=1e-2).record])
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("n", ["7", np.nan, None])
    def test_an_unformattable_block_raises_and_keeps_the_file(self, n, tmp_path):
        good = ExperimentRecord("e", "v")
        good.add(3, 0.5, np.zeros(5), np.ones(5), "solution")
        bad = ExperimentRecord("e", "v")
        bad.add(n, 0.5, 1.0, 2.0, "crash")
        path = tmp_path / "kept.csv"
        path.write_bytes(b"old\n")
        with pytest.raises((TypeError, ValueError)):
            write_csv(path, [good, bad])
        assert path.read_bytes() == b"old\n"

    def test_writing_holds_a_fixed_batch_not_the_file(self, tmp_path):
        rec = ExperimentRecord("fv_reference", "llf_euler")
        rec.add(50_000, 0.9, np.linspace(0.0, 2.0, 50_000), np.linspace(-1.0, 1.0, 50_000),
                "solution")
        gc.collect()
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", [rec])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file is 4.9 MB of text; one batch of rows takes about 0.3 MiB
        assert peak < 2 * 2**20

    def test_no_commas_in_variant_tags(self):
        assert "," not in FILTER_PARAMS
        assert filter_tag(False) == "unfiltered"
        assert filter_tag(True) == "filtered:a36:s16:nc4:clip"
        assert STUDY_FILTER == FilterSpec()  # the one filter behind every tag

    @pytest.mark.parametrize("filtered, tag", [(True, "filtered:a36:s16:nc4:clip"),
                                               (False, "unfiltered")])
    def test_linear_studies_tag_the_filter(self, filtered, tag):
        conv = run_convergence([7], dt=1e-2, filtered=filtered, t_final=0.05)
        var = run_varspeed(n=8, dt=1e-2, filtered=filtered, t_final=0.05)
        assert conv.record.variant == var.record.variant == tag

    @pytest.mark.parametrize("variant", BURGERS_VARIANTS)
    def test_burgers_tags_carry_the_filter_parameters_when_filtered(self, variant):
        tag = run_burgers(variant, n=8, t_final=0.05).record.variant
        assert tag == (f"{variant}:a36:s16:nc4:clip" if variant.endswith("_filtered") else variant)


class TestRecordBlocks:
    def test_scalars_and_arrays_give_rows_in_order(self):
        rec = ExperimentRecord("e", "v")
        rec.add(3, 0.5, np.array([0.0, 1.0]), np.array([2.0, -0.0]), "solution")
        rec.add(3, 0.5, 4, 5.5, "crash")
        rows = list(rec.rows())
        assert rows == [(3, 0.5, 0.0, 2.0, "solution"), (3, 0.5, 1.0, -0.0, "solution"),
                        (3, 0.5, 4.0, 5.5, "crash")]
        assert all(type(t) is float and type(v) is float for _, _, t, v, _ in rows)

    @pytest.mark.parametrize("t_or_n, value", [
        (np.zeros(3), np.zeros(2)),
        (np.zeros(2), 1.0),
        (np.zeros((2, 2)), np.zeros((2, 2))),
    ])
    def test_unequal_or_multidimensional_columns_are_rejected(self, t_or_n, value):
        rec = ExperimentRecord("e", "v")
        with pytest.raises(ValueError, match="1-D arrays of one length"):
            rec.add(1, 0.1, t_or_n, value)
        assert rec.blocks == []

    @pytest.mark.parametrize("driver, columns", [
        (lambda: run_varspeed(n=8, dt=1e-2, t_final=0.05), lambda r: (r.x, r.u_final)),
        (lambda: run_fv_reference(FvConfig(cells=50, t_final=0.1)), lambda r: (r.x, r.u_final)),
        (lambda: run_burgers("cons_filtered", n=8, t_final=0.05),
         lambda r: (r.trajectory.times, r.trajectory.series["energy"])),
    ], ids=["varspeed", "fv_reference", "burgers"])
    def test_series_blocks_share_the_result_arrays(self, driver, columns):
        res = driver()
        _, _, t_or_n, value, _ = res.record.blocks[0]
        x, y = columns(res)
        assert np.shares_memory(t_or_n, x) and np.shares_memory(value, y)
        assert t_or_n.size == x.size and value.size == y.size

    def test_default_fv_result_holds_its_arrays_once(self):
        # the two 10 000-cell arrays are 0.16 MB; a boxed tuple per row held 1.45 MB
        res, held = held_bytes(run_fv_reference)
        assert res.x.size == 10000
        assert held < 0.4e6, held


class TestConvergenceDriver:
    def test_errors_drop_fast_in_degree(self):
        res = run_convergence([7, 15], dt=1e-3)
        assert res.errors[0] / res.errors[1] >= 10.0

    def test_rejects_out_of_range_degrees(self):
        with pytest.raises(ValueError):
            run_convergence([4, 8], dt=1e-3)

    def test_rejects_an_empty_degree_list(self):
        with pytest.raises(ValueError, match="at least one degree"):
            run_convergence([], dt=1e-3)

    def test_the_sweep_runs_three_recurrences_in_all(self, monkeypatch):
        # one Newton solve serves all 29 default degrees, the interior nodes
        # x >= 0 of each in one table to degree 63; its last pass fills every
        # table behind V
        calls = []
        fill = operators._legendre_table

        def counted(x, table):
            calls.append(table.shape)
            fill(x, table)

        monkeypatch.setattr(operators, "_legendre_table", counted)
        run_convergence(t_final=0.01)
        assert calls == [(64, sum(n // 2 for n in range(7, 64, 2)))] * 3

    def test_degrees_run_in_the_given_order_as_they_run_alone(self):
        res = run_convergence([9, 7, 7, 15], dt=1e-2, t_final=0.1)
        alone = [run_convergence([n], dt=1e-2, t_final=0.1).errors[0] for n in (9, 7, 7, 15)]
        assert res.ns == [9, 7, 7, 15]
        assert res.errors == alone

    def test_rows_carry_parameters(self):
        res = run_convergence([8], dt=1e-2)
        n, dt, t_or_n, value, extra = next(res.record.rows())
        assert (n, dt, t_or_n, extra) == (8, 1e-2, 8, "linf_error")
        assert value == res.errors[0]


class TestVarspeedDriver:
    def test_small_scale_run(self):
        # desk-size smoke: short horizon, modest degree
        res = run_varspeed(n=32, dt=2e-3, filtered=True, t_final=0.5)
        assert np.all(np.isfinite(res.u_final))
        assert res.linf_error <= 0.05
        kinds = {extra for *_, extra in res.record.rows()}
        assert kinds == {"solution", "linf_error", "total_variation"}

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -1.0, 1e-12])
    def test_bad_dt_fails_before_operator_work(self, dt, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("operators were built for a rejected dt")

        monkeypatch.setattr(experiments, "build_operators", never_called)
        monkeypatch.setattr(experiments, "build_operator_sets", never_called)
        with pytest.raises(ValueError, match="dt"):
            run_varspeed(dt=dt)
        with pytest.raises(ValueError, match="dt"):
            run_convergence([7], dt=dt)


def linear_case(kind, calls):
    """(problem, n, u0_fn, exact_fn) of one linear study; the inflow appends
    every time it is asked for to ``calls``, in order."""
    def recorded(fn):
        def inflow(t):
            calls.extend(np.ravel(t).tolist())
            return fn(t)
        return inflow

    if kind == "constant":
        problem = ProblemSpec(pde="advection_variable", domain=(0.0, 1.0),
                              wave_speed_fn=np.ones_like,
                              inflow=recorded(lambda t: gaussian_pulse(0.0, t)))
        return problem, 24, lambda x: gaussian_pulse(x, 0.0), gaussian_pulse
    problem = ProblemSpec(pde="advection_variable", domain=(-1.0, 1.0),
                          wave_speed_fn=varspeed_wave_speed,
                          inflow=recorded(lambda t: varspeed_exact(-1.0, t)))
    return problem, 40, lambda x: np.sin(np.pi * x), varspeed_exact


def probe_rhs_matrix(reference, n1):
    """L read off a per-state right-hand side ``reference(u, g)`` one unit
    vector at a time, under zero inflow."""
    lmat = np.empty((n1, n1))
    e = np.zeros(n1)
    for j in range(n1):
        e[j] = 1.0
        lmat[:, j] = reference(e, 0.0)
        e[j] = 0.0
    return lmat


def per_state_references(kind, problem, ops):
    """The per-state advection formulas that a study's (L, r) must reproduce:
    the advective form with the nodal speeds, and for the convergence
    problem (speed 1) the conservative upwind form as well."""
    a_nodes = problem.wave_speed_fn(problem.physical_nodes(ops.nodes))
    d, w, scale = ops.D, ops.weights, problem.scale
    refs = [lambda u, g: varspeed_advection_rhs(u, d, a_nodes, w, scale, float(a_nodes[0]), g)]
    if kind == "constant":
        refs.append(lambda u, g: conservative_advection_rhs(u, d, w, scale, 1.0, g))
    return refs


@pytest.mark.parametrize("kind", ["constant", "variable"])
@pytest.mark.parametrize("n", [1, *range(7, 64, 2), 64, 128, 256, 512])
def test_batched_rhs_matrix_matches_the_unit_vector_probe(kind, n):
    # the convergence degrees and N = 64..512 (the varspeed study's is 256);
    # at N = 21, 29, 39, 55 and 63 D's diagonal holds a -0.0, which L
    # must store as the probe's +0.0
    problem, _, _, _ = linear_case(kind, [])
    ops = build_operators(n)
    lmat, r = linear_operator(problem, ops)
    assert lmat.flags.c_contiguous
    for reference in per_state_references(kind, problem, ops):
        assert lmat.tobytes() == probe_rhs_matrix(reference, n + 1).tobytes()
        # r g rounds (scale a_0 / w_0) g, the reference (scale a_0 g) / w_0:
        # the same double when g is a power of two
        for g in (1.0, 0.25, 8.0):
            assert (r * g).tobytes() == reference(np.zeros(n + 1), g).tobytes()


@pytest.mark.parametrize("kind", ["constant", "variable"])
@pytest.mark.parametrize("n", [*range(1, 65), 128, 256, 512])
def test_affine_step_matches_the_zero_product_step(kind, n):
    # stage 1 starts from zeros, not L @ 0: the same bits, and L's -0.0 become +0.0 alike
    problem, _, _, _ = linear_case(kind, [])
    lmat, r = linear_operator(problem, build_operators(n))
    for dt in (4e-4, 5e-4, 1e-2):
        expected = zero_product_affine_step(lmat, r, dt)
        assert rk3_affine_step(lmat, r, dt).tobytes() == expected.tobytes()


@pytest.mark.parametrize("first", range(1, operators.MAX_DEGREE + 1, 64))
def test_inflow_vector_holds_the_zeros_of_minus_a(first):
    # r[1:] is a * -0.0, the zeros of -a (scale (D @ 0)) sign for sign if every
    # row of D has a positive entry: each entry of D @ 0 then sums at least
    # one +0.0, and is +0.0 in any summation order, with or without FMA
    problems = [linear_case(kind, [])[0] for kind in ("constant", "variable")]
    # one degree at a time: a batch reaching past N = 64 exceeds the shared-table bound
    for ops in map(operators.build_operators, range(first, first + 64)):
        assert np.all(np.max(ops.D, axis=1) > 0.0), f"degree {ops.N}"
        for problem in problems:
            a_nodes = problem.wave_speed_fn(problem.physical_nodes(ops.nodes))
            _, r = linear_operator(problem, ops)
            assert not np.any(r[1:])
            assert np.array_equal(np.signbit(r[1:]), np.signbit(-a_nodes[1:])), f"degree {ops.N}"


class TestLinearPropagator:
    """The affine step propagator of the linear studies against integrate."""

    @pytest.mark.parametrize("kind", ["constant", "variable"])
    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("t_final, dt", [
        (0.3011, 2e-3),     # last step truncated to 1.1e-3
        (0.3, 2e-3),        # last step short by roundoff
        (0.25, 1.0 / 64),   # exact multiple: no truncated step
        (0.25, 1.0 / 256),  # exactly one chunk
        (0.5, 1.0 / 256),   # exactly two chunks
        (0.2671, 2e-3),     # two chunks, residue 5 (1 + 4) and a truncated step
        (3 / 256, 1 / 256),       # 3 steps, below one chunk
        (63 / 256, 1 / 256),      # 63 steps: every power below the chunk
        (63.5 / 256, 1 / 256),    # the same and a truncated step
        (65 / 256, 1 / 256),      # one chunk and one step
        (65.5 / 256, 1 / 256),    # the same and a truncated step
        (127 / 256, 1 / 256),     # one chunk and every smaller power
        (127.5 / 256, 1 / 256),   # the same and a truncated step
        (1e-3, 2e-3),             # only a truncated step
        (0.5, 1e308),             # the same, with a step map that would overflow
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_integrate(self, kind, filtered, t_final, dt, monkeypatch):
        prop_calls, ref_calls, step_maps = [], [], []
        problem, n, u0_fn, exact_fn = linear_case(kind, prop_calls)
        rk3_affine_step = experiments.rk3_affine_step

        def counted(*args):
            step_maps.append(args)
            return rk3_affine_step(*args)

        monkeypatch.setattr(experiments, "rk3_affine_step", counted)
        starts, h_last = steps = fixed_steps(t_final, dt)
        x, u, err = _run_linear(problem, build_operators(n), u0_fn, exact_fn, t_final, dt,
                                steps, filtered)
        # one step map for a run with a full step, none for a single truncated step
        assert len(step_maps) == (1 if h_last == dt or starts.size > 1 else 0)

        # the reference filters at the end of each step, found one t += h at a time
        eps = 1e-12 * max(1.0, t_final)
        t, step_ends = 0.0, []
        while t < t_final - eps:
            t += min(dt, t_final - t)
            step_ends.append(t)
        problem, n, u0_fn, exact_fn = linear_case(kind, ref_calls)
        ops = build_operators(n)
        fmat = build_filter(ops, FilterSpec()).F
        schedule = FilterSchedule(fmat, step_ends) if filtered else None
        traj = integrate(u0_fn(x), linear_rhs(problem, ops), t_final, schedule=schedule,
                         dt_fn=lambda u: dt)

        # same steps: the inflow is asked for at the same stage times
        assert len(prop_calls) == 3 * traj.n_steps
        assert len(traj.filter_events) == (traj.n_steps if filtered else 0)
        assert np.array_equal(prop_calls, ref_calls)
        scale = float(np.max(np.abs(traj.u_final)))
        assert np.max(np.abs(u - traj.u_final)) <= 1e-10 * scale
        assert err == error_linf(u, lambda xx: exact_fn(xx, t_final), x)

    def test_step_chunk_is_a_power_of_two(self):
        # the maps are built by doubling
        assert STEP_CHUNK > 1 and STEP_CHUNK & (STEP_CHUNK - 1) == 0

    @pytest.mark.parametrize("study", ["convergence", "varspeed"])
    def test_inflow_is_asked_in_blocks_at_the_step_loop_times(self, study, monkeypatch):
        calls, runs = [], []
        run_linear = experiments._run_linear

        def recorded(problem, ops, u0_fn, exact_fn, t_final, dt, steps, filtered):
            def inflow(t):
                calls.append(np.ravel(t))
                return problem.inflow(t)

            runs.append((dt, steps))
            return run_linear(replace(problem, inflow=inflow), ops, u0_fn, exact_fn, t_final,
                              dt, steps, filtered)

        monkeypatch.setattr(experiments, "_run_linear", recorded)
        if study == "convergence":
            run_convergence([7])
        else:
            run_varspeed()
        [(dt, (starts, h_last))] = runs
        assert h_last < dt  # the last step is truncated
        n_full = starts.size - 1
        full = (starts[:n_full, None] + np.multiply(RK3_C, dt)).ravel()
        last = [float(starts[-1]) + c * h_last for c in RK3_C]
        assert np.concatenate(calls).tobytes() == np.concatenate([full, last]).tobytes()
        # blocks of up to STEP_CHUNK**2 full steps, then the truncated step's stages
        assert all(c.size <= len(RK3_C) * STEP_CHUNK**2 for c in calls[:-3])
        assert [c.size for c in calls[-3:]] == [1, 1, 1]
        assert len(calls) == 3 + (1 if study == "convergence" else 2)

    @pytest.mark.parametrize("t_final, dt", [
        (16.0, 1 / 512),             # 8192 steps: two whole blocks
        (8000.5 / 512, 1 / 512),     # 8000 steps (no residue) and a truncated step
        (12345.5 / 1024, 1 / 1024),  # 12345 steps (residue 57) and a truncated step
        (100 / 1024, 1 / 1024),      # 100 steps in one block
    ])
    def test_inflow_blocks_hold_each_step_once(self, t_final, dt):
        calls = []
        problem, n, u0_fn, exact_fn = linear_case("constant", calls)
        steps = fixed_steps(t_final, dt)
        _run_linear(problem, build_operators(n), u0_fn, exact_fn, t_final, dt, steps, False)
        starts, h_last = steps
        n_full = starts.size if h_last == dt else starts.size - 1
        expected = (starts[:n_full, None] + np.multiply(RK3_C, dt)).ravel().tolist()
        if n_full < starts.size:
            expected += [float(starts[-1]) + c * h_last for c in RK3_C]
        assert calls == expected

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("kind", ["constant", "variable"])
    @pytest.mark.parametrize("filtered", [True, False])
    def test_roundoff_against_long_double(self, kind, filtered):
        # 127 full steps (one chunk and every smaller power) and a truncated one
        t_final, dt = 0.2551, 2e-3
        problem, n, u0_fn, exact_fn = linear_case(kind, [])
        x, u, _ = _run_linear(problem, build_operators(n), u0_fn, exact_fn, t_final, dt,
                              fixed_steps(t_final, dt), filtered)

        # the same L, F and inflow, one step at a time in long double
        ops = build_operators(n)
        lmat, r = (a.astype(np.longdouble) for a in linear_operator(problem, ops))
        fmat = build_filter(ops, FilterSpec()).F.astype(np.longdouble) if filtered else None
        starts, h_last = fixed_steps(t_final, dt)
        ref = u0_fn(x).astype(np.longdouble)
        for i, t in enumerate(starts):
            h = dt if i < starts.size - 1 else h_last
            ref = rk3_step(ref, t, h, lambda v, s: lmat @ v + r * problem.inflow(s))
            if fmat is not None:
                ref = fmat @ ref
        scale = float(np.max(np.abs(ref)))
        assert float(np.max(np.abs(u - ref))) <= 1e-12 * scale


class TestBurgersDriver:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            run_burgers("weird_variant")

    def test_variant_list(self):
        assert BURGERS_VARIANTS == ("cons_unfiltered", "cons_filtered",
                                    "skew_unfiltered", "skew_filtered")

    def test_short_skew_run_is_bounded(self):
        res = run_burgers("skew_unfiltered", n=32, t_final=0.5)
        traj = res.trajectory
        assert not traj.crashed
        assert np.max(traj.series["energy"]) <= 1.0 + 1e-10

    def test_filtered_run_records_filter_events(self):
        res = run_burgers("skew_filtered", n=32, t_final=0.5, filter_count=4)
        assert len(res.trajectory.filter_events) == 4
        for _, before, after in res.trajectory.filter_events:
            assert after <= before * (1.0 + 1e-12)

    def test_many_filter_events_are_held_as_one_array(self):
        # 10^5 events are 2.4 MB as (k, 3) doubles; a tuple per event held 9.2 MB
        res, held = held_bytes(lambda: run_burgers("cons_filtered", n=8, filter_count=10**5))
        assert held < 4e6, held
        assert res.trajectory.filter_events.shape == (10**5, 3)

    @pytest.mark.parametrize("variant", ["cons_filtered", "skew_unfiltered"])
    @pytest.mark.parametrize("kwargs, match", [
        (dict(filter_count=0), "filter count"),
        (dict(filter_count=-1), "filter count"),
        (dict(filter_count=MAX_STEPS + 1), "filter count"),
        (dict(t_final=-1.0), "final time"),
        (dict(t_final=np.nan), "final time"),
        (dict(filter_count=2.5), "filter count must be an integer"),
        (dict(filter_count=True), "filter count must be an integer"),
    ])
    def test_rejects_bad_input_before_operator_work(self, variant, kwargs, match, monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("operators built for rejected input")

        monkeypatch.setattr(experiments, "build_operators", never_called)
        with pytest.raises(ValueError, match=match):
            run_burgers(variant, **kwargs)

    @pytest.mark.parametrize("variant", ["cons_filtered", "skew_unfiltered"])
    def test_first_step_beyond_the_step_cap_is_rejected_before_stepping(self, variant,
                                                                         monkeypatch):
        def never_called(*args, **kwargs):
            raise AssertionError("integrate ran on rejected input")

        monkeypatch.setattr(experiments, "integrate", never_called)
        with pytest.raises(ValueError, match="step cap"):
            run_burgers(variant, n=8, cfl=1e-9)

    @pytest.mark.parametrize("t_final", [2.25, 0.5, 0.1, 1.0 / 3.0])
    @pytest.mark.parametrize("count", [1, 3, 16, 99991])
    def test_filter_times_match_the_tuple_formula(self, t_final, count, monkeypatch):
        captured = {}

        class Captured(Exception):
            pass

        def capture(u0, rhs, t_final, schedule=None, **kwargs):
            captured["times"] = schedule.times
            raise Captured

        monkeypatch.setattr(experiments, "integrate", capture)
        with pytest.raises(Captured):
            run_burgers("skew_filtered", n=8, filter_count=count, t_final=t_final)
        assert np.array_equal(captured["times"],
                              [t_final * (k + 1) / count for k in range(count)])

    def test_crash_check_tests_the_energy(self, monkeypatch):
        """A non-finite state, a finite one whose energy overflows, and an
        energy blow-up are crashes; the initial state is not."""
        captured = {}

        class Captured(Exception):
            pass

        def capture(u0, rhs, t_final, **kwargs):
            captured.update(kwargs, u0=u0)
            raise Captured

        monkeypatch.setattr(experiments, "integrate", capture)
        with pytest.raises(Captured):
            run_burgers("cons_unfiltered", n=16)
        check, u0 = captured["crash_check"], captured["u0"]
        assert check(u0) is False
        assert check(100.0 * u0) is False  # energy 1e4 times the initial one
        assert check(1e4 * u0) is True     # 1e8 times: beyond BLOWUP_FACTOR
        for bad in (np.nan, np.inf, -np.inf):
            u = u0.copy()
            u[5] = bad
            with np.errstate(invalid="ignore"):
                assert check(u) is True
        with np.errstate(over="ignore"):
            assert check(np.full_like(u0, 1e200)) is True


class TestFvDriver:
    def test_profile_rows(self):
        res = run_fv_reference(FvConfig(cells=50, t_final=0.1))
        rows = list(res.record.rows())
        assert len(rows) == 50
        assert all(extra == "solution" for *_, extra in rows)
