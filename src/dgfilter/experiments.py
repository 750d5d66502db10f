"""Experiment drivers: convergence, variable-speed filtering, Burgers energy study.

Each driver returns a result object holding the raw arrays plus an
:class:`ExperimentRecord` whose rows serialize to CSV with the fixed schema
``experiment,variant,N,dt,t_or_N,value,extra``. Rows carry their full
parameter tuple so the files are self-describing, and nothing
time-of-day-dependent is written, so identical invocations produce
byte-identical output at the same BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .equations import ProblemSpec, linear_operator, make_rhs
from .filters import FilterSpec, build_filter
from .fv import FvConfig, solve_fv_burgers
from .operators import OperatorSet, build_operator_sets, build_operators
from .timestepping import (MAX_STEPS, RK3_C, FilterSchedule, Trajectory, check_step_budget,
                           fixed_steps, integrate, rk3_affine_step, rk3_step)

CSV_HEADER = "experiment,variant,N,dt,t_or_N,value,extra"

BURGERS_VARIANTS = ("cons_unfiltered", "cons_filtered", "skew_unfiltered", "skew_filtered")

# energy blow-up factor treated as a crash
BLOWUP_FACTOR = 1e6

# The one filter of every study, the paper's exponential cutoff with its top
# mode clipped, and its parameters as the CSV variant tags carry them (comma-free)
STUDY_FILTER = FilterSpec()
FILTER_PARAMS = (f"a{STUDY_FILTER.alpha:g}:s{STUDY_FILTER.s}:nc{STUDY_FILTER.nc}:"
                 + ("clip" if STUDY_FILTER.clip_highest else "noclip"))


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------

PULSE_ZETA = np.log(2.0) / 0.2**2


def gaussian_pulse(x, t: float):
    """Right-moving Gaussian pulse used by the convergence study."""
    return np.exp(-PULSE_ZETA * (x - 0.25 - t) ** 2)


def varspeed_wave_speed(x):
    """sin(pi x - 1) / pi: positive at both endpoints, sign change inside."""
    return np.sin(np.pi * x - 1.0) / np.pi


def varspeed_exact(x, t: float):
    """Closed-form solution of the variable-speed problem for u(x,0) = sin(pi x)."""
    return np.sin(2.0 * np.arctan(np.exp(-t) * np.tan(0.5 * (np.pi * x - 1.0))) + 1.0)


def burgers_initial(x):
    """(1 + cos(pi x)) / 5 on [0, 2]; steepens into a shock."""
    return 0.2 * (1.0 + np.cos(np.pi * x))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def error_linf(u: np.ndarray, exact_fn, nodes_physical: np.ndarray) -> float:
    """Max-abs nodal mismatch against a reference function of x."""
    return float(np.max(np.abs(u - exact_fn(nodes_physical))))


def total_variation(u: np.ndarray) -> float:
    """Sum of absolute differences of adjacent nodal values."""
    return float(np.sum(np.abs(np.diff(u))))


def min_node_spacing(ops: OperatorSet, problem: ProblemSpec) -> float:
    """Smallest physical node distance; sets the CFL scale."""
    return 0.5 * problem.dx * float(np.min(np.diff(ops.nodes)))


def filter_tag(filtered: bool) -> str:
    """Variant tag of a linear study run with or without the study filter."""
    return f"filtered:{FILTER_PARAMS}" if filtered else "unfiltered"


# ---------------------------------------------------------------------------
# records and CSV
# ---------------------------------------------------------------------------

@dataclass
class ExperimentRecord:
    """One experiment's series plus the parameters that produced it.

    Rows are (N, dt, t_or_N, value, extra); for CFL-adaptive runs the dt
    slot carries the CFL number instead of a fixed step size.
    """

    experiment: str
    variant: str
    rows: list = field(default_factory=list)

    def add(self, n: int, dt: float, t_or_n: float, value: float, extra: str = ""):
        self.rows.append((n, dt, t_or_n, value, extra))


def write_csv(path, records: Sequence[ExperimentRecord]) -> None:
    """Write records with the fixed schema; UTF-8, LF.

    Each row is ``experiment,variant,`` and then ``N,dt,t_or_N,value,extra``
    formatted once as ``"%d,%.17g,%.17g,%.17g,%s"``: 17 significant digits
    round-trip every double.
    """
    lines = [CSV_HEADER]
    for rec in records:
        prefix = f"{rec.experiment},{rec.variant},"
        lines.extend(prefix + "%d,%.17g,%.17g,%.17g,%s" % row for row in rec.rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

# largest number of steps of a fixed-step linear run taken as one affine
# map; a power of two, since the maps are built by doubling, each doubling
# an N^3 product. The inflow is asked for up to STEP_CHUNK**2 full steps
# at a time: a block of at most 4096 x 3 stage times, whatever the run length
STEP_CHUNK = 64


def _run_linear(problem: ProblemSpec, ops: OperatorSet, u0_fn, exact_fn, t_final: float,
                dt: float, steps: tuple[np.ndarray, float], filtered: bool):
    """One fixed-step linear advection run on the operators ``ops`` to ``t_final``.

    Takes the steps ``steps = fixed_steps(t_final, dt)``, the ones
    :func:`integrate` would with ``dt_fn = lambda u: dt``.
    One full step is the affine map u <- A u + B g with A = F S and B = F Q
    (S and Q from :func:`rk3_affine_step` of the problem's
    :func:`linear_operator` (L, r); F is ``STUDY_FILTER``'s, left out
    unless ``filtered``) and g the inflow at the step's three stage times.
    It is built once, as E = A - I and B, if the run has a full step, and
    applied as u + (E u + B g).
    The map of 2k steps comes from the map of k by doubling:
    E <- E + E + E E and B <- [B + E B, B], where g stacks the steps' inflow
    in order.
    While doubling, the map of k steps is applied for each set bit k of the
    full step count below ``STEP_CHUNK``, in time order; the ``STEP_CHUNK``
    map then takes every remaining chunk. A truncated last step is one
    :func:`rk3_step` of L u + r g followed by F. The inflow is asked for at
    the same stage times, in the same order, as the step-by-step loop: in
    one call for the stage times of up to ``STEP_CHUNK**2`` consecutive full
    steps, out of which each chunk slices its g, and then once per stage of
    the truncated step.
    Returns (x, final state, max-norm error against ``exact_fn(x, t_final)``).
    """
    starts, h_last = steps
    fmat = build_filter(ops, STUDY_FILTER).F if filtered else None
    x = problem.physical_nodes(ops.nodes)
    lmat, r = linear_operator(problem, ops)
    n_full = starts.size if h_last == dt else starts.size - 1

    if n_full:
        n1 = ops.N + 1
        inc = rk3_affine_step(lmat, r, dt)
        if fmat is not None:
            # F S - I = F (S - I) + (F - I)
            inc = fmat @ inc
            inc[:, :n1] += fmat - np.eye(n1)
        e, b = inc[:, :n1], inc[:, n1:]
    c_dt = np.multiply(RK3_C, dt)
    u, done, k = u0_fn(x), 0, 1
    g_lo, g_hi = 0, 0  # the full steps whose inflow g_block holds
    while done < n_full:
        if n_full & k or k == STEP_CHUNK:
            if done + k > g_hi:
                # up to STEP_CHUNK**2 steps that end where a chunk ends: the
                # steps after the block are whole chunks
                after = max(n_full - done - STEP_CHUNK * STEP_CHUNK, 0)
                g_lo, g_hi = done, n_full - -(-after // STEP_CHUNK) * STEP_CHUNK
                g_block = problem.inflow(starts[g_lo:g_hi, None] + c_dt)
            g = g_block[done - g_lo:done + k - g_lo]
            u = u + (e @ u + b @ g.ravel())
            done += k
        if k < STEP_CHUNK and done < n_full:
            e, b = e + e + e @ e, np.hstack([b + e @ b, b])
            k += k
    if n_full < starts.size:
        inflow = problem.inflow
        u = rk3_step(u, float(starts[-1]), h_last, lambda v, s: lmat @ v + r * inflow(s))
        if fmat is not None:
            u = fmat @ u
    err = error_linf(u, lambda xx: exact_fn(xx, t_final), x)
    return x, u, err


@dataclass
class ConvergenceResult:
    ns: list
    errors: list
    record: ExperimentRecord


def run_convergence(n_list: Sequence[int] = range(7, 64, 2), dt: float = 4e-4,
                    filtered: bool = True, t_final: float = 0.5) -> ConvergenceResult:
    """Advection of the Gaussian pulse on [0, 1], with or without per-step filtering.

    Records the final-time max-norm error for each polynomial degree.
    Boundary data is the exact pulse trace at the inflow. The operators of
    every degree come from one :func:`build_operator_sets` solve.
    """
    if len(n_list) == 0:
        raise ValueError("convergence sweep needs at least one degree")
    if not all(7 <= n <= 64 for n in n_list):
        raise ValueError("convergence sweep degrees must lie in [7, 64]")
    record = ExperimentRecord("convergence", filter_tag(filtered))
    problem = ProblemSpec(
        pde="advection_variable", domain=(0.0, 1.0), wave_speed_fn=np.ones_like,
        inflow=lambda t: gaussian_pulse(0.0, t),
    )
    steps = fixed_steps(t_final, dt)  # checks dt before any operator work
    ns, errors = [], []
    for ops in build_operator_sets(n_list):
        _, _, err = _run_linear(problem, ops, lambda xx: gaussian_pulse(xx, 0.0), gaussian_pulse,
                                t_final, dt, steps, filtered)
        ns.append(ops.N)
        errors.append(err)
        record.add(ops.N, dt, ops.N, err, "linf_error")
    return ConvergenceResult(ns=ns, errors=errors, record=record)


@dataclass
class VarspeedResult:
    x: np.ndarray
    u_final: np.ndarray
    linf_error: float
    tv: float
    record: ExperimentRecord


def run_varspeed(n: int = 256, dt: float = 1.0 / 2000.0, filtered: bool = True,
                 t_final: float = 4.0) -> VarspeedResult:
    """Variable-speed advection on [-1, 1] with steep-gradient formation.

    Runs to t_final with or without per-step filtering; records the final
    nodal profile, the max-norm error against the closed-form solution and
    the total variation of the nodal values.
    """
    problem = ProblemSpec(
        pde="advection_variable", domain=(-1.0, 1.0), wave_speed_fn=varspeed_wave_speed,
        inflow=lambda t: varspeed_exact(-1.0, t),
    )
    steps = fixed_steps(t_final, dt)  # checks dt before any operator work
    x, u, err = _run_linear(problem, build_operators(n), lambda xx: np.sin(np.pi * xx),
                            varspeed_exact, t_final, dt, steps, filtered)
    tv = total_variation(u)

    record = ExperimentRecord("varspeed", filter_tag(filtered))
    for xi, ui in zip(x, u):
        record.add(n, dt, xi, ui, "solution")
    record.add(n, dt, t_final, err, "linf_error")
    record.add(n, dt, t_final, tv, "total_variation")
    return VarspeedResult(x=x, u_final=u, linf_error=err, tv=tv, record=record)


@dataclass
class BurgersResult:
    ops: OperatorSet
    trajectory: Trajectory
    record: ExperimentRecord


def run_burgers(variant: str, n: int = 128, filter_count: int = 16,
                cfl: float = 0.4, t_final: float = 2.25) -> BurgersResult:
    """One Burgers variant on [0, 2], periodic, CFL-adaptive stepping.

    Filtered variants apply the study filter at ``filter_count`` equally spaced
    times (snapped to step boundaries). ``t_final`` and ``1 <= filter_count
    <= MAX_STEPS`` are checked before any operator work, and a first step
    needing more than ``MAX_STEPS`` steps is rejected before it is taken. The
    energy is recorded after every step; a crash (non-finite state or energy
    blow-up) ends the run and is recorded as data, not an error.
    """
    if variant not in BURGERS_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not (math.isfinite(cfl) and cfl > 0):
        raise ValueError("cfl must be positive and finite")
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError("final time must be positive and finite")
    if not 1 <= filter_count <= MAX_STEPS:
        raise ValueError(f"filter count must lie in [1, {MAX_STEPS}], got {filter_count}")
    pde = "burgers_conservative" if variant.startswith("cons") else "burgers_skew"
    filtered = variant.endswith("_filtered")
    problem = ProblemSpec(pde=pde, domain=(0.0, 2.0))
    ops = build_operators(n)

    # The crash check, the observer and norm_fn all ask for the energy of the
    # same state; integrate never changes a state in place, so the energy is
    # kept for the last array seen, which stays referenced here.
    last_u, last_e = None, 0.0

    def phys_energy(u):
        nonlocal last_u, last_e
        if u is not last_u:
            last_u, last_e = u, 0.5 * (problem.dx / 2.0) * float((ops.weights * u * u).sum())
        return last_e

    u0 = burgers_initial(problem.physical_nodes(ops.nodes))
    e0 = phys_energy(u0)

    h_min = min_node_spacing(ops, problem)

    def dt_fn(u):
        umax = float(np.abs(u).max())
        return cfl * h_min / max(umax, 1e-12)

    check_step_budget(t_final, dt_fn(u0))

    schedule = None
    if filtered:
        times = t_final * np.arange(1, filter_count + 1) / filter_count
        schedule = FilterSchedule(build_filter(ops, STUDY_FILTER).F, times=times)

    def crash_check(u):
        # a non-finite entry, or a finite state whose u * u overflows, makes
        # the energy non-finite: the weights are positive and finite
        e = phys_energy(u)
        return not math.isfinite(e) or e > BLOWUP_FACTOR * e0

    traj = integrate(
        u0,
        make_rhs(problem, ops),
        t_final,
        schedule=schedule,
        observers={"energy": lambda t, u: phys_energy(u) / e0},
        norm_fn=phys_energy,
        crash_check=crash_check,
        dt_fn=dt_fn,
    )

    record = ExperimentRecord("burgers", f"{variant}:{FILTER_PARAMS}" if filtered else variant)
    for t, e in zip(traj.times, traj.series["energy"]):
        record.add(n, cfl, t, e, "energy")
    if traj.crashed:
        record.add(n, cfl, traj.crash_time, traj.crash_time, "crash")
    return BurgersResult(ops=ops, trajectory=traj, record=record)


@dataclass
class FvResult:
    x: np.ndarray
    u_final: np.ndarray
    steps: int
    record: ExperimentRecord


def run_fv_reference(config: FvConfig = FvConfig()) -> FvResult:
    """Finite-volume reference profile for the Burgers study."""
    x, u, steps = solve_fv_burgers(config, burgers_initial)
    record = ExperimentRecord("fv_reference", "llf_euler")
    for xi, ui in zip(x, u):
        record.add(config.cells, config.cfl, xi, ui, "solution")
    return FvResult(x=x, u_final=u, steps=steps, record=record)
