"""Low-storage third-order Runge-Kutta time integration with filtering at step ends."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

# Williamson-style 3-stage low-storage coefficients; third order is verified
# empirically by the order-of-accuracy tests.
RK3_A = (0.0, -5.0 / 9.0, -153.0 / 128.0)
RK3_B = (1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0)
RK3_C = (0.0, 1.0 / 3.0, 3.0 / 4.0)
# (a, b, c) per stage for rk3_step, with a and b as 0-d arrays; the first a
# stays a float, as it multiplies the float du = 0.0
_RK3_STAGES = tuple(zip((RK3_A[0], *map(np.array, RK3_A[1:])), map(np.array, RK3_B), RK3_C))

# Step cap: bounds fixed_steps' array of t_final / dt start times, the Burgers filter
# count and the first step of a CFL-stepped run (Burgers, FV).
MAX_STEPS = 10**7


def check_positive(value: float, name: str) -> None:
    """Reject a ``value`` that is not positive and finite: the one rule of every
    final time, step, CFL number and filter strength."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite")


def check_step_budget(t_final: float, dt: float) -> None:
    """Reject a step ``dt`` that would need more than ``MAX_STEPS`` steps to
    reach ``t_final``; an infinite ``dt`` passes."""
    if t_final > MAX_STEPS * dt:
        raise ValueError(f"t_final / dt exceeds the step cap {MAX_STEPS}")


@dataclass
class Trajectory:
    """Recorded series, filter events and final state of one run.

    ``filter_events`` is a (k, 3) float array, one row (t, norm before,
    norm after) per filter application, at most one per step.
    """

    times: np.ndarray
    series: dict[str, np.ndarray]
    filter_events: np.ndarray
    u_final: np.ndarray
    t_final: float
    n_steps: int
    crashed: bool = False
    crash_time: Optional[float] = None


def rk3_step(u, t: float, dt: float, rhs):
    """One low-storage three-stage step of u' = rhs(u, t), operation for operation
    the textbook loop from du = 0.0. It never writes into ``u`` or into an rhs
    result, so an rhs may return its argument."""
    h = np.array(dt)
    du = 0.0
    for a, b, c in _RK3_STAGES:
        du = a * du + h * rhs(u, t + c * dt)
        u = u + b * du
    return u


def rk3_affine_step(lmat: np.ndarray, r: np.ndarray, dt: float) -> np.ndarray:
    """One RK3 step of u' = L u + r g(t) as the increment matrix [S - I | Q].

    The step maps u to u + (S - I) u + Q g, where g holds g(t + c_i dt) at
    the three stage times. ``rk3_step`` advances W = U - [I | 0] from zero,
    with the right-hand side L ([I | 0] + W) plus r in the column of the
    current stage, so each column is the step's response to one unit of
    input. Kept apart from the identity, the entries of S - I round
    relative to their own size; in S itself, an error of eps in an entry
    acts like an error of eps / dt in L. Stage 1, at W = 0, starts from
    zeros in place of L W: the product's +0.0 entries bit for bit, and
    adding L to them stores each -0.0 of L as +0.0 alike.
    """
    n = lmat.shape[0]
    stage_col = iter(range(n, n + len(RK3_C)))

    def rhs(w, t):
        col = next(stage_col)
        out = np.zeros_like(w) if col == n else lmat @ w
        out[:, :n] += lmat
        out[:, col] += r
        return out

    return rk3_step(np.zeros((n, n + len(RK3_C))), 0.0, dt, rhs)


def fixed_steps(t_final: float, dt: float) -> tuple[np.ndarray, float]:
    """Start times of the steps :func:`integrate` takes from t = 0 with the
    constant ``dt_fn = lambda u: dt``, and the size of the last one, which is
    shorter than ``dt`` when the steps would overshoot ``t_final``.

    A fixed step is checked here: ``t_final`` and ``dt`` positive and finite,
    and at most ``MAX_STEPS`` steps, which bounds the array. ``np.cumsum``
    accumulates the start times in order, as ``t += dt`` does. The candidates
    run at least one ``dt`` past ``t_final``, more than their rounding within
    ``MAX_STEPS``; ``integrate``'s rule ``t < t_final - eps`` keeps a prefix.
    They are summed at a quarter scale, so the largest, below (t_final + 2 dt)
    / 4, stays finite; a power-of-two scale rounds alike (the quarters are
    subnormal only for a ``t_final`` below ``eps``, which keeps no start).
    """
    check_positive(t_final, "final time")
    check_positive(dt, "dt")
    check_step_budget(t_final, dt)
    eps = 1e-12 * max(1.0, abs(t_final))
    starts = np.full(int(t_final / dt) + 3, 0.25 * dt)
    starts[0] = 0.0
    np.cumsum(starts, out=starts)
    starts = starts[:np.searchsorted(starts, 0.25 * (t_final - eps))]
    starts *= 4.0
    return starts, min(dt, t_final - float(starts[-1])) if starts.size else dt


def _default_crash_check(u) -> bool:
    return not np.all(np.isfinite(u))


def integrate(
    u0: np.ndarray,
    rhs: Callable[[np.ndarray, float], np.ndarray],
    t_final: float,
    schedule: Optional[tuple[np.ndarray, Sequence[float]]] = None,
    observers: Optional[dict[str, Callable[[float, np.ndarray], float]]] = None,
    norm_fn: Optional[Callable[[np.ndarray], float]] = None,
    crash_check: Optional[Callable[[np.ndarray], bool]] = None,
    *,
    dt_fn: Callable[[np.ndarray], float],
    t0: float = 0.0,
) -> Trajectory:
    """Advance ``u0`` from ``t0`` over the horizon ``t_final``, filtering per ``schedule``.

    Steps land exactly on the final time (the last step is truncated). Every
    step size is ``dt_fn`` of the current state; a fixed step is
    ``dt_fn = lambda u: dt``, whose steps :func:`fixed_steps` lists and
    checks. The time and the ``observers`` are recorded at ``t0`` and after
    every step. Without a ``schedule`` nothing is filtered; a schedule is a
    pair ``(F, times)`` with ``times`` sorted, and ``F`` is applied once at
    the end of each step by which one or more of the times are due, so never
    more often than the steps; times past the horizon are never due. Each
    filter application is a filter event (t, ``norm_fn`` of the state before
    and after it, or ``nan`` without a ``norm_fn``). A crash detected by
    ``crash_check`` (default: any non-finite entry) truncates the run and
    records the crash time.
    """
    check_positive(t_final, "final time")
    observers = observers or {}
    if crash_check is None:
        crash_check = _default_crash_check
    t_end = t0 + t_final
    eps = 1e-12 * max(1.0, abs(t_end))
    # a time is due at the first step end t with t >= time - eps
    fmat, filter_times = (None, ()) if schedule is None else schedule
    due = np.asarray(filter_times, dtype=float) - eps
    next_due = float(due[0]) if due.size else math.inf

    u = np.array(u0, dtype=float, copy=True)
    t = t0
    times: list[float] = []
    series: dict[str, list[float]] = {name: [] for name in observers}
    events: list[tuple[float, float, float]] = []

    def record(now, state):
        times.append(now)
        for name, fn in observers.items():
            series[name].append(float(fn(now, state)))

    def apply_filter(now, state):
        before = norm_fn(state) if norm_fn is not None else np.nan
        state = fmat @ state
        after = norm_fn(state) if norm_fn is not None else np.nan
        events.append((now, before, after))
        return state

    record(t, u)
    step = 0
    crash_time = None

    while t < t_end - eps:
        dt = min(float(dt_fn(u)), t_end - t)
        u = rk3_step(u, t, dt, rhs)
        t += dt
        step += 1

        if crash_check(u):
            crash_time = t
            record(t, u)
            break

        if t >= next_due:
            u = apply_filter(t, u)
            k = int(np.searchsorted(due, t, side="right"))
            next_due = float(due[k]) if k < due.size else math.inf

        record(t, u)

    return Trajectory(
        times=np.asarray(times),
        series={name: np.asarray(vals) for name, vals in series.items()},
        filter_events=np.array(events, dtype=float).reshape(-1, 3),
        u_final=u,
        t_final=t,
        n_steps=step,
        crashed=crash_time is not None,
        crash_time=crash_time,
    )
