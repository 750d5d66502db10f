"""Span tracer that times dgfilter's public functions from outside the package.

``patched(tracer)`` swaps module attributes of ``dgfilter`` (the names the
callers look up at call time) for timing wrappers and restores the
originals on exit, so untraced rounds run the unmodified program. Each
span records its name, start, end and parent; spans live in flat arrays
and are written out once, at the end of the run.

A layer is the module prefix of a span name (``operators.build`` belongs
to ``operators``). A span's self time is its duration minus the durations
of its direct children, so the self times of all spans under a root add
up to the root's duration exactly.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array

import numpy as np

ROOT = "bench.round"


class Tracer:
    """In-memory span store plus the event counters the wrappers keep."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped in a span called ``name``."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self):
        """(name ids, durations, self times) as numpy arrays."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = par >= 0
        covered = np.bincount(par[child], weights=dur[child], minlength=dur.size)
        return nid, dur, dur - covered

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, inclusive seconds, self seconds."""
        nid, dur, self_t = self.arrays()
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        excl = np.bincount(nid, weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
                for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
        )


def _integrate_wrapper(tracer: Tracer, integrate):
    observer = lambda fn: tracer.wrap("timestepping.observer", fn)
    traced = tracer.wrap("timestepping.integrate", integrate)

    def wrapper(u0, rhs, config, schedule=None, observers=None, norm_fn=None,
                crash_check=None, dt_fn=None, t0=0.0):
        if observers:
            observers = {name: observer(fn) for name, fn in observers.items()}
        if norm_fn is not None:
            norm_fn = tracer.wrap("filters.norm", norm_fn)
        if crash_check is not None:
            crash_check = tracer.wrap("timestepping.crash_check", crash_check)
        if dt_fn is not None:
            dt_fn = tracer.wrap("timestepping.dt_fn", dt_fn)
        traj = traced(u0, rhs, config, schedule=schedule, observers=observers,
                      norm_fn=norm_fn, crash_check=crash_check, dt_fn=dt_fn, t0=t0)
        tracer.count("timestepping.steps", traj.n_steps)
        tracer.count("filters.apply_count", len(traj.filter_events))
        return traj

    return wrapper


def _make_rhs_wrapper(tracer: Tracer, make_rhs):
    def wrapper(problem, ops):
        return tracer.wrap("equations.rhs", make_rhs(problem, ops))

    return wrapper


def _problem_spec_wrapper(tracer: Tracer, spec_cls):
    def wrapper(*args, **kwargs):
        if kwargs.get("inflow") is not None:
            kwargs["inflow"] = tracer.wrap("equations.inflow", kwargs["inflow"])
        return spec_cls(*args, **kwargs)

    return wrapper


def _fv_solve_wrapper(tracer: Tracer, solve):
    traced = tracer.wrap("fv.solve", solve)

    def wrapper(config, init):
        x, u, steps = traced(config, init)
        tracer.count("fv.steps", steps)
        tracer.count("fv.cell_updates", steps * config.cells)
        return x, u, steps

    return wrapper


def _write_csv_wrapper(tracer: Tracer, write_csv):
    traced = tracer.wrap("experiments.csv", write_csv)

    def wrapper(path, records):
        traced(path, records)
        tracer.count("experiments.csv_bytes", os.path.getsize(path))

    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the timing wrappers on dgfilter's modules; restore on exit."""
    from dgfilter import cli, experiments, filters, kernels, operators, timestepping

    def plain(name):
        return lambda fn: tracer.wrap(name, fn)

    build_ops = tracer.wrap("operators.build", operators.build_operators)
    build_filter = tracer.wrap("filters.build", filters.build_filter)
    verify = tracer.wrap("filters.verify", filters.verify_filter)
    kernel_rhs = plain("kernels.rhs")
    driver = plain("experiments.driver")

    # (module, attribute, replacement factory); every caller of a function
    # looks it up through the module named here
    table = [
        (operators, "lgl_nodes_weights", plain("operators.lgl")),
        (operators, "derivative_matrix", plain("operators.derivative")),
        (operators, "vandermonde", plain("operators.vandermonde")),
        (operators, "build_operators", lambda fn: build_ops),
        (experiments, "build_operators", lambda fn: build_ops),
        (cli, "build_operators", lambda fn: build_ops),
        (filters, "build_filter", lambda fn: build_filter),
        (experiments, "build_filter", lambda fn: build_filter),
        (filters, "quadrature_gram", plain("filters.gram")),
        (filters, "auxiliary_filter", plain("filters.adjoint")),
        (filters, "contractivity_spectrum", plain("filters.spectrum")),
        (filters, "verify_filter", lambda fn: verify),
        (cli, "verify_filter", lambda fn: verify),
        (experiments, "ProblemSpec", lambda cls: _problem_spec_wrapper(tracer, cls)),
        (experiments, "make_rhs", lambda fn: _make_rhs_wrapper(tracer, fn)),
        (kernels, "advection_rhs", kernel_rhs),
        (kernels, "burgers_cons_rhs", kernel_rhs),
        (kernels, "burgers_skew_rhs", kernel_rhs),
        (kernels, "varspeed_rhs", kernel_rhs),
        (kernels, "fv_burgers", plain("kernels.fv")),
        (timestepping, "rk3_step", plain("timestepping.step")),
        (experiments, "integrate", lambda fn: _integrate_wrapper(tracer, fn)),
        (experiments, "solve_fv_burgers", lambda fn: _fv_solve_wrapper(tracer, fn)),
        (experiments, "run_convergence", driver),
        (experiments, "run_varspeed", driver),
        (experiments, "run_burgers", driver),
        (experiments, "run_fv_reference", driver),
        (experiments, "write_csv", lambda fn: _write_csv_wrapper(tracer, fn)),
        (cli, "main", plain("cli.main")),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in table]
    try:
        for mod, attr, factory in table:
            setattr(mod, attr, factory(getattr(mod, attr)))
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)
