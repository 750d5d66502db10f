"""The three workloads: inputs from a seed, one round of fixed work, checks.

A round is the workload's whole fixed work, run through dgfilter's own
entry points (the experiment drivers plus ``write_csv`` for the stepping
studies, ``dgfilter.cli.main`` for the verification sweep). Every round
attempts the same operations; an operation fails when it raises or, for a
CLI command, returns a non-zero exit code. The checks run after the timed
region, on the last round's results, and compare them with values computed
here apart from the program or with properties the method must have.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial import legendre

from dgfilter import cli, experiments
from dgfilter.filters import FilterSpec, build_filter
from dgfilter.fv import FvConfig
from dgfilter.operators import MAX_DEGREE, build_operators, lgl_nodes_weights

# linear-filtered: the convergence study and the variable-speed study
CONV_NS = tuple(range(7, 64, 2))
CONV_DT = 4e-4
CONV_T = 0.5
VARSPEED_N = 256
VARSPEED_DT = 1.0 / 2000.0
VARSPEED_T = 4.0

# burgers-fv: the four-variant energy study and the finite-volume reference
BURGERS_N = 128
BURGERS_T = 2.25
FV = FvConfig()

# verify-sweep: every degree up to 64, then a spread up to MAX_DEGREE that
# holds the five degrees where `ops check` fails (see CHANGES.md)
OPS_CHECK_FAILING = (397, 440, 498, 504, 507)
SWEEP_SPREAD = tuple(sorted({*range(96, MAX_DEGREE + 1, 32), *OPS_CHECK_FAILING}))
SWEEP_NS = tuple(range(1, 65)) + SWEEP_SPREAD

PROBE_STATES = 16  # seeded random states per degree in the contraction check


@dataclass
class Op:
    """One attempted operation of a round and what it returned."""

    name: str
    ok: bool
    value: object = None
    wall: float = 0.0
    cpu: float = 0.0


@dataclass
class Inputs:
    workload: str
    seed: int
    out_dir: Path
    probe_n: int  # degree of the filter microbenchmark and the probe states
    argvs: list = field(default_factory=list)
    states: dict = field(default_factory=dict)


def make_inputs(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Everything a run needs from its seed: CLI argument lists and random states.

    The studies themselves are fixed by the paper; the seed draws the random
    states that the filter is checked (and micro-timed) against.
    """
    rng = np.random.default_rng(seed)
    if workload == "verify-sweep":
        inp = Inputs(workload, seed, out_dir, probe_n=MAX_DEGREE)
        for n in SWEEP_NS:
            inp.argvs.append(["ops", "check", "--n", str(n)])
            inp.argvs.append(["filter", "verify", "--n", str(n)])
        degrees = SWEEP_NS
    elif workload == "linear-filtered":
        inp = Inputs(workload, seed, out_dir, probe_n=VARSPEED_N)
        degrees = (CONV_NS[0], CONV_NS[-1], VARSPEED_N)
    elif workload == "burgers-fv":
        inp = Inputs(workload, seed, out_dir, probe_n=BURGERS_N)
        degrees = (BURGERS_N,)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    inp.states = {n: rng.uniform(-1.0, 1.0, (PROBE_STATES, n + 1)) for n in degrees}
    return inp


def _attempt(ops: list, before_op, name: str, fn, ok=lambda value: True) -> None:
    if before_op is not None:
        before_op()
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        value = fn()
        op = Op(name, ok(value), value)
    except Exception:  # one failed operation must not end the run
        traceback.print_exc(file=sys.stderr)
        op = Op(name, False)
    op.wall, op.cpu = time.perf_counter() - w0, time.process_time() - c0
    ops.append(op)


def _study(out: Path, csv_name: str, driver, *args, **kwargs):
    res = driver(*args, **kwargs)
    experiments.write_csv(out / csv_name, [res.record])
    return res


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_round(inp: Inputs, before_op=None) -> list[Op]:
    """One round of the workload's fixed work; returns its operations in order.

    ``before_op``, if given, is called before each operation, outside its timing.
    """
    ops: list[Op] = []
    attempt = functools.partial(_attempt, ops, before_op)
    out = inp.out_dir
    if inp.workload == "linear-filtered":
        attempt("convergence", lambda: _study(
            out, "convergence.csv", experiments.run_convergence, list(CONV_NS), CONV_DT))
        for filtered in (True, False):
            attempt(f"varspeed:{'filtered' if filtered else 'unfiltered'}",
                    lambda f=filtered: _study(
                        out, f"varspeed_{int(f)}.csv", experiments.run_varspeed,
                        n=VARSPEED_N, dt=VARSPEED_DT, filtered=f))
    elif inp.workload == "burgers-fv":
        for variant in experiments.BURGERS_VARIANTS:
            attempt(f"burgers:{variant}", lambda v=variant: _study(
                out, f"burgers_{v}.csv", experiments.run_burgers, v, n=BURGERS_N))
        attempt("fv-reference", lambda: _study(
            out, "fv.csv", experiments.run_fv_reference, FV))
    else:
        for argv in inp.argvs:
            attempt(" ".join(argv), lambda a=argv: _cli(a), ok=lambda v: v[0] == 0)
    return ops


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checks:
    """Collects named pass/fail results; ``failed`` lists what did not hold."""

    def __init__(self):
        self.failed: list[str] = []
        self.count = 0

    def __call__(self, label: str, ok: bool, detail: str = "") -> None:
        self.count += 1
        if not ok:
            self.failed.append(f"{label}: {detail}" if detail else label)


def _mass_norm(u, w):
    return np.sqrt(np.sum(w * u * u, axis=-1))


def _sigma(n: int, spec: FilterSpec) -> np.ndarray:
    """Exponential cutoff profile, written out independently of the program."""
    i = np.arange(n + 1)
    if spec.nc > n:
        sig = np.ones(n + 1)
    else:
        eta = (i + 1 - spec.nc) / (n + 1 - spec.nc)
        sig = np.where(i < spec.nc, 1.0, np.exp(-spec.alpha * eta ** spec.s))
    sig[n] = 0.0
    return sig


def _lambda_max(f: np.ndarray, w: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric part of F^T W F - W, W = diag(w)."""
    a = f.T @ (w[:, None] * f) - np.diag(w)
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


def _growth(f: np.ndarray, w: np.ndarray, u: np.ndarray) -> float:
    """Largest ||F u|| / ||u|| - 1 over the rows of u, in the quadrature norm."""
    return float(np.max(_mass_norm(u @ f.T, w) / _mass_norm(u, w))) - 1.0


def _check_contraction(chk: Checks, inp: Inputs) -> None:
    """Seeded random states never grow in the LGL quadrature norm under F."""
    worst = 0.0
    for n, u in inp.states.items():
        ops = build_operators(n)
        worst = max(worst, _growth(build_filter(ops, FilterSpec()).F, ops.weights, u))
    chk("seeded random states contract under F", worst <= 1e-12, f"max growth - 1 {worst:.2e}")


def _varspeed_exact(x, t):
    return np.sin(2.0 * np.arctan(np.exp(-t) * np.tan((np.pi * x - 1.0) / 2.0)) + 1.0)


def _check_linear(chk: Checks, inp: Inputs, res: dict) -> None:
    conv = res.get("convergence")
    if conv is not None:
        err = dict(zip(conv.ns, conv.errors))
        plateau = conv.errors[-1]
        chk("convergence: error falls 10x from N=7 to N=15", err[7] / err[15] >= 10.0,
            f"{err[7]:.3e} -> {err[15]:.3e}")
        errors = conv.errors
        k = next(i for i, e in enumerate(errors) if e <= 2.0 * plateau)
        falling = all(a > b for a, b in zip(errors[:k], errors[1:k + 1]))
        flat = all(0.5 * plateau <= e <= 2.0 * plateau for e in errors[k:])
        chk("convergence: falls, then flattens to the RK3 time-error plateau",
            plateau < 1e-7 and falling and flat and conv.ns[k] <= 48,
            f"plateau {plateau:.3e} from N = {conv.ns[k]}")
    runs = {}
    for filtered in (True, False):
        r = res.get(f"varspeed:{'filtered' if filtered else 'unfiltered'}")
        if r is None:
            continue
        err = float(np.max(np.abs(r.u_final - _varspeed_exact(r.x, VARSPEED_T))))
        tv = float(np.sum(np.abs(np.diff(r.u_final))))
        chk(f"varspeed filtered={filtered}: L-inf error matches the closed form",
            math.isclose(err, r.linf_error, rel_tol=1e-9), f"{err:.6e} vs {r.linf_error:.6e}")
        runs[filtered] = (err, tv)
    if len(runs) == 2:
        (ef, tf), (eu, tu) = runs[True], runs[False]
        chk("varspeed: filtering lowers total variation and error", tf < tu and ef < eu,
            f"TV {tf:.3f} vs {tu:.3f}, error {ef:.3e} vs {eu:.3e}")
    _check_contraction(chk, inp)


def _barycentric(nodes, values, targets):
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)
    dist = targets[:, None] - nodes[None, :]
    dist[dist == 0.0] = 1e-300
    terms = w[None, :] / dist
    return (terms @ values) / np.sum(terms, axis=1)


def _shock(x, u):
    i = int(np.argmin(np.diff(u)))
    return 0.5 * (x[i] + x[i + 1])


def _check_burgers(chk: Checks, inp: Inputs, res: dict) -> None:
    skew = res.get("burgers:skew_unfiltered")
    if skew is not None:
        e = skew.trajectory.series["energy"]
        chk("skew_unfiltered: energy stays <= 1 + 1e-8",
            not skew.trajectory.crashed and float(np.max(e)) <= 1.0 + 1e-8, f"max {np.max(e):.12f}")
    cons = res.get("burgers:cons_unfiltered")
    if cons is not None:
        tc = cons.trajectory.crash_time
        chk("cons_unfiltered: crashes in (1.5, 2.25)",
            cons.trajectory.crashed and 1.5 < tc < BURGERS_T, f"crash time {tc}")
    consf = res.get("burgers:cons_filtered")
    if consf is not None:
        chk("cons_filtered: completes", not consf.trajectory.crashed
            and abs(consf.trajectory.t_final - BURGERS_T) <= 1e-9)
    events = [ev for v in ("cons_filtered", "skew_filtered")
              if res.get(f"burgers:{v}") is not None
              for ev in res[f"burgers:{v}"].trajectory.filter_events]
    chk("filter events: norm after <= norm before",
        len(events) > 0 and all(after <= before for _, before, after in events),
        f"{len(events)} events")
    fv = res.get("fv-reference")
    if fv is not None:
        mass = float(np.sum(fv.u_final)) * FV.dx
        chk("fv: mass stays 0.4", abs(mass - 0.4) <= 1e-12, f"mass - 0.4 = {mass - 0.4:.2e}")
    dg = res.get("burgers:skew_filtered")
    if fv is not None and dg is not None:
        xi = 2.0 * (fv.x - FV.domain[0]) / (FV.domain[1] - FV.domain[0]) - 1.0
        u_dg = _barycentric(dg.ops.nodes, dg.trajectory.u_final, xi)
        off = abs(_shock(fv.x, u_dg) - _shock(fv.x, fv.u_final))
        chk("DG and FV shock positions agree within 5 cells", off <= 5.0 * FV.dx,
            f"offset {off:.2e}, 5 cells {5 * FV.dx:.2e}")
    _check_contraction(chk, inp)


def _field(text: str, label: str) -> float:
    for line in text.splitlines():
        if line.startswith(label):
            return float(line.split(":", 1)[1].split()[0])
    raise ValueError(f"no {label!r} line in CLI output")


def _check_verify(chk: Checks, inp: Inputs, res: dict) -> None:
    worst_root = 0.0
    for n in range(2, 65):
        roots = np.sort(legendre.Legendre.basis(n).deriv().roots().real)
        worst_root = max(worst_root, float(np.max(np.abs(roots - lgl_nodes_weights(n)[0][1:-1]))))
    chk("LGL nodes are the roots of P_N' (N <= 64)", worst_root <= 1e-12,
        f"max deviation {worst_root:.2e}")

    spec = FilterSpec()
    worst_gram, worst_lam, worst_f, growth, printed = 0.0, -np.inf, 0.0, 0.0, 0.0
    for n in SWEEP_NS:
        ops = build_operators(n)
        target = np.ones(n + 1)
        target[n] = 2.0 + 1.0 / n
        gram = ops.V.T @ (ops.weights[:, None] * ops.V)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.diag(target)))))
        f = (ops.V * _sigma(n, spec)[None, :]) @ ops.Vinv
        worst_lam = max(worst_lam, _lambda_max(f, ops.weights) / float(np.max(ops.weights)))
        f_prog = build_filter(ops, spec).F
        worst_f = max(worst_f, float(np.max(np.abs(f_prog - f))))
        growth = max(growth, _growth(f_prog, ops.weights, inp.states[n]))
        got = res.get(f"filter verify --n {n}")
        if got is not None:
            printed = max(printed, abs(_field(got[1], "gram last diagonal") - target[n]))
    chk("Gram pattern diag(1..1, 2+1/N)", worst_gram <= 1e-10, f"max deviation {worst_gram:.2e}")
    chk("lambda_max(F^T M F - M) <= 0", worst_lam <= 1e-12, f"max lambda/max w {worst_lam:.2e}")
    chk("the program's F matches V C Vinv", worst_f <= 1e-10, f"max deviation {worst_f:.2e}")
    chk("seeded random states contract under F", growth <= 1e-12, f"max growth - 1 {growth:.2e}")
    chk("printed Gram last diagonal is 2 + 1/N", printed <= 1e-10, f"max deviation {printed:.2e}")
    chk("every passing command prints result ok",
        all(text.rstrip().endswith("ok") for _, text in res.values()))

    # negative control: with a trapezoid mass the same check must fail
    found = False
    for n in (8, 16, 24):
        nodes = lgl_nodes_weights(n)[0]
        w = np.empty(n + 1)
        w[0], w[-1] = 0.5 * (nodes[1] - nodes[0]), 0.5 * (nodes[-1] - nodes[-2])
        w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
        ops = build_operators(n)
        f = (ops.V * _sigma(n, spec)[None, :]) @ ops.Vinv
        found = found or _lambda_max(f, w) > 1e-6
    chk("negative control: a trapezoid mass gives a positive eigenvalue", found)


def check(inp: Inputs, ops: list[Op]) -> Checks:
    """Run the workload's checks on the operations that did not fail."""
    res = {op.name: op.value for op in ops if op.ok}
    chk = Checks()
    {"linear-filtered": _check_linear, "burgers-fv": _check_burgers,
     "verify-sweep": _check_verify}[inp.workload](chk, inp, res)
    return chk
