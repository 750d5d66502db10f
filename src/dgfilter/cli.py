"""Command-line drivers.

Subcommands::

    ops check --n <N>
    filter verify --n <N> [--alpha <a>] [--s <s>] [--nc <Nc>] [--no-clip]
    convergence [--n-list 7:64:2 | 7,9,11] [--dt <dt>] --out <path>
    varspeed [--n <N>] [--dt <dt>] [--no-filter] --out <path>
    burgers --variant <v> [--n <N>] [--filter-count <k>] [--cfl <c>] --out <path>
    fv-reference [--cells <K>] [--cfl <c>] --out <path>

No option has a default here: one left out is not passed on, so the default
is the driver's (``experiments.run_convergence``, ``run_varspeed``,
``run_burgers``) or the field default of ``FvConfig`` or ``FilterSpec``.

Exit codes: 0 success, 1 tolerance failure, 2 usage error. A parameter
that the package rejects (``ValueError``) or an output path that cannot be
written (``OSError``) is a usage error: one line on stderr, no traceback.
``--out`` is opened for append before the study runs, so the OS's own
message refuses it; a run that then fails removes the file only if it made it.

A command that builds operators has glibc keep freed memory from its
first build on (``operators.keep_freed_memory``), so the N^2 arrays of one
command are not handed back to the kernel and faulted in again by the next.

Run as a program (the ``dgfilter`` console script or ``python -m
dgfilter.cli``), it uses one BLAS thread unless told otherwise: see
:func:`dgfilter.console_main`. A call of :func:`main` keeps the caller's.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":  # the console entry, before numpy loads
    from dgfilter import console_main

    sys.exit(console_main())

import argparse
import contextlib
import functools
import os
import time

import numpy as np

from . import experiments
from .filters import FilterSpec, verify_filter
from .fv import FvConfig
from .operators import MAX_DEGREE, build_operators, gram_diagonal, sbp_residual, sbp_tolerance

def _parse_n_list(text: str) -> list[int]:
    """Accept 'start:stop[:step]' (stop exclusive, like range) or 'a,b,c'. A range is never
    built whole: its first MAX_DEGREE + 1 degrees, all distinct, hold one past every cap."""
    try:
        if ":" in text:
            values = list(range(*map(int, text.split(":")))[:MAX_DEGREE + 1])
        else:
            values = [int(p) for p in text.split(",")]
    except (TypeError, ValueError):  # a bad integer, a zero step, or four parts
        raise argparse.ArgumentTypeError(
            f"{text!r} is not start:stop[:step] with a nonzero step, or a,b,c") from None
    if not values:
        raise argparse.ArgumentTypeError("empty degree list")
    return values


def _cmd_ops_check(n: int) -> int:
    ops = build_operators(n, check=False)
    sbp = sbp_residual(ops)
    resid = ops.V @ ops.Vinv
    resid[np.diag_indices_from(resid)] -= 1.0
    vv = float(np.max(np.abs(resid, out=resid)))
    wsum = abs(float(np.sum(ops.weights)) - 2.0)
    print(f"degree                 : {n}")
    print(f"SBP residual           : {sbp:.3e}")
    print(f"V Vinv - I max         : {vv:.3e}")
    print(f"weight-sum error       : {wsum:.3e}")
    ok = sbp <= sbp_tolerance(n) and vv <= 1e-11 * max(1.0, n / 64.0) and wsum <= 1e-13
    print("result                 : " + ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_filter_verify(n: int, **spec) -> int:
    rep = verify_filter(build_operators(n), FilterSpec(**spec))
    print(f"degree                 : {rep.n}")
    print(f"gram max off-diagonal  : {rep.gram_offdiag:.3e}")
    print(f"gram last diagonal     : {rep.gram_last:.15g} (target {gram_diagonal(n)[-1]:.15g})")
    print(f"adjoint gap max        : {rep.adjoint_gap:.3e} (tol {rep.adjoint_tol:.3e})")
    print(f"contractivity lambda   : {rep.lambda_max:.3e} (tol {rep.lambda_tol:.3e})")
    print("result                 : " + ("ok" if rep.passed else "FAIL"))
    return 0 if rep.passed else 1


def _cmd_convergence(out: str, **opts) -> int:
    res = experiments.run_convergence(**opts)
    experiments.write_csv(out, [res.record])
    for n, err in zip(res.ns, res.errors):
        print(f"N = {n:3d}  Linf error = {err:.6e}")
    return 0


def _cmd_varspeed(out: str, **opts) -> int:
    res = experiments.run_varspeed(**opts)
    experiments.write_csv(out, [res.record])
    print(f"Linf error       = {res.linf_error:.6e}")
    print(f"total variation  = {res.tv:.6e}")
    return 0


def _cmd_burgers(out: str, **opts) -> int:
    res = experiments.run_burgers(**opts)
    experiments.write_csv(out, [res.record])
    traj = res.trajectory
    if traj.crashed:
        print(f"crashed at t = {traj.crash_time:.4f}")
    else:
        print(f"completed; final normalized energy = {traj.series['energy'][-1]:.6f}")
    return 0


def _cmd_fv_reference(out: str, **opts) -> int:
    res = experiments.run_fv_reference(FvConfig(**opts))
    experiments.write_csv(out, [res.record])
    print(f"finite-volume reference: {res.x.size} cells, {res.steps} steps")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: nothing in it depends on state, and no option has a default."""
    parser = argparse.ArgumentParser(prog="dgfilter", description="nodal DG filtering tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, func, summary):
        p = subparsers.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    p_ops = sub.add_parser("ops", help="collocation operator checks")
    ops_sub = p_ops.add_subparsers(dest="subcommand", required=True)
    p_check = command(ops_sub, "check", _cmd_ops_check, "print operator residuals")
    p_check.add_argument("--n", type=int, required=True, help="polynomial degree")

    p_filter = sub.add_parser("filter", help="filter verification")
    filt_sub = p_filter.add_subparsers(dest="subcommand", required=True)
    p_verify = command(filt_sub, "verify", _cmd_filter_verify, "verify stability quantities")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--alpha", type=float)
    p_verify.add_argument("--s", type=int)
    p_verify.add_argument("--nc", type=int)
    p_verify.add_argument("--no-clip", action="store_false", dest="clip_highest",
                          help="keep the exponential value of the last mode")

    p_conv = command(sub, "convergence", _cmd_convergence, "pulse advection error sweep")
    p_conv.add_argument("--n-list", type=_parse_n_list)
    p_conv.add_argument("--dt", type=float)
    p_conv.add_argument("--out", required=True)

    p_var = command(sub, "varspeed", _cmd_varspeed, "variable wave speed advection")
    p_var.add_argument("--n", type=int)
    p_var.add_argument("--dt", type=float)
    p_var.add_argument("--no-filter", action="store_false", dest="filtered")
    p_var.add_argument("--out", required=True)

    p_bur = command(sub, "burgers", _cmd_burgers, "Burgers energy study")
    p_bur.add_argument("--variant", choices=experiments.BURGERS_VARIANTS, required=True)
    p_bur.add_argument("--n", type=int)
    p_bur.add_argument("--filter-count", type=int)
    p_bur.add_argument("--cfl", type=float)
    p_bur.add_argument("--out", required=True)

    p_fv = command(sub, "fv-reference", _cmd_fv_reference, "finite-volume reference profile")
    p_fv.add_argument("--cells", type=int)
    p_fv.add_argument("--cfl", type=float)
    p_fv.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    opts = {k: v for k, v in args.items() if k not in ("command", "subcommand", "func")}
    out = opts.get("out")
    created = out is not None and not os.path.exists(out)
    try:
        # the OS answers whether out can be written. Append keeps an existing file's
        # bytes; held open through the study, a FIFO's reader sees no end before the CSV
        with open(out, "ab") if out is not None else contextlib.nullcontext():
            t_start = time.perf_counter()
            code = args["func"](**opts)
    except BaseException as exc:
        if created and os.path.exists(out):  # through a symlink, the file it names
            os.remove(os.path.realpath(out))
        if not isinstance(exc, (ValueError, OSError)):
            raise
        print(f"dgfilter: error: {exc}", file=sys.stderr)
        return 2
    if out is not None:
        print(f"wrote {out} ({time.perf_counter() - t_start:.2f} s)", file=sys.stderr)
    return code
