"""Command-line drivers.

Subcommands::

    ops check --n <N>
    filter verify --n <N> --alpha <a> --s <s> --nc <Nc> [--no-clip]
    convergence --n-list 7:64:2 --dt <dt> --out <path>
    varspeed --n 256 --dt 0.0005 [--no-filter] --out <path>
    burgers --variant <v> --n 128 --filter-count 16 --out <path>
    fv-reference --cells 10000 --out <path>

Exit codes: 0 success, 1 tolerance failure, 2 usage error. A parameter
that the package rejects (``ValueError``) or an output path that cannot be
written (``OSError``) is a usage error: one line on stderr, no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import experiments
from .filters import FilterSpec, verify_filter
from .fv import FvConfig
from .operators import build_operators, sbp_residual


def _parse_n_list(text: str) -> list[int]:
    """Accept 'start:stop:step' (stop exclusive, like range) or 'a,b,c'."""
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            parts.append(1)
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("expected start:stop[:step]")
        values = list(range(parts[0], parts[1], parts[2]))
    else:
        values = [int(p) for p in text.split(",")]
    if not values:
        raise argparse.ArgumentTypeError("empty degree list")
    return values


def _cmd_ops_check(args) -> int:
    ops = build_operators(args.n, check=False)
    sbp = sbp_residual(ops)
    vv = float(np.max(np.abs(ops.V @ ops.Vinv - np.eye(args.n + 1))))
    wsum = abs(float(np.sum(ops.weights)) - 2.0)
    print(f"degree                 : {args.n}")
    print(f"SBP residual           : {sbp:.3e}")
    print(f"V Vinv - I max         : {vv:.3e}")
    print(f"weight-sum error       : {wsum:.3e}")
    sbp_tol = 1e-12 * max(1.0, args.n / 64.0)
    ok = sbp <= sbp_tol and vv <= 1e-11 * max(1.0, args.n / 64.0) and wsum <= 1e-13
    print("result                 : " + ("ok" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_filter_verify(args) -> int:
    ops = build_operators(args.n)
    spec = FilterSpec(alpha=args.alpha, s=args.s, nc=args.nc,
                      clip_highest=not args.no_clip)
    rep = verify_filter(ops, spec)
    print(f"degree                 : {rep.n}")
    print(f"gram max off-diagonal  : {rep.gram_offdiag:.3e}")
    print(f"gram last diagonal     : {rep.gram_last:.15g} (target {2 + 1 / rep.n:.15g})")
    print(f"adjoint gap max        : {rep.adjoint_gap:.3e} (tol {rep.adjoint_tol:.3e})")
    print(f"contractivity lambda   : {rep.lambda_max:.3e} (tol {rep.lambda_tol:.3e})")
    print("result                 : " + ("ok" if rep.passed else "FAIL"))
    return 0 if rep.passed else 1


def _cmd_convergence(args) -> int:
    res = experiments.run_convergence(args.n_list, args.dt)
    experiments.write_csv(args.out, [res.record])
    for n, err in zip(res.ns, res.errors):
        print(f"N = {n:3d}  Linf error = {err:.6e}")
    return 0


def _cmd_varspeed(args) -> int:
    res = experiments.run_varspeed(n=args.n, dt=args.dt, filtered=not args.no_filter)
    experiments.write_csv(args.out, [res.record])
    print(f"Linf error       = {res.linf_error:.6e}")
    print(f"total variation  = {res.tv:.6e}")
    return 0


def _cmd_burgers(args) -> int:
    res = experiments.run_burgers(args.variant, n=args.n,
                                  filter_count=args.filter_count, cfl=args.cfl)
    experiments.write_csv(args.out, [res.record])
    traj = res.trajectory
    if traj.crashed:
        print(f"crashed at t = {traj.crash_time:.4f}")
    else:
        print(f"completed; final normalized energy = {traj.series['energy'][-1]:.6f}")
    return 0


def _cmd_fv_reference(args) -> int:
    res = experiments.run_fv_reference(FvConfig(cells=args.cells, cfl=args.cfl))
    experiments.write_csv(args.out, [res.record])
    print(f"finite-volume reference: {args.cells} cells, {res.steps} steps")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dgfilter", description="nodal DG filtering tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ops = sub.add_parser("ops", help="collocation operator checks")
    ops_sub = p_ops.add_subparsers(dest="subcommand", required=True)
    p_check = ops_sub.add_parser("check", help="print operator residuals")
    p_check.add_argument("--n", type=int, required=True, help="polynomial degree")
    p_check.set_defaults(func=_cmd_ops_check)

    p_filter = sub.add_parser("filter", help="filter verification")
    filt_sub = p_filter.add_subparsers(dest="subcommand", required=True)
    p_verify = filt_sub.add_parser("verify", help="verify stability quantities")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--alpha", type=float, default=36.0)
    p_verify.add_argument("--s", type=int, default=16)
    p_verify.add_argument("--nc", type=int, default=4)
    p_verify.add_argument("--no-clip", action="store_true",
                          help="keep the exponential value of the last mode")
    p_verify.set_defaults(func=_cmd_filter_verify)

    p_conv = sub.add_parser("convergence", help="pulse advection error sweep")
    p_conv.add_argument("--n-list", type=_parse_n_list, default="7:64:2")
    p_conv.add_argument("--dt", type=float, default=4e-4)
    p_conv.add_argument("--out", required=True)
    p_conv.set_defaults(func=_cmd_convergence)

    p_var = sub.add_parser("varspeed", help="variable wave speed advection")
    p_var.add_argument("--n", type=int, default=256)
    p_var.add_argument("--dt", type=float, default=1.0 / 2000.0)
    p_var.add_argument("--no-filter", action="store_true")
    p_var.add_argument("--out", required=True)
    p_var.set_defaults(func=_cmd_varspeed)

    p_bur = sub.add_parser("burgers", help="Burgers energy study")
    p_bur.add_argument("--variant", choices=experiments.BURGERS_VARIANTS,
                       required=True)
    p_bur.add_argument("--n", type=int, default=128)
    p_bur.add_argument("--filter-count", type=int, default=16)
    p_bur.add_argument("--cfl", type=float, default=0.4)
    p_bur.add_argument("--out", required=True)
    p_bur.set_defaults(func=_cmd_burgers)

    p_fv = sub.add_parser("fv-reference", help="finite-volume reference profile")
    p_fv.add_argument("--cells", type=int, default=10000)
    p_fv.add_argument("--cfl", type=float, default=0.9)
    p_fv.add_argument("--out", required=True)
    p_fv.set_defaults(func=_cmd_fv_reference)

    return parser


def _check_out(path: str) -> None:
    """Fail before a study runs if its CSV cannot be created."""
    if os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise OSError(f"cannot write {path}: {parent} is not a writable directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        if out is not None:
            _check_out(out)
        t_start = time.perf_counter()
        code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"dgfilter: error: {exc}", file=sys.stderr)
        return 2
    if out is not None:
        print(f"wrote {out} ({time.perf_counter() - t_start:.2f} s)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
