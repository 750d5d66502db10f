"""Byte-identity gate and tolerance summary of the default studies.

The 8 default study commands, and ``ops check`` and ``filter verify`` at a
few degrees, run through ``dgfilter.cli.main`` in one subprocess with one
BLAS thread: the thread count changes the last bits of some CSVs. The count
is set in the environment of a fresh process, not in this one. The
variables reach OpenBLAS, MKL and OpenMP builds alike, and the pinned count
cannot leak into the other tests. (With numpy's bundled OpenBLAS, a call to
its ``set_num_threads`` after import would pin the same bits.) Two committed
tables judge the output:

- ``data/study_hashes.json``: the sha256 of every CSV and of the stdout of
  every check command, and the exit codes. A change that moves bits on
  purpose updates this table in the same diff and quotes the largest moves.
- ``data/study_summary.json``: the final values the studies exist for, at
  the tolerances a roundoff-level change must meet: 1e-12 absolute on the
  convergence errors, 1e-10 max|u| on varspeed, 1e-12 relative on the final
  energy of a Burgers run that completes and 1e-12 absolute on the crash
  time of one that does not; exact on Burgers and FV where the build matches.

The hash table also records the build that made it: the numpy version, the
BLAS name and version, and the core whose kernels OpenBLAS picked at run
time. Another build or CPU can round differently, so where the running
build differs, the hash comparison and the exact Burgers and FV checks are
skipped with both fingerprints in the reason; the exit codes and the
tolerance checks still run.

A command-line run (``python -m dgfilter.cli`` or the console script) with
no thread variable set runs at one thread, so it writes the gate's bytes; a
thread count set in its environment, or a library call of ``cli.main``,
keeps its own. The tests at the end check both in subprocesses.

Run as a script, this file runs the commands into a directory and prints
the build, the digests and the summary as JSON; ``--write-hashes`` stores
the build and the digests as the hash table. The summary is not written by
the script: it holds the values the studies must keep, and a change that
means to move them edits it by hand and says why::

    PYTHONPATH=src python tests/test_study_gate.py [--write-hashes]
"""

import os

if __name__ == "__main__":  # one BLAS thread, set before numpy loads
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import argparse
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dgfilter import THREAD_VARS, cli
from helpers import shock_position

DATA = Path(__file__).with_name("data")
SRC = Path(__file__).resolve().parents[1] / "src"

STUDIES = {
    "convergence": ["convergence"],
    "varspeed": ["varspeed"],
    "varspeed_unfiltered": ["varspeed", "--no-filter"],
    **{f"burgers_{v}": ["burgers", "--variant", v]
       for v in ("cons_unfiltered", "cons_filtered", "skew_unfiltered", "skew_filtered")},
    "fv_reference": ["fv-reference"],
}
CHECKS = {f"{cmd} --n {n}": [*cmd.split(), "--n", str(n)]
          for cmd in ("ops check", "filter verify") for n in (1, 24, 64, 397, 498)}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def blas_core():
    """The core whose kernels numpy's bundled OpenBLAS runs, or None where it cannot be asked."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}_get_corename{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    return fn().decode()
    return None


def build_fingerprint() -> dict:
    """numpy version, BLAS name and version, and the BLAS core in use."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_core": blas_core()}


def skip_unless_recorded_build(got: dict) -> None:
    recorded = json.loads((DATA / "study_hashes.json").read_text())["build"]
    if got != recorded:
        pytest.skip(f"bits recorded on {recorded}, this build is {got}")


def run_commands(outdir: Path) -> dict:
    """Run every command in this process; the CSVs go to ``outdir``."""
    digests = {"csv": {}, "stdout": {}, "codes": {}}
    for name, argv in STUDIES.items():
        path = outdir / f"{name}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            digests["codes"][name] = cli.main([*argv, "--out", str(path)])
        digests["csv"][name] = sha256(path.read_bytes())
    for name, argv in CHECKS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            digests["codes"][name] = cli.main(argv)
        digests["stdout"][name] = sha256(buf.getvalue().encode())
    return digests


def read_rows(path: Path) -> list:
    """(t_or_N, value, extra) of every row of a study CSV."""
    with open(path, newline="") as fh:
        return [(float(r["t_or_N"]), float(r["value"]), r["extra"]) for r in csv.DictReader(fh)]


def summarize(outdir: Path) -> dict:
    """The final values of the studies, read back from their CSVs (%.17g round-trips)."""
    summary = {"convergence_errors": [v for _, v, e in read_rows(outdir / "convergence.csv")
                                      if e == "linf_error"]}
    for name in ("varspeed", "varspeed_unfiltered"):
        rows = read_rows(outdir / f"{name}.csv")
        last = {e: v for _, v, e in rows}
        summary[name] = {"linf_error": last["linf_error"], "total_variation": last["total_variation"],
                         "max_abs_u": max(abs(v) for _, v, e in rows if e == "solution")}
    for name in STUDIES:
        if name.startswith("burgers_"):
            rows = read_rows(outdir / f"{name}.csv")
            crash = [t for t, _, e in rows if e == "crash"]
            summary[name] = {"final_energy": [v for _, v, e in rows if e == "energy"][-1],
                             "crash_time": crash[0] if crash else None}
    x, u = np.array([(t, v) for t, v, _ in read_rows(outdir / "fv_reference.csv")]).T
    summary["fv_shock_position"] = shock_position(x, u)
    return summary


@pytest.fixture(scope="module")
def gate_run(tmp_path_factory):
    """(build, digests, summary) of one subprocess run of every command at one BLAS thread."""
    outdir = tmp_path_factory.mktemp("study_gate")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, "--outdir", str(outdir)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bytes_match_the_committed_hashes(gate_run):
    expected = json.loads((DATA / "study_hashes.json").read_text())
    got = gate_run["digests"]
    assert got["codes"] == expected["codes"]
    assert got["csv"].keys() == expected["csv"].keys()
    assert got["stdout"].keys() == expected["stdout"].keys()
    skip_unless_recorded_build(gate_run["build"])
    moved = {f"{kind}/{name}" for kind in ("csv", "stdout")
             for name in expected[kind] if got[kind][name] != expected[kind][name]}
    assert not moved, f"output bytes changed: {sorted(moved)}"


def test_final_values_match_the_committed_summary(gate_run):
    expected = json.loads((DATA / "study_summary.json").read_text())
    got = gate_run["summary"]
    assert got.keys() == expected.keys()
    assert len(got["convergence_errors"]) == len(expected["convergence_errors"])
    for e_got, e_exp in zip(got["convergence_errors"], expected["convergence_errors"]):
        assert abs(e_got - e_exp) <= 1e-12
    for name in ("varspeed", "varspeed_unfiltered"):
        tol = 1e-10 * expected[name]["max_abs_u"]
        for key, value in expected[name].items():
            assert abs(got[name][key] - value) <= tol, (name, key)
    # the crash-step energy is a ~1e6 blow-up value that amplifies roundoff,
    # so a crashed variant is held here to its crash time and only the exact
    # check pins its energy
    for name, exp in expected.items():
        if name.startswith("burgers_"):
            if exp["crash_time"] is None:
                assert got[name]["crash_time"] is None, name
                assert abs(got[name]["final_energy"] - exp["final_energy"]) <= 1e-12 * exp["final_energy"], name
            else:
                assert abs(got[name]["crash_time"] - exp["crash_time"]) <= 1e-12, name


def test_nonlinear_final_values_match_exactly(gate_run):
    expected = json.loads((DATA / "study_summary.json").read_text())
    skip_unless_recorded_build(gate_run["build"])
    for name, value in expected.items():
        if name.startswith("burgers_") or name == "fv_shock_position":
            assert gate_run["summary"][name] == value, name


# how a subprocess runs ``varspeed --out <path>``: the two command-line entries,
# which pick the thread count, and a library call of cli.main, which keeps it
LAUNCHERS = {
    "module": ["-m", "dgfilter.cli"],
    "console": ["-c", "import sys; from dgfilter import console_main; sys.exit(console_main())"],
    "library": ["-c", "import sys; from dgfilter.cli import main; sys.exit(main(sys.argv[1:]))"],
}


def subprocess_env(**thread_vars) -> dict:
    """This environment with ``src`` on the path and, of the thread variables, only ``thread_vars``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    path = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **thread_vars, "PYTHONPATH": path}


def varspeed_bytes(tmp_path, launcher: str, **thread_vars) -> bytes:
    """The default varspeed CSV written by ``launcher`` in a subprocess."""
    path = tmp_path / f"{launcher}.csv"
    subprocess.run([sys.executable, *LAUNCHERS[launcher], "varspeed", "--out", str(path)],
                   env=subprocess_env(**thread_vars), check=True, capture_output=True, timeout=120)
    return path.read_bytes()


@pytest.mark.parametrize("launcher", ["module", "console"])
def test_a_command_line_run_defaults_to_one_thread(gate_run, tmp_path, launcher):
    digest = sha256(varspeed_bytes(tmp_path, launcher))
    assert digest == gate_run["digests"]["csv"]["varspeed"]
    skip_unless_recorded_build(gate_run["build"])
    assert digest == json.loads((DATA / "study_hashes.json").read_text())["csv"]["varspeed"]


def test_a_command_line_run_keeps_a_chosen_thread_count(tmp_path):
    assert (varspeed_bytes(tmp_path, "module", OPENBLAS_NUM_THREADS="2")
            == varspeed_bytes(tmp_path, "library", OPENBLAS_NUM_THREADS="2"))


def test_a_library_import_sets_no_thread_variable():
    code = ("import os, dgfilter.cli, dgfilter.experiments\n"
            "print([v for v in dgfilter.THREAD_VARS if v in os.environ])")
    proc = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), check=True,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "[]\n"


def main(argv):
    """Script mode: see the module docstring."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--outdir", help="keep the CSVs here instead of a temporary directory")
    parser.add_argument("--write-hashes", action="store_true",
                        help="store the build and the digests in data/study_hashes.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(args.outdir or tmp)
        result = {"build": build_fingerprint(), "digests": run_commands(outdir),
                  "summary": summarize(outdir)}
    if args.write_hashes:
        table = {"build": result["build"], **result["digests"]}
        (DATA / "study_hashes.json").write_text(json.dumps(table, indent=2) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
