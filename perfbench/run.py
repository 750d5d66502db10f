"""Benchmark runner for dgfilter.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a dgfilter checkout; the package is imported from its
``src/`` directory. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Result files, traces and the study CSVs go to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

import os

# one BLAS thread, set before numpy loads, here and in every child
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
WORKLOADS = ("linear-filtered", "burgers-fv", "verify-sweep")
MIN_ROUNDS = 5  # a run always measures at least this many rounds
# SpeedProbe's time at the reference speed: about its mean on the 2-core
# host the README's figures come from
REFERENCE_PROBE_S = 1.5e-3
LAYERS = ("operators", "filters", "equations", "kernels", "timestepping", "fv",
          "experiments", "cli")

# per-layer metrics of a traced run, with their units, as BENCHMARK.json lists them;
# all are per traced round except the microbenchmark apply_us
PER_LAYER = {m["name"]: m["unit"]
             for m in json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]}


def _import_program():
    """Import numpy and dgfilter from this checkout's ``src/``; fail loudly otherwise."""
    if not (SRC / "dgfilter" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dgfilter sources under {SRC}; run from a dgfilter checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import dgfilter

    if Path(dgfilter.__file__).resolve().parent != (SRC / "dgfilter").resolve():
        sys.exit(f"perfbench: imported dgfilter from {dgfilter.__file__}, not from {SRC}")
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    return workloads


def _out_dir(workload: str, seed: int) -> Path:
    out = BENCH_DIR / "out" / f"{workload}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def setup_probe(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import, make inputs, say ready, exit."""
    wl = _import_program()
    wl.make_inputs(workload, seed, _out_dir(workload, seed))
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the point of the first timed call."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=REPO, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {code})")
    return elapsed


class SpeedProbe:
    """A fixed computation, apart from dgfilter, timed before every operation.

    The host's speed drifts by up to a third over minutes, and dgfilter's
    operations and start-up slow down with this probe. ``setup_s``, ``wall_s``
    and ``cpu_s`` are scaled by ``REFERENCE_PROBE_S`` over the run's trimmed
    mean probe time, which takes the drift out of them; see the README.
    """

    def __init__(self, per_op: int):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np, self.per_op = np, per_op
        self.a = rng.standard_normal((64, 64))
        self.s = self.a @ self.a.T
        self.b = rng.standard_normal((257, 257))
        self.walls: list[float] = []
        self.cpus: list[float] = []

    def work(self) -> None:
        """dgfilter's mix in small: an interpreted loop, matvecs at N = 63 and
        N = 256, and the LAPACK calls of the verification."""
        acc = 0
        for i in range(1500):
            acc += i * i % 7
        x = self.s[0]
        for _ in range(150):
            x = self.a @ x * 0.1
        y = self.b[0]
        for _ in range(40):
            y = self.b @ y * 0.01
        self.np.linalg.eigvalsh(self.s)
        self.np.linalg.solve(self.a, self.s)

    def __call__(self) -> None:
        for _ in range(self.per_op):
            w0, c0 = time.perf_counter(), time.process_time()
            self.work()
            self.walls.append(time.perf_counter() - w0)
            self.cpus.append(time.process_time() - c0)


def keep_last_values(rounds) -> None:
    """Drop the results of all but the last round, so memory does not grow with rounds."""
    if len(rounds) > 1:
        for op in rounds[-2]:
            op.value = None


def run_plain(wl, inp, seconds: float):
    """Untraced run: alternate one set-up sample and one round until time is up.

    ``wall_s`` and ``cpu_s`` sum, over the operations of a round, each
    operation's median over the run's rounds, so a burst of machine load that
    slows fewer than half of an operation's samples leaves the figure alone.
    These sums and the median set-up time are then scaled to the reference
    speed of ``SpeedProbe``, which runs before every operation: once before
    each of ``verify-sweep``'s 166 short ones, three times before each of the
    stepping workloads' 3 and 5 long ones.
    """
    setups, rounds, spent = [], [], []
    probe = SpeedProbe(1 if inp.workload == "verify-sweep" else 3)
    start = time.perf_counter()
    while _go_on(start, seconds, spent, MIN_ROUNDS):
        t0 = time.perf_counter()
        setups.append(time_setup(inp.workload, inp.seed))
        rounds.append(wl.run_round(inp, probe))
        keep_last_values(rounds)
        spent.append(time.perf_counter() - t0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_walls = [[op.wall for op in r] for r in rounds]
    op_cpus = [[op.cpu for op in r] for r in rounds]
    raw = {"setup_s": statistics.median(setups), "wall_s": _sum_of_medians(op_walls),
           "cpu_s": _sum_of_medians(op_cpus), "probe_wall_s": _trimmed_mean(probe.walls),
           "probe_cpu_s": _trimmed_mean(probe.cpus)}
    to_reference = REFERENCE_PROBE_S / raw["probe_wall_s"]
    metrics = {
        "setup_s": {"value": raw["setup_s"] * to_reference, "unit": "s"},
        "wall_s": {"value": raw["wall_s"] * to_reference, "unit": "s"},
        "cpu_s": {"value": raw["cpu_s"] * REFERENCE_PROBE_S / raw["probe_cpu_s"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    samples = {"raw": raw, "setup_s": setups, "op_wall_s": op_walls, "op_cpu_s": op_cpus,
               "probe_wall_s": probe.walls, "probe_cpu_s": probe.cpus}
    return rounds, metrics, samples


def _go_on(start: float, seconds: float, spent: list, minimum: int) -> bool:
    """Start another round while one more is expected to finish within the time."""
    if len(spent) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(spent) <= seconds


def _sum_of_medians(per_round) -> float:
    return sum(statistics.median(column) for column in zip(*per_round))


def _trimmed_mean(values) -> float:
    """Mean of the middle 80%: the probe's times fall in a fast and a slow
    cluster, so a median jumps between them where a mean moves smoothly,
    and the trimming keeps rare stalls out."""
    v = sorted(values)
    cut = len(v) // 10
    return statistics.fmean(v[cut:len(v) - cut])


def run_traced(wl, inp, seconds: float):
    """Traced run: untraced and traced rounds alternate; per-layer means per traced round."""
    import spans

    tracer = spans.Tracer()
    traced_round = tracer.wrap(spans.ROOT, wl.run_round)
    start = time.perf_counter()
    rounds = [wl.run_round(inp)]  # warm-up, so first-call costs stay out of the overhead
    plain_walls, traced_walls, spent = [], [], []
    while _go_on(start, seconds, spent, 2):
        t0 = time.perf_counter()
        rounds.append(wl.run_round(inp))
        plain_walls.append(time.perf_counter() - t0)
        keep_last_values(rounds)
        with spans.patched(tracer):
            t0 = time.perf_counter()
            rounds.append(traced_round(inp))
            traced_walls.append(time.perf_counter() - t0)
        keep_last_values(rounds)
        spent.append(plain_walls[-1] + traced_walls[-1])

    k = len(traced_walls)
    tot = tracer.totals()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def s(name, key="s"):
        return tot.get(name, zero)[key] / k

    def calls(name):
        return tot.get(name, zero)["calls"] / k

    def count(name):
        return tracer.counts.get(name, 0) / k

    def layer_self(prefix):
        return sum(v["self_s"] for n, v in tot.items() if n.startswith(prefix + ".")) / k

    steps, fv_s = count("timestepping.steps"), s("fv.solve")
    rhs_calls = calls("equations.rhs")
    traced_wall = statistics.fmean(traced_walls)
    self_sum = sum(layer_self(layer) for layer in LAYERS)
    m = {
        "operators.build_s": s("operators.build"),
        "operators.build_calls": calls("operators.build"),
        "operators.lgl_s": s("operators.lgl"),
        "operators.derivative_s": s("operators.derivative"),
        "operators.vandermonde_s": s("operators.vandermonde"),
        "filters.build_s": s("filters.build"),
        "filters.build_calls": calls("filters.build"),
        "filters.gram_s": s("filters.gram"),
        "filters.adjoint_s": s("filters.adjoint"),
        "filters.verify_s": s("filters.verify"),
        "filters.spectrum_s": s("filters.spectrum"),
        "filters.apply_count": count("filters.apply_count"),
        "filters.apply_us": _apply_us(inp),
        "filters.norm_s": s("filters.norm"),
        "equations.rhs_calls": rhs_calls,
        "equations.rhs_s": s("equations.rhs"),
        "equations.rhs_us": 1e6 * s("equations.rhs") / rhs_calls if rhs_calls else 0.0,
        "equations.inflow_calls": calls("equations.inflow"),
        "equations.inflow_s": s("equations.inflow"),
        "kernels.rhs_s": s("kernels.rhs"),
        "kernels.fv_s": s("kernels.fv"),
        "timestepping.integrate_s": s("timestepping.integrate"),
        "timestepping.steps": steps,
        "timestepping.step_s": s("timestepping.step"),
        "timestepping.us_per_step": 1e6 * s("timestepping.integrate") / steps if steps else 0.0,
        "timestepping.observer_s": s("timestepping.observer"),
        "timestepping.crash_check_s": s("timestepping.crash_check"),
        "timestepping.dt_fn_s": s("timestepping.dt_fn"),
        "fv.solve_s": fv_s,
        "fv.steps": count("fv.steps"),
        "fv.cell_updates_per_s": count("fv.cell_updates") / fv_s if fv_s else 0.0,
        "experiments.driver_s": s("experiments.driver"),
        "experiments.csv_s": s("experiments.csv"),
        "experiments.csv_bytes": count("experiments.csv_bytes"),
        "cli.main_s": s("cli.main"),
        "cli.main_calls": calls("cli.main"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    m.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": statistics.fmean(plain_walls),
        "trace.overhead_s": traced_wall - statistics.fmean(plain_walls),
        "trace.self_sum_s": self_sum,
        "trace.unattributed_s": s(spans.ROOT, "self_s"),
        "trace.spans": len(tracer.start) / k,
    })
    return rounds, m, tracer


def _apply_us(inp) -> float:
    """Median microseconds of one nodal filter application F @ u at the workload's N."""
    import numpy as np
    from dgfilter.filters import FilterSpec, build_filter
    from dgfilter.operators import build_operators

    f = build_filter(build_operators(inp.probe_n), FilterSpec()).F
    u = np.random.default_rng(inp.seed).uniform(-1.0, 1.0, inp.probe_n + 1)
    reps, samples = 200, []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(reps):
            f @ u
        samples.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(samples)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    wl = _import_program()
    out = _out_dir(args.workload, args.seed)
    inp = wl.make_inputs(args.workload, args.seed, out)
    if args.trace:
        rounds, metrics, tracer = run_traced(wl, inp, args.seconds)
        tracer.save(out / "trace.npz")
        if set(metrics) != set(PER_LAYER):
            sys.exit("perfbench: traced metrics differ from BENCHMARK.json's per_layer: "
                     f"{sorted(set(metrics) ^ set(PER_LAYER))}")
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER.items()}
        samples = {}
    else:
        rounds, metrics, samples = run_plain(wl, inp, args.seconds)

    chk = wl.check(inp, rounds[-1])
    # every round must do the same work with the same outcome
    outcome = [(op.name, op.ok) for op in rounds[0]]
    chk("every round attempts the same operations with the same outcome",
        all([(op.name, op.ok) for op in r] == outcome for r in rounds[1:]))
    if args.trace:
        gap = abs(metrics["trace.self_sum_s"]["value"] - metrics["trace.wall_s"]["value"])
        chk("layer self times add up to the traced round time",
            gap <= 0.01 * metrics["trace.wall_s"]["value"], f"gap {gap:.3e} s")
    for line in chk.failed:
        print(f"CHECK FAILED: {line}", file=sys.stderr)

    # per round, so the counts do not depend on how many rounds fit in the time
    attempted = len(rounds[-1])
    failed = sum(not op.ok for op in rounds[-1])
    result = {"correct": not chk.failed, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {**result, "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
              "checks": chk.count, "failed_checks": chk.failed, "samples": samples,
              "failed_ops": sorted({op.name for r in rounds for op in r if not op.ok})}
    (out / f"result-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
