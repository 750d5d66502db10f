"""Spread study: run the benchmark once per seed and report quartiles.

    python3 perfbench/spread.py

Runs ``perfbench/run.py --trace 0`` for seeds 1 to 10, one after another,
on every workload of BENCHMARK.json at its ``run_seconds``, and prints, per
end-to-end metric, the median, the quartiles and the interquartile range as
a share of the median (the figure the bounds in BENCHMARK.json are set
against), the same for the times before they are scaled by the speed
probe, and the share of failed operations.
The runs and the summary are saved to ``perfbench/out/spread.json``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    bench = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, summary = {}, {}
    for workload in (w["name"] for w in bench["workloads"]):
        rows = []
        for seed in range(1, 11):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH_DIR.parent)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = BENCH_DIR / "out" / f"{workload}-seed{seed}" / "result-trace0.json"
            raw = json.loads(detail.read_text())["samples"]["raw"]
            rows.append({**res, "seed": seed, "elapsed_s": elapsed, "raw": raw})
            print(workload, seed, f"{elapsed:.1f}s", res["correct"], res["attempted"], res["failed"],
                  " ".join(f"{k}={res['metrics'][k]['value']:.4f}" for k in names), flush=True)
        runs[workload] = rows
        summary[workload] = {"failed_share": sorted({r["failed"] / r["attempted"] for r in rows}),
                             "all_correct": all(r["correct"] for r in rows)}
        for k in names:
            vals = [r["metrics"][k]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[workload][k] = {"median": med, "q1": q1, "q3": q3,
                                    "iqr_share": (q3 - q1) / med, "bound": bounds[k]}
            print(f"  {k:12s} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  "
                  f"IQR/median {100 * (q3 - q1) / med:.1f}%  (bound {100 * bounds[k]:.0f}%)")
        for k in ("setup_s", "wall_s", "cpu_s"):
            q1, med, q3 = statistics.quantiles([r["raw"][k] for r in rows], n=4)
            summary[workload][f"raw_{k}"] = {"median": med, "iqr_share": (q3 - q1) / med}
            print(f"  raw {k:8s} median {med:.4f}  IQR/median {100 * (q3 - q1) / med:.1f}%  "
                  "(before scaling by the speed probe)")
        print(f"  failed share {summary[workload]['failed_share']}, "
              f"all correct {summary[workload]['all_correct']}", flush=True)
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / "spread.json").write_text(json.dumps({"runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
