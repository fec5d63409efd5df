"""Run every workload over seeds 1-10 and record the baseline.

    python3 bench/baseline.py --out bench/baseline.json

For each workload this makes one untraced ``run.py`` run per seed, at
``BENCHMARK.json``'s ``run_seconds``, and one traced run (seed 1).  It prints
every end-to-end metric with its unit plus ``fail_frac``, and reports each
metric's median, quartiles and spread (the distance between the quartiles as
a share of the median, from ``statistics.quantiles(values, n=4)``) against a
third of its bound.  It exits 1 if any spread is wider than that.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

from metrics import SPEC
from run import THREAD_ENV
from workloads import WORKLOADS, commands

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for key in ("passes", "setup_probes"):
        result[key] = int(re.search(rf"{key}=(\d+)", proc.stdout).group(1))
    return result


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "child_thread_env": {name: "1" for name in THREAD_ENV},
        "measured": "own child processes only (perf_counter, wait4 rusage); "
                    "no machine-wide tracing, no cache control",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the record here")
    args = parser.parse_args()

    seconds = SPEC["run_seconds"]
    record = {"recorded_with": versions(), "run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "argv_first_seed": commands(workload, SEEDS[0]),
            "seeds": SEEDS,
            "passes_per_run": [r["passes"] for r in runs],
            "setup_probes_per_run": [r["setup_probes"] for r in runs],
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "end_to_end": {},
        }
        print(f"{workload}: {len(runs)} runs, {sum(entry['passes_per_run'])} passes, "
              f"fail_frac {entry['fail_frac']:.3g} ({failed}/{attempted})")
        for m in SPEC["end_to_end"]:
            name, unit, bound = m["name"], m["unit"], m["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread <= bound / 3
            ok &= steady
            entry["end_to_end"][name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bound, "samples": len(values), "values": values,
            }
            print(f"  {name:12s} median {med:10.4f} {unit:3s} q1 {q1:10.4f} q3 {q3:10.4f} "
                  f"spread {spread:6.3f} bound {bound} {'ok' if steady else 'WIDE'}")
        traced = run_once(workload, SEEDS[0], seconds, 1)
        entry["per_layer_first_seed"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["traced_failed"] = traced["failed"]
        record["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
