"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py [--out FILE]

Every workload of BENCHMARK.json runs once for each seed in SEEDS, at the
run_seconds of BENCHMARK.json.  Each run is one run of bench/run.py in its
own process, one after another.  For every end-to-end metric the summary
holds the median, the quartiles as statistics.quantiles(values, n=4) gives
them, and the spread (q3 - q1) / median, which BENCHMARK.json's bound must
exceed.  With --out the summary is written as JSON together with a block
describing the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def machine():
    """CPU count and model, Python, numpy and its BLAS."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
            "values": values}


def main():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in SEEDS]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        results[workload] = {
            "runs": len(runs), "attempted": attempted, "failed": failed,
            "correct": all(r["correct"] for r in runs),
            "metrics": {name: summarise([r["metrics"][name]["value"]
                                         for r in runs])
                        for name in bounds},
        }
        for name, s in results[workload]["metrics"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- wide"
            print(f"{workload:10s} {name:12s} median {s['median']:10.5g}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}  "
                  f"values {' '.join(f'{v:.4g}' for v in s['values'])}")
        print(f"{workload:10s} {attempted} ops attempted, {failed} failed")
        sys.stdout.flush()
    if args.out:
        doc = {"machine": machine(),
               "seeds": f"{SEEDS.start}-{SEEDS.stop - 1}",
               "run_seconds": spec["run_seconds"], "workloads": results}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
