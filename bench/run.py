"""framedyn benchmark: one workload, one process, one closed-loop client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload trajectory|sweep|cli --seed N \\
        --seconds S --trace 0|1

The run imports framedyn from ``src/`` of the same checkout (never from an
installed copy), sets it up SETUPS times and reports the median as setup_s,
then repeats the workload's round of ops until --seconds is used up.  With
--trace 1 it then installs the span tracer, sets up once more and runs one
traced round, and reports the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 9
MIN_OPS = 100          # so that op_p90_ms has at least ten samples above it
TIME_CAP_S = 120.0     # no new round starts after this, whatever MIN_OPS says

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
             "op_p90_ms": "ms", "peak_rss_mb": "MB"}

# calibrate() takes about this long on the baseline machine.  End-to-end
# times are reported at that reference speed: each raw time is multiplied by
# CALIBRATION_REF_S over the calibration time measured next to it.
CALIBRATION_REF_S = 0.020


class BenchError(Exception):
    pass


def import_framedyn():
    """A fresh import of framedyn and framedyn.cli from this checkout."""
    if not (SRC / "framedyn" / "__init__.py").is_file():
        raise BenchError(f"no framedyn sources under {SRC}")
    for name in [m for m in sys.modules
                 if m == "framedyn" or m.startswith("framedyn.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    fd = importlib.import_module("framedyn")
    importlib.import_module("framedyn.cli")
    if Path(fd.__file__).resolve().parent != SRC / "framedyn":
        raise BenchError(f"framedyn was imported from {fd.__file__}")
    return fd


def calibrate():
    """Seconds for a fixed mix of interpreter and numpy work that uses no
    framedyn code.

    A shared machine switches between fast and slow states that last for
    minutes; the same run can take 1.4 times as long in the slow state.
    Timing this kernel next to the workload measures the state, so that the
    workload's times can be reported at a reference speed.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40000):
        x = i * 1e-4
        acc += math.sin(x) * math.cos(x) + x * x / (1.0 + x)
    a = np.linspace(0.0, 1.0, 1000)
    for _ in range(600):
        a = np.sin(a) * 0.5 + a * a * 0.25
    return time.perf_counter() - t0


def execute(op, tamper=None):
    """Run one op and check it; returns its problems (empty when it passed).
    tamper, when given, corrupts the result between run and check."""
    try:
        result = op.run()
        if tamper is not None:
            tamper(result)
        return list(op.check(result))
    except Exception as exc:  # an op that raises counts as failed
        return [f"raised {type(exc).__name__}: {exc}"]


class Client:
    """The closed-loop client: issues each op after the previous returns."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.reported = 0

    def run_round(self, ops, tamper=None):
        """Runs the ops once; returns the round's wall time."""
        clock = time.perf_counter
        t0 = clock()
        for op in ops:
            ts = clock()
            problems = execute(op, tamper)
            self.latencies.append(clock() - ts)
            if problems:
                self.failed += 1
                if self.reported < 5:
                    self.reported += 1
                    print(f"op {op.label} failed: {'; '.join(problems)}",
                          file=sys.stderr)
        return clock() - t0


def set_up(workload, inputs):
    gc.collect()
    t0 = time.perf_counter()
    fd = import_framedyn()
    ctx = workload.build(fd, inputs)
    return time.perf_counter() - t0, fd, ctx


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, args, workdir):
    inputs = workload.inputs(args.seed, workdir)
    setups = []
    for _ in range(SETUPS):
        ctx = None  # release the previous set-up before timing the next
        before = calibrate()
        dt, fd, ctx = set_up(workload, inputs)
        setups.append(dt * CALIBRATION_REF_S / (0.5 * (before + calibrate())))
    ops = workload.ops(ctx, inputs)

    # Each round is scaled by the calibration times measured just before
    # and just after it.
    client = Client()
    raw_rounds, rounds, latencies, factors = [], [], [], []
    before = calibrate()
    t_start = time.perf_counter()
    while True:
        gc.collect()
        first = len(client.latencies)
        raw = client.run_round(ops)
        after = calibrate()
        factor = CALIBRATION_REF_S / (0.5 * (before + after))
        before = after
        raw_rounds.append(raw)
        rounds.append(raw * factor)
        latencies += [x * factor for x in client.latencies[first:]]
        factors.append(factor)
        elapsed = time.perf_counter() - t_start
        next_end = elapsed + statistics.median(raw_rounds)
        if next_end > TIME_CAP_S or (len(client.latencies) >= MIN_OPS
                                     and next_end > args.seconds):
            break
    wall = statistics.fmean(rounds)
    raw_wall = statistics.fmean(raw_rounds)
    lat_ms = 1e3 * np.array(latencies)
    raw_ms = 1e3 * np.array(client.latencies)
    attempted = len(client.latencies)
    correct = True

    print(f"workload {workload.name}, seed {args.seed}: {len(rounds)} rounds "
          f"of {len(ops)} ops, {attempted} ops attempted, {client.failed} "
          f"failed, failed_frac = {client.failed / attempted:.4g}")
    if args.trace:
        del ctx, ops
        gc.collect()
        tracer = tracing.Tracer()
        tracer.install(fd)
        try:
            ctx = workload.build(fd, inputs)
            ops = workload.ops(ctx, inputs)
            gc.collect()
            before = calibrate()
            round_start = time.perf_counter()
            traced_wall = client.run_round(ops)
            traced_factor = CALIBRATION_REF_S / (0.5 * (before + calibrate()))
        finally:
            leftovers = tracer.uninstall(fd)
        attempted = len(client.latencies)
        for problem in leftovers + [f"not traced: {m}" for m in
                                    tracer.missing]:
            print(f"trace: {problem}", file=sys.stderr)
        # A target the library no longer has would read 0, not fail.
        correct = not leftovers and not tracer.missing
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace_{workload.name}.npz"
        tracer.save(trace_file)
        metrics = tracer.metrics(round_start, traced_wall,
                                 traced_wall - wall / traced_factor)
        print(f"traced set-up and round: {metrics['trace.spans']['value']} "
              f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "op_p50_ms": float(np.percentile(lat_ms, 50)),
            "op_p90_ms": float(np.percentile(lat_ms, 90)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in metrics.items()}
        print(f"setup_s is the median of {SETUPS} set-ups, wall_s the mean "
              f"round, op percentiles over {attempted} ops; times at the "
              f"reference speed, machine speed factor "
              f"{min(factors):.3f}..{max(factors):.3f} (median "
              f"{statistics.median(factors):.3f}); unscaled: wall_s "
              f"{raw_wall:.6g} s, op_p50_ms {np.percentile(raw_ms, 50):.6g}, "
              f"op_p90_ms {np.percentile(raw_ms, 90):.6g}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    correct = correct and client.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
