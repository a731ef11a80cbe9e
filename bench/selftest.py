"""Checks on the benchmark itself.

    python3 bench/selftest.py

* Every correctness check is live: an untouched op passes, and the same op
  with a corrupted result (a perturbed Gamma, a wrong verdict, a truncated
  output file, ...) is counted as failed by the client that counts
  failed_frac.
* The tracer restores every original function and leaves no wrapper behind,
  and its counts repeat exactly when the same traced round runs twice.
* A traced run in which a traced function is missing from the library
  reports correct = false.
* The per-layer metric names and units agree with BENCHMARK.json.
* In a directory holding only BENCHMARK.json and bench/, a run exits with a
  non-zero code and prints no result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

import numpy as np  # noqa: E402

FAILURES = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def counted_failed(op, tamper):
    client = run.Client()
    client.run_round([op], tamper=tamper)
    return client.failed == 1


def _perturb(arr, rel=1e-6):
    arr += rel * (1.0 + np.abs(arr))


def _truncate(path):
    size = os.path.getsize(path)
    with open(path, "r+") as fh:
        fh.truncate(size // 2)


def _rewrite_json(path, key, value):
    with open(path) as fh:
        doc = json.load(fh)
    doc[key] = value
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _pick(ops, pred):
    return next(op for op in ops if pred(op.label))


def liveness(fd, workdir):
    name = "trajectory"
    w = wl.WORKLOADS[name]
    inputs = w.inputs(0, workdir)
    ops = w.ops(w.build(fd, inputs), inputs)
    rk4 = _pick(ops, lambda lab: "/rk4/" in lab)
    rk45 = _pick(ops, lambda lab: "/rk45/" in lab)
    for op in (rk4, rk45):
        expect(not run.execute(op), f"{name} {op.label}: untouched op passes")
    cases = {
        "perturbed scalar Gamma": lambda r: _perturb(r["scalar"]),
        "perturbed batched Gamma": lambda r: _perturb(r["batched"]),
        "residual above bound": lambda r: r["drift"].update(
            max_residual_hamel=1e-6),
        "energy drift above bound": lambda r: r["drift"].update(
            energy_drift=1e-6),
        "non-finite observable": lambda r: r["traj"].observables[
            "energy"].__setitem__(-1, np.nan),
        "truncated trajectory": lambda r: setattr(
            r["traj"], "times", r["traj"].times[:-1]),
    }
    for what, tamper in cases.items():
        expect(counted_failed(rk4, tamper), f"{name}: {what} is counted failed")

    name = "sweep"
    w = wl.WORKLOADS[name]
    inputs = w.inputs(0, workdir)
    ops = w.ops(w.build(fd, inputs), inputs)
    zero = _pick(ops, lambda lab: lab.endswith("/zero"))
    shifted = _pick(ops, lambda lab: lab.endswith("/momentum_shifted"))
    for op in (zero, shifted):
        expect(not run.execute(op), f"{name} {op.label}: untouched op passes")
    cases = {
        "perturbed Gamma": lambda r: _perturb(r["gamma"]),
        "perturbed Gamma_C": lambda r: _perturb(r["solution"].gamma_C),
        "wrong consistency verdict": lambda r: r["verdicts"].update(
            consistency="strongly_consistent"
            if r["verdicts"]["consistency"] != "strongly_consistent"
            else "inconsistent"),
        "wrong prop6 verdict": lambda r: r["verdicts"].update(
            prop6="zero" if r["verdicts"]["prop6"] != "zero" else "nonzero"),
        "non-finite multiplier rate": lambda r: r["solution"].A.__setitem__(
            (0, 0), np.nan),
    }
    for what, tamper in cases.items():
        expect(counted_failed(zero, tamper), f"{name}: {what} is counted failed")
    expect(counted_failed(shifted, lambda r: r["verdicts"].update(
        k_conserved=not r["verdicts"]["k_conserved"])),
        f"{name}: wrong conservation verdict is counted failed")
    expect(counted_failed(shifted, lambda r: _perturb(r["gamma"], 1e-7)),
           f"{name}: Gamma perturbed by 1e-7 is counted failed")

    name = "cli"
    w = wl.WORKLOADS[name]
    inputs = w.inputs(0, workdir)
    ops = w.ops(w.build(fd, inputs), inputs)
    picks = {
        "simulate csv": _pick(ops, lambda lab: lab.startswith("simulate")
                              and "csv" in lab),
        "simulate json": _pick(ops, lambda lab: lab.startswith("simulate")
                               and "json" in lab),
        "consistency": _pick(ops, lambda lab: lab.startswith("consistency")),
        "derive": _pick(ops, lambda lab: lab.startswith("derive")),
    }
    for what, op in picks.items():
        expect(not run.execute(op), f"{name} {op.label}: untouched op passes")
        expect(counted_failed(op, lambda r: _truncate(r["out"])),
               f"{name} {what}: truncated output file is counted failed")
    op = picks["consistency"]
    expect(counted_failed(op, lambda r: _rewrite_json(
        r["out"], "verdict", "strongly_consistent_")),
        f"{name}: wrong verdict string is counted failed")
    expect(counted_failed(op, lambda r: _rewrite_json(
        r["out"], "max_weak_defect", 1.5)),
        f"{name}: wrong number is counted failed")
    expect(counted_failed(op, lambda r: r.update(code=1)),
           f"{name}: non-zero exit code is counted failed")
    expect(counted_failed(picks["simulate csv"],
                          lambda r: r.update(stdout=r["stdout"][:-10])),
           f"{name}: truncated report on stdout is counted failed")


def traced_round(fd, name, workdir):
    w = wl.WORKLOADS[name]
    inputs = w.inputs(0, workdir)
    tracer = tracing.Tracer()
    tracer.install(fd)
    try:
        client = run.Client()
        client.run_round(w.ops(w.build(fd, inputs), inputs))
    finally:
        leftovers = tracer.uninstall(fd)
    return tracer, client, leftovers


def tracer_checks(fd, workdir):
    originals = {}
    for modname, owner, attr, _ in tracing.TARGETS:
        mod = sys.modules[f"framedyn.{modname}"]
        obj = mod if owner is None else getattr(mod, owner)
        originals[modname, owner, attr] = tracing.raw_attribute(obj, attr)
    for name in wl.WORKLOADS:
        first, client, leftovers = traced_round(fd, name, workdir)
        expect(not first.missing, f"{name}: every trace target exists")
        expect(client.failed == 0, f"{name}: traced round has no failures")
        expect(not leftovers, f"{name}: no wrapper left after uninstall")
        restored = all(
            tracing.raw_attribute(sys.modules[f"framedyn.{m}"] if o is None else
                         getattr(sys.modules[f"framedyn.{m}"], o), a) is raw
            for (m, o, a), raw in originals.items())
        expect(restored, f"{name}: every original function is restored")
        second, _, _ = traced_round(fd, name, workdir)
        a, b = first.summary()["calls"], second.summary()["calls"]
        expect(a == b and first.integrations == second.integrations
               and first.env_states == second.env_states,
               f"{name}: counts repeat exactly across two traced rounds")


def missing_target_check():
    """Re-imports framedyn, so it runs after the checks that hold fd."""
    bogus = ("exprlang", None, "no_such_function", "exprlang.parse")
    tracing.TARGETS.append(bogus)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "cli", "--seed", "1",
                             "--seconds", "1", "--trace", "1"])
    finally:
        tracing.TARGETS.remove(bogus)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(code == 0 and result["failed"] == 0 and not result["correct"],
           "traced run with a missing target: correct is false")


def benchmark_json_checks():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    expect(listed == tracing.PER_LAYER,
           "BENCHMARK.json per_layer matches tracing.PER_LAYER")
    expect({m["name"] for m in spec["end_to_end"]} == set(run.E2E_UNITS),
           "BENCHMARK.json end_to_end matches run.E2E_UNITS")
    expect({w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")


def empty_checkout_check():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare checkout: exit {proc.returncode}, no result printed")


def main():
    fd = run.import_framedyn()
    workdir = run.OUT / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        liveness(fd, workdir)
        tracer_checks(fd, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing_target_check()
    benchmark_json_checks()
    empty_checkout_check()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES
          else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
