"""The three benchmark workloads: trajectory, sweep and cli.

Each workload has three parts:

* ``inputs(seed, workdir)`` draws every input from the seed with numpy alone,
  before framedyn is imported, and writes the input files the cli needs;
* ``build(fd, inputs)`` is the set-up a user pays once: it builds systems,
  fields and sections through the library and warms the per-ExprFunction
  compile caches;
* ``ops(ctx, inputs)`` returns the round: a fixed, seeded sequence of ops.

An op is a pair of callables.  ``run()`` does the work and returns its
result; ``check(result)`` returns the list of problems found in it, empty when
the result is correct.  Keeping them apart lets the self-test corrupt a result
between the two and see the op counted as failed.

The library is always reached through module attributes looked up at call
time (``fd.integrate``), so wrappers installed by the tracer see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

PI = math.pi
BOX2 = [-2.0, 2.0]
# Sample boxes of the built-in systems: (q box, v^alpha box).
BOXES = {
    "nonholonomic_particle": ([BOX2] * 3, [BOX2] * 2),
    "vertical_disk": ([[-PI, PI]] + [BOX2] * 3, [BOX2] * 2),
    "delta_class": ([BOX2] * 4, [BOX2] * 2),
    "carriage": ([BOX2] * 4 + [[-PI, PI]], [BOX2] * 2),
    "knife_edge": ([BOX2] * 2 + [[-PI, PI]], [BOX2] * 2),
}

# Benchmark systems: key -> (built-in name, parameter overrides, rotated D).
# "special" puts the carriage at the axle offset where the built-in shifted
# momentum section is conserved.  The rotated carriage re-spans D with a
# rotation by theta, which gives larger frame expressions for the same
# dynamics.
SYSTEMS = {
    "particle": ("nonholonomic_particle", None, False),
    "disk": ("vertical_disk", None, False),
    "delta": ("delta_class", None, False),
    "carriage": ("carriage", None, False),
    "carriage_l0": ("carriage", {"l": 0.0}, False),
    "carriage_special": ("carriage", "special", False),
    "carriage_rot": ("carriage", None, True),
}
ROTATION = [["cos(theta)", "-sin(theta)"], ["sin(theta)", "cos(theta)"]]

DEFECT_TOL = 1e-9      # the verdict threshold of `framedyn consistency`
RESIDUAL_RTOL = 1e-10  # oracle residual relative to the size of its terms
CROSS_RTOL = 1e-10     # scalar rate against batched gamma


@dataclass
class Bundle:
    sysd: object
    L: object
    F: object
    split: object
    field: object


@dataclass
class Op:
    label: str
    run: object
    check: object


def _draw_states(rng, system, count):
    qbox, vbox = BOXES[system]
    q = rng.uniform([b[0] for b in qbox], [b[1] for b in qbox],
                    (count, len(qbox)))
    v = rng.uniform([b[0] for b in vbox], [b[1] for b in vbox],
                    (count, len(vbox)))
    return q, v


def _bundle(fd, key):
    name, params, rotated = SYSTEMS[key]
    if params == "special":
        base = fd.builtin("carriage").params
        params = {"l": fd.carriage_special_length(base)}
    sysd = fd.builtin(name, params)
    L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
    if rotated:
        F = fd.change_of_D_basis(F, split, ROTATION)
    return Bundle(sysd, L, F, split, fd.NonholonomicField(L, F, split))


def _section(fd, b, kind):
    return fd.make_section({"kind": kind}, b.L, b.F, b.split,
                           builtin_k=b.sysd.builtin_k)


def _max(x):
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(x))) if x.size else 0.0


def _load_reference():
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


# ---------------------------------------------------------------------------
# trajectory: single states integrated through the compiled scalar route


TRAJ_SYSTEMS = ("particle", "disk", "delta", "carriage", "carriage_rot")
# Per system and round: one RK4 op for each step count below, in seeded
# order, and TRAJ_RK45_PER_SYSTEM DOPRI5 ops.  Varied op sizes keep the
# latency distribution free of gaps at its percentiles; the fixed multiset
# keeps a round's work the same for every seed.
RK4_STEPS = (20, 30, 40, 50, 60)
TRAJ_RK45_PER_SYSTEM = 1
RK4_DT = 1e-3
RK45_T_END = 0.2
RK45_TOL = (1e-10, 1e-12)
TAIL = 4               # final states cross-checked scalar against batched
OBSERVABLES = ("energy", "momenta", "multipliers")


class Trajectory:
    name = "trajectory"

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        specs = []
        for key in TRAJ_SYSTEMS:
            steps = list(rng.permutation(RK4_STEPS)) + [None] * (
                TRAJ_RK45_PER_SYSTEM)
            q, v = _draw_states(rng, SYSTEMS[key][0], len(steps))
            specs += [(key, int(n) if n else None, q[i], v[i])
                      for i, n in enumerate(steps)]
        return [specs[i] for i in rng.permutation(len(specs))]

    def build(self, fd, inputs):
        ctx = {"fd": fd}
        for key in TRAJ_SYSTEMS:
            b = _bundle(fd, key)
            q, v = _draw_states(np.random.default_rng(0), SYSTEMS[key][0], 2)
            b.field.rate(fd.QuasiState.on_C(q[0], v[0], b.split))
            b.field.gamma(fd.QuasiState.on_C(q, v, b.split))
            ctx[key] = b
        return ctx

    def ops(self, ctx, inputs):
        return [self._op(ctx, *spec) for spec in inputs]

    def _op(self, ctx, key, steps, q0, v0):
        """steps is the RK4 step count, or None for a DOPRI5 op."""
        fd, b = ctx["fd"], ctx[key]
        method = "rk4" if steps else "rk45"

        def run():
            if method == "rk4":
                cfg = fd.IntegratorConfig(
                    method="rk4", step=RK4_DT, t_span=(0.0, steps * RK4_DT),
                    observables=OBSERVABLES)
            else:
                cfg = fd.IntegratorConfig(
                    method="rk45", rtol=RK45_TOL[0], atol=RK45_TOL[1],
                    t_span=(0.0, RK45_T_END), observables=OBSERVABLES)
            state = fd.QuasiState.on_C(q0, v0, b.split)
            traj = fd.integrate(b.field, b.F, b.split, state, cfg)
            drift = fd.drift_report(traj, b.L, b.F, b.split)
            q, v = traj.q[-TAIL:], traj.v[-TAIL:]
            scalar = np.array([
                b.field.rate(fd.QuasiState.on_C(q[i], v[i], b.split))[1]
                for i in range(len(q))])
            batched = b.field.gamma(fd.QuasiState.on_C(q, v, b.split))
            return {"traj": traj, "drift": drift, "scalar": scalar,
                    "batched": batched, "t_end": cfg.t_span[1]}

        def check(res):
            traj, drift = res["traj"], res["drift"]
            problems = []
            if method == "rk4" and len(traj.times) != steps + 1:
                problems.append(f"{len(traj.times)} samples, "
                                f"expected {steps + 1}")
            if abs(traj.times[-1] - res["t_end"]) > 1e-12:
                problems.append(f"ended at t = {traj.times[-1]}")
            obs = traj.observables
            if "energy" not in obs or not all(
                    np.all(np.isfinite(c)) for c in obs.values()):
                problems.append("observables missing or not finite")
                return problems
            energy = np.asarray(obs["energy"])
            lam = [c for k, c in obs.items() if k.startswith("lambda")]
            scale = 1.0 + _max(energy) + _max(lam)
            for name in ("max_residual_fundamental", "max_residual_hamel"):
                if not drift[name] <= RESIDUAL_RTOL * scale:
                    problems.append(f"{name} = {drift[name]:.3e}")
            drift_tol = (1e-10 if method == "rk4" else 1e-8) * (
                1.0 + abs(energy[0]))
            if not drift["energy_drift"] <= drift_tol:
                problems.append(f"energy drift {drift['energy_drift']:.3e}")
            scalar, batched = res["scalar"], res["batched"]
            if not (scalar.shape == batched.shape and np.all(
                    np.abs(scalar - batched)
                    <= CROSS_RTOL * (1.0 + np.abs(scalar)))):
                problems.append("batched gamma differs from scalar rate")
            return problems

        return Op(f"{key}/{method}/{steps or ''}", run, check)


# ---------------------------------------------------------------------------
# sweep: identities verified over seeded batches through the tree route


# (system, section, batch sizes): each pair runs one op per batch size per
# round.  The sizes make the 24 op costs an even ladder from about 60 to 330
# ms at the commit that added the benchmark, so the latency distribution has
# no gap at its percentiles; they do not depend on the seed.
SWEEP_PAIRS = (
    ("particle", "zero", (1030, 1230)),
    ("particle", "momentum", (1320, 1510)),
    ("delta", "zero", (1170, 1300)),
    ("delta", "momentum", (1270, 1380)),
    ("disk", "zero", (1450, 1560)),
    ("disk", "momentum", (1560, 1660)),
    ("carriage", "zero", (980, 1030)),
    ("carriage_l0", "momentum", (1010, 1070)),
    ("carriage", "momentum", (1110, 1170)),
    ("carriage_special", "momentum_shifted", (1190, 1240)),
    ("carriage", "momentum_shifted", (1270, 1320)),
    ("carriage_rot", "momentum", (870, 910)),
)


def consistency_verdict(weak, strong):
    """The verdict rule of `framedyn consistency`."""
    if _max(weak) > DEFECT_TOL:
        return "inconsistent"
    if _max(strong) > DEFECT_TOL:
        return "weakly_consistent"
    return "strongly_consistent"


def sweep_verdicts(res):
    out = {
        "consistency": consistency_verdict(res["report"].weak_defect,
                                           res["report"].strong_defect),
        "prop6": "zero" if _max(res["prop6"]) <= DEFECT_TOL else "nonzero",
    }
    if res["k_check"] is not None:
        out["k_conserved"] = bool(res["k_check"]["conserved"])
    return out


class Sweep:
    name = "sweep"

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        specs = []
        for key, kind, sizes in SWEEP_PAIRS:
            for size in sizes:
                q, v = _draw_states(rng, SYSTEMS[key][0], size)
                specs.append((key, kind, q, v))
        return [specs[i] for i in rng.permutation(len(specs))]

    def build(self, fd, inputs):
        ctx = {"fd": fd, "reference": _load_reference().get("sweep", {})}
        for key in dict.fromkeys(k for k, _, _ in SWEEP_PAIRS):
            ctx[key] = _bundle(fd, key)
        for key, kind, _ in SWEEP_PAIRS:
            ctx[key, kind] = _section(fd, ctx[key], kind)
        # one small batch per pair touches every code path once
        for key, kind, _ in SWEEP_PAIRS:
            q, v = _draw_states(np.random.default_rng(0), SYSTEMS[key][0], 2)
            self._op(ctx, key, kind, q, v).run()
        return ctx

    def ops(self, ctx, inputs):
        return [self._op(ctx, *spec) for spec in inputs]

    def _op(self, ctx, key, kind, q, v):
        fd, b, section = ctx["fd"], ctx[key], ctx[key, kind]
        label = f"{key}/{kind}"

        def run():
            s = fd.QuasiState.on_C(q, v, b.split)
            args = (b.L, b.F, b.split)
            res = {
                "state": s,
                "gamma": b.field.gamma(s),
                "lambda": b.field.multipliers(s),
                "report": fd.consistency_report(*args, section, s),
                "solution": fd.solve_gamma_C(*args, section, s),
                "prop6": fd.prop6_scalar(*args, s),
                "k_check": None,
            }
            if kind == "momentum_shifted":
                res["k_check"] = fd.chaplygin.gamma_k_residual(
                    *args, section, [s])
            res["verdicts"] = sweep_verdicts(res)
            return res

        def check(res):
            s, gamma = res["state"], res["gamma"]
            problems = []
            scale = (1.0 + _max(gamma) + _max(res["lambda"])
                     + _max(s.v) ** 2)
            for oracle in ("residual_fundamental", "residual_hamel",
                           "constrained_form_residual"):
                r = getattr(b.field, oracle)(s, gamma=gamma)
                if not _max(r) <= RESIDUAL_RTOL * scale:
                    problems.append(f"{oracle} = {_max(r):.3e} "
                                    f"(scale {scale:.3g})")
            sol = res["solution"]
            for name, arr in (("Gamma_C", sol.gamma_C), ("A", sol.A),
                              ("Lambda", sol.Lambda)):
                if not np.all(np.isfinite(arr)):
                    problems.append(f"{name} not finite")
            if kind == "zero":
                err = np.abs(sol.gamma_C - gamma)
                if not np.all(err <= 1e-12 * (1.0 + np.abs(gamma))):
                    problems.append(f"zero-section Gamma_C differs from "
                                    f"Gamma by {_max(err):.3e}")
            expected = ctx["reference"].get(label)
            if expected is None:
                problems.append("no recorded verdicts")
            elif res["verdicts"] != expected:
                problems.append(f"verdicts {res['verdicts']} != recorded "
                                f"{expected}")
            return problems

        return Op(label, run, check)


# ---------------------------------------------------------------------------
# cli: in-process command-line calls, each building its system afresh


CLI_POOL_SEED = 20260917
CLI_POOL_VARIANTS = 4
CLI_SAMPLES = 80
CLI_GRID_POINTS = 50
CLI_RK4_T_END = 0.03
CLI_RK45_T_END = 0.1

KNIFE_EDGE = {
    "name": "knife_edge", "n": 3, "m": 2,
    "coords": ["x", "y", "th"], "velocities": ["ux", "uy", "uth"],
    "frame": [["cos(th)", "sin(th)", "0"], ["0", "0", "1"],
              ["-sin(th)", "cos(th)", "0"]],
    "lagrangian": "(mass/2)*(ux*ux + uy*uy) + (inertia/2)*uth*uth",
    "params": {"mass": 1.5, "inertia": 0.7},
}
KNIFE_SECTION = {"kind": "custom", "phi": ["mass*v1*v2"]}
BUILTINS = ("nonholonomic_particle", "vertical_disk", "delta_class",
            "carriage")

# One slot per op in a round: (command, system, option).  Each slot has
# CLI_POOL_VARIANTS input variants drawn from CLI_POOL_SEED; a run's seed
# picks one variant per slot and the order of the slots.
CLI_SLOTS = (
    [("simulate", s, combo) for s, combos in zip(BUILTINS, (
        (("rk4", "csv"), ("rk45", "json")),
        (("rk4", "json"), ("rk45", "csv")),
        (("rk4", "csv"), ("rk45", "json")),
        (("rk4", "json"), ("rk45", "csv")))) for combo in combos]
    + [("consistency", s, sec) for s in BUILTINS
       for sec in ("zero", "momentum")]
    + [("consistency", "carriage", "momentum_shifted"),
       ("consistency", "knife_edge", "custom")]
    + [("derive", s, "samples") for s in BUILTINS]
    + [("derive", s, "grid") for s in ("nonholonomic_particle",
                                       "delta_class", "carriage",
                                       "knife_edge")]
)


def slot_label(cmd, system, opt):
    return f"{cmd}/{system}/{'-'.join(opt) if cmd == 'simulate' else opt}"


def cli_pool():
    """Every (slot, variant) input, keyed by a stable id."""
    rng = np.random.default_rng(CLI_POOL_SEED)
    pool = {}
    for cmd, system, opt in CLI_SLOTS:
        for var in range(CLI_POOL_VARIANTS):
            key = f"{slot_label(cmd, system, opt)}/{var}"
            entry = {"cmd": cmd, "system": system, "opt": opt}
            if cmd == "simulate":
                q, v = _draw_states(rng, system, 1)
                entry.update(q0=q[0].tolist(), v0=v[0].tolist())
            elif cmd == "consistency" or opt == "samples":
                entry["seed"] = int(rng.integers(0, 10_000))
            else:
                q, v = _draw_states(rng, system, CLI_GRID_POINTS)
                entry["points"] = np.concatenate([q, v], axis=1).tolist()
            pool[key] = entry
    return pool


def _nums(text):
    return ",".join(repr(float(x)) for x in text)


def cli_argv(entry, workdir, key):
    """The argument list of a pool entry; writes its input files."""
    cmd, system, opt = entry["cmd"], entry["system"], entry["opt"]
    stem = key.replace("/", "_")
    sysarg = system
    if system == "knife_edge":
        sysarg = str(workdir / "knife_edge.json")
        if not os.path.exists(sysarg):
            with open(sysarg, "w") as fh:
                json.dump(KNIFE_EDGE, fh)
    argv = [cmd, "--system", sysarg]
    if cmd == "simulate":
        method, fmt = opt
        argv += [f"--q0={_nums(entry['q0'])}", f"--v0={_nums(entry['v0'])}",
                 "--method", method, "--format", fmt]
        if method == "rk4":
            argv += ["--t-end", repr(CLI_RK4_T_END), "--dt", "0.001"]
        else:
            argv += ["--t-end", repr(CLI_RK45_T_END), "--rtol", "1e-10",
                     "--atol", "1e-12"]
        out = workdir / f"{stem}.{fmt}"
    elif cmd == "consistency":
        section = json.dumps(KNIFE_SECTION) if opt == "custom" else opt
        argv += ["--section", section, "--samples", str(CLI_SAMPLES),
                 "--seed", str(entry["seed"])]
        out = workdir / f"{stem}.json"
    elif opt == "samples":
        argv += ["--samples", str(CLI_SAMPLES), "--seed", str(entry["seed"])]
        out = workdir / f"{stem}.csv"
    else:
        grid = workdir / f"{stem}.grid.json"
        with open(grid, "w") as fh:
            json.dump({"points": entry["points"]}, fh)
        argv += ["--grid", str(grid)]
        out = workdir / f"{stem}.csv"
    return argv + ["--out", str(out)], out


def run_cli(fd, argv):
    """framedyn.cli.main in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = fd.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV row")
    return header, rows


def cli_summary(entry, stdout, out_path):
    """What a cli op is judged by: (summary, noise).  The summary is compared
    with the output recorded at the seed commit; noise holds rounding-level
    numbers, which are only held under bounds.  Raises when an output does
    not parse."""
    cmd, opt = entry["cmd"], entry["opt"]
    summary, noise = {}, {}
    if cmd == "simulate":
        report = json.loads(stdout)
        if opt[1] == "csv":
            header, rows = _read_csv(out_path)
        else:
            with open(out_path) as fh:
                doc = json.load(fh)
            header = [k for k in doc if k != "_meta"]
            rows = [list(r) for r in zip(*(doc[k] for k in header))]
        summary.update(header=header, rows=len(rows), final=rows[-1],
                       samples=report["samples"])
        noise.update(residual=max(report["max_residual_fundamental"],
                                  report["max_residual_hamel"]),
                     energy_drift=report["energy_drift"])
    elif cmd == "consistency":
        with open(out_path) as fh:
            doc = json.load(fh)
        picks = list(range(0, CLI_SAMPLES, CLI_SAMPLES // 4))
        summary.update(
            verdict=doc["verdict"], samples=doc["samples"],
            max_weak_defect=doc["max_weak_defect"],
            max_strong_defect=doc["max_strong_defect"],
            max_tangency_defect=doc["max_tangency_defect"],
            weak_defect=[doc["weak_defect"][i] for i in picks],
            strong_defect=[doc["strong_defect"][i] for i in picks])
        if "prop6_scalar" in doc:
            summary["prop6_scalar"] = [doc["prop6_scalar"][i] for i in picks]
        if "k_conserved" in doc:
            summary["k_conserved"] = doc["k_conserved"]
            summary["gamma_k_residual"] = doc["gamma_k_residual"]
    else:
        header, rows = _read_csv(out_path)
        n = len(rows)
        summary.update(header=header, rows=n,
                       picked=[rows[i] for i in sorted({0, n // 2, n - 1})])
    return summary, noise


def compare(got, want, rtol, path="$"):
    """Differences between two summaries: strings, booleans and integers
    exactly, floats within rtol of the recorded value (absolutely below 1)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [p for k in want for p in compare(got[k], want[k], rtol,
                                                 f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, rtol, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        if abs(got - want) <= rtol * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


class Cli:
    name = "cli"

    def inputs(self, seed, workdir):
        rng = np.random.default_rng(seed)
        pool = cli_pool()
        picks = [f"{slot_label(*slot)}/{int(rng.integers(CLI_POOL_VARIANTS))}"
                 for slot in CLI_SLOTS]
        return [(key, pool[key]) + cli_argv(pool[key], workdir, key)
                for key in (picks[i] for i in rng.permutation(len(picks)))]

    def build(self, fd, inputs):
        fd.cli.build_parser()
        key, entry, argv, out = next(
            spec for spec in inputs if spec[1]["cmd"] == "derive")
        run_cli(fd, argv)
        return {"fd": fd, "reference": _load_reference().get("cli", {})}

    def ops(self, ctx, inputs):
        return [self._op(ctx, *spec) for spec in inputs]

    def _op(self, ctx, key, entry, argv, out):
        fd = ctx["fd"]
        rk45 = entry["cmd"] == "simulate" and entry["opt"][0] == "rk45"

        def run():
            if os.path.exists(out):
                os.remove(out)
            code, stdout, stderr = run_cli(fd, argv)
            return {"code": code, "stdout": stdout, "stderr": stderr,
                    "out": out}

        def check(res):
            if res["code"] != 0:
                return [f"exit code {res['code']}: {res['stderr'].strip()}"]
            summary, noise = cli_summary(entry, res["stdout"], res["out"])
            want = ctx["reference"].get(key)
            if want is None:
                return ["no recorded output"]
            problems = []
            if noise:
                scale = 1.0 + max(abs(x) for x in summary["final"])
                bound = (1e-8 if rk45 else 1e-10) * scale
                problems += [f"{name} = {val:.3e} above {bound:.3e}"
                             for name, val in noise.items()
                             if not val <= bound]
            diffs = compare(summary, want, 1e-7 if rk45 else 1e-9)
            if len(diffs) > 3:
                diffs = diffs[:3] + [f"{len(diffs) - 3} more differences"]
            return problems + diffs

        return Op(key, run, check)


WORKLOADS = {w.name: w for w in (Trajectory(), Sweep(), Cli())}
