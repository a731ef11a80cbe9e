"""Dump the outputs that a change must keep ==, or compare two dumps.

    python tools/dump_outputs.py dump OUT.npz
    python tools/dump_outputs.py compare PARENT.npz CHANGE.npz

`dump` imports framedyn from the checkout this file lives in (its `src/`)
and writes one array per output to OUT.npz:

* on the four built-ins, the carriage with D rotated by theta and the
  carriage at the special length l*, at 40 seeded states, batched and one
  state at a time: Gamma, lambda, R, the three residuals at the solved
  Gamma and at a seeded trial Gamma (the `gamma=` override), `prop6_scalar`,
  `gamma_k_residual`; `consistency_report`, `solve_gamma_C` and
  `gamma_bar_tangency` for the zero, momentum and shifted momentum
  sections; `el_field` of L and of the variational Lagrangian of both
  momentum sections;
* on the same systems, `verify_chaplygin` at the 40 states, batched and
  one state at a time;
* on the same systems, an RK4 and a DOPRI5 trajectory with every
  observable, the defects of the shifted section included, and its
  `drift_report`;
* the `IntegrationError` message and time of five runs that must stop, on
  RK4 and DOPRI5: a non-finite rate, a singular g_D, a singular frame, a
  math domain fault and a non-finite step;
* the result of every op of the `trajectory`, `sweep` and `cli` benchmark
  workloads (bench/workloads.py) at seeds 1 and 5;
* the exit code, stdout, stderr and output file of a set of `framedyn`
  commands.

`compare` checks the two dumps key by key: the same keys, and for each the
same dtype, the same shape and values equal under `np.array_equal` (NaN
equal to NaN).  It prints every difference and exits 1 if there is one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
STATES = 40
SEEDS = (1, 5)


def _framedyn():
    sys.path.insert(0, str(ROOT / "src"))
    import framedyn
    import framedyn.cli  # noqa: F401  (the bench reaches it as fd.cli)

    if Path(framedyn.__file__).resolve().parent != ROOT / "src" / "framedyn":
        raise SystemExit(f"framedyn was imported from {framedyn.__file__}")
    return framedyn


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _flatten(prefix, obj, out, work):
    """Store obj under prefix as arrays: containers and dataclasses key by
    key, text with the work directory replaced, other objects by type."""
    if isinstance(obj, dict):
        for k, x in obj.items():
            _flatten(f"{prefix}/{k}", x, out, work)
    elif isinstance(obj, (list, tuple)) and any(
            isinstance(x, (dict, list, tuple, str)) or x is None
            or dataclasses.is_dataclass(x) for x in obj):
        for i, x in enumerate(obj):
            _flatten(f"{prefix}/{i}", x, out, work)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _flatten(f"{prefix}/{f.name}", getattr(obj, f.name), out, work)
    elif isinstance(obj, str):
        out[prefix] = np.array(obj.replace(str(work), "<work>"))
    elif obj is None or isinstance(obj, (bool, int, float, np.ndarray,
                                         np.generic, list, tuple)):
        out[prefix] = np.asarray(obj if obj is not None else "None")
    else:
        out[prefix] = np.array(type(obj).__name__)


def _gate_systems(fd):
    out = [(name, fd.builtin(name)) for name in fd.BUILTIN_NAMES]
    carriage = fd.builtin("carriage")
    out.append(("carriage_rotated", carriage, fd.change_of_D_basis(
        carriage.frame(), carriage.split(),
        [["cos(theta)", "-sin(theta)"], ["sin(theta)", "cos(theta)"]])))
    lstar = fd.carriage_special_length(carriage.params)
    out.append(("carriage_lstar", fd.builtin("carriage", {"l": lstar})))
    return [(g[0], g[1], g[1].lagrangian(),
             g[2] if len(g) > 2 else g[1].frame(), g[1].split())
            for g in out]


def _sections(fd, sysd, L, F, split):
    k = sysd.builtin_k or ["v1"] * split.n_constraints
    return {"zero": fd.ZeroSection(F, split),
            "momentum": fd.MomentumSection(L, F, split),
            "shifted": fd.ShiftedMomentumSection(L, F, split, k)}


RESIDUALS = ("residual_fundamental", "residual_hamel",
             "constrained_form_residual")


def _state_outputs(fd, sysd, L, F, split, s, delta):
    """Every state output of the gate list at s, in a fixed call order;
    the residuals also at the trial coefficients Gamma + delta."""
    args = (L, F, split)
    field = fd.NonholonomicField(*args)
    sections = _sections(fd, sysd, *args)
    out = {"gamma": field.gamma(s), "lambda": field.multipliers(s),
           "R": field._context(s).R.copy()}
    for name in RESIDUALS:
        out[name] = getattr(field, name)(s)
    trial = out["gamma"] + delta
    for name in RESIDUALS:
        out[f"{name}.trial"] = getattr(field, name)(s, gamma=trial)
    out["prop6_scalar"] = fd.prop6_scalar(*args, s)
    out["gamma_k_residual"] = fd.chaplygin.gamma_k_residual(
        *args, sections["shifted"], [s])["max_gamma_k"]
    for name, sec in sections.items():
        rep = fd.consistency_report(*args, sec, s)
        sol = fd.solve_gamma_C(*args, sec, s)
        out.update({f"{name}.weak": rep.weak_defect,
                    f"{name}.strong": rep.strong_defect,
                    f"{name}.tangency": rep.tangency_defect,
                    f"{name}.gamma_C": sol.gamma_C, f"{name}.A": sol.A,
                    f"{name}.Lambda": sol.Lambda,
                    f"{name}.gamma_bar": fd.gamma_bar_tangency(*args, sec,
                                                               s)})
    p = fd.velocities_from_quasi(F, s)
    out["el_field"] = fd.el_field(L, F, p)
    for name in ("momentum", "shifted"):
        out[f"el_field.{name}"] = fd.el_field(fd.VariationalLagrangian(
            *args, sections[name]), F, p)
    return out


def _dump_states(fd, out, work):
    for name, sysd, L, F, split in _gate_systems(fd):
        S = fd.sample_states(sysd, STATES, seed=17)
        delta = np.random.default_rng(23).normal(0.0, 0.1, (STATES, split.m))
        batched = _state_outputs(fd, sysd, L, F, split, S, delta)
        single = [_state_outputs(fd, sysd, L, F, split, fd.QuasiState(
            S.q[i].copy(), S.v[i].copy()), delta[i]) for i in range(STATES)]
        for key, value in batched.items():
            out[f"states/{name}/batched/{key}"] = np.asarray(value)
            out[f"states/{name}/single/{key}"] = np.stack(
                [np.asarray(x[key]) for x in single])
        for route, states in (("batched", [S]), ("single", [
                fd.QuasiState(S.q[i].copy(), S.v[i].copy())
                for i in range(STATES)])):
            _flatten(f"states/{name}/{route}/verify_chaplygin",
                     fd.verify_chaplygin(L, F, split, sysd.chaplygin,
                                         states), out, work)


def _dump_trajectories(fd, out, work):
    for name, sysd, L, F, split in _gate_systems(fd):
        field = fd.NonholonomicField(L, F, split)
        S = fd.sample_states(sysd, 1, seed=3)
        section = _sections(fd, sysd, L, F, split)["shifted"]
        for method, extra in (("rk4", {"step": 1e-3, "t_span": (0.0, 0.1)}),
                              ("rk45", {"rtol": 1e-10, "atol": 1e-12,
                                        "t_span": (0.0, 0.2)})):
            cfg = fd.IntegratorConfig(
                method=method, section=section,
                observables=("energy", "momenta", "multipliers", "defects"),
                **extra)
            traj = fd.integrate(field, F, split, fd.QuasiState(
                S.q[0].copy(), S.v[0].copy()), cfg)
            prefix = f"trajectory/{name}/{method}"
            _flatten(prefix, traj, out, work)
            _flatten(f"{prefix}/drift", fd.drift_report(traj, L, F, split),
                     out, work)


def _failing_runs(fd):
    """(label, field, frame, split, initial state, config kwargs) of runs
    that stop with IntegrationError, at t = 0 or part way."""
    coords, vels = ["q1", "q2"], ["u1", "u2"]
    identity = fd.Frame([["1", "0"], ["0", "1"]], coords)
    kinetic = fd.Lagrangian("(u1*u1 + u2*u2)/2", coords, vels)
    particle = fd.builtin("nonholonomic_particle")
    cases = [
        ("non_finite_rate", particle.lagrangian(), particle.frame(),
         particle.split(), [0.1, 0.2, 0.3], [1e160, 1e160], {}),
        ("singular_g_D", fd.Lagrangian("(pow(q2, 8)*u1*u1 + u2*u2)/2",
                                       coords, vels),
         identity, fd.ConstraintSplit(2, 2), [0.0, 0.2], [0.0, -1.0], {}),
        ("singular_frame", kinetic,
         fd.Frame([["1", "0"], ["0", "pow(q1, 6)"]], coords),
         fd.ConstraintSplit(2, 1), [0.04, 0.0], [-1.0], {}),
        ("domain_fault", fd.Lagrangian("(u1*u1 + u2*u2)/2 - sqrt(q1)",
                                       coords, vels),
         identity, fd.ConstraintSplit(2, 1), [0.04, 0.0], [-1.0], {}),
        ("non_finite_step", kinetic, identity, fd.ConstraintSplit(2, 2),
         [1.5e308, 0.0], [1.5e308, 0.0], {"step": 0.5}),
    ]
    return [(label, fd.NonholonomicField(L, F, split), F, split,
             fd.QuasiState.on_C(np.array(q), np.array(v), split), kwargs)
            for label, L, F, split, q, v, kwargs in cases]


def _dump_failures(fd, out, work):
    for label, field, F, split, s0, kwargs in _failing_runs(fd):
        for method in ("rk4", "rk45"):
            cfg = fd.IntegratorConfig(method=method, t_span=(0.0, 1.0),
                                      observables=(), **kwargs)
            try:
                with np.errstate(all="ignore"):
                    fd.integrate(field, F, split, s0, cfg)
            except fd.IntegrationError as exc:
                result = {"error": type(exc).__name__, "message": str(exc),
                          "t": exc.t}
            else:
                result = {"error": "None"}
            _flatten(f"failure/{label}/{method}", result, out, work)


def _dump_workloads(fd, out, work):
    workloads = _workloads()
    for seed in SEEDS:
        for wname, workload in workloads.WORKLOADS.items():
            workdir = work / f"{wname}-{seed}"
            workdir.mkdir()
            inputs = workload.inputs(seed, workdir)
            ctx = workload.build(fd, inputs)
            for i, op in enumerate(workload.ops(ctx, inputs)):
                result = op.run()
                prefix = f"workload/{wname}/{seed}/{i}:{op.label}"
                _flatten(prefix, result, out, work)
                _flatten(f"{prefix}/problems", list(op.check(result)), out,
                         work)
                if wname == "cli":
                    _flatten(f"{prefix}/file", Path(result["out"]).read_text(),
                             out, work)


CLI_COMMANDS = (
    ["consistency", "--system", "carriage", "--samples", "30"],
    ["consistency", "--system", "carriage", "--section", "momentum_shifted",
     "--samples", "30", "--seed", "4"],
    ["consistency", "--system", "vertical_disk", "--section", "zero",
     "--samples", "30"],
    ["consistency", "--system", "delta_class", "--set", "I3=2",
     "--samples", "30"],
    ["derive", "--system", "nonholonomic_particle", "--samples", "20"],
    ["derive", "--system", "carriage", "--set", "l=0.5", "--samples", "20"],
    ["simulate", "--system", "carriage", "--t-end", "0.05"],
    ["simulate", "--system", "vertical_disk", "--method", "rk45",
     "--t-end", "0.1", "--format", "json"],
    ["systems", "show", "carriage", "--set", "l=0.25"],
    ["systems", "list"],
)


def _dump_cli(fd, out, work):
    for i, argv in enumerate(CLI_COMMANDS):
        target = work / f"cli{i}.out"
        if argv[0] in ("consistency", "derive", "simulate"):
            argv = argv + ["--out", str(target)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = fd.cli.main(argv)
        files = sorted(work.glob(f"cli{i}.out*"))
        _flatten(f"cli/{i}:{' '.join(argv[:3])}", {
            "code": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(),
            "files": [f.read_text() for f in files]}, out, work)


def dump(path):
    fd = _framedyn()
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in (_dump_states, _dump_trajectories, _dump_failures,
                     _dump_workloads, _dump_cli):
            part(fd, out, work)
    np.savez(path, **out)
    print(f"{len(out)} outputs written to {path}")


def compare(a_path, b_path):
    a, b = np.load(a_path), np.load(b_path)
    problems = [f"only in {a_path}: {k}" for k in sorted(set(a) - set(b))]
    problems += [f"only in {b_path}: {k}" for k in sorted(set(b) - set(a))]
    for key in sorted(set(a) & set(b)):
        x, y = a[key], b[key]
        if x.dtype != y.dtype or x.shape != y.shape:
            problems.append(f"{key}: {x.dtype}{x.shape} != {y.dtype}{y.shape}")
        elif not np.array_equal(x, y, equal_nan=x.dtype.kind in "fc"):
            problems.append(f"{key}: values differ")
    for p in problems:
        print(p)
    print(f"{len(set(a) & set(b))} outputs compared, {len(problems)} "
          "differences")
    return 1 if problems else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["dump"] and len(argv) == 2:
        dump(argv[1])
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
