"""Dump the outputs that a change must keep ==, or compare two dumps.

    python tools/dump_outputs.py dump OUT.npz
    python tools/dump_outputs.py codes OUT.json
    python tools/dump_outputs.py compare PARENT.npz CHANGE.npz
    python tools/dump_outputs.py compare PARENT.json CHANGE.json

`dump` imports framedyn from the checkout this file lives in (its `src/`)
and writes one array per output to OUT.npz:

* on the four built-ins, the carriage with D rotated by theta and the
  carriage at the special length l*, at 40 seeded states, batched and one
  state at a time: Gamma, lambda, R, R v (`Rv`, read first on a context
  of its own, a fresh copy of the state, so that no earlier read can
  choose its route), `det_D`, `det_Dperp` and `det_g` of the state
  context's regularity report, `quasi_velocities` of the state's
  base velocity, the three residuals at the solved Gamma and at a seeded
  trial Gamma (the `gamma=` override), `prop6_scalar`,
  `gamma_k_residual`; `consistency_report`, `solve_gamma_C` and
  `gamma_bar_tangency` for the zero, momentum and shifted momentum
  sections; `el_field` of L and of the variational Lagrangian of both
  momentum sections; and, for both momentum sections, the section's
  values (`<section>.values`), its rate along (u, Gamma) (`.rate`, slot 1
  of `taylor` along that direction) and `VariationalLagrangian.phi_values`
  at the full chart velocity (`.phi_values`), each read directly on a
  fresh copy of the state, so that no earlier call can choose its route;
  and, for the variational Lagrangian L~ of the zero, momentum, shifted
  and custom sections (the custom one's phi_a the shift's k_a), each on a
  fresh copy of the state: `el_field` of L~ for the zero and custom
  sections, `VariationalLagrangian.value` at the chart velocity and at a
  seeded off-C velocity, the four slots of `qv_taylor` at that velocity
  along two seeded directions (k = 2) and the per-point residuals of
  `tilde_tangency_check` (`tilde.<section>.*`);
* the same outputs of three JSON systems at their 40 seeded states,
  batched and one state at a time: one whose frame holds the literals 0,
  -0.0, 1, 2-1 and 0*x (`LITERAL_SYSTEM`), a sled whose frame and
  Lagrangian read exp, log and tan (`SLED_SYSTEM`) and one whose frame
  and Lagrangian read integer powers (`POW_SYSTEM`);
* on the built-ins and the two carriages, `verify_chaplygin` at the 40
  states, batched and one state at a time;
* Gamma, lambda, R and R v (on a context of its own) of the knife edge
  (`KNIFE_EDGE` in bench/workloads.py, whose frame matrix has a dense
  2 x 2 core) at 40 seeded states, batched and one state at a time;
* on the same systems, an RK4 and a DOPRI5 trajectory with every
  observable, the defects of the shifted section included, and its
  `drift_report`;
* an RK4 and a DOPRI5 trajectory, with its `drift_report`, of the knife
  edge (`KNIFE_EDGE` in bench/workloads.py, whose scalar frame check
  eliminates a dense 2 x 2 core) with every observable, and of the
  threshold frame of tests/test_integrator.py (the knife edge with its
  constraint row scaled by exp(30 x)), whose |det M| falls below
  `FAST_FRAME_DET` part way, so that `Frame.check_matrix` decides the
  frame check, with every observable but the defects;
* the `IntegrationError` message and time of seven runs that must stop, on
  RK4 and DOPRI5: a non-finite rate, a singular g_D, a singular frame, a
  math domain fault, a non-finite step, a math domain fault of the knife
  edge and the threshold frame turning singular;
* the result of every op of the `trajectory`, `sweep` and `cli` benchmark
  workloads (bench/workloads.py) at seeds 1 and 5;
* the exit code, stdout, stderr and output file of a set of `framedyn`
  commands, one of them a report that holds NaN and Infinity, run twice
  in one process: between the two passes, a command on the knife edge and
  one with a `--set` override, so that the second pass reuses the frames
  and Lagrangians built in the first (keys `cli/again/...`);
* `linsolve` called directly on seeded adversarial matrices of size 0 to
  6 (random, integer with ties and exact zeros, rank-deficient, holding a
  NaN, with a zero column), batched and one state at a time: `LU.of`'s
  det and its solve for one and for three right sides, `solve_and_det`
  with one right side and `det_pp`; and `solve_peeled` on matrices with
  seeded patterns of structural zeros (permuted triangular, block
  triangular with a dense core, dense), some with a zero pivot or a NaN
  planted, for one and for three right sides.  A single state's None is
  stored as NaN beside a `none` mask.

`codes` makes the same calls as `dump`, then writes to OUT.json, for every
function that framedyn generated (the functions in `exprlang._KERNELS`,
`linsolve`'s eliminations among them), its `co_filename` and a digest of its bytecode, grouped by filename.  The
digest covers `co_code`, `co_consts` (a nested code object digested the
same way), `co_names`, `co_varnames`, the argument counts and
`__defaults__`, and leaves out line numbers: a change that only moves the
text of a generated source keeps every digest.

`compare` checks two `.npz` dumps key by key: the same keys, and for each the
same dtype, the same shape and values equal under `np.array_equal` (NaN
equal to NaN); two `.json` code dumps it checks filename by filename, the
multiset of digests of each.  It prints every difference and exits 1 if
there is one.  For a text output that differs it also prints the first
differing line and says whether every differing cell (lines split at
commas) parses to an equal float, as where only the sign of a zero moved;
such an output still counts as a difference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
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
    key, text with the work directory and the checkout replaced, other
    objects by type."""
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
    elif isinstance(obj, str):  # a warning on stderr names the checkout
        out[prefix] = np.array(obj.replace(str(work), "<work>").replace(
            str(ROOT), "<root>"))
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


def _state_outputs(fd, sysd, L, F, split, s, delta, off):
    """Every state output of the gate list at s, in a fixed call order;
    the residuals also at the trial coefficients Gamma + delta, and L~ at
    and along the offsets off (_tilde_outputs)."""
    args = (L, F, split)
    field = fd.NonholonomicField(*args)
    sections = _sections(fd, sysd, *args)
    ctx = field._context(s)
    out = {"gamma": field.gamma(s), "lambda": field.multipliers(s),
           "R": ctx.R.copy(), "Rv": _fresh_Rv(fd, field, s)}
    report = ctx.regularity_report(fd.nonholonomic.GAMMA_DET_TOL)
    for name in ("det_D", "det_Dperp", "det_g"):
        out[f"regularity.{name}"] = getattr(report, name)
    out["quasi_velocities"] = fd.quasi_velocities(
        F, fd.velocities_from_quasi(F, s)).v
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
    for name in ("momentum", "shifted"):
        out.update(_fresh_section(fd, field, sections[name], name, s))
    p = fd.velocities_from_quasi(F, s)
    out["el_field"] = fd.el_field(L, F, p)
    for name in ("momentum", "shifted"):
        out[f"el_field.{name}"] = fd.el_field(fd.VariationalLagrangian(
            *args, sections[name]), F, p)
    out.update(_tilde_outputs(fd, sysd, L, F, split, s, off))
    return out


def _tilde_outputs(fd, sysd, L, F, split, s, off):
    """The variational Lagrangian L~ of the zero, momentum, shifted and
    custom sections (phi_a the shift's k_a), each on a fresh copy of s:
    `el_field` of L~ for the zero and custom sections, L~'s value at the
    chart velocity and at the off-C velocity v + off[0], the four slots of
    `qv_taylor` at that velocity along the directions (off[1], off[2]) and
    (off[3], off[4]), and the per-point residuals of
    `tilde_tangency_check`."""
    sections = _sections(fd, sysd, L, F, split)
    sections["custom"] = fd.CustomSection(F, split,
                                          sections["shifted"].shift.phi)
    out = {}
    for name, sec in sections.items():
        Lt = fd.VariationalLagrangian(L, F, split, sec)
        t = [fd.QuasiState(s.q.copy(), s.v.copy()) for _ in range(4)]
        if name in ("zero", "custom"):
            out[f"el_field.{name}"] = fd.el_field(
                Lt, F, fd.velocities_from_quasi(F, t[0]))
        v = t[1].v + off[..., 0, :]
        jet = Lt.qv_taylor(t[1].q, v, [(off[..., 1, :], off[..., 2, :]),
                                       (off[..., 3, :], off[..., 4, :])])
        out.update({
            f"tilde.{name}.value": Lt.value(t[2].q, t[2].v),
            f"tilde.{name}.value_off_C": Lt.value(t[2].q, v),
            f"tilde.{name}.qv_taylor": np.stack(np.broadcast_arrays(*jet.c)),
            f"tilde.{name}.tangency": fd.tilde_tangency_check(
                Lt, F, split, [t[3]])["per_point"]})
    return out


def _fresh_section(fd, field, sec, name, s):
    """A section's values, its rate along (u, Gamma) and the extension's
    phi_values at s, each read on a fresh copy of s."""
    split = field.split
    t = [fd.QuasiState(s.q.copy(), s.v.copy()) for _ in range(3)]
    ctx = field._solve(t[0])
    jets = sec.taylor(t[0].q, t[0].v_alpha(split), [(ctx.u, ctx.gamma)])
    Lt = fd.VariationalLagrangian(field.L, field.frame, split, sec)
    return {f"{name}.values": sec.values(t[1].q, t[1].v_alpha(split)),
            f"{name}.rate": fd.vakonomic._slot(jets, 1, t[0].q),
            f"{name}.phi_values": Lt.phi_values(t[2].q, t[2].v)}


def _fresh_Rv(fd, field, s):
    """R v at the state s, read first on the context of a fresh copy of
    s."""
    return field._context(fd.QuasiState(s.q.copy(), s.v.copy())).Rv.copy()


# A JSON system whose frame holds the literals 0, -0.0, 1, 2-1 and 0*x: the
# generated contractions fold the constant entries, and 0*x stays a product.
LITERAL_SYSTEM = {
    "name": "literal_frame", "n": 3, "m": 2, "coords": ["x", "y", "z"],
    "frame": [["1", "0*x", "y"], ["-0.0", "2-1", "z"], ["0", "0", "1"]],
    "lagrangian": "(2 + sin(y))*u1*u1/2 + u2*u2/2 + (2 + cos(x))*u3*u3/2"
                  " + z*u1*u2/4 - y*z",
    "sample_box": {"q": [[-1.0, 1.0]] * 3, "v": [[-1.0, 1.0]] * 2},
}


# A sled whose frame and Lagrangian read exp, log and tan, and one on its
# coordinates and box whose frame and Lagrangian read integer powers.
SLED_SYSTEM = {
    "name": "sled", "n": 3, "m": 2, "coords": ["x", "y", "s"],
    "frame": [["1", "0", "0"], ["0", "1", "tan(s/3)"], ["0", "0", "1"]],
    "lagrangian": "exp(x/4)*u1*u1/2 + (u2*u2 + u3*u3)/2"
                  " + log(1 + y*y)*u2*u3/4 - x*y",
    "sample_box": {"q": [[-1.5, 1.5]] * 3, "v": [[-2.0, 2.0]] * 2},
}
POW_SYSTEM = {
    **SLED_SYSTEM, "name": "pow_sled",
    "frame": [["1", "0", "0"], ["0", "1", "pow(s, 3)/5"], ["0", "0", "1"]],
    "lagrangian": "(1 + pow(x, 2)/7)*u1*u1/2 + (u2*u2 + u3*u3)/2"
                  " + pow(y, 3)*u2*u3/9 - pow(x*y, 2)",
}


def _json_systems(fd):
    out = []
    for doc in (LITERAL_SYSTEM, SLED_SYSTEM, POW_SYSTEM):
        sysd = fd.SystemDef.from_json_dict(doc)
        out.append((doc["name"], sysd, sysd.lagrangian(), sysd.frame(),
                    sysd.split()))
    return out


def _dump_states(fd, out, work):
    for name, sysd, L, F, split in _gate_systems(fd) + _json_systems(fd):
        S = fd.sample_states(sysd, STATES, seed=17)
        delta = np.random.default_rng(23).normal(0.0, 0.1, (STATES, split.m))
        off = np.random.default_rng(37).normal(0.0, 0.3, (STATES, 5, split.n))
        batched = _state_outputs(fd, sysd, L, F, split, S, delta, off)
        single = [_state_outputs(fd, sysd, L, F, split, fd.QuasiState(
            S.q[i].copy(), S.v[i].copy()), delta[i], off[i])
            for i in range(STATES)]
        for key, value in batched.items():
            out[f"states/{name}/batched/{key}"] = np.asarray(value)
            out[f"states/{name}/single/{key}"] = np.stack(
                [np.asarray(x[key]) for x in single])
        if sysd.chaplygin is None:
            continue
        for route, states in (("batched", [S]), ("single", [
                fd.QuasiState(S.q[i].copy(), S.v[i].copy())
                for i in range(STATES)])):
            _flatten(f"states/{name}/{route}/verify_chaplygin",
                     fd.verify_chaplygin(L, F, split, sysd.chaplygin,
                                         states), out, work)


def _dump_knife_edge_states(fd, out, work):
    L, F, split = _knife_edge(fd)
    rng = np.random.default_rng(29)
    q = rng.uniform(-2.0, 2.0, (STATES, split.n))
    S = fd.QuasiState.on_C(q, rng.uniform(-2.0, 2.0, (STATES, split.m)),
                           split)
    field = fd.NonholonomicField(L, F, split)

    def outputs(s):
        return {"gamma": field.gamma(s), "lambda": field.multipliers(s),
                "R": field._context(s).R.copy(),
                "Rv": _fresh_Rv(fd, field, s)}

    batched = outputs(S)
    single = [outputs(fd.QuasiState(S.q[i].copy(), S.v[i].copy()))
              for i in range(STATES)]
    for key, value in batched.items():
        out[f"states/knife_edge/batched/{key}"] = value
        out[f"states/knife_edge/single/{key}"] = np.stack(
            [x[key] for x in single])


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


# The threshold frame: |det M| = exp(30 x) crosses FAST_FRAME_DET at
# x = -0.459 and FRAME_DET_TOL at x = -0.921.
THRESHOLD_ROWS = [["cos(th)", "sin(th)", "0"], ["0", "0", "1"],
                  ["-exp(30*x)*sin(th)", "exp(30*x)*cos(th)", "0"]]
THRESHOLD_Q, THRESHOLD_V = [-0.44, 0.1, 0.0], [-1.0, 0.2]


def _knife_edge(fd, rows=None, potential=""):
    """(L, frame, split) of the knife edge, with other frame rows or a
    potential term subtracted from L."""
    doc = dict(_workloads().KNIFE_EDGE)
    doc["frame"] = rows or doc["frame"]
    doc["lagrangian"] += potential
    sysd = fd.SystemDef.from_json_dict(doc)
    return sysd.lagrangian(), sysd.frame(), sysd.split()


def _dump_knife_edge(fd, out, work):
    knife = _knife_edge(fd)
    runs = [("knife_edge", knife, [0.3, -0.7, 0.5], [0.8, -0.6],
             fd.ShiftedMomentumSection(*knife, ["v1"]), (0.0, 0.5)),
            ("threshold_frame", _knife_edge(fd, THRESHOLD_ROWS), THRESHOLD_Q,
             THRESHOLD_V, None, (0.0, 0.3))]
    for name, (L, F, split), q, v, section, span in runs:
        field = fd.NonholonomicField(L, F, split)
        s0 = fd.QuasiState.on_C(np.array(q), np.array(v), split)
        observables = ("energy", "momenta", "multipliers") + (
            ("defects",) if section is not None else ())
        for method, extra in (("rk4", {"step": 1e-3}),
                              ("rk45", {"rtol": 1e-10, "atol": 1e-12})):
            cfg = fd.IntegratorConfig(method=method, section=section,
                                      observables=observables, t_span=span,
                                      **extra)
            traj = fd.integrate(field, F, split, s0, cfg)
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
        ("knife_edge_domain_fault", *_knife_edge(fd, potential=" - sqrt(x)"),
         [0.04, 0.0, 0.0], [-1.0, 0.5], {}),
        ("threshold_frame_singular", *_knife_edge(fd, THRESHOLD_ROWS),
         THRESHOLD_Q, THRESHOLD_V, {}),
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
    # a report that holds NaN and Infinity (exp overflows at the samples)
    ["consistency", "--system", "nonholonomic_particle", "--section",
     '{"kind": "custom", "phi": ["exp(10000*q1)"]}', "--samples", "3"],
)


# Run between the two passes over CLI_COMMANDS: a system that the set does
# not use, and a --set value that it does not use.
CLI_BETWEEN = (
    ["derive", "--system", "<work>/knife_edge.json", "--samples", "20"],
    ["consistency", "--system", "carriage", "--set", "l=0.75",
     "--samples", "30"],
)


def _dump_cli(fd, out, work):
    (work / "knife_edge.json").write_text(json.dumps(
        _workloads().KNIFE_EDGE))
    for name, commands in (("cli", CLI_COMMANDS),
                           ("cli/between", CLI_BETWEEN),
                           ("cli/again", CLI_COMMANDS)):
        stem = name.replace("/", "_")
        for i, command in enumerate(commands):
            argv = [a.replace("<work>", str(work)) for a in command]
            if argv[0] in ("consistency", "derive", "simulate"):
                argv += ["--out", str(work / f"{stem}{i}.out")]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = fd.cli.main(argv)
            files = sorted(work.glob(f"{stem}{i}.out*"))
            _flatten(f"{name}/{i}:{' '.join(command[:3])}", {
                "code": code, "stdout": stdout.getvalue(),
                "stderr": stderr.getvalue(),
                "files": [f.read_text() for f in files]}, out, work)


def _adversarial(rng, n, count):
    """count matrices of size n, cycling through the families random,
    integer (ties and exact zeros), rank-deficient (a row twice another),
    one NaN entry and a zero column."""
    out = []
    for trial in range(count):
        A = rng.normal(size=(n, n))
        kind = trial % 5
        if n and kind == 1:
            A = rng.integers(-2, 3, size=(n, n)).astype(float)
        elif n and kind == 2:
            A[rng.integers(n)] = 2.0 * A[rng.integers(n)]
        elif n and kind == 3:
            A[rng.integers(n), rng.integers(n)] = np.nan
        elif n and kind == 4:
            A = np.round(A)
            A[:, rng.integers(n)] = 0.0
        out.append(A)
    return np.array(out).reshape(count, n, n)


def _pattern(rng, n, kind):
    """Flat indices of seeded structural zeros of size n: permuted
    triangular, block triangular with a dense 2 x 2 or 3 x 3 core, or
    none (dense)."""
    nonzero = np.ones((n, n), dtype=bool)
    if kind != "dense":
        nonzero = np.tril((rng.random((n, n)) < 0.7) | np.eye(n, dtype=bool))
    if kind == "block":
        size = int(rng.integers(2, min(3, n) + 1))
        start = int(rng.integers(0, n - size + 1))
        nonzero[start:start + size, start:start + size] = True
    nonzero = nonzero[rng.permutation(n)][:, rng.permutation(n)]
    return frozenset(np.flatnonzero(~nonzero).tolist())


def _singles(results):
    """One output per state stacked, a None stored as NaN of the others'
    shape, with the mask of the Nones."""
    none = np.array([x is None for x in results])
    shape = next((np.shape(x) for x in results if x is not None), ())
    return (np.stack([np.full(shape, np.nan) if x is None else np.asarray(x)
                      for x in results]), none)


def _dump_linsolve(fd, out, work):
    ls = fd.linsolve
    rng = np.random.default_rng(37)
    count = 100
    for n in range(7):
        A = _adversarial(rng, n, count)
        b, B = rng.normal(size=(count, n)), rng.normal(size=(count, n, 3))
        lu = ls.LU.of(A)
        x, det = ls.solve_and_det(A, b)
        batched = {"LU.det": lu.det, "LU.solve": lu.solve(b),
                   "LU.solve3": lu.solve(B), "solve_and_det/0": x,
                   "solve_and_det/1": det, "det_pp": ls.det_pp(A)}
        single = {key: [] for key in batched}
        for i in range(count):
            lu = ls.LU.of(A[i])
            x, det = ls.solve_and_det(A[i], b[i])
            for key, value in zip(single, (lu.det, lu.solve(b[i]),
                                           lu.solve(B[i]), x, det,
                                           ls.det_pp(A[i]))):
                single[key].append(value)
        for key, value in batched.items():
            out[f"linsolve/dense/{n}/batched/{key}"] = np.asarray(value)
        for key, results in single.items():
            x, none = _singles(results)
            out[f"linsolve/dense/{n}/single/{key}"] = x
            out[f"linsolve/dense/{n}/single/{key}/none"] = none
    for n, kind in [(n, kind) for kind in ("triangular", "block", "dense")
                    for n in range(2 if kind == "block" else 1, 7)]:
        for trial in range(4):
            zeros = _pattern(rng, n, kind)
            M = rng.normal(size=(count, n, n)) * 10.0 ** rng.integers(-2, 2)
            # every fourth matrix of entries -1, 0 and 1: ties, zero pivots
            M[2::4] = rng.integers(-1, 2, size=M[2::4].shape)
            M.reshape(count, -1)[:, list(zeros)] = 0.0
            nonzero = sorted(set(range(n * n)) - zeros)
            for i in range(0, count, 4):  # a zero or a NaN entry planted
                j = nonzero[int(rng.integers(len(nonzero)))]
                M[i, j // n, j % n] = 0.0 if i % 8 else np.nan
            B = rng.normal(size=(count, n, 3))
            prefix = f"linsolve/peeled/{kind}/{n}/{trial}"
            out[f"{prefix}/zeros"] = np.array(sorted(zeros), dtype=int)
            for name, rhs in (("1", B[..., 0]), ("3", B)):
                with np.errstate(all="ignore"):
                    out[f"{prefix}/batched/{name}"] = ls.solve_peeled(
                        M, rhs, zeros)
                x, none = _singles([ls.solve_peeled(M[i], rhs[i], zeros)
                                    for i in range(count)])
                out[f"{prefix}/single/{name}"] = x
                out[f"{prefix}/single/{name}/none"] = none


def _outputs(fd):
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in (_dump_states, _dump_knife_edge_states,
                     _dump_trajectories, _dump_knife_edge,
                     _dump_failures, _dump_workloads, _dump_cli,
                     _dump_linsolve):
            part(fd, out, work)
    return out


def dump(path):
    out = _outputs(_framedyn())
    np.savez(path, **out)
    print(f"{len(out)} outputs written to {path}")


def _code_digest(code):
    """A digest of a code object's bytecode, constants (nested code by its
    digest), names and argument counts, without its line numbers."""
    consts = [_code_digest(c) if hasattr(c, "co_code") else repr(c)
              for c in code.co_consts]
    parts = (code.co_code.hex(), consts, code.co_names, code.co_varnames,
             code.co_argcount, code.co_posonlyargcount,
             code.co_kwonlyargcount)
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def codes(path):
    fd = _framedyn()
    _outputs(fd)
    out = {}
    for fn in fd.exprlang._KERNELS.values():
        if callable(fn):
            code = fn.__code__
            digest = hashlib.sha256(repr(
                (_code_digest(code), fn.__defaults__)).encode()).hexdigest()
            out.setdefault(code.co_filename, []).append(digest)
    out = {name: sorted(digests) for name, digests in sorted(out.items())}
    Path(path).write_text(json.dumps(out, indent=1) + "\n")
    print(f"{sum(map(len, out.values()))} generated functions in "
          f"{len(out)} files written to {path}")


def _compare_codes(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    problems = [f"{name}: {len(a.get(name, []))} functions in {a_path}, "
                f"{len(b.get(name, []))} in {b_path}, digests differ"
                for name in sorted(set(a) | set(b))
                if sorted(a.get(name, [])) != sorted(b.get(name, []))]
    for p in problems:
        print(p)
    print(f"{len(set(a) | set(b))} files compared, {len(problems)} "
          "differences")
    return 1 if problems else 0


def _text_difference(a, b):
    """Where two texts differ: their first differing line, and whether every
    differing cell (lines split at commas) parses to an equal float, that
    is, the texts differ only in the sign of zeros."""
    a, b = a.splitlines(), b.splitlines()
    first = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
    x, y = (lines[first] if first < len(lines) else "<end of text>"
            for lines in (a, b))
    cells = _equal_float_cells(a, b)
    verdict = (f"every differing cell ({cells}) parses to an equal float: "
               "a sign-of-zero move" if cells is not None
               else "some differing cell is not an equal float")
    return f"first differing line {first + 1}: {x!r} != {y!r}; {verdict}"


def _equal_float_cells(a, b):
    """The number of cells (lines split at commas) in which the lines a and
    b differ, if each such cell parses to an equal float; else None."""
    if len(a) != len(b):
        return None
    count = 0
    for x, y in zip(a, b):
        xs, ys = x.split(","), y.split(",")
        if len(xs) != len(ys):
            return None
        for u, v in zip(xs, ys):
            if u != v:
                try:
                    if float(u) != float(v):
                        return None
                except ValueError:
                    return None
                count += 1
    return count


def compare(a_path, b_path):
    if a_path.endswith(".json"):
        return _compare_codes(a_path, b_path)
    a, b = np.load(a_path), np.load(b_path)
    problems = [f"only in {a_path}: {k}" for k in sorted(set(a) - set(b))]
    problems += [f"only in {b_path}: {k}" for k in sorted(set(b) - set(a))]
    for key in sorted(set(a) & set(b)):
        x, y = a[key], b[key]
        if x.dtype.kind == y.dtype.kind == "U" and x.shape == y.shape == ():
            if x != y:
                problems.append(f"{key}: text differs; "
                                f"{_text_difference(str(x), str(y))}")
        elif x.dtype != y.dtype or x.shape != y.shape:
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
    if argv[:1] == ["codes"] and len(argv) == 2:
        codes(argv[1])
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
