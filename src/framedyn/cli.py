"""Command-line front end.

Subcommands: simulate | consistency | derive | systems.  Exit codes: 0 ok,
1 runtime failure, 2 configuration error.  Custom systems are plain JSON
documents ({name, n, m, coords, frame, lagrangian, params}); no code is ever
loaded from a definition file.  All sampling uses a seedable generator
(default seed 0) and every report embeds the tool version, the system content
hash, the parameter values, the tolerances, and the seed, so identical
configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .exprlang import ExprError, ExprFunction
from .frames import QuasiState
from .integrator import (IntegratorConfig, drift_report, export_csv,
                         export_json, integrate)
from .linsolve import max_abs
from .nonholonomic import NonholonomicField
from .systems import (BUILTIN_NAMES, SystemDef, builtin, sample_states,
                      velocity_names)
from .vakonomic import (ShiftedMomentumSection, consistency_report,
                        make_section, section_names)
from .chaplygin import prop6_scalar

DEFECT_TOL = 1e-9


class ConfigError(Exception):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


def _of_type(value, typ):
    """isinstance(value, typ), a JSON true or false counting as no number:
    bool is a subclass of int."""
    return isinstance(value, typ) and not isinstance(value, bool)


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("$", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON in {path}: {exc}")


def _load_system(name_or_path, params, sets):
    """The system with the config's params, then the --set values, applied;
    each name must be a base parameter (of a JSON system: a declared one)."""
    if name_or_path in BUILTIN_NAMES:
        sysd = builtin(name_or_path)
    elif os.path.exists(name_or_path) or name_or_path.endswith(".json"):
        doc = _load_json(name_or_path)
        _validate_system_doc(doc)
        sysd = SystemDef.from_json_dict(doc)
        if sysd.sample_box is None:
            sysd.sample_box = {"q": [[-2.0, 2.0]] * sysd.n,
                               "v": [[-2.0, 2.0]] * sysd.m}
    else:
        raise ConfigError("$.system",
                          f"unknown system {name_or_path!r} and no such file")
    accepted = [k for k in sysd.params if k not in sysd.derived]
    for names, path in ((params, "$.params.{}"), (sets, "$.set")):
        for k in names:
            _require(k in accepted, path.format(k),
                     f"unknown parameter {k!r} of {sysd.name}; accepted: "
                     f"{', '.join(accepted) or 'none'}")
    overrides = {**params, **sets}
    if overrides and name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path, overrides)  # derived ones follow
    sysd.params.update(overrides)
    return sysd


def _entries(value, count, path, typ, what):
    """value, which must be a list of count entries of type typ (what),
    or None, which passes as it is."""
    if value is not None:
        _require(isinstance(value, list) and len(value) == count, path,
                 f"expected a list of {count} entries")
        for i, x in enumerate(value):
            _require(_of_type(x, typ), f"{path}[{i}]", f"expected {what}")
    return value


def _validate_system_doc(doc):
    _require(isinstance(doc, dict), "$", "system definition must be an object")
    for key, typ in (("name", str), ("n", int), ("m", int),
                     ("coords", list), ("frame", list), ("lagrangian", str)):
        _require(key in doc, f"$.{key}", "missing required field")
        _require(_of_type(doc[key], typ), f"$.{key}",
                 f"expected {typ.__name__}")
    n, m = doc["n"], doc["m"]
    _require(1 <= m <= n, "$.m", f"need 1 <= m <= n, got m={m}, n={n}")
    for key in ("coords", "velocities"):
        names = _entries(doc.get(key), n, f"$.{key}", str, "a name")
        for i, name in enumerate(names or ()):
            _require(name not in names[:i], f"$.{key}[{i}]",
                     f"duplicate name {name!r}")
    velocities = velocity_names(doc)
    for i, name in enumerate(doc["coords"]):
        _require(name not in velocities, f"$.coords[{i}]",
                 f"coordinate name {name!r} is also a velocity name")
    for i, row in enumerate(_entries(doc["frame"], n, "$.frame", list,
                                     "a row")):
        _entries(row, n, f"$.frame[{i}]", (str, int, float),
                 "an expression or a number")
    _entries(doc.get("builtin_k"), n - m, "$.builtin_k", str,
             "an expression")
    box = doc.get("sample_box")
    if box is not None:
        _require(isinstance(box, dict), "$.sample_box", "expected an object")
        for key, count in (("q", n), ("v", m)):
            path = f"$.sample_box.{key}"
            _require(box.get(key) is not None, path, "missing required field")
            for i, pair in enumerate(_entries(box[key], count, path, list,
                                              "a [low, high] pair")):
                _entries(pair, 2, f"{path}[{i}]", (int, float), "a number")
    _require_params(doc)


def _require_params(doc):
    """doc's optional params: an object of finite numbers (Python's json
    reads NaN and Infinity)."""
    params = doc.get("params", {})
    _require(isinstance(params, dict), "$.params", "expected an object")
    for k, v in params.items():
        _require(_of_type(v, (int, float)) and math.isfinite(v),
                 f"$.params.{k}", "expected a finite number")


def _parse_set(items):
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ConfigError("$.set", f"expected k=v, got {item!r}")
        k, v = item.split("=", 1)
        try:
            value = float(v)
        except ValueError:
            raise ConfigError("$.set", f"value for {k!r} is not a number")
        _require(math.isfinite(value), "$.set",
                 f"value for {k!r} is not finite")
        out[k.strip()] = value
    return out


def _parse_floats(text, want, path):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(path, f"expected comma-separated numbers: {text!r}")
    _require(len(vals) == want, path, f"expected {want} values")
    return np.array(vals)


SECTION_KINDS = ("zero", "momentum", "momentum_shifted", "custom")


def _parse_section(text, frame, split, builtin_k):
    """The section document of --section or the config's section, checked,
    and the trees of its expressions (None where it has none), for
    make_section: an object of a known kind whose phi (custom) or k
    (momentum_shifted, else "builtin", which the system must have) lists
    one expression per constraint index, each parsed and resolved against
    the section's names (vakonomic.section_names) and the frame's
    parameters."""
    if text is None:
        return {"kind": "momentum"}, None
    spec = text
    if isinstance(text, str):
        text = text.strip()
        spec = {"kind": text}
        if text.startswith("{"):
            try:
                spec = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError("$.section", f"invalid JSON: {exc}")
    _require(isinstance(spec, dict), "$.section", "expected an object")
    kind = spec.get("kind")
    _require(kind in SECTION_KINDS, "$.section.kind",
             f"expected one of {', '.join(SECTION_KINDS)}, got "
             f"{json.dumps(kind)}")
    if kind == "custom":
        path, exprs = "$.section.phi", spec.get("phi")
    elif kind == "momentum_shifted" and spec.get("k", "builtin") != "builtin":
        path, exprs = "$.section.k", spec["k"]
    else:
        _require(kind != "momentum_shifted" or builtin_k is not None,
                 "$.section.kind", "this system has no built-in shift "
                 "expressions; give k")
        return spec, None
    count = split.n_constraints
    _require(isinstance(exprs, list), path,
             f"expected a list of {count} expressions")
    _entries(exprs, count, path, str, "an expression")
    names, params = section_names(frame, split), tuple(frame.params)
    parsed = []
    for i, expr in enumerate(exprs):
        try:
            parsed.append(ExprFunction(expr, names, params).expr)
        except ExprError as exc:
            raise ConfigError(f"{path}[{i}]", str(exc))
    return spec, parsed


_CONFIG_FIELDS = {
    "system": str, "params": dict, "q0": (list, str), "v0": (list, str),
    "t_end": (int, float), "dt": (int, float), "method": str,
    "rtol": (int, float), "atol": (int, float), "format": str,
    "section": (str, dict), "samples": int, "seed": int, "out": str,
}


def _load_run_config(path):
    """A JSON run configuration; explicit command-line flags override it."""
    if not path:
        return {}
    doc = _load_json(path)
    _require(isinstance(doc, dict), "$", "run config must be an object")
    for key, val in doc.items():
        _require(key in _CONFIG_FIELDS, f"$.{key}", "unknown field")
        _require(_of_type(val, _CONFIG_FIELDS[key]), f"$.{key}",
                 f"expected {_CONFIG_FIELDS[key]}")
    _require_params(doc)
    if "method" in doc:
        _require(doc["method"] in ("rk4", "rk45"), "$.method",
                 "expected rk4 or rk45")
    if "format" in doc:
        _require(doc["format"] in ("csv", "json"), "$.format",
                 "expected csv or json")
    return doc


def _resolve(args, cfg, key, default=None):
    val = getattr(args, key, None)
    if val is not None:
        return val
    if key in cfg:
        return cfg[key]
    return default


def _state_vector(value, want, path):
    if isinstance(value, str):
        return _parse_floats(value, want, path)
    return np.array([float(x) for x in _entries(value, want, path,
                                                (int, float), "a number")])


def _report_header(sysd, args):
    return {
        "tool": "framedyn",
        "version": __version__,
        "system": sysd.name,
        "system_hash": sysd.content_hash(),
        "params": dict(sysd.params),
        "seed": args.seed,
        "defect_tolerance": DEFECT_TOL,
    }


def _write_report(doc, out):
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_run(args):
    """The run configuration, the system with the config's params and the
    --set overrides applied, and the system's Lagrangian, frame and split;
    sets args.seed, from the flag or the config, 0 by default."""
    run = _load_run_config(args.config)
    args.seed = _resolve(args, run, "seed", 0)
    _require(args.seed >= 0, "$.seed",
             f"need a non-negative seed, got {args.seed}")
    system = _resolve(args, run, "system")
    _require(system is not None, "$.system", "no system given")
    sysd = _load_system(system, run.get("params", {}), _parse_set(args.set))
    return run, sysd, sysd.lagrangian(), sysd.frame(), sysd.split()


def cmd_simulate(args):
    run, sysd, L, F, split = _load_run(args)
    q0raw = _resolve(args, run, "q0")
    v0raw = _resolve(args, run, "v0")
    q0 = (_state_vector(q0raw, sysd.n, "$.q0") if q0raw is not None
          else np.zeros(sysd.n))
    v0 = (_state_vector(v0raw, sysd.m, "$.v0") if v0raw is not None
          else np.ones(sysd.m))
    fmt = _resolve(args, run, "format", "csv")
    cfg = IntegratorConfig(
        method=_resolve(args, run, "method", "rk4"),
        step=_resolve(args, run, "dt", 1e-3),
        rtol=_resolve(args, run, "rtol", 1e-8),
        atol=_resolve(args, run, "atol", 1e-10),
        t_span=(0.0, _resolve(args, run, "t_end", 10.0)),
        observables=("energy", "momenta", "multipliers"))
    field = NonholonomicField(L, F, split)
    state = QuasiState.on_C(q0, v0, split)
    traj = integrate(field, F, split, state, cfg)
    out = _resolve(args, run, "out") or f"{sysd.name}_trajectory.{fmt}"
    if fmt == "csv":
        export_csv(traj, out)
    else:
        export_json(traj, out)
    report = _report_header(sysd, args)
    report.update(drift_report(traj, L, F, split))
    report["trajectory"] = out
    _write_report(report, None)
    return 0


def cmd_consistency(args):
    run, sysd, L, F, split = _load_run(args)
    args.samples = _resolve(args, run, "samples", 200)
    _require(args.samples >= 1, "$.samples",
             f"need at least 1 sample, got {args.samples}")
    args.out = _resolve(args, run, "out")
    spec, parsed = _parse_section(_resolve(args, run, "section"), F, split,
                                  sysd.builtin_k)
    section = make_section(spec, L, F, split, builtin_k=sysd.builtin_k,
                           parsed=parsed)
    states = sample_states(sysd, args.samples, seed=args.seed)
    rep = consistency_report(L, F, split, section, states)
    # max_abs propagates a NaN, which then fails its test
    weak, strong, tang = (max_abs(d) for d in (
        rep.weak_defect, rep.strong_defect, rep.tangency_defect))
    if not weak <= DEFECT_TOL:
        verdict = "inconsistent"
    elif not strong <= DEFECT_TOL:
        verdict = "weakly_consistent"
    else:
        verdict = "strongly_consistent"
    doc = _report_header(sysd, args)
    doc.update({
        "section": section.describe(),
        "samples": args.samples,
        "verdict": verdict,
        "note": "sampled identity: defects checked at the sampled states",
        "max_weak_defect": weak,
        "max_strong_defect": strong,
        "max_tangency_defect": tang,
        "weak_defect": rep.weak_defect.tolist(),
        "strong_defect": rep.strong_defect.tolist(),
        "tangency_defect": rep.tangency_defect.tolist(),
    })
    if sysd.chaplygin is not None:
        doc["prop6_scalar"] = prop6_scalar(L, F, split, states).tolist()
    if isinstance(section, ShiftedMomentumSection):
        from .chaplygin import gamma_k_residual
        check = gamma_k_residual(L, F, split, section, [states])
        doc["gamma_k_residual"] = check["max_gamma_k"]
        doc["k_conserved"] = check["conserved"]
    _write_report(doc, args.out)
    return 0


def cmd_derive(args):
    run, sysd, L, F, split = _load_run(args)
    args.samples = _resolve(args, run, "samples", 100)
    _require(args.samples >= 0, "$.samples",
             f"need a non-negative sample count, got {args.samples}")
    args.out = _resolve(args, run, "out")
    field = NonholonomicField(L, F, split)
    if args.grid is not None:
        doc = _load_json(args.grid)
        _require(isinstance(doc, dict)
                 and isinstance(doc.get("points"), list), "$.points",
                 "grid file must be an object with a 'points' array")
        pts = doc["points"]
        for i, row in enumerate(pts):
            _require(isinstance(row, list) and len(row) == sysd.n + sysd.m,
                     f"$.points[{i}]",
                     f"expected {sysd.n + sysd.m} numbers (q then v_alpha)")
            if not set(map(type, row)) <= {int, float}:  # JSON numbers
                j = next(j for j, x in enumerate(row)
                         if not _of_type(x, (int, float)))
                raise ConfigError(f"$.points[{i}][{j}]", "expected a number, "
                                  f"got {json.dumps(row[j])}")
        pts = np.array(pts, dtype=float).reshape(-1, sysd.n + sysd.m)
    else:
        st = sample_states(sysd, args.samples, seed=args.seed)
        pts = np.concatenate([st.q, st.v[:, :split.m]], axis=1)
    names = ([f"q{i+1}" for i in range(sysd.n)]
             + [f"v{i+1}" for i in range(split.m)]
             + [f"gamma{i+1}" for i in range(split.m)]
             + [f"lambda{a+1}" for a in range(split.m, split.n)]
             + ["energy"]
             + [f"p{a+1}" for a in range(split.m, split.n)])
    lines = [",".join(names)]
    if len(pts):
        states = QuasiState.on_C(pts[:, :sysd.n], pts[:, sysd.n:], split)
        gam = field.gamma(states)
        lam = field.multipliers(states)
        ctx = field._context(states)
        E = ctx.energy()
        moms = [ctx.vlift(a) for a in range(split.m, split.n)]
        for i in range(len(pts)):
            row = (list(pts[i]) + list(gam[i]) + list(lam[i]) + [E[i]]
                   + [mm[i] for mm in moms])
            lines.append(",".join(f"{x:.17g}" for x in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_systems(args):
    if args.action == "list":
        for name in BUILTIN_NAMES:
            print(name)
        return 0
    sysd = _load_system(args.name, {}, _parse_set(args.set))
    print(json.dumps(sysd.to_json_dict(), indent=1, sort_keys=True))
    return 0


def _add_common(sp):
    # config-resolvable options default to None so an explicit flag is
    # distinguishable from "take it from --config"
    sp.add_argument("--system",
                    help="built-in name or path to a JSON definition")
    sp.add_argument("--config", help="JSON run configuration; explicit "
                    "flags override its fields")
    sp.add_argument("--set", action="append", metavar="K=V",
                    help="parameter override (repeatable)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="output path (default: stdout/derived)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="framedyn",
        description="Nonholonomic and vakonomic dynamics in anholonomic "
                    "frames")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="integrate the nonholonomic field")
    _add_common(sp)
    sp.add_argument("--q0", help="initial coordinates, comma separated")
    sp.add_argument("--v0", help="initial quasi-velocities v^alpha")
    sp.add_argument("--t-end", type=float, dest="t_end")
    sp.add_argument("--dt", type=float)
    sp.add_argument("--method", choices=("rk4", "rk45"))
    sp.add_argument("--rtol", type=float)
    sp.add_argument("--atol", type=float)
    sp.add_argument("--format", choices=("csv", "json"))
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("consistency",
                        help="weak/strong consistency report for a section")
    _add_common(sp)
    sp.add_argument("--section", help='zero | momentum | momentum_shifted | '
                    'JSON like {"kind":"custom","phi":["..."]}')
    sp.add_argument("--samples", type=int)
    sp.set_defaults(fn=cmd_consistency)

    sp = sub.add_parser("derive",
                        help="tabulate Gamma, multipliers, energy, momenta")
    _add_common(sp)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--grid", help="JSON file {points: [[q..., v...], ...]}")
    sp.set_defaults(fn=cmd_derive)

    sp = sub.add_parser("systems", help="list or show system definitions")
    sp.add_argument("action", choices=("list", "show"))
    sp.add_argument("name", nargs="?")
    sp.add_argument("--set", action="append", metavar="K=V")
    sp.set_defaults(fn=cmd_systems)
    return ap


@functools.cache
def _parser():
    """The parser of main, built once per process on first use."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "systems" and args.action == "show" and not args.name:
        print("systems show requires a name", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
