"""Command-line front end.

Subcommands: simulate | consistency | derive | systems.  Exit codes: 0 ok,
1 runtime failure, 2 configuration error.  Custom systems are plain JSON
documents; no code is ever loaded from a definition file.  Each document
read (a JSON system, a run configuration, a --grid file, a section's
expressions) has one shape table, checked by _walk, which names the first
bad entry by its $. path.  Sampling uses a seedable generator (default seed
0) and every report embeds the tool version, the system content hash, the
parameter values, the tolerances, and the seed, so identical configurations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from itertools import chain

import numpy as np

from . import __version__
from .exprlang import ExprError, ExprFunction
from .frames import QuasiState
from .integrator import (IntegratorConfig, csv_text, drift_report,
                         export_csv, export_json, integrate, json_text)
from .linsolve import max_abs
from .nonholonomic import NonholonomicField
from .systems import (BUILTIN_NAMES, SystemDef, builtin, sample_states,
                      velocity_names)
from .vakonomic import (ShiftedMomentumSection, consistency_report,
                        make_section, section_names)
from .chaplygin import gamma_k_residual, prop6_scalar

DEFECT_TOL = 1e-9


class ConfigError(Exception):
    def __init__(self, path, message):
        super().__init__(f"config error at {path}: {message}")


def _require(cond, path, message):
    if not cond:
        raise ConfigError(path, message)


# The shape of a JSON value, checked by _walk: a frozenset of types, matched
# exactly (so a true or false is no int); a tuple of the values allowed;
# FINITE, a finite number; Items, a list of count entries (any number if
# None) of the shape item; or Fields, an object with every required key and
# any optional one, each of its shape (a nullable key may hold null, as if
# absent), any other key being of the shape other or, if None, an error.
NUM, INT, STR, OBJ = map(frozenset, ({int, float}, {int}, {str}, {dict}))
EXPR = frozenset({str, int, float})
JSON = frozenset({dict, list, str, int, float, bool, type(None)})
FINITE = "a finite number"
Items = namedtuple("Items", "item count", defaults=(None,))
Fields = namedtuple("Fields", "required optional other nullable",
                    defaults=({}, None, ()))
PARAMS = Fields({}, other=FINITE)
RUN_CONFIG = Fields({}, {
    "system": STR, "params": PARAMS, "q0": frozenset({list, str}),
    "v0": frozenset({list, str}), "t_end": NUM, "dt": NUM, "rtol": NUM,
    "atol": NUM, "method": ("rk4", "rk45"), "format": ("csv", "json"),
    "section": frozenset({str, dict}), "samples": INT, "seed": INT,
    "out": STR})


def _walk(doc, shape, path):
    """A ConfigError at the first entry of doc (at path) not of its shape."""
    bad = _mismatch(doc, shape)
    if bad:
        raise ConfigError(path + bad[1], bad[0])


def _mismatch(value, shape):
    """None if value has shape, else the message for its first entry that
    has not and that entry's path below value, both made only then."""
    if type(shape) is frozenset:
        if type(value) not in shape:
            names = " or ".join(sorted(t.__name__ for t in shape))
            return f"expected {names}, got {json.dumps(value)}", ""
    elif type(shape) is tuple:
        if value not in shape:
            return f"expected one of {', '.join(shape)}, got {value!r}", ""
    elif shape is FINITE:
        if type(value) not in NUM or not abs(value) <= sys.float_info.max:
            return f"expected {FINITE}, got {json.dumps(value)}", ""
    elif type(shape) is Items:
        if type(value) is not list or shape.count not in (None, len(value)):
            return "expected a list" + ("" if shape.count is None else
                                        f" of {shape.count} entries"), ""
        entries, item = value, shape.item  # rows of scalars: one list
        if (type(item) is Items and set(map(type, value)) <= {list}
                and set(map(len, value)) <= {item.count}):
            entries, item = list(chain.from_iterable(value)), item.item
        if type(item) is not frozenset or not set(map(type, entries)) <= item:
            for i, x in enumerate(value):
                bad = _mismatch(x, shape.item)
                if bad:
                    return bad[0], f"[{i}]{bad[1]}"
    elif type(value) is not dict:
        return "expected an object", ""
    else:
        required, optional, other, nullable = shape
        for key in required:
            if key not in value:
                return "missing required field", f".{key}"
        for key, x in value.items():
            sub = required.get(key) or optional.get(key, other)
            if sub is None:
                return "unknown field", f".{key}"
            bad = (x is not None or key not in nullable) and _mismatch(x, sub)
            if bad:
                return bad[0], f".{key}{bad[1]}"
    return None


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("$", f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON in {path}: {exc}")


def _from_text(value, parse, path):
    """value, or, where it is text (a flag's, or the run config's), what
    parse reads from it; parse's ValueError is a config error at path."""
    try:
        return parse(value.strip()) if isinstance(value, str) else value
    except ValueError as exc:
        raise ConfigError(path, f"cannot read {value!r}: {exc}")


def _parsed(exprs, names, params, path):
    """The trees of exprs resolved against names and params; one that does
    not parse or names an unbound variable is a config error at path[i]."""
    trees = []
    for i, expr in enumerate(exprs):
        try:
            trees.append(ExprFunction(expr, names, params).expr)
        except ExprError as exc:
            raise ConfigError(f"{path}[{i}]", str(exc))
    return trees


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


def _validate_system_doc(doc):
    """doc as a JSON system: the keys SystemDef.from_json_dict reads, then
    the rules between them; other keys are not read."""
    _walk(doc, Fields({"n": INT, "m": INT}, other=JSON), "$")
    n, m = doc["n"], doc["m"]
    _require(1 <= m <= n, "$.m", f"need 1 <= m <= n, got m={m}, n={n}")
    bounds = [Items(Items(FINITE, 2), count) for count in (n, m)]
    _walk(doc, Fields(
        {"name": STR, "n": INT, "m": INT, "coords": Items(STR, n),
         "frame": Items(Items(EXPR, n), n), "lagrangian": STR},
        {"velocities": Items(STR, n), "params": PARAMS,
         "builtin_k": Items(STR, n - m), "references": OBJ,
         "sample_box": Fields(dict(zip("qv", bounds)), other=JSON),
         "domain_note": STR},
        other=JSON, nullable=("velocities", "builtin_k", "sample_box")), "$")
    velocities = velocity_names(doc)
    for key, names, others in (("coords", doc["coords"], velocities),
                               ("velocities", velocities, ())):
        for i, name in enumerate(names):
            _require(name not in names[:i] and name not in others,
                     f"$.{key}[{i}]", f"name {name!r} given twice among "
                     "the coordinates and velocities")
    box = doc.get("sample_box")
    for key in ("q", "v") if box else ():
        for i, (low, high) in enumerate(box[key]):
            _require(low <= high, f"$.sample_box.{key}[{i}]",
                     f"need low <= high, got [{low}, {high}]")


def _parse_set(items):
    out = {}
    for item in items or ():
        k, _, v = item.partition("=")
        out[k.strip()] = value = _from_text(v or item, float, "$.set")
        _require(math.isfinite(value), "$.set",
                 f"value for {k!r} is not finite")
    return out


def _parse_section(text, frame, split, builtin_k):
    """The section of --section or the config, and, for make_section, the
    trees of its phi (custom) or k (momentum_shifted; else "builtin", the
    system's builtin_k), one expression per constraint index over
    vakonomic.section_names and the frame's parameters; None for others."""
    spec = _from_text(text, lambda t: json.loads(t) if t.startswith("{")
                      else {"kind": t}, "$.section")
    kind = spec.get("kind")
    _walk(kind, ("zero", "momentum", "momentum_shifted", "custom"),
          "$.section.kind")
    if kind in ("zero", "momentum"):
        return spec, None
    key = "phi" if kind == "custom" else "k"
    path, exprs = f"$.section.{key}", spec.get(key, "builtin")
    if kind == "momentum_shifted" and exprs == "builtin":
        _require(builtin_k is not None, "$.section.kind", "this system has "
                 "no built-in shift expressions; give k")
        path, exprs = "$.builtin_k", builtin_k
    _walk(exprs, Items(STR, split.n_constraints), path)
    return spec, _parsed(exprs, section_names(frame, split),
                         tuple(frame.params), path)


def _state_vector(value, want, path, default):
    """want numbers, from a list or comma-separated text, else default's."""
    if value is None:
        return np.full(want, default)
    value = _from_text(value, lambda t: list(map(float, t.split(","))), path)
    _walk(value, Items(NUM, want), path)
    return np.array(value, dtype=float)


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
    _write(json_text(doc, sort_keys=True) + "\n", out)


def _write(text, out):
    """text to the file out, else to stdout."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_run(args, **defaults):
    """The system, with the config's params and the --set values applied,
    and its Lagrangian, frame and split; sets seed, system and each default
    on args from its flag, else from the run config, else the default."""
    run = _load_json(args.config) if args.config else {}
    _walk(run, RUN_CONFIG, "$")
    for key, default in dict(seed=0, system=None, **defaults).items():
        if getattr(args, key) is None:
            setattr(args, key, run.get(key, default))
    _require(args.seed >= 0, "$.seed",
             f"need a non-negative seed, got {args.seed}")
    _require(args.system is not None, "$.system", "no system given")
    sysd = _load_system(args.system, run.get("params", {}),
                        _parse_set(args.set))
    try:
        return sysd, sysd.lagrangian(), sysd.frame(), sysd.split()
    except ExprError as exc:  # a frame entry's, else L's, which is built first
        for i, row in enumerate(sysd.frame_exprs):
            _parsed(map(str, row), sysd.coords, tuple(sysd.params),
                    f"$.frame[{i}]")
        raise ConfigError("$.lagrangian", str(exc))


def cmd_simulate(args):
    sysd, L, F, split = _load_run(
        args, q0=None, v0=None, format="csv", method="rk4", dt=1e-3,
        rtol=1e-8, atol=1e-10, t_end=10.0, out=None)
    q0 = _state_vector(args.q0, sysd.n, "$.q0", 0.0)
    v0 = _state_vector(args.v0, sysd.m, "$.v0", 1.0)
    cfg = IntegratorConfig(
        method=args.method, step=args.dt, rtol=args.rtol, atol=args.atol,
        t_span=(0.0, args.t_end),
        observables=("energy", "momenta", "multipliers"))
    field = NonholonomicField(L, F, split)
    state = QuasiState.on_C(q0, v0, split)
    traj = integrate(field, F, split, state, cfg)
    out = args.out or f"{sysd.name}_trajectory.{args.format}"
    if args.format == "csv":
        export_csv(traj, out)
    else:
        export_json(traj, out)
    report = _report_header(sysd, args)
    report.update(drift_report(traj, L, F, split))
    report["trajectory"] = out
    _write_report(report, None)
    return 0


def cmd_consistency(args):
    sysd, L, F, split = _load_run(args, samples=200, section="momentum",
                                  out=None)
    _require(args.samples >= 1, "$.samples",
             f"need at least 1 sample, got {args.samples}")
    spec, parsed = _parse_section(args.section, F, split, sysd.builtin_k)
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
        "weak_defect": rep.weak_defect,
        "strong_defect": rep.strong_defect,
        "tangency_defect": rep.tangency_defect,
    })
    if sysd.chaplygin is not None:
        doc["prop6_scalar"] = prop6_scalar(L, F, split, states)
    if isinstance(section, ShiftedMomentumSection):
        check = gamma_k_residual(L, F, split, section, [states])
        doc["gamma_k_residual"] = check["max_gamma_k"]
        doc["k_conserved"] = check["conserved"]
    _write_report(doc, args.out)
    return 0


def cmd_derive(args):
    sysd, L, F, split = _load_run(args, samples=100, out=None)
    _require(args.samples >= 0, "$.samples",
             f"need a non-negative sample count, got {args.samples}")
    field = NonholonomicField(L, F, split)
    width = sysd.n + sysd.m  # q then v_alpha
    if args.grid is not None:
        doc = _load_json(args.grid)
        _walk(doc, Fields({"points": Items(Items(NUM, width))}, other=JSON),
              "$")
        pts = np.array(doc["points"], dtype=float).reshape(-1, width)
    else:
        st = sample_states(sysd, args.samples, seed=args.seed)
        pts = np.concatenate([st.q, st.v[:, :split.m]], axis=1)
    names = ([f"q{i+1}" for i in range(sysd.n)]
             + [f"v{i+1}" for i in range(split.m)]
             + [f"gamma{i+1}" for i in range(split.m)]
             + [f"lambda{a+1}" for a in range(split.m, split.n)]
             + ["energy"]
             + [f"p{a+1}" for a in range(split.m, split.n)])
    table = np.empty((0, len(names)))
    if len(pts):
        states = QuasiState.on_C(pts[:, :sysd.n], pts[:, sysd.n:], split)
        ctx = field._context(states)
        table = np.column_stack(
            [pts, field.gamma(states), field.multipliers(states), ctx.energy()]
            + [ctx.vlift(a) for a in range(split.m, split.n)])
    _write(csv_text(names, table), args.out)
    return 0


def cmd_systems(args):
    if args.action == "list":
        for name in BUILTIN_NAMES:
            print(name)
        return 0
    _require(args.name, "$.system", "systems show requires a name")
    sysd = _load_system(args.name, {}, _parse_set(args.set))
    _write_report(sysd.to_json_dict(), None)
    return 0


def _add_common(sp):
    # None where not given, so that _load_run takes the run config's value
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
