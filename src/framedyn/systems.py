"""Built-in example systems and their closed-form reference quantities.

Reference formulas are stored as expression strings (SystemDef.references),
to be evaluated through the same parser as everything else, so that a
reference check runs one code path over two independent data paths.  Derived
parameters (the carriage P, Q, K and friends) are computed here once and
injected alongside the base parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chaplygin import ChaplyginStructure
from .exprlang import eval_value, parse
from .frames import ConstraintSplit, Frame, QuasiState
from .lagrangian import Lagrangian

__all__ = [
    "SystemDef", "builtin", "BUILTIN_NAMES", "measure_density",
    "sample_states",
]

BUILTIN_NAMES = ("nonholonomic_particle", "vertical_disk", "delta_class",
                 "carriage")


@dataclass
class SystemDef:
    name: str
    n: int
    m: int
    coords: tuple
    vel_names: tuple
    frame_exprs: list
    lagrangian_expr: str
    params: dict
    chaplygin: Optional[ChaplyginStructure] = None
    references: dict = field(default_factory=dict)
    builtin_k: Optional[list] = None
    sample_box: Optional[dict] = None
    delta_info: Optional[dict] = None
    domain_note: str = ""
    derived: tuple = ()  # names of the parameters computed from the others

    def split(self):
        return ConstraintSplit(self.n, self.m)

    def frame(self):
        return Frame(self.frame_exprs, self.coords, self.params)

    def lagrangian(self):
        return Lagrangian(self.lagrangian_expr, self.coords, self.vel_names,
                          self.params)

    def to_json_dict(self):
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "coords": list(self.coords),
            "velocities": list(self.vel_names),
            "frame": [list(row) for row in self.frame_exprs],
            "lagrangian": self.lagrangian_expr,
            "params": dict(self.params),
            "references": {k: v for k, v in self.references.items()},
            "builtin_k": self.builtin_k,
            "sample_box": self.sample_box,
            "domain_note": self.domain_note,
        }

    def content_hash(self):
        payload = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def from_json_dict(cls, doc):
        return cls(
            name=doc["name"], n=int(doc["n"]), m=int(doc["m"]),
            coords=tuple(doc["coords"]), vel_names=velocity_names(doc),
            frame_exprs=[list(r) for r in doc["frame"]],
            lagrangian_expr=doc["lagrangian"],
            params={k: float(v) for k, v in doc.get("params", {}).items()},
            references=doc.get("references", {}),
            builtin_k=doc.get("builtin_k"),
            sample_box=doc.get("sample_box"),
            domain_note=doc.get("domain_note", ""))


def velocity_names(doc):
    """The velocity names of a JSON system document: its `velocities`, or
    u1, ..., un if it gives none."""
    return tuple(doc.get("velocities") or
                 [f"u{i + 1}" for i in range(int(doc["n"]))])


def _require_positive(params, names):
    for name in names:
        if params[name] <= 0:
            raise ValueError(
                f"parameter {name} must be positive, got {params[name]}")


def _delta_system(name, deltas, inertia_names, params, references=None,
                  box_q=None):
    """Systems with constraints u_a + Delta_a(q1) u_2 = 0 and Euclidean-type
    Lagrangian; the trailing coordinates carry an abelian translation action."""
    k = len(deltas)
    n = k + 2
    coords = tuple(f"q{i + 1}" for i in range(n))
    vels = tuple(f"u{i + 1}" for i in range(n))
    I1, I2, Ia = inertia_names[0], inertia_names[1], list(inertia_names[2:])
    terms = [f"{I1}*u1*u1", f"{I2}*u2*u2"]
    terms += [f"{Ia[j]}*u{j + 3}*u{j + 3}" for j in range(k)]
    L = "(" + " + ".join(terms) + ")/2"
    x2 = ["0", "1"] + [f"-({d})" for d in deltas]
    rows = [["1"] + ["0"] * (n - 1), x2]
    for j in range(k):
        rows.append(["0"] * (2 + j) + ["1"] + ["0"] * (k - 1 - j))

    def action(q, g):
        q = np.array(q, dtype=float)
        q[..., 2:] = q[..., 2:] + np.asarray(g, dtype=float)
        return q

    structure = ChaplyginStructure(np.zeros((k, k, k)), action,
                                   name="translations")
    if box_q is None:
        box_q = [[-2.0, 2.0]] * n
    return SystemDef(
        name=name, n=n, m=2, coords=coords, vel_names=vels,
        frame_exprs=rows, lagrangian_expr=L, params=dict(params),
        chaplygin=structure, references=dict(references or {}),
        sample_box={"q": box_q, "v": [[-2.0, 2.0]] * 2},
        delta_info={"deltas": list(deltas), "I1": I1, "I2": I2, "Ia": Ia})


def _particle(params=None):
    p = {"I1": 1.0, "I2": 1.0, "I3": 1.0}
    p.update(params or {})
    _require_positive(p, ["I1", "I2", "I3"])
    refs = {
        "gamma": ["0", "-q1*v1*v2/(1 + pow(q1, 2))"],
        "multipliers": ["-v1*v2/(1 + pow(q1, 2))"],
        "measure_density": "1/sqrt(I2 + I3*pow(q1, 2))",
    }
    return _delta_system("nonholonomic_particle", ["q1"],
                         ("I1", "I2", "I3"), p, refs)


def _vertical_disk(params=None):
    # Rolling angle q2 spins the disk about its symmetry axis, so its inertia
    # coefficient I_2 is named axial; the heading q1 carries the steering
    # inertia I_1.
    p = {"M": 1.0, "axial_inertia": 0.5, "steer_inertia": 0.25, "R": 1.0}
    p.update(params or {})
    _require_positive(p, ["M", "axial_inertia", "steer_inertia", "R"])
    refs = {
        "gamma": ["0", "0"],
        "multipliers": ["-M*R*sin(q1)*v1*v2", "M*R*cos(q1)*v1*v2"],
        "measure_density": "1/sqrt(axial_inertia + M*pow(R, 2))",
    }
    sys = _delta_system(
        "vertical_disk", ["-R*cos(q1)", "-R*sin(q1)"],
        ("steer_inertia", "axial_inertia", "M", "M"), p, refs,
        box_q=[[-math.pi, math.pi]] + [[-2.0, 2.0]] * 3)
    return sys


def _delta_class(params=None, deltas=None, inertias=None):
    deltas = list(deltas or ["q1", "pow(q1, 2)"])
    k = len(deltas)
    inertias = list(inertias or [1.0] * (k + 2))
    if len(inertias) != k + 2:
        raise ValueError("need one inertia per coordinate")
    p = {f"I{i + 1}": float(v) for i, v in enumerate(inertias)}
    p.update(params or {})
    _require_positive(p, list(p))
    names = tuple(f"I{i + 1}" for i in range(k + 2))
    return _delta_system("delta_class", deltas, names, p, {})


def carriage_derived_params(p):
    """P, Q, K and the shift-building constants for the two-wheeled carriage.

    Note the sign conventions: with this frame the dynamics works out to
    Gamma_1 = K/(P^2-Q^2) (v1-v2)(P v2 - Q v1) (and its mirror), so the
    hatted constants satisfy Phat = -2cKP/(R(P^2-Q^2)); H is the constant
    (m R^2 + 2 J2)/(2R) that makes the built-in shifts conserved exactly at
    the special axle offset.
    """
    m = p["m0"] + 2 * p["m1"]
    R, c, J, J2 = p["R"], p["c"], p["J"], p["J2"]
    P = R * R * (J + m * c * c) / (4 * c * c) + J2
    Q = R * R * (J - m * c * c) / (4 * c * c)
    K = p["m0"] * p["l"] * R ** 3 / (4 * c * c)
    det = P * P - Q * Q
    Khat = 2 * c * K / (R * R)
    Phat = -2 * c * K * P / (R * det)
    Qhat = -2 * c * K * Q / (R * det)
    H = (m * R * R + 2 * J2) / (2 * R)
    return {"m": m, "P": P, "Q": Q, "K": K, "Khat": Khat,
            "Phat": Phat, "Qhat": Qhat, "H": H}


def _carriage(params=None):
    p = {"m0": 2.0, "m1": 0.5, "J": 1.0, "J2": 0.5, "R": 1.0, "c": 1.0,
         "l": 1.0}
    p.update(params or {})
    _require_positive(p, ["m0", "m1", "J", "J2", "R", "c"])
    if p["l"] < 0:
        raise ValueError(f"parameter l must be nonnegative, got {p['l']}")
    derived = carriage_derived_params(p)
    p.update(derived)
    coords = ("psi1", "psi2", "x", "y", "theta")
    vels = ("upsi1", "upsi2", "ux", "uy", "utheta")
    rows = [
        ["1", "0", "-(R/2)*cos(theta)", "-(R/2)*sin(theta)", "-R/(2*c)"],
        ["0", "1", "-(R/2)*cos(theta)", "-(R/2)*sin(theta)", "R/(2*c)"],
        ["0", "0", "1", "0", "0"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "-y", "x", "1"],
    ]
    L = ("(m/2)*(ux*ux + uy*uy)"
         " + m0*l*utheta*(cos(theta)*uy - sin(theta)*ux)"
         " + (J/2)*utheta*utheta + (J2/2)*(upsi1*upsi1 + upsi2*upsi2)")
    refs = {
        "gamma": ["(K/(P*P - Q*Q))*(v1 - v2)*(P*v2 - Q*v1)",
                  "(K/(P*P - Q*Q))*(v1 - v2)*(Q*v2 - P*v1)"],
        "momentum_pairing": "K*(v1 - v2)",
        "constrained_lagrangian": "(P/2)*(v1*v1 + v2*v2) - Q*v1*v2",
    }
    builtin_k = [
        "(-Khat*sin(theta) + H*cos(theta))*v1"
        " + (Khat*sin(theta) + H*cos(theta))*v2",
        "(Khat*cos(theta) + H*sin(theta))*v1"
        " + (-Khat*cos(theta) + H*sin(theta))*v2",
        "0",
    ]
    C = np.zeros((3, 3, 3))
    # [E_3, E_5] = E_4 and [E_4, E_5] = -E_3 give C^4_35 = -1, C^3_45 = 1.
    C[0, 2, 1] = -1.0
    C[2, 0, 1] = 1.0
    C[1, 2, 0] = 1.0
    C[2, 1, 0] = -1.0

    def action(q, g):
        q = np.array(q, dtype=float)
        tx, ty, beta = (float(g[0]), float(g[1]), float(g[2]))
        x, y = q[..., 2].copy(), q[..., 3].copy()
        q[..., 2] = x * math.cos(beta) - y * math.sin(beta) + tx
        q[..., 3] = x * math.sin(beta) + y * math.cos(beta) + ty
        q[..., 4] = q[..., 4] + beta
        return q

    return SystemDef(
        name="carriage", n=5, m=2, coords=coords, vel_names=vels,
        frame_exprs=rows, lagrangian_expr=L, params=p,
        chaplygin=ChaplyginStructure(C, action, name="SE(2)"),
        references=refs, builtin_k=builtin_k,
        sample_box={"q": [[-2.0, 2.0]] * 4 + [[-math.pi, math.pi]],
                    "v": [[-2.0, 2.0]] * 2},
        derived=tuple(derived))


def builtin(name, params=None, **kwargs):
    """A fully populated definition of one of the classical example systems:
    nonholonomic_particle, vertical_disk, delta_class, or carriage."""
    if name == "nonholonomic_particle":
        return _particle(params)
    if name == "vertical_disk":
        return _vertical_disk(params)
    if name == "delta_class":
        return _delta_class(params, **kwargs)
    if name == "carriage":
        return _carriage(params)
    raise ValueError(
        f"unknown system {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")


def measure_density(system, q1):
    """Invariant measure density N(q1) = 1/sqrt(I2 + sum_a I_a Delta_a^2)."""
    info = system.delta_info
    if info is None:
        raise ValueError(f"{system.name} is not a delta-class system")
    env = {"q1": float(q1)}
    env.update(system.params)
    total = float(system.params[info["I2"]])
    for d, ia in zip(info["deltas"], info["Ia"]):
        val = eval_value(parse(d), env)
        total += float(system.params[ia]) * val * val
    if total <= 0:
        raise ValueError(f"nonpositive radicand {total} in measure density")
    return 1.0 / math.sqrt(total)


def sample_states(system, count, seed=0):
    """Batched random states on C drawn from the system's sample box."""
    rng = np.random.default_rng(seed)
    box = system.sample_box
    qlo = np.array([b[0] for b in box["q"]])
    qhi = np.array([b[1] for b in box["q"]])
    vlo = np.array([b[0] for b in box["v"]])
    vhi = np.array([b[1] for b in box["v"]])
    q = rng.uniform(qlo, qhi, (count, system.n))
    v = rng.uniform(vlo, vhi, (count, system.m))
    return QuasiState.on_C(q, v, system.split())
