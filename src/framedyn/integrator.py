"""Integration of dynamics fields in the constraint chart.

The chart ODE is qdot^j = v^alpha X_alpha^j(q), vdot^alpha = Gamma^alpha;
working in (q, v^alpha) keeps the constraints satisfied exactly, so residual
monitoring replaces constraint-drift monitoring (see docs/integrator.md for
the derivation and the Dormand-Prince tableau).  Fixed-step RK4 and the
embedded Dormand-Prince 5(4) pair are provided.  Observables are pure
functions of the stored states, evaluated in a single batched pass over the
accepted steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
import numpy as np

from .exprlang import EvalDomainError, ExprFunction, run_kernel
from .frames import QuasiState, base_velocity
from .nonholonomic import NonholonomicField

__all__ = [
    "IntegrationError", "IntegratorConfig", "Trajectory", "integrate",
    "drift_report", "export_csv", "export_json",
]


class IntegrationError(RuntimeError):
    def __init__(self, message, t):
        super().__init__(f"{message} (at t = {t})")
        self.t = t


@dataclass
class IntegratorConfig:
    method: str = "rk4"          # "rk4" | "rk45"
    step: float = 1e-3           # rk4 step size
    rtol: float = 1e-8           # rk45 tolerances
    atol: float = 1e-10
    t_span: tuple = (0.0, 10.0)
    observables: tuple = ("energy",)
    custom_observables: dict = field(default_factory=dict)
    section: object = None       # enables defect observables
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name, x in (("step", self.step), ("rtol", self.rtol),
                        ("atol", self.atol), ("t_span[0]", self.t_span[0]),
                        ("t_span[1]", self.t_span[1])):
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite, got {x!r}")
        if self.method == "rk4" and self.step <= 0:
            raise ValueError("step must be positive")
        if self.method == "rk45" and (self.rtol <= 0 or self.atol <= 0):
            raise ValueError("tolerances must be positive")
        if not self.t_span[1] > self.t_span[0]:
            raise ValueError("t_span must be increasing")


@dataclass
class Trajectory:
    times: np.ndarray
    q: np.ndarray          # (N, n)
    v: np.ndarray          # (N, m)
    observables: dict
    meta: dict = field(default_factory=dict)

    def states(self, split):
        """The stored states as one batched QuasiState.  The state made by
        the last call is returned again, and with it its state contexts,
        while q is the same array, unchanged since, and that state's v is
        still v padded with zeros, byte for byte; otherwise a new state is
        made.  It is kept in a private attribute, not a field, so == and
        repr do not see it."""
        state = QuasiState.on_C(self.q, self.v, split)
        stamp = (state.q.shape, state.q.tobytes())
        last = self.__dict__.get("_states")
        if last is not None and last[0] is self.q and last[1] == stamp and (
                last[2].v.shape == state.v.shape
                and last[2].v.tobytes() == state.v.tobytes()):
            return last[2]
        self._states = (self.q, stamp, state)
        return state

    def columns(self):
        n, m = self.q.shape[1], self.v.shape[1]
        cols = [("t", self.times)]
        cols += [(f"q{i + 1}", self.q[:, i]) for i in range(n)]
        cols += [(f"v{i + 1}", self.v[:, i]) for i in range(m)]
        cols += list(self.observables.items())
        return cols


def _stage_point(y, k, a):
    """The stage point y + a*k, entry by entry (y itself without k)."""
    return y if k is None else [x + a * z for x, z in zip(y, k)]


def _rate_fn(provider, frame, split):
    """(y, k=None, a=0.0) -> qdot + vdot at the chart state y + a*k, with
    y = q + (v^alpha) and k lists of Python floats."""
    n = split.n
    if isinstance(provider, NonholonomicField):
        return provider._float_rate()
    if hasattr(provider, "rate"):
        tail = [0.0] * (n - split.m)

        def rate(y, k=None, a=0.0):
            y = _stage_point(y, k, a)
            dq, dv = provider.rate(QuasiState(np.array(y[:n]),
                                              np.array(y[n:] + tail)))
            return dq.tolist() + dv.tolist()
        return rate

    def rate(y, k=None, a=0.0):
        y = _stage_point(y, k, a)
        q, v = np.array(y[:n]), np.array(y[n:])
        u = base_velocity(frame.matrix(q), v)
        return u.tolist() + np.asarray(provider(q, v), dtype=float).reshape(
            v.shape).tolist()

    return rate


# Dormand-Prince 5(4) coefficients; the fifth-order solution propagates and
# the embedded fourth-order difference provides the local error estimate.
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_C = tuple(sum(row) for row in _DP_A)  # the stage times
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)


def _non_finite(y, n, pattern="{}"):
    """'name = value' for the first non-finite entry of the chart state
    y = q + v (q the first n entries), or None when every entry is finite;
    pattern decorates the name."""
    if math.isfinite(sum(y)):  # a NaN or an infinity makes the sum one too
        return None
    for i, val in enumerate(y):
        if not math.isfinite(val):
            name = f"q{i + 1}" if i < n else f"v{i - n + 1}"
            return f"{pattern.format(name)} = {val}"
    return None  # finite entries whose sum overflowed


def _added(y, h, weights, ks):
    """y + (h w_1) k_1 + (h w_2) k_2 + ... over the nonzero weights, added
    to y one term at a time (docs/integrator.md, "Stepping")."""
    for w, k in zip(weights, ks):
        if w:
            hw = h * w
            y = [x + hw * z for x, z in zip(y, k)]
    return y


def _error_part(y, y5, y4, atol, rtol):
    """The sum of the squared weighted errors over entries of one part of
    the state, from 0.0 one entry at a time."""
    total = 0.0
    for x, a, b in zip(y, y5, y4):
        e = (a - b) / (atol + rtol * max(abs(x), abs(a)))
        total = total + e * e
    return total


def integrate(provider, frame, split, initial, cfg):
    """Integrate the chart ODE from an initial state on C.

    provider is a NonholonomicField-like object (with .rate) or a plain
    callable (q, v_alpha) -> Gamma^alpha.  Returns a Trajectory sampled at
    every accepted step, with the requested observables attached.  The
    stages run on lists of Python floats (docs/integrator.md, "Stepping").
    """
    initial.require_on_C(split)
    if initial.batched:
        raise ValueError("integrate takes a single initial state")
    rate = _rate_fn(provider, frame, split)
    n = split.n
    y = initial.q.tolist() + initial.v[:split.m].tolist()
    t0, t1 = cfg.t_span
    times, ys = [t0], [y]  # no list here is edited in place

    def f(t, y, k=None, a=0.0):
        """The rate at the stage point y + a*k, which only a failure
        builds here."""
        try:
            out = rate(y, k, a)
        except Exception as exc:
            raise IntegrationError(f"field evaluation failed: {exc}", t)
        if not math.isfinite(sum(out)):  # else every entry is finite
            bad = _non_finite(out, n, "d{}/dt")
            if bad:
                y = _stage_point(y, k, a)
                raise IntegrationError(f"non-finite {bad} from the field at "
                                       f"q = {y[:n]}, v = {y[n:]}", t)
        return out

    def require_finite_step(y, t, h):
        if not math.isfinite(sum(y)):  # else every entry is finite
            bad = _non_finite(y, n)
            if bad:
                raise IntegrationError(
                    f"non-finite {bad} after the step of size {h}", t)

    if cfg.method == "rk4":
        nsteps = max(1, int(round((t1 - t0) / cfg.step)))
        h_nominal = cfg.step
        t = t0
        i = 0
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h_nominal, t1 - t)
            h2, h6 = h / 2, h / 6
            k1 = f(t, y)
            k2 = f(t + h2, y, k1, h2)
            k3 = f(t + h2, y, k2, h2)
            k4 = f(t + h, y, k3, h)
            y = [x + h6 * (a + 2 * b + 2 * c + d)
                 for x, a, b, c, d in zip(y, k1, k2, k3, k4)]
            require_finite_step(y, t, h)
            i += 1
            t = t0 + i * h_nominal if i <= nsteps else t1
            if t > t1:
                t = t1
            times.append(t)
            ys.append(y)
            if i > cfg.max_steps:
                raise IntegrationError("step budget exhausted", t)
    else:
        atol, rtol = cfg.atol, cfg.rtol
        zeros = [0.0] * len(y)
        t = t0
        h = min(cfg.step if cfg.step > 0 else (t1 - t0) / 100, t1 - t0)
        k1 = f(t, y)
        nacc = 0
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h, t1 - t)
            ks = [k1]
            for stage in range(1, 7):
                ks.append(f(t + h * _DP_C[stage],
                            _added(y, h, _DP_A[stage], ks)))
            # x + h (0 + b_1 k_1 + ...): the sum starts at 0.0, which turns
            # a -0.0 into 0.0 as sum() over arrays did
            y5 = [x + h * s for x, s in zip(y, _added(zeros, 1.0, _DP_B5, ks))]
            y4 = [x + h * s for x, s in zip(y, _added(zeros, 1.0, _DP_B4, ks))]
            require_finite_step(y5, t, h)
            err = math.sqrt(
                (_error_part(y[:n], y5[:n], y4[:n], atol, rtol)
                 + _error_part(y[n:], y5[n:], y4[n:], atol, rtol)) / len(y))
            if err <= 1.0:
                t = t + h
                y = y5
                k1 = ks[6]  # FSAL
                times.append(t)
                ys.append(y)
                nacc += 1
                if nacc > cfg.max_steps:
                    raise IntegrationError("step budget exhausted", t)
            factor = 0.9 * (err + 1e-16) ** -0.2
            h = h * min(5.0, max(0.2, factor))
            if h < 1e-13 * (t1 - t0):
                raise IntegrationError("adaptive step underflow", t)

    samples = np.array(ys)
    traj = Trajectory(
        times=np.array(times), q=np.ascontiguousarray(samples[:, :n]),
        v=np.ascontiguousarray(samples[:, n:]), observables={},
        meta={"method": cfg.method,
              "step": cfg.step if cfg.method == "rk4" else None,
              "rtol": cfg.rtol if cfg.method == "rk45" else None,
              "atol": cfg.atol if cfg.method == "rk45" else None,
              "t_span": list(cfg.t_span)})
    attach_observables(traj, provider, frame, split, cfg)
    return traj


def attach_observables(traj, provider, frame, split, cfg):
    """Evaluate the configured observables over the stored states (batched).

    Named observables need a NonholonomicField-like provider carrying L;
    custom observables are expressions in the coordinates and v1..vm.
    """
    states = traj.states(split)
    L = getattr(provider, "L", None)
    obs = traj.observables
    names = cfg.observables or ()
    if names and L is None and any(
            x in ("energy", "momenta", "multipliers", "defects")
            for x in names):
        raise ValueError("named observables require a field provider with L")
    if "energy" in names or "momenta" in names:
        ctx = NonholonomicField(L, frame, split)._context(states)
    if "energy" in names:
        obs["energy"] = ctx.energy()
    if "momenta" in names:
        for a in range(split.m, split.n):
            obs[f"p{a + 1}"] = ctx.vlift(a)
    if "multipliers" in names:
        lam = provider.multipliers(states)
        for j, a in enumerate(range(split.m, split.n)):
            obs[f"lambda{a + 1}"] = lam[..., j]
    if "defects" in names:
        if cfg.section is None:
            raise ValueError("defect observables require cfg.section")
        from .vakonomic import consistency_report
        rep = consistency_report(L, frame, split, cfg.section, states)
        for a in range(split.m):
            obs[f"weak_defect_{a + 1}"] = rep.weak_defect[..., a]
        for j, a in enumerate(range(split.m, split.n)):
            obs[f"strong_defect_{a + 1}"] = rep.strong_defect[..., j]
            obs[f"tangency_defect_{a + 1}"] = rep.tangency_defect[..., j]
    params = dict(frame.params)
    if L is not None:
        params.update(L.params)
    names = frame.coords + tuple(f"v{a + 1}" for a in range(split.m))
    pvals = tuple(float(x) for x in params.values())
    for name, expr in (cfg.custom_observables or {}).items():
        fn = ExprFunction(expr, names, tuple(params))
        try:
            obs[name] = run_kernel(fn.kernel(0), (states.q, states.v_alpha(
                split)), pvals)[0]
        except EvalDomainError as exc:
            raise EvalDomainError(f"observable {name!r}: {exc}") from exc
    return traj


def drift_report(traj, L, frame, split):
    """Residuals of the fundamental and Hamel forms along the trajectory,
    plus energy drift; all recomputed from the stored states."""
    states = traj.states(split)
    nh = NonholonomicField(L, frame, split)
    rf = nh.residual_fundamental(states)
    rh = nh.residual_hamel(states)
    E = nh._context(states).energy()
    return {
        "max_residual_fundamental": float(np.max(np.abs(rf))),
        "max_residual_hamel": float(np.max(np.abs(rh))),
        "energy_drift": float(np.max(np.abs(E - E[0]))),
        "samples": int(len(traj.times)),
        "t_span": [float(traj.times[0]), float(traj.times[-1])],
    }


_ENCODE = json.JSONEncoder().encode  # without indent: the C encoder


def json_text(doc, sort_keys=False):
    """json.dumps(doc, indent=1, sort_keys=sort_keys), byte for byte, for a
    doc with str keys in which a numpy array stands for its tolist()."""
    return _json(doc, sort_keys, "\n")


def _json(x, sort_keys, nl):
    """The text of x at the indent nl (a newline, one space a level).  A
    numeric array is one call of the C encoder, whose text ("[[1.0, 2.0],
    [3.0, 4.0]]") is indented by replacing ", " and "], [": no number's
    text holds either."""
    inner = nl + " "
    if isinstance(x, np.ndarray) and x.dtype.kind in "biuf" and x.size and (
            x.ndim in (1, 2)):
        leaf = inner + " " * (x.ndim - 1)
        body = _ENCODE(x.tolist())[1:-1].replace(", ", "," + leaf)
        if x.ndim == 2:  # the rows' "], [" now reads "]," + leaf + "["
            body = f"[{leaf}" + body[1:-1].replace(
                f"],{leaf}[", f"{inner}],{inner}[{leaf}") + f"{inner}]"
        return f"[{inner}{body}{nl}]"
    if isinstance(x, np.ndarray):  # empty, 0-d, 3-d or more, non-numeric
        return _json(x.tolist(), sort_keys, nl)
    if isinstance(x, dict) and x:
        items = sorted(x.items()) if sort_keys else x.items()
        return "{" + ",".join(
            f"{inner}{_ENCODE(k)}: {_json(v, sort_keys, inner)}"
            for k, v in items) + nl + "}"
    if isinstance(x, (list, tuple)) and x:
        return "[" + ",".join(inner + _json(v, sort_keys, inner)
                              for v in x) + nl + "]"
    return _ENCODE(x)


def csv_text(names, table):
    """A header of names, then each row of the 2-D table as "%.17g" cells
    (f"{x:.17g}": enough digits to round-trip a double), a row at a time."""
    row = ",".join(["%.17g"] * len(names))
    return "\n".join([",".join(names)]
                     + [row % tuple(r) for r in table.tolist()]) + "\n"


def export_csv(traj, path):
    """CSV export: header t,q1..qn,v1..vm,<observables...>, 17-significant-
    digit decimal floats."""
    names, cols = zip(*traj.columns())
    with open(path, "w") as fh:
        fh.write(csv_text(names, np.column_stack(cols)))


def export_json(traj, path):
    """JSON export mirroring the CSV columns."""
    doc = {name: np.asarray(col, dtype=float) for name, col in traj.columns()}
    with open(path, "w") as fh:
        fh.write(json_text({**doc, "_meta": traj.meta}) + "\n")
