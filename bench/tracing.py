"""Span tracing around the public functions of each framedyn module.

Wrappers are installed from the benchmark's side only: the library is not
edited.  Every wrapper records one span (name, start, end, parent) in flat
in-memory columns; a few wrappers also observe arguments or results to count
work that is not a call (accepted integrator steps, exported bytes, exit
codes, states per batched call).  Self time is a span's duration minus the
time covered by its direct child spans.

A function that a module imported by name (``from .frames import
structure_functions``) lives on under that second name, so installation
patches every framedyn module attribute that is the original object, and
uninstallation puts every original back and verifies that no wrapper is left.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# (module, owner, attribute, span name).  owner is None for a module-level
# function, else a class name in that module.  Targets missing from the
# library are skipped and listed in Tracer.missing, which makes the traced
# run incorrect.
TARGETS = [
    ("exprlang", None, "parse", "exprlang.parse"),
    ("exprlang", None, "compile_taylor", "exprlang.compile"),
    ("exprlang", "ExprFunction", "value", "exprlang.value"),
    ("exprlang", "ExprFunction", "taylor", "exprlang.taylor"),
    ("exprlang", "ExprFunction", "taylor_env", "exprlang.taylor_env"),
] + [
    ("jets", "TaylorValue", op, "jets.ops")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "__pow__", "apply", "extract", "drop")
] + [
    ("frames", "VectorField", "values", "frames.field_values"),
    ("frames", "VectorField", "dirderiv", "frames.dfield"),
    ("frames", "Frame", "matrix", "frames.matrix"),
    ("frames", "Frame", "check_matrix", "frames.check_matrix"),
    ("frames", None, "structure_functions", "frames.structure_functions"),
    ("frames", None, "quasi_velocities", "frames.quasi"),
    ("frames", None, "velocities_from_quasi", "frames.quasi"),
    ("frames", None, "change_of_D_basis", "frames.change_of_D_basis"),
    ("lagrangian", "Lagrangian", "value", "lagrangian.value"),
    ("lagrangian", "Lagrangian", "taylor", "lagrangian.taylor"),
    ("lagrangian", "Lagrangian", "taylor_env", "lagrangian.taylor_env"),
    ("lagrangian", None, "vlift_deriv", "lagrangian.lifts"),
    ("lagrangian", None, "clift_field", "lagrangian.lifts"),
    ("lagrangian", None, "clift_deriv", "lagrangian.lifts"),
    ("lagrangian", None, "dvlift_field", "lagrangian.lifts"),
    ("lagrangian", None, "dvlift", "lagrangian.lifts"),
    ("lagrangian", None, "hessian", "lagrangian.hessian"),
    ("lagrangian", None, "energy", "lagrangian.energy"),
    ("lagrangian", None, "regularity", "lagrangian.regularity"),
    ("linsolve", None, "solve_and_det", "linsolve.solve"),
    ("linsolve", None, "det_pp", "linsolve.det"),
    ("linsolve", None, "cond_estimate", "linsolve.cond"),
    ("nonholonomic", "NonholonomicField", "rate", "nonholonomic.rate"),
    ("nonholonomic", "NonholonomicField", "gamma", "nonholonomic.gamma"),
    ("nonholonomic", "NonholonomicField", "multipliers",
     "nonholonomic.multipliers"),
    ("nonholonomic", "NonholonomicField", "residual_fundamental",
     "nonholonomic.residual"),
    ("nonholonomic", "NonholonomicField", "residual_hamel",
     "nonholonomic.residual"),
    ("nonholonomic", "NonholonomicField", "constrained_form_residual",
     "nonholonomic.residual"),
    ("nonholonomic", "RegularityError", "__init__",
     "nonholonomic.regularity_error"),
    ("vakonomic", None, "consistency_report",
     "vakonomic.consistency_report"),
    ("vakonomic", None, "solve_gamma_C", "vakonomic.solve_gamma_C"),
    ("vakonomic", None, "make_section", "vakonomic.make_section"),
] + [
    ("vakonomic", cls, "taylor", "vakonomic.section_taylor")
    for cls in ("ZeroSection", "CustomSection", "MomentumSection",
                "ShiftedMomentumSection")
] + [
    ("chaplygin", None, "prop6_scalar", "chaplygin.prop6_scalar"),
    ("chaplygin", None, "gamma_k_residual", "chaplygin.gamma_k_residual"),
    ("quasichart", "QvChartPoint", "__init__", "quasichart.point"),
    ("quasichart", "QvChartPoint", "eval", "quasichart.eval"),
    ("quasichart", "QvChartPoint", "eval_fibre_partial", "quasichart.eval"),
    ("integrator", None, "integrate", "integrator.integrate"),
    ("integrator", None, "attach_observables", "integrator.observables"),
    ("integrator", None, "drift_report", "integrator.drift_report"),
    ("integrator", None, "export_csv", "integrator.export"),
    ("integrator", None, "export_json", "integrator.export"),
    ("systems", None, "builtin", "systems.build"),
    ("systems", "SystemDef", "frame", "systems.build"),
    ("systems", "SystemDef", "lagrangian", "systems.build"),
    ("systems", "SystemDef", "from_json_dict", "systems.build"),
    ("systems", None, "sample_states", "systems.sample_states"),
    ("cli", None, "main", "cli.main"),
]

SPANS = {span for _, _, _, span in TARGETS}

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the same
# names; bench/selftest.py checks that the two agree.
PER_LAYER = {
    "exprlang.parse.calls": ("count", "lower"),
    "exprlang.parse.self_ms": ("ms", "lower"),
    "exprlang.compile.calls": ("count", "lower"),
    "exprlang.compile.self_ms": ("ms", "lower"),
    "exprlang.value.calls": ("count", "lower"),
    "exprlang.value.self_ms": ("ms", "lower"),
    "exprlang.taylor.calls": ("count", "lower"),
    "exprlang.taylor.self_ms": ("ms", "lower"),
    "exprlang.taylor_env.calls": ("count", "lower"),
    "exprlang.taylor_env.self_ms": ("ms", "lower"),
    "exprlang.taylor_env.states_per_call": ("states", "higher"),
    "jets.ops.calls": ("count", "lower"),
    "jets.self_ms": ("ms", "lower"),
    "frames.field_values.calls": ("count", "lower"),
    "frames.field_values_per_eval": ("calls/eval", "lower"),
    "frames.matrix.calls": ("count", "lower"),
    "frames.matrix.self_ms": ("ms", "lower"),
    "frames.dfield.calls": ("count", "lower"),
    "frames.dfield.self_ms": ("ms", "lower"),
    "frames.structure_functions.calls": ("count", "lower"),
    "frames.structure_functions.self_ms": ("ms", "lower"),
    "lagrangian.taylor.calls": ("count", "lower"),
    "lagrangian.taylor.self_ms": ("ms", "lower"),
    "lagrangian.taylor_per_eval": ("calls/eval", "lower"),
    "lagrangian.lifts.self_ms": ("ms", "lower"),
    "lagrangian.hessian.self_ms": ("ms", "lower"),
    "lagrangian.regularity.calls": ("count", "lower"),
    "linsolve.solve.calls": ("count", "lower"),
    "linsolve.solve.self_ms": ("ms", "lower"),
    "linsolve.det.calls": ("count", "lower"),
    "nonholonomic.rate.calls": ("count", "lower"),
    "nonholonomic.rate.self_ms": ("ms", "lower"),
    "nonholonomic.gamma.calls": ("count", "lower"),
    "nonholonomic.residual.self_ms": ("ms", "lower"),
    "nonholonomic.solves_per_report": ("solves/report", "lower"),
    "nonholonomic.regularity_errors": ("count", "lower"),
    "vakonomic.consistency_report.calls": ("count", "lower"),
    "vakonomic.consistency_report.self_ms": ("ms", "lower"),
    "vakonomic.solve_gamma_C.self_ms": ("ms", "lower"),
    "vakonomic.section_taylor.self_ms": ("ms", "lower"),
    "chaplygin.prop6_scalar.self_ms": ("ms", "lower"),
    "chaplygin.gamma_k_residual.self_ms": ("ms", "lower"),
    "quasichart.point.self_ms": ("ms", "lower"),
    "quasichart.eval.calls": ("count", "lower"),
    "quasichart.eval.self_ms": ("ms", "lower"),
    "integrator.integrate.self_ms": ("ms", "lower"),
    "integrator.nfev": ("count", "lower"),
    "integrator.steps_accepted": ("count", "lower"),
    "integrator.steps_rejected": ("count", "lower"),
    "integrator.accept_ratio": ("ratio", "higher"),
    "integrator.observables.self_ms": ("ms", "lower"),
    "integrator.drift_report.self_ms": ("ms", "lower"),
    "integrator.export.self_ms": ("ms", "lower"),
    "integrator.export.bytes": ("bytes", "lower"),
    "systems.build.self_ms": ("ms", "lower"),
    "systems.sample_states.self_ms": ("ms", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.self_ms": ("ms", "lower"),
    "cli.exit_nonzero": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.self_share": ("ratio", "higher"),
}


class Tracer:
    """Installs span-recording wrappers and turns the spans into metrics."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []     # (owner, attribute, original raw object)
        self.missing = []
        self.integrations = []  # (method, accepted steps, rate calls)
        self.export_bytes = 0
        self.exit_nonzero = 0
        self.env_states = 0

    # -- installation ------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span, observe=None):
        nid = self._id(span)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(idx, args, kwargs, result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def _observer(self, span):
        if span == "integrator.integrate":
            rate_id = self._id("nonholonomic.rate")

            def observe(idx, args, kwargs, traj):
                cfg = args[4] if len(args) > 4 else kwargs["cfg"]
                nfev = self.name[idx + 1:].count(rate_id)
                self.integrations.append(
                    (cfg.method, len(traj.times) - 1, nfev))
            return observe
        if span == "integrator.export":
            def observe(idx, args, kwargs, result):
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.export_bytes += os.path.getsize(path)
            return observe
        if span == "cli.main":
            def observe(idx, args, kwargs, code):
                self.exit_nonzero += int(code != 0)
            return observe
        if span == "exprlang.taylor_env":
            def observe(idx, args, kwargs, result):
                self.env_states += _states_in(args[1])
            return observe
        return None

    def install(self, package):
        """Wrap every target in the already imported package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules(package)
        for modname, owner_name, attr, span in TARGETS:
            mod = sys.modules.get(f"{package.__name__}.{modname}")
            owner = mod if owner_name is None or mod is None else getattr(
                mod, owner_name, None)
            raw = None if owner is None else raw_attribute(owner, attr)
            if raw is None:
                self.missing.append(f"{modname}.{owner_name or ''}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, span,
                                           self._observer(span)))
            else:
                new = self._wrap(raw, span, self._observer(span))
            if owner_name is not None:
                self._patch(owner, attr, raw, new)
                continue
            for m in modules:
                for alias, val in list(vars(m).items()):
                    if val is raw:
                        self._patch(m, alias, raw, new)

    def _patch(self, owner, attr, raw, new):
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self, package):
        """Restore every original and return a list of leftover wrappers."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        problems = [f"{getattr(o, '__name__', o)}.{a} not restored"
                    for o, a, raw in self._patches
                    if vars(o).get(a) is not raw]
        self._patches = []
        for m in _package_modules(package):
            for attr, val in vars(m).items():
                if _is_wrapper(val):
                    problems.append(f"{m.__name__}.{attr} is still wrapped")
                if isinstance(val, type) and val.__module__ == m.__name__:
                    problems += [f"{m.__name__}.{attr}.{a} is still wrapped"
                                 for a, v in vars(val).items()
                                 if _is_wrapper(v)]
        return problems

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end,
                 names=np.array(self.names))

    def summary(self, since=0.0):
        """Calls and self seconds per span name, and the summed self time
        of the spans started at or after `since`."""
        name, parent, start, end = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        calls = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_s, minlength=k)
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_by[i]) for i, n in enumerate(self.names)},
            "self_since_s": float(self_s[start >= since].sum()),
            "spans": int(len(name)),
        }

    def count_under(self, inner, outer):
        """Number of `inner` spans with an `outer` span among their
        ancestors."""
        if inner not in self._ids or outer not in self._ids:
            return 0
        name, parent, _, _ = self.arrays()
        idx = np.flatnonzero(name == self._ids[inner])
        target = self._ids[outer]
        cand = parent[idx]
        hit = np.zeros(len(idx), dtype=bool)
        active = cand >= 0
        while active.any():
            found = np.zeros(len(idx), dtype=bool)
            found[active] = name[cand[active]] == target
            hit |= found
            active &= ~found
            cand[active] = parent[cand[active]]
            active &= cand >= 0
        return int(hit.sum())

    def metrics(self, round_start, traced_wall, overhead):
        """The PER_LAYER metrics of the traced set-up and round.  Self times
        cover both; trace.self_share is the self time of spans started in the
        round over the round's wall time.  overhead is the traced round's
        wall time minus the untraced one's."""
        s = self.summary(round_start)
        calls, self_s, under = s["calls"], s["self_s"], self.count_under

        def c(name):
            return calls.get(name, 0)

        def ms(name):
            return 1e3 * self_s.get(name, 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        rate = c("nonholonomic.rate")
        accepted = sum(a for _, a, _ in self.integrations)
        # DOPRI5 spends one evaluation on the first stage and six on every
        # attempted step after it (first same as last).
        rejected = sum((nfev - 1) // 6 - a
                       for method, a, nfev in self.integrations
                       if method == "rk45")
        values = {
            "exprlang.taylor_env.states_per_call": ratio(
                self.env_states, c("exprlang.taylor_env")),
            "jets.ops.calls": c("jets.ops"),
            "jets.self_ms": ms("jets.ops"),
            "frames.field_values_per_eval": ratio(
                under("frames.field_values", "nonholonomic.rate"), rate),
            "lagrangian.taylor_per_eval": ratio(
                under("lagrangian.taylor", "nonholonomic.rate"), rate),
            "nonholonomic.residual.self_ms": ms("nonholonomic.residual"),
            "nonholonomic.solves_per_report": ratio(
                under("linsolve.solve", "vakonomic.consistency_report"),
                c("vakonomic.consistency_report")),
            "nonholonomic.regularity_errors": c(
                "nonholonomic.regularity_error"),
            "integrator.nfev": under("nonholonomic.rate",
                                     "integrator.integrate"),
            "integrator.steps_accepted": accepted,
            "integrator.steps_rejected": rejected,
            "integrator.accept_ratio": ratio(accepted, accepted + rejected),
            "integrator.export.bytes": self.export_bytes,
            "cli.self_ms": ms("cli.main"),
            "cli.exit_nonzero": self.exit_nonzero,
            "trace.spans": s["spans"],
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": overhead,
            "trace.overhead_frac": ratio(overhead, traced_wall - overhead),
            "trace.self_share": ratio(s["self_since_s"], traced_wall),
        }
        out = {}
        for name, (unit, _) in PER_LAYER.items():
            if name not in values:
                span, _, kind = name.rpartition(".")
                if span not in SPANS or kind not in ("calls", "self_ms"):
                    raise KeyError(f"{name} names no traced span")
                values[name] = c(span) if kind == "calls" else ms(span)
            out[name] = {"value": values[name], "unit": unit}
        return out


def _states_in(env):
    """Batch size of a leaf environment: the size of its first array leaf."""
    for val in env.values():
        val = getattr(val, "c", (val,))[0]
        if isinstance(val, np.ndarray) and val.ndim:
            return int(val.size)
    return 1


def raw_attribute(owner, attr):
    """The object stored under attr: a class's own dict entry (so that
    classmethods stay descriptors), else a module attribute."""
    if isinstance(owner, type):
        return vars(owner).get(attr)
    return getattr(owner, attr, None)


def _is_wrapper(val):
    if isinstance(val, (classmethod, staticmethod)):
        val = val.__func__
    return hasattr(val, "__bench_original__")


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package.__name__
                                  or name.startswith(prefix))]
