"""Composite evaluation of TQ functions in the quasi-velocity chart.

In the chart (q, v) of a frame, L(q, u) becomes the composite
L(q, X(q)^T v).  It is built once per (Lagrangian, frame) pair as one
expression, each velocity u^j of L replaced by v^1 X_1^j(q) + ... +
v^n X_n^j(q) + w^j (summed left to right, v first in each product; w is a
fibre probe held at zero).  A unit direction in w^i gives the jets of the
velocity partial dL/du^i.

The jets, the partials and the momenta come from generated functions that
inline the composite's kernel body with w a structural zero
(docs/exprlang.md, "Structural zeros"), so they take q and v only; they
run through exprlang.run, on Python floats at a single point and on
per-coordinate columns at a batch.  They repeat the Taylor arithmetic
that forms u from the frame's coefficient jets and walks L over it,
without the structurally zero terms, so their slots equal that reference
(kept in the tests) under ==; only the sign of an exact zero can differ.
"""

from __future__ import annotations

import weakref
from functools import cached_property, partial, reduce

import numpy as np

from .exprlang import (Add, ExprFunction, Mul, Ref, Tape, _columns,
                       generated, run, substitute)
from .folding import binary
from .jets import _MUL, TaylorValue

__all__ = ["QvChartPoint"]

# L -> {frame: (composite ExprFunction, its parameter values)}
_COMPOSITES = weakref.WeakKeyDictionary()


def _composite(L, frame):
    """L(q, X(q)^T v + w) over the frame's coordinates, v and w, with v^i
    for v^i*1 and no v^i*0 (Frame.constants).  The names of v, w and the
    frame's parameters contain a '.', which no parsed name can, so a frame
    parameter keeps its value where L binds its name."""
    by_frame = _COMPOSITES.setdefault(L, {})
    found = by_frame.get(frame)
    if found is None:
        n, zeros, ones = frame.n, frame.zeros, frame.ones
        v = [f"chart.v{i}" for i in range(n)]
        w = [f"chart.w{i}" for i in range(n)]
        renamed = {p: Ref(f"frame.{p}") for p in frame.params}
        X = [[substitute(e, renamed) for e in row] for row in frame.exprs()]
        u = {name: Add(reduce(Add, [
            Ref(v[i]) if i * n + j in ones else Mul(Ref(v[i]), X[i][j])
            for i in range(n) if i * n + j not in zeros]), Ref(w[j]))
             for j, name in enumerate(L.vel_names)}
        fn = ExprFunction(substitute(L.expr, u), frame.coords + tuple(v + w),
                          tuple(L.params) + tuple(r.name for r in
                                                  renamed.values()))
        params = tuple(float(x) for x in (*L.params.values(),
                                          *frame.params.values()))
        found = by_frame[frame] = (fn, params)
    return found


def _fibre_source(fn, n, ndirs):
    """The one generated function of the n velocity partials of a
    composite fn along ndirs directions: f(vals, params, *dirs) -> for each
    i in turn, the slots of fn's kernel along the directions and a last,
    probe direction w^i = 1 that carry the probe.  vals and each direction
    follow q and v; w and its directions are structural zeros, the probe's
    entries too, but for its 1.0.  The kernel is inlined once per probe on
    one Tape, so its lines that no probe reaches are emitted once.  Shared
    by every composite of the same structure."""
    return generated("fibre", _generate_chart_point, fn.kernel, n, ndirs,
                     True)


def _composite_source(fn, n, ndirs):
    """The one generated function of the jets of a composite fn along
    ndirs directions: f(vals, params, *dirs) -> the slots of fn's kernel,
    vals and each direction following q and v, with w and its directions
    structural zeros.  Shared by every composite of the same structure."""
    return generated("composite", _generate_chart_point, fn.kernel, n,
                     ndirs, False)


def _section_source(fn, n, ndirs, frame, m):
    """The one generated function of the momenta p_a, a >= m, of a
    composite fn of frame along ndirs directions: f(vals, params, *dirs) ->
    the slots of each p_a, from the fibre source and the frame's kernel
    (reading the frame's parameters in params) inlined on one Tape
    (_momenta).  Shared by every pair of the same structures."""
    return generated("section", _generate_chart_point, fn.kernel, n, ndirs,
                     True, frame._kernels, m, *frame.constants)


def _momenta(tape, P, X, m, k, zeros, ones):
    """The slots of p_a = sum_j P_j X_a^j, a >= m, on tape, from the slots
    P of the n partials and X of the frame's coefficients: each product in
    TaylorValue.__mul__'s group order (_MUL), a zero slot a 0.0 factor,
    summed over j left to right as reduce(add) does, so they equal that
    assembly (kept in the tests) bit for bit, but that a constant entry's
    slots (zeros, ones) are structural: None, or 1.0 then None."""
    size, out, n = 1 << k, [], len(P) >> k
    X = [None if i // size in zeros else (None if i % size else 1.0)
         if i // size in ones else "0.0" if x is None else x
         for i, x in enumerate(X)]
    add = partial(reduce, partial(binary, "+"))
    for a in range(m, n):
        for groups in _MUL[k]:
            total = add([add([add([binary("*", P[j * size + s] or "0.0",
                                          X[(a * n + j) * size + t])
                                   for s, t in g]) for g in groups])
                         for j in range(n)])
            out.append(tape.fold("p", {"p": total}))  # bound as fold binds
    return out


def _generate_chart_point(kernels, n, ndirs, probes, *section):
    """The function of _fibre_source (probes), of _composite_source, or,
    given section = (frame kernels, m, zeros, ones), of _section_source."""
    tape = Tape()
    zero = [None] * n  # w and its directions
    x = [f"x{j}" for j in range(2 * n)]
    dirs = [[f"d{d}_{j}" for j in range(2 * n)] for d in range(ndirs)]
    if probes:
        slots = []
        for i in range(n):
            probe = [None] * (3 * n)
            probe[2 * n + i] = 1.0
            slots += tape.kernel(kernels, ndirs + 1, x + zero,
                                 [d + zero for d in dirs] + [probe],
                                 "p")[1 << ndirs:]
    else:
        slots = tape.kernel(kernels, ndirs, x + zero,
                            [d + zero for d in dirs], "p")
    tag = "fibre" if probes else "composite"
    if section:
        frame, m, *constants = section
        X = tape.kernel(frame, ndirs, x[:n], [d[:n] for d in dirs], "p",
                        at=len(kernels.param_names) - len(frame.param_names))
        slots, tag = _momenta(tape, slots, X, m, ndirs, *constants), "section"
    names = [f"d{d}" for d in range(ndirs)]
    return tape.function(f"_{tag}", ["v", "p"] + names,
                         {"v": x, **dict(zip(names, dirs))}, [slots],
                         f"<{tag} n={n} k={ndirs}>")


class QvChartPoint:
    """A chart point (q, v), scalar or batched, with directions.

    dirs is a sequence of (dq, dv) pairs, both of full length n (use zero
    padding for C-restricted directions): at most three, or two where a
    velocity partial is taken.
    """

    def __init__(self, frame, q, v, dirs):
        self.frame = frame
        self.q = np.asarray(q, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.dirs = list(dirs)
        self.ndirs = len(self.dirs)
        self._partials = {}  # L -> the n velocity partials

    @cached_property
    def cols(self):
        """Per-coordinate columns of q and v (0-d at a single point)."""
        return _columns((self.q, self.v), self.q.shape[:-1])

    @cached_property
    def dir_cols(self):
        """Per-coordinate columns of each direction (dq, dv)."""
        return [_columns(d, self.q.shape[:-1]) for d in self.dirs]

    def _run(self, L, source, *extra):
        """The TaylorValues of source(fn, n, ndirs, *extra) at the point."""
        fn, params = _composite(L, self.frame)
        slots = run(source(fn, self.frame.n, self.ndirs, *extra),
                    (self.q, self.v), params, *self.dirs)
        size = 1 << self.ndirs
        return [TaylorValue(self.ndirs, slots[j:j + size])
                for j in range(0, len(slots), size)]

    def momenta(self, L, m):
        """TaylorValues of the momenta p_a = vlift X_a(L), a >= m, from one
        call of the section function (_section_source)."""
        return self._run(L, _section_source, self.frame, m)

    def eval(self, L):
        """TaylorValue of the composite along the directions, from one call
        of the composite function (_composite_source)."""
        return self._run(L, _composite_source)[0]

    def eval_fibre_partial(self, L, i):
        """TaylorValue of dL/du^i (as a chart function) along the directions:
        the slots of the kernel that carry a last, probe direction w^i.  The
        first call at this point makes every i, in one call of the fibre
        function (_fibre_source)."""
        partials = self._partials.get(L)
        if partials is None:
            partials = self._partials[L] = self._run(L, _fibre_source)
        return partials[i]

    def velocity(self, i):
        """TaylorValue of the chart velocity v^i along the directions."""
        n = self.frame.n
        return TaylorValue.variable(
            self.cols[n + i], [d[n + i] for d in self.dir_cols], self.ndirs)
