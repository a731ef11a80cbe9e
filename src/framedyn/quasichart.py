"""Composite evaluation of TQ functions in the quasi-velocity chart.

In the chart (q, v) of a frame, L(q, u) becomes the composite
L(q, X(q)^T v).  It is built once per (Lagrangian, frame) pair as one
expression, each velocity u^j of L replaced by v^1 X_1^j(q) + ... +
v^n X_n^j(q) + w^j (summed left to right, v first in each product; w is a
fibre probe held at zero).  A unit direction in w^i gives the jets of the
velocity partial dL/du^i.

The jets, the partials, the momenta and the jets of L~ = L - phi_a v^a
come from generated functions that inline the composite's kernel body with
w a structural zero (docs/exprlang.md, "Structural zeros"), so they take q
and v only; they run through exprlang.run, on Python floats at a single
point and on per-coordinate columns at a batch.  They repeat the Taylor
arithmetic that forms u from the frame's coefficient jets and walks L over
it, without the structurally zero terms, so their slots equal that
reference (kept in the tests) under ==; only the sign of an exact zero can
differ.
"""

from __future__ import annotations

import weakref
from functools import partial, reduce

import numpy as np

from .exprlang import (Add, ExprFunction, Mul, Ref, Tape, generated, run,
                       substitute)
from .folding import binary, texts
from .jets import _MUL, MAX_DIRECTIONS, TaylorValue

__all__ = ["QvChartPoint"]

# L -> {frame: (composite ExprFunction, its parameter values)}
_COMPOSITES = weakref.WeakKeyDictionary()
_sum = partial(reduce, partial(binary, "+"))  # of values on a tape, in turn


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


def _section_source(fn, n, ndirs, frame, m, exprs=None, tilde=False):
    """The one generated function of the momenta p_a, a >= m, of a
    composite fn of frame along ndirs directions: f(vals, params, *dirs) ->
    the slots of each p_a, from the fibre source and the frame's kernel
    (reading the frame's parameters in params) inlined on one Tape
    (_momenta); plus the slots of exprs, a CustomSection's Kernels read at
    q and v^1..v^m with its parameters after fn's (b + e), or those alone
    where frame is None; with tilde, of L~ = fn - phi_a v^a for these
    phi_a (_tilde).  Shared by every tuple of the same structures."""
    momenta = ((frame._kernels, m, *frame.constants) if frame is not None
               else (None, m, (), ()))
    return generated("section", _generate_chart_point, fn.kernel, n, ndirs,
                     frame is not None, *momenta, exprs, tilde)


def _product(a, b, k):
    """The slots of a*b on a tape as TaylorValue.__mul__ forms them: the
    products of each group of _MUL summed, then the groups, left to right."""
    return [_sum([_sum([binary("*", a[s], b[t]) for s, t in g])
                  for g in groups]) for groups in _MUL[k]]


def _momenta(tape, P, X, m, k, zeros, ones):
    """The slots of p_a = sum_j P_j X_a^j, a >= m, on tape, from the slots
    P of the n partials and X of the frame's coefficients: each product as
    TaylorValue.__mul__ forms it (_product), a zero slot a 0.0 factor,
    summed over j left to right as reduce(add) does, so they equal that
    assembly (kept in the tests) bit for bit, but that a constant entry's
    slots (zeros, ones) are structural: None, or 1.0 then None."""
    size, out, n = 1 << k, [], len(P) >> k
    P = [p or "0.0" for p in P]
    X = [None if i // size in zeros else (None if i % size else 1.0)
         if i // size in ones else "0.0" if x is None else x
         for i, x in enumerate(X)]
    for a in range(m, n):
        terms = [_product(P[j * size:], X[(a * n + j) * size:], k)
                 for j in range(n)]  # each reads its first 2**k slots
        out += [tape.fold("p", {"p": _sum(t)})  # bound as fold binds
                for t in zip(*terms)]
    return out


def _tilde(tape, L, phi, x, dirs, m, k):
    """The slots of L~ = L - phi_a v^a, a >= m, on tape, as the TaylorValue
    route formed them from the slots L of the composite and phi of the
    phi_a: each phi_a v^a (_product) subtracted from L's slots in turn,
    v^a's slots its value, its entry in each direction and 0.0."""
    size, n, out = 1 << k, len(x) // 2, texts(L)
    for j, a in enumerate(range(m, n)):
        v = [([x] + dirs)[u.bit_length()][n + a] if u & (u - 1) == 0
             else "0.0" for u in range(size)]  # u = 0, or a single bit
        product = _product(texts(phi[j * size:(j + 1) * size]), v, k)
        out = [tape.fold("p", {"p": binary("-", y, z)})
               for y, z in zip(out, product)]
    return out


def _generate_chart_point(kernels, n, ndirs, probes, *section):
    """The function of _fibre_source (probes), of _composite_source, or,
    given section = (frame kernels or None, m, zeros, ones, exprs, tilde),
    of _section_source (probes where the frame kernels are given)."""
    if probes and ndirs >= MAX_DIRECTIONS:
        raise ValueError(f"at most {MAX_DIRECTIONS - 1} directions where a "
                         f"velocity partial is taken, not {ndirs}")
    tape = Tape()
    zero = [None] * n  # w and its directions
    x = [f"x{j}" for j in range(2 * n)]
    dirs = [[f"d{d}_{j}" for j in range(2 * n)] for d in range(ndirs)]
    lifted = [d + zero for d in dirs]
    frame, m, zeros, ones, exprs, tilde = section or (None,) * 6
    slots = []
    for i in range(n if probes else 0):
        probe = [None] * (3 * n)
        probe[2 * n + i] = 1.0
        slots += tape.kernel(kernels, ndirs + 1, x + zero, lifted + [probe],
                             "p")[1 << ndirs:]
    if tilde or not probes:
        L = tape.kernel(kernels, ndirs, x + zero, lifted, "p")
        slots = slots if probes else L
    if frame is not None:
        X = tape.kernel(frame, ndirs, x[:n], [d[:n] for d in dirs], "p",
                        at=len(kernels.param_names) - len(frame.param_names))
        slots = _momenta(tape, slots, X, m, ndirs, zeros, ones)
    if exprs is not None:
        e = tape.kernel(exprs, ndirs, x[:n + m], [d[:n + m] for d in dirs],
                        "p", at=len(kernels.param_names))
        slots = e if frame is None else [
            tape.fold("p", {"p": binary("+", *texts(be))})
            for be in zip(slots, e)]
    if tilde:
        slots = _tilde(tape, L, slots, x, dirs, m, ndirs)
    tag = "section" if section else "fibre" if probes else "composite"
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

    def _run(self, L, source, *extra, consts=()):
        """The TaylorValues of source(fn, n, ndirs, *extra) at the point,
        consts after fn's parameters."""
        fn, params = _composite(L, self.frame)
        slots = run(source(fn, self.frame.n, self.ndirs, *extra),
                    (self.q, self.v), params + consts, *self.dirs)
        size = 1 << self.ndirs
        return [TaylorValue(self.ndirs, slots[j:j + size])
                for j in range(0, len(slots), size)]

    def section(self, L, m, momenta=True, exprs=None, tilde=False):
        """TaylorValues of phi_a, a >= m, from one call of the section
        function (_section_source): the momenta p_a = vlift X_a(L) (if
        momenta) plus the slots of exprs, a CustomSection, or those alone;
        with tilde, the one TaylorValue of L~ = L - phi_a v^a."""
        tail = () if exprs is None and not tilde else (
            exprs and exprs._kernels, tilde)
        return self._run(L, _section_source, self.frame if momenta else None,
                         m, *tail, consts=exprs._pvals if exprs else ())

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
