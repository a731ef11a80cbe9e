"""Nonholonomic dynamics from the fundamental equations.

On the constraint submanifold C the dynamics is the unique second-order field
tangent to C whose coefficients solve

    g_ab Gamma^b = clift X_a(L) - v^b clift X_b(vlift X_a(L)),   a,b <= m,

with g the Hessian block of L over the constraint distribution.  Multipliers
are the values of the same one-form on the complementary frame fields.  The
frame and its derivatives along u are evaluated once per state
(StateContext) and shared by Gamma, the multipliers and the residuals.  Three
independently-assembled residual oracles are provided: the fundamental
equations evaluated on (q, u) along the solved tangent; the Hamel form evaluated
through the composite function L(q, X(q)v); and the constrained-Lagrangian
form, whose right-hand side couples the momenta to the structure functions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .exprlang import (_DOMAIN_FAULTS, EvalDomainError, Tape, _gathered,
                       _stacked, bind_source, cached_kernel, run)
from .frames import (FRAME_DET_TOL, TangentPoint, base_velocity,
                     structure_from_matrix)
from .lagrangian import hessian_regularity, vlift_rate_at
from .linsolve import cond_estimate, min_abs, solve_and_det, unrolled
from .quasichart import QvChartPoint

__all__ = ["RegularityError", "NonholonomicField"]

GAMMA_DET_TOL = 1e-10
COND_WARN = 1e8


class RegularityError(Exception):
    def __init__(self, condition, det):
        super().__init__(
            f"regularity condition {condition!r} failed: det = {det!r}")
        self.condition = condition
        self.det = det


# A scalar frame check passes on the unrolled det (linsolve.unrolled) when
# it is finite and above this bound; otherwise Frame.check_matrix decides,
# on LAPACK's det, as everywhere else.  The margin over FRAME_DET_TOL covers
# any rounding difference between the two eliminations.
FAST_FRAME_DET = FRAME_DET_TOL * 2.0 ** 20


def _field_source(L, frame, split):
    """The one generated function of the field of (L, frame, split)
    (docs/state_context.md): f(q + v, (fp, lp, check)) -> (M, u, D, h,
    g_D, rhs, solution), each piece a flat row-major sequence.  Every kernel
    is inlined on one Tape, so a line that several of them need is emitted
    once; the sums are the piecewise assembly's, in its order.  Shared by
    every (L, frame, split) of the same structure."""
    n, m = split.n, split.m
    fk, lk = frame._kernels, L.fn.kernel
    key = ("field", lk.structure[:2], lk.var_names, lk.param_names,
           fk.structure[:2], fk.var_names, fk.param_names, m)
    return cached_kernel(key, lambda: _generate_field(fk, lk, n, m))


def _params(kernels, name):
    """The parameter texts name[0], name[1], ... of a kernel's parameters."""
    return [f"{name}[{j}]" for j in range(len(kernels.param_names))]


def _generate_field(fk, lk, n, m):
    tape = Tape()
    temp = tape.temp
    q = [f"q{i}" for i in range(n)]
    fp, lp = _params(fk, "fp"), _params(lk, "lp")

    def lagrangian(k, *dirs):
        """The top slot of L's jet at (q, u) along k directions, each a
        (dq, du) pair."""
        return tape.kernel(lk, k, q + u, [dq + du for dq, du in dirs],
                           lp)[(1 << k) - 1]

    X = tape.kernel(fk, 0, q, [], fp)
    frame_lines = len(tape.lines)  # the frame check follows them
    rows = [X[a * n:(a + 1) * n] for a in range(m)]
    u = h = ["0.0"] * n
    for a in range(m):
        u = [temp(f"{x} + v{a}*{y}") for x, y in zip(u, rows[a])]
    D = tape.kernel(fk, 1, q, [u], fp, m * n)[1::2]
    D = [D[a * n:(a + 1) * n] for a in range(m)]
    for a in range(m):
        h = [temp(f"{x} + v{a}*{y}") for x, y in zip(h, D[a])]
    zq = ["0.0"] * n
    g = [None] * (m * m)
    for a in range(m):
        for b in range(a, m):
            g[a * m + b] = g[b * m + a] = lagrangian(2, (zq, rows[a]),
                                                     (zq, rows[b]))
    rhs = [temp(f"{lagrangian(1, (rows[a], D[a]))} - "
                f"({lagrangian(2, (zq, rows[a]), (u, h))} + "
                f"{lagrangian(1, (zq, D[a]))})") for a in range(m)]
    pieces = ", ".join(f"({', '.join(p)},)" for p in (u, sum(D, []), h))
    source = "\n".join(
        ["def _field(x, c):",
         f"    {', '.join(q)}, = x[:{n}]",
         f"    {', '.join(f'v{a}' for a in range(m))}, = x[{n}:{n + m}]",
         "    fp, lp, check = c"]
        + tape.lines[:frame_lines]
        + [f"    M = ({', '.join(X)},)",
           "    if _scalar:",
           "        if not _fast_det < abs(_det(M)) < _inf:",
           "            check(M)",
           "    else:",
           "        M = check(M)"]
        + tape.lines[frame_lines:]
        + [f"    g, rhs = ({', '.join(g)},), ({', '.join(rhs)},)",
           "    if _scalar:",
           f"        return M, {pieces}, g, rhs, _solve(g, rhs)",
           f"    return M, {pieces}, g, rhs, None"])
    return bind_source(
        source, "_field", f"<field n={n} m={m}>",
        scalar={"_scalar": True, "_det": unrolled(n, solve=False),
                "_solve": unrolled(m), "_fast_det": FAST_FRAME_DET,
                "_inf": math.inf},
        batched={"_scalar": False})


def _field_function(L, frame, split):
    """s -> (M, u, D, h, g_D, rhs, solution) at a state on C, from one run
    of the generated field function (_field_source).  At a scalar state the
    pieces are tuples and solution is (Gamma, det) of g_D Gamma = rhs or
    (None, 0.0); at a batched one M is the checked array, the rest arrays
    of the batch shape on a trailing axis, and solution None."""
    n, m = split.n, split.m
    kernel = _field_source(L, frame, split)
    on_C = [0.0] * (n - m)

    def consts(shape, errors):  # the frame check keeps the caller's settings
        def check(X):
            with np.errstate(**errors):
                M = _gathered(X, shape).reshape(shape + (n, n))
                frame.check_matrix(M)
                return M

        return frame._pvals, L._pvals, check

    scalar = consts((), {})  # the math binding runs outside any errstate

    def function(s):
        if s.q.ndim == 1:
            # The integrator's hot path calls the math binding itself, as
            # run would: run's generic flattening costs 2-3 us a call.
            x = s.q.tolist() + s.v.tolist()
            if x[n + m:] != on_C:  # a nonzero v^a: the full test
                s.require_on_C(split)
            try:
                return kernel(x, scalar)
            except _DOMAIN_FAULTS as exc:
                raise EvalDomainError(str(exc)) from exc
        s.require_on_C(split)
        shape = s.q.shape[:-1]
        M, *parts, _ = run(kernel, (s.q, s.v), consts(shape, np.geterr()))
        return [M] + [_gathered(part, shape) for part in parts] + [None]

    return function


def _lift_source(L, frame, split):
    """The one generated function of the constraint side of (L, frame,
    split) (docs/state_context.md): f(q, (fp, lp), u, M) -> (D, H, clift,
    vlift, corr) at (q, u) from the frame matrix M, each piece a flat
    sequence: the rows D_a = (DX_a)u of the trailing fields a >= m (the
    source makes all n; the field function holds the leading ones), the
    entries g_ij = vlift X_i(vlift X_j(L)) of the frame Hessian outside g_D
    (i <= j, j >= m, row by row), and for every i clift X_i(L),
    vlift X_i(L) and the correction (0, D_i)(L) of dvlift_at.  Every jet is
    the kernel that the lift formulas of lagrangian.py call, inlined on one
    Tape; each temporary is deleted after its last read.  Shared by every
    (L, frame, split) of the same structure."""
    n, m = split.n, split.m
    fk, lk = frame._kernels, L.fn.kernel
    key = ("lifts", lk.structure[:2], lk.var_names, lk.param_names,
           fk.structure[:2], fk.var_names, fk.param_names, m)
    return cached_kernel(key, lambda: _generate_lifts(fk, lk, n, m))


def _generate_lifts(fk, lk, n, m):
    tape = Tape()
    q, u = [f"q{i}" for i in range(n)], [f"u{i}" for i in range(n)]
    X = [[f"m{i}_{j}" for j in range(n)] for i in range(n)]
    zq = ["0.0"] * n
    fp, lp = _params(fk, "fp"), _params(lk, "lp")

    def lagrangian(k, *dirs):
        return tape.kernel(lk, k, q + u, [dq + du for dq, du in dirs],
                           lp)[(1 << k) - 1]

    D = tape.kernel(fk, 1, q, [u], fp)[1::2]
    rows = [D[i * n:(i + 1) * n] for i in range(n)]
    H = [lagrangian(2, (zq, X[a]), (zq, X[b]))
         for a in range(n) for b in range(max(a, m), n)]
    clift = [lagrangian(1, (X[i], rows[i])) for i in range(n)]
    vlift = [lagrangian(1, (zq, X[i])) for i in range(n)]
    corr = [lagrangian(1, (zq, rows[i])) for i in range(n)]
    pieces = [D[m * n:], H, clift, vlift, corr]
    returned = ", ".join(f"({''.join(f'{x}, ' for x in p)})" for p in pieces)
    source = "\n".join(
        ["def _lifts(q, c, u, M):",
         f"    {', '.join(q)}, = q",
         "    fp, lp = c",
         f"    {', '.join(u)}, = u",
         f"    {', '.join(sum(X, []))}, = M"]
        + tape.released(sum(pieces, []))
        + [f"    return {returned}"])
    return bind_source(source, "_lifts", f"<lifts n={n} m={m}>")


Lifts = namedtuple("Lifts", "D H clift vlift corr")


def _lift_function(L, frame, split):
    """(q, u, M) -> Lifts(D, H, clift, vlift, corr) of the lift source at a
    state on C: D of shape (..., n - m, n) and the others arrays with their
    entries on the first axis."""
    n, m = split.n, split.m
    kernel = _lift_source(L, frame, split)
    consts = frame._pvals, L._pvals

    def function(q, u, M):
        shape = q.shape[:-1]
        D, *rest = run(kernel, (q,), consts, (u,),
                       (M.reshape(shape + (-1,)),))
        return Lifts(_gathered(D, shape).reshape(shape + (n - m, n)),
                     *[_stacked(part, shape) for part in rest])

    return function


class StateContext:
    """The evaluations at one state, made once and shared by every quantity
    of the field there (scalar or batched).

    Holds M = X(q), whose rows are the X_i; u = v^alpha X_alpha; the rows
    D_a = (DX_a)u for a < m, which serve the drift term h = v^b D_b, the
    complete lifts and the moving-direction correction of the vertical
    lifts; and the system g_D Gamma = rhs with
    rhs_a = clift X_a(L) - (u, h)(vlift X_a(L)), all from one call of the
    field function (M, D, h, g and rhs become arrays on first use), which
    at a scalar state also solves the system.  gamma is set once the system
    is solved.  The constraint side (the trailing rows D_a, every clift,
    vlift and correction, the Hessian entries outside g_D) comes from one
    call of the lift function on the first read of any of it, and R from
    the frame's bracket function on first use.  A context lives as long as
    its state (NonholonomicField._context), so what it makes (memo) serves
    every later call there.
    """

    def __init__(self, field, s):
        self.L = field.L
        self.frame = field.frame
        self.split = field.split
        self._field = field
        self.q = s.q
        *self._parts, solution = field._function(s)
        self.u = np.asarray(self._parts[1])
        self._memo = {}
        if solution is not None:  # solved on the scalar route
            gamma, det = solution
            self._memo["gamma"] = (None if gamma is None else np.array(gamma),
                                   det)
        self.gamma = None

    def _array(self, i, *dims):
        return np.asarray(self._parts[i]).reshape(self.q.shape[:-1] + dims)

    M = cached_property(lambda self: self._array(0, self.split.n,
                                                 self.split.n))
    D = cached_property(lambda self: self._array(2, self.split.m,
                                                 self.split.n))
    h = cached_property(lambda self: self._array(3, self.split.n))
    g = cached_property(lambda self: self._array(4, self.split.m,
                                                 self.split.m))
    rhs = cached_property(lambda self: self._array(5, self.split.m))

    def memo(self, key, build):
        """build(), made once per key while the context lives."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def solve(self, det_tol):
        """Set gamma from g_D Gamma = rhs, solved once (by the field
        function at a scalar state, by LAPACK at a batched one); raises at
        every call with |det g_D| <= det_tol."""
        gamma, det = self.memo("gamma", lambda: solve_and_det(self.g,
                                                              self.rhs))
        if gamma is None or not min_abs(det) > det_tol:
            raise RegularityError("regular_D", det)
        self.gamma = gamma
        return self

    @property
    def p(self):
        return TangentPoint(self.q, self.u)

    @cached_property
    def _lifts(self):
        """The Lifts at this state (_lift_function), from one call made on
        the first read of any of them."""
        return self._field._lifts(self.q, self.u, self.M)

    def dfield(self, a):
        """D_a = (DX_a)u: the field function's row for a < m, the lift
        source's for a >= m."""
        m = self.split.m
        return self.D[..., a, :] if a < m else self._lifts.D[..., a - m, :]

    @cached_property
    def R(self):
        """The structure functions at q, from M on first use."""
        return structure_from_matrix(self.frame, self.q, self.M)

    def vlift(self, a):
        """vlift X_a(L); for a >= m the momentum p_a."""
        return self._lifts.vlift[a].copy()

    def clift(self, a):
        """clift X_a(L): the derivative along (X_a, D_a)."""
        return self._lifts.clift[a]

    def dvlift(self, a, w):
        """(u, w)(vlift X_a(L)), corrected along D_a (see dvlift_at)."""
        return vlift_rate_at(self.L, self.q, self.u, self.M[..., a, :],
                             self.u, w) + self._lifts.corr[a]

    def regularity_report(self, threshold):
        """The regularity tests on the full frame Hessian: g_D copied in,
        the other entries from the lift source."""

        def build():
            n, m = self.split.n, self.split.m
            g = np.empty(self.q.shape[:-1] + (n, n))
            g[..., :m, :m] = self.g
            entries = iter(self._lifts.H)
            for a in range(n):
                for b in range(max(a, m), n):
                    g[..., a, b] = g[..., b, a] = next(entries)
            return hessian_regularity(g, self.split, self.p, threshold)

        return self.memo(("regularity", threshold), build)

    def fibre(self, gamma):
        """Fibre part h + Gamma^alpha X_alpha of the second-order tangent."""
        return self.h + base_velocity(self.M, gamma)

    def epsilon(self, indices, gamma):
        """(u, w)(vlift X_a(L)) - clift X_a(L) for each a in indices, with w
        the fibre part for the coefficients gamma."""
        w = self.fibre(gamma)
        return _gathered([self.dvlift(a, w) - self.clift(a) for a in indices],
                         self.q.shape[:-1])

    def multipliers(self):
        return self.memo("lambda", lambda: self.epsilon(
            range(self.split.m, self.split.n), self.gamma))


class NonholonomicField:
    """Coefficient provider (q, v^alpha) -> Gamma^alpha with multipliers.

    Points must lie on C (|v^a| <= 1e-12); off-C states are rejected rather
    than projected so integrator drift cannot be masked.
    """

    def __init__(self, L, frame, split, det_tol=GAMMA_DET_TOL):
        self.L = L
        self.frame = frame
        self.split = split
        self.det_tol = det_tol

    # -- core assembly ------------------------------------------------------

    @cached_property
    def _function(self):
        return _field_function(self.L, self.frame, self.split)

    @cached_property
    def _lifts(self):
        return _lift_function(self.L, self.frame, self.split)

    def _context(self, s):
        """The context of s, memoised on s by (L, frame, split) and built
        again once s has changed since (docs/state_context.md)."""
        key, q = self._key, s.q
        stamp = (id(q), q.shape, q.tobytes(), s.v.tobytes())
        memo = s.__dict__.setdefault("_contexts", {})
        hit = memo.get(key)
        if hit is None or hit[0] != stamp:
            hit = memo[key] = stamp, StateContext(self, s)
        return hit[1]

    @cached_property
    def _key(self):
        # ids stay unique while a context holds L, frame and split
        return id(self.L), id(self.frame), id(self.split)

    def _solve(self, s):
        """The state's context with Gamma solved from g_D Gamma = rhs."""
        return self._context(s).solve(self.det_tol)

    def gamma(self, s):
        """Gamma^alpha at a state on C."""
        return self._solve(s).gamma.copy()

    def rate(self, s):
        """ODE right side in the C chart: (qdot, vdot) = (u, Gamma)."""
        ctx = self._solve(s)
        return ctx.u.copy(), ctx.gamma.copy()

    def multipliers(self, s):
        """lambda_a = Gamma(vlift X_a(L)) - clift X_a(L)."""
        return self._solve(s).multipliers().copy()

    def solve_report(self, s):
        """Solution with a condition-number diagnostic attached."""
        ctx = self._solve(s)
        cond = cond_estimate(ctx.g)
        return {
            "gamma": ctx.gamma.copy(),
            "condition": cond,
            "warning": (f"ill-conditioned Hessian block: cond = {cond:.3e}"
                        if cond > COND_WARN else None),
        }

    # -- residual oracles ---------------------------------------------------
    #
    # A gamma override substitutes trial coefficients (for falsification
    # checks); by default the solver's own output is re-evaluated.

    def _residual_context(self, s, gamma):
        if gamma is None:
            ctx = self._solve(s)
            return ctx, ctx.gamma
        return self._context(s), np.asarray(gamma)

    def residual_fundamental(self, s, gamma=None):
        """Gamma(vlift X_alpha(L)) - clift X_alpha(L), from jets along the
        solved second-order tangent."""
        ctx, gamma = self._residual_context(s, gamma)
        return ctx.epsilon(range(self.split.m), gamma)

    def _chart_jets(self, ctx, v, gamma, corr_dir):
        """For each alpha, three jets of the composite L(q, X(q) v) at the
        chart point (q, v): the mixed slot along (0, e_alpha) and
        (u, Gamma), the first slot along (X_alpha, 0), and the first slot
        along (0, corr_dir(alpha))."""
        m = self.split.m
        q = ctx.q
        zq = np.zeros(q.shape)
        gpad = np.zeros(q.shape)
        gpad[..., :m] = gamma

        def jet(*dirs):
            return QvChartPoint(self.frame, q, v, dirs).eval(self.L).c

        for a in range(m):
            e_va = np.zeros(q.shape)
            e_va[..., a] = 1.0
            yield (jet((zq, e_va), (ctx.u, gpad))[3],
                   jet((ctx.M[..., a, :], zq))[1],
                   jet((zq, corr_dir(a)))[1])

    def residual_hamel(self, s, gamma=None):
        """Hamel-form residual through the composite L(q, X(q) v)."""
        ctx, gamma = self._residual_context(s, gamma)
        jets = self._chart_jets(
            ctx, s.v, gamma,
            lambda a: np.einsum("...jk,...k->...j", ctx.R[..., :, a, :], s.v))
        return np.stack([t - base + corr for t, base, corr in jets], axis=-1)

    def constrained_form_residual(self, s, gamma=None):
        """Constrained-Lagrangian form: the tangent part of clift X_alpha acts
        on the restriction L_c, and the momentum term p_a carries the rest."""
        m, n = self.split.m, self.split.n
        ctx, gamma = self._residual_context(s, gamma)
        R = ctx.R
        p_mom = [ctx.vlift(a) for a in range(m, n)]
        v_c = np.zeros(s.q.shape)
        v_c[..., :m] = s.v_alpha(self.split)

        def zbeta(a):
            z = np.zeros(s.q.shape)
            z[..., :m] = np.einsum("...bk,...k->...b", R[..., :m, a, :], s.v)
            return z

        out = []
        for a, (t, base, corr) in enumerate(
                self._chart_jets(ctx, v_c, gamma, zbeta)):
            rhs = 0.0
            for j, b in enumerate(range(m, n)):
                rhs = rhs - np.einsum(
                    "...k,...k->...", R[..., b, a, :], s.v) * p_mom[j]
            out.append(t - (base - corr) - rhs)
        return np.stack(out, axis=-1)
