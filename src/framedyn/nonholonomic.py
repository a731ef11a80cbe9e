"""Nonholonomic dynamics from the fundamental equations.

On the constraint submanifold C the dynamics is the unique second-order field
tangent to C whose coefficients solve

    g_ab Gamma^b = clift X_a(L) - v^b clift X_b(vlift X_a(L)),   a,b <= m,

with g the Hessian block of L over the constraint distribution; the
multipliers are the same one-form on the complementary frame fields.  The
frame and its derivatives along u are evaluated once per state
(StateContext) and shared by Gamma, the multipliers and the residuals.
Three independently-assembled residual oracles are provided: the
fundamental equations on (q, u) along the solved tangent, the Hamel form
through the composite L(q, X(q)v), and the constrained-Lagrangian form,
whose right side couples the momenta to the structure functions.  Their
jets come from generated functions that only evaluate jets (one call per
state for the rates of the one-form, one for the chart jets); each form
combines them in its own order, at its own chart point and with its own
correction, so the three stay independent.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property

import numpy as np

from .exprlang import (_DOMAIN_FAULTS, EvalDomainError, Tape, _columns,
                       _gathered, _guarded, _stacked, bind_source, generated,
                       run)
from .frames import (FAST_FRAME_DET, TangentPoint, _brackets, base_velocity,
                     contract_structure, structure_from_matrix)
from .lagrangian import energy, hessian_regularity
from .linsolve import (LU, cond_estimate, factor, frame_gate, min_abs,
                       substitute)
from .quasichart import _composite

__all__ = ["RegularityError", "NonholonomicField"]

GAMMA_DET_TOL = 1e-10
COND_WARN = 1e8


class RegularityError(Exception):
    def __init__(self, condition, det):
        super().__init__(
            f"regularity condition {condition!r} failed: det = {det!r}")
        self.condition = condition
        self.det = det


def _field_source(L, frame, split):
    """The one generated function of the field of (L, frame, split)
    (docs/state_context.md): f(x, (fp, lp, check), k=None, a=0.0) -> (M, u,
    D, h, g_D, rhs, clift, corr, solution) at the point x + a*k, that is
    x_i + a*k_i for each entry (x alone without k), of q + v, each piece a
    flat row-major sequence; clift and corr are clift X_a(L) and the
    correction (0, D_a)(L) of rhs_a, a < m.  Every kernel is inlined on one
    Tape, so a line that several of them need is emitted once; the sums
    are the piecewise assembly's, in its order.  At a single state the
    frame check is the structural gate of the frame kernel (FAST_FRAME_DET),
    with Frame.check_matrix as its fallback, and solution is (Gamma, det,
    lu) of g_D Gamma = rhs: det and the factors lu of g_D by
    linsolve.factor, Gamma from them by linsolve.substitute.
    Shared by every (L, frame, split) of the same structure and structural
    zeros (Frame.zeros)."""
    return generated("field", _generate_field, frame._kernels, L.fn.kernel,
                     split.n, split.m, frame.zeros)


def _generate_field(fk, lk, n, m, zeros):
    tape = Tape()
    temp = tape.temp
    q, v = [f"q{i}" for i in range(n)], [f"v{a}" for a in range(m)]

    def lagrangian(k, *dirs):
        """The top slot of L's jet at (q, u) along k directions, each a
        (dq, du) pair."""
        return tape.kernel(lk, k, q + u, [dq + du for dq, du in dirs],
                           "lp")[(1 << k) - 1]

    X = tape.kernel(fk, 0, q, [], "fp")
    frame_lines = len(tape.lines)  # the frame check follows them
    rows = [X[a * n:(a + 1) * n] for a in range(m)]
    u = h = ["0.0"] * n
    for a in range(m):
        u = [temp(f"{x} + v{a}*{y}") for x, y in zip(u, rows[a])]
    D = tape.kernel(fk, 1, q, [u], "fp", m * n)[1::2]
    D = [D[a * n:(a + 1) * n] for a in range(m)]
    for a in range(m):
        h = [temp(f"{x} + v{a}*{y}") for x, y in zip(h, D[a])]
    zq = ["0.0"] * n
    g = [None] * (m * m)
    for a in range(m):
        for b in range(a, m):
            g[a * m + b] = g[b * m + a] = lagrangian(2, (zq, rows[a]),
                                                     (zq, rows[b]))
    clift = [lagrangian(1, (rows[a], D[a])) for a in range(m)]
    corr = [lagrangian(1, (zq, D[a])) for a in range(m)]
    rhs = [temp(f"{clift[a]} - ({lagrangian(2, (zq, rows[a]), (u, h))} + "
                f"{corr[a]})") for a in range(m)]
    def seq(p):
        return f"({''.join(f'{x}, ' for x in p)})"

    pieces = ", ".join(["M"] + [seq(p) for p in (u, sum(D, []), h)]
                       + ["g", "rhs"] + [seq(p) for p in (clift, corr)])
    point = ", ".join(q + v)
    xs, ks = ([f"{x}{i}" for i in range(n + m)] for x in "xk")
    stage = ", ".join(f"{x} + a*{k}" for x, k in zip(xs, ks))
    source = "\n".join(
        ["def _field(x, c, k=None, a=0.0):",
         "    if k is None:",
         f"        {point}, = x[:{n + m}]",
         "    else:",
         f"        {', '.join(xs)}, = x",
         f"        {', '.join(ks)}, = k",
         f"        {point}, = {stage}",
         "    fp, lp, check = c"]
        + tape.lines[:frame_lines]
        + [f"    M = ({', '.join(X)},)",
           "    if _scalar:",
           "        if not _fast_det < abs(_gate(M)) < _inf:",
           "            check(M)",
           "    else:",
           "        M = check(M)"]
        + tape.lines[frame_lines:]
        + [f"    g, rhs = {seq(g)}, {seq(rhs)}",
           "    if _scalar:",
           "        det, lu = _factor(g)",
           "        gamma = None if lu is None else _substitute(lu, rhs)",
           f"        return {pieces}, (gamma, det, lu)",
           f"    return {pieces}, None"])
    return bind_source(
        source, "_field", f"<field n={n} m={m}>",
        scalar={"_scalar": True, "_gate": frame_gate(n, zeros),
                "_factor": factor(m), "_substitute": substitute(m),
                "_fast_det": FAST_FRAME_DET, "_inf": math.inf},
        batched={"_scalar": False})


def _field_function(L, frame, split):
    """s -> (M, u, D, h, g_D, rhs, clift, corr, solution) at a state on C,
    from one run of the generated field function (_field_source).  At a
    scalar state the pieces are tuples and solution is (Gamma, det, lu) of
    g_D Gamma = rhs, one linsolve.factor of g_D and one substitute, or
    (None, 0.0, None) at a zero pivot; at a batched one M is the array
    that Frame.check passed, the rest arrays of the batch shape on a
    trailing axis, and solution None.  Its attributes `source` and
    `scalar` are the generated function and the constants of its math
    binding, which the integrator's stages call on lists of Python floats
    without a state (_float_rate)."""
    n, m = split.n, split.m
    kernel = _field_source(L, frame, split)
    on_C = [0.0] * (n - m)

    def consts(shape, errors):  # the frame check keeps the caller's settings
        def check(X):
            with np.errstate(**errors):
                M = _gathered(X, shape).reshape(shape + (n, n))
                frame.check(M)
                return M

        return frame._pvals, L._pvals, check

    scalar = consts((), {})  # the math binding runs outside any errstate

    def function(s):
        if s.q.ndim == 1:
            x = s.q.tolist() + s.v.tolist()
            if x[n + m:] != on_C:  # a nonzero v^a: the full test
                s.require_on_C(split)
            # the math binding called as run would call it: run's generic
            # flattening costs 2-3 us a call
            try:
                return kernel(x, scalar)
            except _DOMAIN_FAULTS as exc:
                raise EvalDomainError(str(exc)) from exc
        s.require_on_C(split)
        shape = s.q.shape[:-1]
        M, *parts, _ = run(kernel, (s.q, s.v), consts(shape, np.geterr()))
        return [M] + [_gathered(part, shape) for part in parts] + [None]

    function.source, function.scalar = kernel, scalar
    return function


def _lift_source(L, frame, split):
    """The one generated function of the constraint side of (L, frame,
    split) (docs/state_context.md): f(q, (fp, lp), u, M) -> (D, H, clift,
    vlift, corr) at (q, u) from the frame matrix M, each piece a flat
    sequence: the rows D_a = (DX_a)u of the trailing fields a >= m (the
    source makes all n; the field function holds the leading ones), the
    entries g_ij = vlift X_i(vlift X_j(L)) of the frame Hessian outside g_D
    (i <= j, j >= m, row by row), vlift X_i(L) for every i, and for
    a >= m clift X_a(L) and the correction (0, D_a)(L) of dvlift_at (the
    field function makes the leading ones).  Every jet is
    the kernel that the lift formulas of lagrangian.py call, inlined on one
    Tape; each temporary is deleted after its last read.  Shared by every
    (L, frame, split) of the same structure."""
    return generated("lifts", _generate_lifts, frame._kernels, L.fn.kernel,
                     split.n, split.m)


def _generate_lifts(fk, lk, n, m):
    tape = Tape()
    q, u = [f"q{i}" for i in range(n)], [f"u{i}" for i in range(n)]
    X = [[f"m{i}_{j}" for j in range(n)] for i in range(n)]
    zq = ["0.0"] * n

    def lagrangian(k, *dirs):
        return tape.kernel(lk, k, q + u, [dq + du for dq, du in dirs],
                           "lp")[(1 << k) - 1]

    D = tape.kernel(fk, 1, q, [u], "fp")[1::2]
    rows = [D[i * n:(i + 1) * n] for i in range(n)]
    H = [lagrangian(2, (zq, X[a]), (zq, X[b]))
         for a in range(n) for b in range(max(a, m), n)]
    clift = [lagrangian(1, (X[a], rows[a])) for a in range(m, n)]
    vlift = [lagrangian(1, (zq, X[i])) for i in range(n)]
    corr = [lagrangian(1, (zq, rows[a])) for a in range(m, n)]
    return tape.function(
        "_lifts", ["q", "c", "u", "M"],
        {"q": q, "c": ["fp", "lp"], "u": u, "M": sum(X, [])},
        [D[m * n:], H, clift, vlift, corr], f"<lifts n={n} m={m}>")


def _epsilon_source(L, indices):
    """The one generated function of the rates in the one-form epsilon
    (StateContext.epsilon): f(q + u + M + w, lp) -> for each a in indices,
    slot 3 of L's jet at (q, u) along (0, X_a) and (u, w), X_a the row a of
    M, as lagrangian.vlift_rate_at makes it.  Shared by structure."""
    return generated("epsilon", _generate_epsilon, L.fn.kernel, L.n, indices)


def _generate_epsilon(lk, n, indices):
    tape = Tape()
    q, u, w = ([f"{x}{i}" for i in range(n)] for x in "quw")
    X = [[f"m{i}_{j}" for j in range(n)] for i in range(n)]
    rates = [tape.kernel(lk, 2, q + u, [["0.0"] * n + X[a], u + w],
                         "lp")[3] for a in indices]
    return tape.function("_epsilon", ["x", "lp"],
                         {"x": q + u + sum(X, []) + w}, [rates],
                         f"<epsilon n={n} a={indices}>")


def _chart_source(fn, m):
    """The one generated function of the chart jets of the chart-form
    residuals (NonholonomicField._chart_jets) from the kernel of a composite
    fn (quasichart._composite): f(q + v + u + Gamma + the X_alpha + the
    c_alpha, p) -> the three jets of each alpha.  Shared by structure."""
    return generated("chart", _generate_chart, fn.kernel, m)


def _generate_chart(kernels, m):
    n = len(kernels.var_names) // 3
    tape = Tape()
    q, v, u, g = ([f"{x}{i}" for i in range(n)] for x in "qvug")
    X, c = ([[f"{x}{a}_{j}" for j in range(n)] for a in range(m)]
            for x in "Xc")
    zero = ["0.0"] * n

    def jet(k, *dirs):
        return tape.kernel(kernels, k, q + v + zero,
                           [dq + dv + zero for dq, dv in dirs],
                           "p")[(1 << k) - 1]

    slots = []
    for a in range(m):
        e = zero[:a] + ["1.0"] + zero[a + 1:]
        slots += [jet(2, (zero, e), (u, g[:m] + zero[m:])),
                  jet(1, (X[a], zero)), jet(1, (zero, c[a]))]
    inputs = q + v + u + g[:m] + sum(X, []) + sum(c, [])
    return tape.function("_chart", ["x", "p"], {"x": inputs}, [slots],
                         f"<chart n={n} m={m}>")


Lifts = namedtuple("Lifts", "D H clift vlift corr")


def _lift_function(L, frame, split):
    """(q, u, M) -> Lifts(D, H, clift, vlift, corr) of the lift source at a
    state on C: D of shape (..., n - m, n) and the others arrays with their
    entries on the first axis, those of clift and corr for a >= m."""
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
    rhs_a = clift X_a(L) - (u, h)(vlift X_a(L)), with its clift X_a(L) and
    correction (0, D_a)(L), all from one call of the field function (M, D,
    h, g and rhs become arrays on first use), which at a scalar state also
    factorises g_D and solves the system.  g_D has one factorisation per
    state (factors), which the field solve, the vakonomic solve and the
    regularity tests read.  gamma is set once the system is solved.  The
    constraint side (the trailing rows D_a with their clift and correction,
    every vlift, the Hessian entries outside g_D) comes from one call of
    the lift function on the first read of any of it; the brackets
    of the frame's fields, R and R contracted with v (Rv) on first use.  A
    context lives as long as its state (NonholonomicField._context), so
    what it makes (memo) serves every later call there.
    """

    def __init__(self, field, s):
        self.L = field.L
        self.frame = field.frame
        self.split = field.split
        self._field = field
        self.q, self.v = s.q, s.v
        *self._parts, solution = field._function(s)
        self.u = np.asarray(self._parts[1])
        self._memo = {}
        if solution is not None:  # solved on the scalar route
            gamma, det, lu = solution
            self._memo["gamma"] = (None if gamma is None else np.array(gamma),
                                   det)
            self._memo["factors"] = LU(field.split.m, det, lu)
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

    @property
    def factors(self):
        """The linsolve.LU of g_D: the field function's at a scalar state,
        made from g on first use at a batched one."""
        return self.memo("factors", lambda: LU.of(self.g))

    def solve(self, det_tol):
        """Set gamma from g_D Gamma = rhs, solved once (by the field
        function at a scalar state, from the factors at a batched one);
        raises RegularityError at every call unless it was solved (gamma is
        not None) with |det g_D| > det_tol at every state."""
        gamma, det = self.memo("gamma", lambda: (self.factors.solve(
            self.rhs), self.factors.det))
        if gamma is None or not min_abs(det) > det_tol:
            raise RegularityError("regular_D", det)
        self.gamma = gamma
        return self

    @property
    def p(self):
        return TangentPoint(self.q, self.u)

    def energy(self):
        """E = (0, u)(L) - L at this state (lagrangian.energy), evaluated
        on the first call; an array is handed out as a copy."""
        E = self.memo("energy", lambda: energy(self.L, self.frame, self.p))
        return E.copy() if isinstance(E, np.ndarray) else E

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
    def brackets(self):
        """The brackets [X_i, X_j], i < j, at q (frames._brackets), from M
        on first use.  R read after them is solved from this array."""
        return _brackets(self.frame, self.q, self.M)

    @cached_property
    def R(self):
        """The structure functions at q, from M on first use: solved from
        the kept brackets if they were read before, else from brackets
        made and freed in the call, so that a batch's brackets stay in
        memory only for a caller that reads them."""
        return structure_from_matrix(self.frame, self.q, self.M,
                                     self.__dict__.get("brackets"))

    # R^k_ij v^j at [..., k, i], for every reader of R contracted with v
    Rv = cached_property(lambda self: contract_structure(self.R, self.v))

    def vlift(self, a):
        """vlift X_a(L); for a >= m the momentum p_a."""
        return self._lifts.vlift[a].copy()

    def clift(self, a):
        """clift X_a(L): the derivative along (X_a, D_a); the field
        function's for a < m, the lift source's for a >= m."""
        m = self.split.m
        return (self._array(6, m)[..., a] if a < m
                else self._lifts.clift[a - m])

    def _correction(self, a):
        """(0, D_a)(L), the correction of dvlift_at, from the same source as
        clift(a)."""
        m = self.split.m
        return (self._array(7, m)[..., a] if a < m
                else self._lifts.corr[a - m])

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
            return hessian_regularity(g, self.split, self.p, threshold,
                                      self.factors)

        return self.memo(("regularity", threshold), build)

    def fibre(self, gamma):
        """Fibre part h + Gamma^alpha X_alpha of the second-order tangent."""
        return self.h + base_velocity(self.M, gamma)

    def epsilon(self, indices, gamma):
        """(u, w)(vlift X_a(L)) - clift X_a(L) for each a in indices, with w
        the fibre part for gamma; the rates from one epsilon source run."""
        indices, shape = tuple(indices), self.q.shape[:-1]
        rates = run(_epsilon_source(self.L, indices), (
            self.q, self.u, self.M.reshape(shape + (-1,)), self.fibre(gamma)),
            self.L._pvals)
        return _gathered([r + self._correction(a) - self.clift(a)
                          for r, a in zip(rates, indices)], shape)

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
        stamp = (id(q), id(s.v), q.shape, q.tobytes(), s.v.tobytes())
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

    def _float_rate(self):
        """(y, k=None, a=0.0) -> u + Gamma at the chart state y + a*k, with
        y = q + (v^alpha) and k lists of Python floats: rate without a
        state or a context, for the integrator's stages.  One run of the
        field function's scalar entry, which forms the stage point, and the
        det_tol test of StateContext.solve, so the values and the errors
        are rate's."""
        source, consts = self._function.source, self._function.scalar
        det_tol = self.det_tol

        def rate(y, k=None, a=0.0):
            try:
                parts = source(y, consts, k, a)
            except _DOMAIN_FAULTS as exc:
                raise EvalDomainError(str(exc)) from exc
            gamma, det, _ = parts[-1]
            if gamma is None or not abs(det) > det_tol:
                raise RegularityError("regular_D", det)
            return parts[1] + gamma

        return rate

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

    def _chart_jets(self, ctx, v, gamma, C):
        """For each alpha, three jets of the composite L(q, X(q) v) at the
        chart point (q, v), from one run of the chart source: the mixed
        slot along (0, e_alpha) and (u, Gamma), the first slot along
        (X_alpha, 0), and the first slot along (0, C[..., :, alpha])."""
        n, m = self.split.n, self.split.m
        fn, params = _composite(self.L, self.frame)
        shape = ctx.q.shape[:-1]
        # the numpy binding on 0-d columns at a single state, as QvChartPoint
        cols = (_columns((ctx.q, v, ctx.u, gamma), shape)
                + [ctx.M[..., a, j] for a in range(m) for j in range(n)]
                + [C[..., j, a] for a in range(m) for j in range(n)])
        slots = _guarded(_chart_source(fn, m).batched, cols, params)
        return [slots[i:i + 3] for i in range(0, 3 * m, 3)]

    def residual_hamel(self, s, gamma=None):
        """Hamel-form residual through the composite L(q, X(q) v)."""
        ctx, gamma = self._residual_context(s, gamma)
        jets = self._chart_jets(ctx, s.v, gamma, ctx.Rv)
        return np.stack([t - base + corr for t, base, corr in jets], axis=-1)

    def constrained_form_residual(self, s, gamma=None):
        """Constrained-Lagrangian form: the tangent part of clift X_alpha acts
        on the restriction L_c, and the momentum term p_a carries the rest."""
        m, n = self.split.m, self.split.n
        ctx, gamma = self._residual_context(s, gamma)
        Rv = ctx.Rv
        p_mom = [ctx.vlift(a) for a in range(m, n)]
        v_c = np.zeros(s.q.shape)
        v_c[..., :m] = s.v_alpha(self.split)
        zbeta = np.zeros(s.q.shape + (m,))  # column alpha: R^beta_alpha v
        zbeta[..., :m, :] = Rv[..., :m, :m]

        out = []
        for a, (t, base, corr) in enumerate(
                self._chart_jets(ctx, v_c, gamma, zbeta)):
            rhs = 0.0
            for j, b in enumerate(range(m, n)):
                rhs = rhs - Rv[..., b, a] * p_mom[j]
            out.append(t - (base - corr) - rhs)
        return np.stack(out, axis=-1)
