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

import numpy as np

from .frames import TangentPoint, base_velocity, structure_functions
from .lagrangian import vlift_deriv
from .linsolve import cond_estimate, solve_and_det

__all__ = [
    "RegularityError", "NonholonomicField", "solve_gamma",
    "residual_fundamental", "residual_hamel", "constrained_form_residual",
]

GAMMA_DET_TOL = 1e-10
COND_WARN = 1e8


class RegularityError(Exception):
    def __init__(self, condition, det):
        super().__init__(
            f"regularity condition {condition!r} failed: det = {det!r}")
        self.condition = condition
        self.det = det


class StateContext:
    """The evaluations at one state, made once and shared by every quantity
    of the field there (scalar or batched).

    Holds M = X(q), whose rows are the X_i; u = v^alpha X_alpha; the rows
    D_a = (DX_a)u for a < m, which serve the drift term h = v^b D_b, the
    complete lifts and the moving-direction correction of the vertical
    lifts; and the system g_D Gamma = rhs with
    rhs_a = clift X_a(L) - (u, h)(vlift X_a(L)).  gamma is set once the
    system is solved.
    """

    def __init__(self, L, frame, split, s):
        self.L = L
        self.frame = frame
        self.split = split
        m = split.m
        self.q = q = s.q
        va = s.v_alpha(split)
        self.M = M = frame.matrix(q)
        frame.check_matrix(M)
        self.u = base_velocity(M, va)
        self.D = frame.dfields(q, self.u, m)
        h = 0.0
        for b in range(m):
            h = h + va[..., b, None] * self.D[..., b, :]
        self.h = h
        self.zq = np.zeros(q.shape)
        self._clift = {}
        g = np.empty(q.shape[:-1] + (m, m))
        for a in range(m):
            for b in range(a, m):
                g[..., a, b] = g[..., b, a] = self.jet(
                    (self.zq, M[..., a, :]), (self.zq, M[..., b, :]))[3]
        self.g = g
        self.rhs = np.stack(
            [self.clift(a) - self.dvlift(a, h) for a in range(m)], axis=-1)
        self.gamma = None

    @property
    def p(self):
        return TangentPoint(self.q, self.u)

    def jet(self, *dirs):
        """Slots of L at (q, u) along (dq, du) directions."""
        return self.L.taylor(self.q, self.u, dirs)

    def dfield(self, a):
        """D_a = (DX_a)u; the rows a >= m are evaluated on first use."""
        m = self.split.m
        if a < m:
            return self.D[..., a, :]
        if self.D.shape[-2] == m:
            self.D = self.frame.dfields(self.q, self.u, self.split.n)
        return self.D[..., a, :]

    def clift(self, a):
        """clift X_a(L): the derivative along (X_a, D_a)."""
        if a not in self._clift:
            self._clift[a] = self.jet((self.M[..., a, :], self.dfield(a)))[1]
        return self._clift[a]

    def dvlift(self, a, w):
        """(u, w)(vlift X_a(L)); the inner direction X_a moves with the base
        point, which adds the fibre derivative along D_a."""
        t = self.jet((self.zq, self.M[..., a, :]), (self.u, w))
        return t[3] + self.jet((self.zq, self.dfield(a)))[1]

    def fibre(self, gamma):
        """Fibre part h + Gamma^alpha X_alpha of the second-order tangent."""
        return self.h + base_velocity(self.M, gamma)

    def epsilon(self, indices, gamma):
        """(u, w)(vlift X_a(L)) - clift X_a(L) for each a in indices, with w
        the fibre part for the coefficients gamma."""
        w = self.fibre(gamma)
        out = [self.dvlift(a, w) - self.clift(a) for a in indices]
        return (np.stack(out, axis=-1) if out
                else np.zeros(self.q.shape[:-1] + (0,)))

    def multipliers(self):
        return self.epsilon(range(self.split.m, self.split.n), self.gamma)


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

    def _context(self, s):
        return StateContext(self.L, self.frame, self.split, s)

    def _solve(self, s):
        """The state's context with Gamma solved from g_D Gamma = rhs."""
        ctx = self._context(s)
        gamma, det = solve_and_det(ctx.g, ctx.rhs)
        if gamma is None or not np.min(np.abs(det)) > self.det_tol:
            raise RegularityError("regular_D", det)
        ctx.gamma = gamma
        return ctx

    def gamma(self, s):
        """Gamma^alpha at a state on C."""
        s.require_on_C(self.split)
        return self._solve(s).gamma

    def rate(self, s):
        """ODE right side in the C chart: (qdot, vdot) = (u, Gamma)."""
        ctx = self._solve(s)
        return ctx.u, ctx.gamma

    def gamma_tangent(self, s):
        """The field's tangent vector at s as a (base, fibre) pair on TQ."""
        ctx = self._solve(s)
        return ctx.u, ctx.fibre(ctx.gamma), ctx.p, ctx.gamma

    def multipliers(self, s):
        """lambda_a = Gamma(vlift X_a(L)) - clift X_a(L)."""
        s.require_on_C(self.split)
        return self._solve(s).multipliers()

    def solve_report(self, s):
        """Solution with a condition-number diagnostic attached."""
        ctx = self._solve(s)
        cond = cond_estimate(ctx.g)
        return {
            "gamma": ctx.gamma,
            "condition": cond,
            "warning": (f"ill-conditioned Hessian block: cond = {cond:.3e}"
                        if cond > COND_WARN else None),
        }

    # -- residual oracles ---------------------------------------------------

    def residual_fundamental(self, s, gamma=None):
        """Gamma(vlift X_alpha(L)) - clift X_alpha(L), from jets along the
        solved second-order tangent.

        A gamma override substitutes trial coefficients (for falsification
        checks); by default the solver's own output is re-evaluated.
        """
        s.require_on_C(self.split)
        if gamma is None:
            ctx = self._solve(s)
            gamma = ctx.gamma
        else:
            ctx = self._context(s)
            gamma = np.asarray(gamma)
        return ctx.epsilon(range(self.split.m), gamma)

    def residual_hamel(self, s, gamma=None):
        """Hamel-form residual through the composite L(q, X(q) v)."""
        from .quasichart import QvChartPoint

        s.require_on_C(self.split)
        split = self.split
        m, n = split.m, split.n
        ctx = self._solve(s) if gamma is None else self._context(s)
        if gamma is None:
            gamma = ctx.gamma
        M, u = ctx.M, ctx.u
        R = structure_functions(self.frame, s.q)
        gpad = np.zeros(s.q.shape)
        gpad[..., :m] = gamma
        zq = np.zeros(s.q.shape)
        out = []
        for a in range(m):
            e_va = np.zeros(s.q.shape)
            e_va[..., a] = 1.0
            pt = QvChartPoint(self.frame, s.q, s.v,
                              [(zq, e_va), (u, gpad)])
            t_gamma = pt.eval(self.L).c[3]
            base = QvChartPoint(self.frame, s.q, s.v,
                                [(M[..., a, :], zq)]).eval(self.L).c[1]
            z = np.einsum("...jk,...k->...j", R[..., :, a, :], s.v)
            corr = QvChartPoint(self.frame, s.q, s.v,
                                [(zq, z)]).eval(self.L).c[1]
            out.append(t_gamma - base + corr)
        return np.stack(out, axis=-1)

    def constrained_form_residual(self, s, gamma=None):
        """Constrained-Lagrangian form: the tangent part of clift X_alpha acts
        on the restriction L_c, and the momentum term p_a carries the rest."""
        from .quasichart import QvChartPoint

        s.require_on_C(self.split)
        split = self.split
        m, n = split.m, split.n
        ctx = self._solve(s) if gamma is None else self._context(s)
        if gamma is None:
            gamma = ctx.gamma
        M, u = ctx.M, ctx.u
        R = structure_functions(self.frame, s.q)
        p_mom = [vlift_deriv(self.L, self.frame, a, ctx.p)
                 for a in range(m, n)]
        gpad = np.zeros(s.q.shape)
        gpad[..., :m] = gamma
        zq = np.zeros(s.q.shape)
        v_c = np.zeros(s.q.shape)
        v_c[..., :m] = s.v_alpha(split)
        out = []
        for a in range(m):
            e_va = np.zeros(s.q.shape)
            e_va[..., a] = 1.0
            pt = QvChartPoint(self.frame, s.q, v_c, [(zq, e_va), (u, gpad)])
            t_gamma = pt.eval(self.L).c[3]
            base = QvChartPoint(self.frame, s.q, v_c,
                                [(M[..., a, :], zq)]).eval(self.L).c[1]
            zbeta = np.zeros(s.q.shape)
            zbeta[..., :m] = np.einsum(
                "...bk,...k->...b", R[..., :m, a, :], s.v)
            corr = QvChartPoint(self.frame, s.q, v_c,
                                [(zq, zbeta)]).eval(self.L).c[1]
            lhs = t_gamma - (base - corr)
            rhs = 0.0
            for j, b in enumerate(range(m, n)):
                rhs = rhs - np.einsum(
                    "...k,...k->...", R[..., b, a, :], s.v) * p_mom[j]
            out.append(lhs - rhs)
        return np.stack(out, axis=-1)


def solve_gamma(L, frame, split, s):
    """Gamma^alpha on C from the fundamental equations (partial-pivot solve)."""
    return NonholonomicField(L, frame, split).gamma(s)


def residual_fundamental(field, s):
    return field.residual_fundamental(s)


def residual_hamel(field, s):
    return field.residual_hamel(s)


def constrained_form_residual(field, s):
    return field.constrained_form_residual(s)
