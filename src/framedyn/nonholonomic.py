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

from functools import cached_property

import numpy as np

from .frames import TangentPoint, base_velocity, structure_from_matrix
from .lagrangian import (clift_at, dvlift_at, hessian_regularity,
                         hessian_rows, vlift_at)
from .linsolve import cond_estimate, solve_and_det
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


class StateContext:
    """The evaluations at one state, made once and shared by every quantity
    of the field there (scalar or batched).

    Holds M = X(q), whose rows are the X_i; u = v^alpha X_alpha; the rows
    D_a = (DX_a)u for a < m, which serve the drift term h = v^b D_b, the
    complete lifts and the moving-direction correction of the vertical
    lifts; and the system g_D Gamma = rhs with
    rhs_a = clift X_a(L) - (u, h)(vlift X_a(L)).  gamma is set once the
    system is solved.  The lift formulas themselves are those of
    lagrangian.py, applied to the rows held here.
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
        self._clift = {}
        self.g = hessian_rows(L.taylor, q, self.u, M[..., :m, :])
        self.rhs = np.stack(
            [self.clift(a) - self.dvlift(a, h) for a in range(m)], axis=-1)
        self.gamma = None

    @property
    def p(self):
        return TangentPoint(self.q, self.u)

    def dfield(self, a):
        """D_a = (DX_a)u; the rows a >= m are evaluated on first use."""
        m = self.split.m
        if a < m:
            return self.D[..., a, :]
        if self.D.shape[-2] == m:
            self.D = self.frame.dfields(self.q, self.u, self.split.n)
        return self.D[..., a, :]

    @cached_property
    def R(self):
        """The structure functions at q, from M on first use."""
        return structure_from_matrix(self.frame, self.q, self.M)

    def vlift(self, a):
        """vlift X_a(L); for a >= m the momentum p_a."""
        return vlift_at(self.L, self.q, self.u, self.M[..., a, :])

    def clift(self, a):
        """clift X_a(L): the derivative along (X_a, D_a)."""
        if a not in self._clift:
            self._clift[a] = clift_at(self.L, self.q, self.u,
                                      self.M[..., a, :], self.dfield(a))
        return self._clift[a]

    def dvlift(self, a, w):
        """(u, w)(vlift X_a(L)), corrected along D_a (see dvlift_at)."""
        return dvlift_at(self.L, self.q, self.u, self.M[..., a, :],
                         self.u, w, self.dfield(a))

    def regularity_report(self, threshold):
        """The regularity tests from the full Hessian over the rows of M;
        the g_D block is reused."""
        g = hessian_rows(self.L.taylor, self.q, self.u, self.M, known=self.g)
        return hessian_regularity(g, self.split, self.p, threshold)

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
    #
    # A gamma override substitutes trial coefficients (for falsification
    # checks); by default the solver's own output is re-evaluated.

    def _residual_context(self, s, gamma):
        s.require_on_C(self.split)
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
