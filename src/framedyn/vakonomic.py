"""Vakonomic dynamics restricted to multiplier sections.

A section assigns multiplier values phi_a to each point of C.  The restricted
vakonomic equations determine a field Gamma_C on C once the multiplier rates
A_a are chosen; choosing them so that Gamma_C is tangent to C yields

    g_ab Gamma_C^b = clift X_a(L) + phi_c R^c_ab v^b - v^b clift X_b(vlift X_a(L))

over the constraint indices, with Lambda_a = Gamma_C(vlift X_a(L)) -
clift X_a(L) and A_a = Lambda_a - phi_b R^b_a_alpha v^alpha.  Consistency with
the nonholonomic field is measured by three defect vectors: the weak defect
phi_a R^a_alpha_beta v^beta, the strong defect Gamma(phi_a) +
phi_b R^b_a_alpha v^alpha - lambda_a, and the tangency defect with Gamma_C and
Lambda_a in place of Gamma and lambda_a.

The variational Lagrangian L~ = L - Phi_a v^a extends a section off C; its
Euler-Lagrange field is computed in the quasi-velocity chart, where the full
frame Hessian and the lifted derivatives are plain chart jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprlang import ExprFunction, Kernels, _gathered, run
from .frames import (QuasiState, Structure, TangentPoint, base_velocity,
                     solve_transposed)
from .jets import TaylorValue
from .lagrangian import hessian_rows
from .linsolve import max_abs, solve_and_det
from .nonholonomic import GAMMA_DET_TOL, NonholonomicField, RegularityError
from .quasichart import QvChartPoint

__all__ = [
    "Section", "ZeroSection", "CustomSection", "MomentumSection",
    "ShiftedMomentumSection", "make_section",
    "VakonomicSolution", "ConsistencyReport", "solve_gamma_C",
    "consistency_report", "gamma_bar_tangency",
    "VariationalLagrangian", "el_field", "tilde_tangency_check",
]


def _slot(tvs, u, q):
    """Slot u of each component jet, stacked on a trailing axis."""
    return _gathered([tv.c[u] for tv in tvs], np.shape(q)[:-1])


class Section:
    """Multiplier section phi: C -> R^(n-m).  Subclasses provide exact jets
    of each component along C-chart directions [(dq, dv_alpha)] (taylor)
    and the TaylorValues of their canonical extension Phi_a off C at a
    QvChartPoint, or None where Phi vanishes identically (extension)."""

    kind = "abstract"

    def __init__(self, frame, split):
        self.frame = frame
        self.split = split

    def values(self, q, v_alpha):
        return _slot(self.taylor(q, v_alpha, ()), 0, q)

    def describe(self):
        return {"kind": self.kind}


class ZeroSection(Section):
    kind = "zero"

    def taylor(self, q, v_alpha, dirs):
        return [TaylorValue.constant(0.0, len(dirs))] * self.split.n_constraints

    def extension(self, pt):
        return None


def section_names(frame, split):
    """The variables of a section expression: the coordinates and
    v1..vm."""
    return frame.coords + tuple(f"v{i + 1}" for i in range(split.m))


class CustomSection(Section):
    """phi_a given as expressions in the coordinates and v1..vm.  parsed,
    when given, holds the trees of exprs, already resolved against
    section_names and the parameters (the CLI parses them to report a bad
    one by its path), so that nothing is parsed twice."""

    kind = "custom"

    def __init__(self, frame, split, exprs, params=None, parsed=None):
        super().__init__(frame, split)
        if len(exprs) != split.n_constraints:
            raise ValueError("need one expression per constraint index")
        self.names = section_names(frame, split)
        self.phi = list(exprs)  # as given, for describe
        self.params = dict(frame.params if params is None else params)
        self.exprs = (list(parsed) if parsed is not None else
                      [ExprFunction(e, self.names, tuple(self.params)).expr
                       for e in exprs])
        self._pvals = tuple(float(x) for x in self.params.values())
        self._kernels = Kernels(self.exprs, self.names, tuple(self.params))

    def taylor(self, q, v_alpha, dirs):
        """One fused kernel of the expressions at (q, v_alpha)."""
        k = len(dirs)
        slots = run(self._kernels(k), (q, v_alpha), self._pvals, *dirs)
        return [TaylorValue(k, slots[s:s + (1 << k)])
                for s in range(0, len(slots), 1 << k)]

    def extension(self, pt):
        """The expressions re-read on TQ unchanged, which keeps the
        extension independent of the v^a."""
        m = self.split.m
        return self.taylor(pt.q, pt.v[..., :m], [(dq, np.asarray(dv)[..., :m])
                                                 for dq, dv in pt.dirs])

    def describe(self):
        return {"kind": self.kind, "phi": [str(e) for e in self.phi]}


class MomentumSection(Section):
    """phi_a = p_a = vlift X_a(L) restricted to C."""

    kind = "momentum"
    shift = None  # the CustomSection of the k_a (ShiftedMomentumSection)

    def __init__(self, L, frame, split):
        super().__init__(frame, split)
        self.L = L

    def taylor(self, q, v_alpha, dirs):
        q = np.asarray(q, dtype=float)

        def pad(va):
            v = np.zeros(q.shape)
            v[..., : self.split.m] = va
            return v

        return self.extension(QvChartPoint(self.frame, q, pad(v_alpha),
                                           [(dq, pad(dv)) for dq, dv in dirs]))

    def extension(self, pt):
        """The full momentum functions p_a on TQ, plus the k_a of a shift
        (b + e), from one run of the section source (QvChartPoint.section)."""
        return pt.section(self.L, self.split.m, exprs=self.shift)


class ShiftedMomentumSection(MomentumSection):
    """phi_a = p_a + k_a with user-supplied candidate constants of motion."""

    kind = "momentum_shifted"

    def __init__(self, L, frame, split, k_exprs, params=None, parsed=None):
        super().__init__(L, frame, split)
        self.shift = CustomSection(frame, split, k_exprs, params, parsed)

    taylor = MomentumSection.taylor  # an entry of its own, for bench/tracing

    def describe(self):
        return {"kind": self.kind, "k": [str(e) for e in self.shift.phi]}


def make_section(spec, L, frame, split, builtin_k=None, parsed=None):
    """Build a section from a config mapping {'kind': ..., ...}; parsed,
    when given, holds the trees of its phi or k (CustomSection)."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = spec.get("kind")
    if kind == "zero":
        return ZeroSection(frame, split)
    if kind == "momentum":
        return MomentumSection(L, frame, split)
    if kind == "momentum_shifted":
        k = spec.get("k", "builtin")
        if k == "builtin":
            if builtin_k is None:
                raise ValueError(
                    "this system has no built-in shift expressions")
            k = builtin_k
        return ShiftedMomentumSection(L, frame, split, k, parsed=parsed)
    if kind == "custom":
        return CustomSection(frame, split, spec["phi"], parsed=parsed)
    raise ValueError(f"unknown section kind {kind!r}")


# ---------------------------------------------------------------------------
# Restricted vakonomic solution


@dataclass
class VakonomicSolution:
    gamma_C: np.ndarray
    A: np.ndarray
    Lambda: np.ndarray
    section: Section


@dataclass
class ConsistencyReport:
    weak_defect: np.ndarray       # per alpha
    strong_defect: np.ndarray     # per a
    tangency_defect: np.ndarray   # per a
    point: QuasiState


def _phi_Rv(phi_vals, block):
    """phi_a R^a_ij v^j for each column i of a block Rv[..., m:, cols] of
    StateContext.Rv: for i = alpha < m, or for i = a >= m."""
    return np.einsum("...a,...ai->...i", phi_vals, block)


def solve_gamma_C(L, frame, split, section, s, det_tol=GAMMA_DET_TOL):
    """The unique tangent solution of the restricted vakonomic problem.

    Returns a VakonomicSolution holding Gamma_C^alpha, the multiplier rates
    A_a, and Lambda_a at the state.
    """
    ctx = NonholonomicField(L, frame, split)._context(s)
    sol = _solve_C(ctx, section, s, det_tol)[0]
    return VakonomicSolution(sol.gamma_C.copy(), sol.A.copy(),
                             sol.Lambda.copy(), section)


def _solve_C(ctx, section, s, det_tol):
    """(solve_gamma_C, phi_a R^a_alpha_beta v^beta, phi_b R^b_a_alpha v^alpha)
    on a state context, made once per (section, det_tol): the nonholonomic
    system with the first product added to its right side."""

    def build():
        split, m = ctx.split, ctx.split.m
        phi_vals = _phi_memo(ctx, section, s, rate=False)
        reg = ctx.regularity_report(det_tol)
        if not reg.regular_D:
            raise RegularityError("regular_D", reg.det_D)
        if not reg.regular_Dperp:
            raise RegularityError("regular_Dperp", reg.det_Dperp)
        weak = _phi_Rv(phi_vals, ctx.Rv[..., m:, :m])
        gamma_C = ctx.factors.solve(ctx.rhs + weak)
        Lam = ctx.epsilon(range(m, split.n), gamma_C)
        shift = _phi_Rv(phi_vals, ctx.Rv[..., m:, m:])
        sol = VakonomicSolution(gamma_C, Lam - shift, Lam, section)
        return sol, weak, shift

    return ctx.memo(("C", section, det_tol), build)


def _phi_memo(ctx, section, s, rate):
    """The section's values, or (Gamma solved) its rates along (u, Gamma),
    once per state; with Gamma solved, both from one run along (u, Gamma),
    whose slot 0 is == to the values of a run along no direction."""
    v_alpha = s.v_alpha(ctx.split)

    def along():
        jets = section.taylor(s.q, v_alpha, [(ctx.u, ctx.gamma)])
        ctx.memo(("phi", section, False), lambda: _slot(jets, 0, s.q))
        return [tv.c[1] for tv in jets]

    if ctx.gamma is not None:
        rates = ctx.memo(("phi", section, True), along)
        if rate:
            return _gathered(rates, s.q.shape[:-1])
    return ctx.memo(("phi", section, False),
                    lambda: section.values(s.q, v_alpha))


def consistency_report(L, frame, split, section, s, det_tol=GAMMA_DET_TOL):
    """Weak, strong and tangency defects of a section at a state.

    Gamma, lambda and the vakonomic solve come from the state's context.
    """
    ctx = NonholonomicField(L, frame, split, det_tol=det_tol)._solve(s)
    lam = ctx.multipliers()
    sol, weak, phi_shift = _solve_C(ctx, section, s, det_tol)
    strong = _phi_memo(ctx, section, s, rate=True) + phi_shift - lam
    rate_C = _slot(section.taylor(s.q, s.v_alpha(split),
                                  [(ctx.u, sol.gamma_C)]), 1, s.q)
    tangency = rate_C + phi_shift - sol.Lambda
    return ConsistencyReport(weak.copy(), strong, tangency, s)


def gamma_bar_tangency(L, frame, split, section, s, det_tol=GAMMA_DET_TOL):
    """Gamma-bar applied to mu_a - phi_a on the section image:
    (lambda_a - phi_b R^b_a_alpha v^alpha) - Gamma(phi_a).  Zero exactly when
    the problems are strongly consistent at the state."""
    ctx = NonholonomicField(L, frame, split, det_tol=det_tol)._solve(s)
    lam = ctx.multipliers()
    phi_vals = _phi_memo(ctx, section, s, rate=False)
    rate = _phi_memo(ctx, section, s, rate=True)
    return lam - _phi_Rv(phi_vals, ctx.Rv[..., split.m:, split.m:]) - rate


# ---------------------------------------------------------------------------
# Variational Lagrangian and its Euler-Lagrange field


class VariationalLagrangian:
    """L~ = L - Phi_a v^a for the canonical extension Phi of the section
    (Section.extension), formed on the section source (qv_taylor).

    Momentum sections extend as the full momentum functions p_a on TQ;
    expression-backed sections are re-read on TQ unchanged.  Any choice of
    extension yields the same restricted field, so one canonical extension
    is fixed for reproducibility.
    """

    def __init__(self, L, frame, split, section):
        self.L = L
        self.frame = frame
        self.split = split
        self.section = section

    def qv_taylor(self, q, v, dirs):
        """Jet of L~ in the (q, v) chart along full-chart directions: one
        run of the section source, or of the composite one (zero section)."""
        pt = QvChartPoint(self.frame, q, v, dirs)
        sec, m = self.section, self.split.m
        if isinstance(sec, ZeroSection):
            return pt.eval(self.L)
        if isinstance(sec, CustomSection):
            return pt.section(self.L, m, False, sec, tilde=True)[0]
        return pt.section(self.L, m, exprs=sec.shift, tilde=True)[0]

    def value(self, q, v):
        return self.qv_taylor(q, v, ()).c[0]

    def phi_values(self, q, v):
        """The extension Phi_a evaluated at a full chart point."""
        q = np.asarray(q, dtype=float)
        pt = QvChartPoint(self.frame, q, np.asarray(v, dtype=float), ())
        phis = self.section.extension(pt)
        if phis is None:
            return np.zeros(q.shape[:-1] + (self.split.n_constraints,))
        return _slot(phis, 0, q)


def el_field(Lt, frame, p, det_tol=GAMMA_DET_TOL):
    """Coefficients of the Euler-Lagrange field of a (possibly derived)
    Lagrangian in the frame, from the full n x n chart solve.

    Works for any chart Lagrangian exposing jets; raises RegularityError when
    the full Hessian is singular at the point.
    """
    q = np.asarray(p.q, dtype=float)
    n = frame.n
    M = frame.matrix(q)
    frame.check(M)
    v = solve_transposed(frame, M, p.u)
    Rv = Structure(frame, q, M, v).Rv
    if isinstance(Lt, VariationalLagrangian):
        jet = lambda q, v, dirs: Lt.qv_taylor(q, v, dirs).c
    else:
        jet = lambda q, v, dirs: QvChartPoint(frame, q, v, dirs).eval(Lt).c
    # in the chart, vlift X_i is the derivative along the unit vector e_i
    e = np.broadcast_to(np.eye(n), q.shape[:-1] + (n, n))
    g = hessian_rows(jet, q, v, e)
    zq = np.zeros(q.shape)
    u = base_velocity(M, v)
    b = np.empty(q.shape[:-1] + (n,))
    for i in range(n):
        z = -Rv[..., :, i]
        cl = jet(q, v, [(M[..., i, :], z)])[1]
        rate = jet(q, v, [(zq, e[..., i, :]), (u, zq)])[3]
        b[..., i] = cl - rate
    gamma, det = solve_and_det(g, b)
    if gamma is None or not np.min(np.abs(det)) > det_tol:
        raise RegularityError("full_hessian", det)
    return gamma


def tilde_tangency_check(Lt, frame, split, states, tol=1e-9):
    """Verify Gamma~(v^a) = 0 on C for the Euler-Lagrange field of Lt."""
    m = split.m
    per_point = []
    worst = 0.0
    for s in states:
        s.require_on_C(split)
        p = TangentPoint(s.q, base_velocity(frame.matrix(s.q), s.v))
        resid = max_abs(el_field(Lt, frame, p)[..., m:])
        per_point.append(resid)
        worst = max_abs(resid, worst)
    return {"max_residual": worst, "tangent": worst <= tol,
            "per_point": per_point, "tolerance": tol}
