"""Chaplygin structure: symmetry verification and momentum sections.

For a Chaplygin system the trailing frame fields are fundamental vector
fields of a group action, the leading fields are invariant and span the
horizontal distribution, and the Lagrangian is invariant.  These facts are
never assumed here: verify_chaplygin re-proves them numerically at sample
states, since every identity downstream (lambda_a = Gamma(p_a), the single
consistency scalar of the momentum section, coadjoint transformation of the
momenta) is sensitive to frame ordering conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import math

import numpy as np

from .exprlang import _gathered
from .lagrangian import dvlift_at
from .linsolve import max_abs
from .nonholonomic import NonholonomicField
from .vakonomic import ShiftedMomentumSection, _phi_Rv

__all__ = [
    "ChaplyginStructure", "verify_chaplygin", "prop6_scalar",
    "shifted_section", "carriage_special_length",
]


@dataclass
class ChaplyginStructure:
    """Structure constants C^c_ab of the symmetry algebra (offset by m), and
    the group action as a coordinate map q -> action(q, g)."""

    C: np.ndarray
    action: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)


def verify_chaplygin(L, frame, split, structure, states, tol=1e-12):
    """Check the defining identities at the given states.

    Identities: clift E_a(L) = 0; R^i_a_alpha = 0 and
    R^i_ab = -delta^i_c C^c_ab; [E_a, X_alpha] = 0; and the coadjoint law
    clift E_a(p_b) + C^c_ab p_c = 0.  Returns per-identity max residuals and
    a verdict.
    """
    m, n = split.m, split.n
    k = n - m
    C = structure.C
    i, j = np.triu_indices(n, 1)
    commute = (i < m) & (j >= m)  # the brackets [X_alpha, E_a]
    res = {"invariance": 0.0, "structure_R": 0.0,
           "commute": 0.0, "coadjoint": 0.0}
    nh = NonholonomicField(L, frame, split)
    for s in states:
        ctx = nh._context(s)
        # the brackets are read first, so that R is solved from them
        brackets = ctx.brackets if k else None
        q, u, R = ctx.q, ctx.u, ctx.R
        # R^i_a_alpha = 0 and R^i_ab = -delta^i_c C^c_ab
        res["structure_R"] = max_abs(R[..., :, m:, :m], res["structure_R"])
        if k:
            want = np.zeros(R[..., :, m:, m:].shape)
            want[..., m:, :, :] = -np.moveaxis(C, 2, 0)  # -C^c_ab at [c, a, b]
            res["structure_R"] = max_abs(R[..., :, m:, m:] - want,
                                         res["structure_R"])
            res["commute"] = max_abs(brackets[..., commute], res["commute"])
        mom = {c: ctx.vlift(c) for c in range(m, n)}
        for a in range(m, n):
            res["invariance"] = max_abs(ctx.clift(a), res["invariance"])
            # coadjoint: clift E_a(p_b) + C^c_ab p_c = 0; DXw[b] = (DX_b)E_a
            wq, wu = ctx.M[..., a, :], ctx.dfield(a)
            DXw = frame.dfields(q, wq, n)
            for b in range(m, n):
                dpb = dvlift_at(L, q, u, ctx.M[..., b, :], wq, wu,
                                DXw[..., b, :])
                shift = 0.0
                for c in range(m, n):
                    shift = shift + C[a - m, b - m, c - m] * mom[c]
                res["coadjoint"] = max_abs(dpb + shift, res["coadjoint"])
    res["passed"] = all(v <= tol for kk, v in res.items()
                        if kk != "passed")
    res["tolerance"] = tol
    return res


def prop6_scalar(L, frame, split, s):
    """R^a_alpha_beta v^beta p_a for each alpha: the single scalar family
    governing weak (and strong) consistency of the momentum section."""
    m, n = split.m, split.n
    ctx = NonholonomicField(L, frame, split)._context(s)
    mom = _gathered([ctx.vlift(a) for a in range(m, n)], s.q.shape[:-1])
    return _phi_Rv(mom, ctx.Rv[..., m:, :m])


def gamma_k_residual(L, frame, split, section, states, tol=1e-9):
    """Max |Gamma(k_a)| over the states for a shifted momentum section."""
    nh = NonholonomicField(L, frame, split)
    worst = 0.0
    for s in states:
        ctx = nh._solve(s)
        tvs = section.shift.taylor(s.q, s.v_alpha(split),
                                   [(ctx.u, ctx.gamma)])
        for tv in tvs:
            worst = max_abs(tv.c[1], worst)
    return {"max_gamma_k": worst, "conserved": worst <= tol,
            "tolerance": tol}


def shifted_section(L, frame, split, k_exprs, states=None, tol=1e-9):
    """Section phi_a = p_a + k_a from candidate constants of motion.

    When sample states are supplied, Gamma(k_a) is evaluated at each and the
    max residual recorded on the returned section (the section is returned
    regardless; a nonzero residual flags that the shift is not conserved).
    """
    section = ShiftedMomentumSection(L, frame, split, k_exprs)
    if states is not None:
        section.k_check = gamma_k_residual(L, frame, split, section, states,
                                           tol)
    else:
        section.k_check = {"max_gamma_k": None, "conserved": None,
                           "tolerance": tol}
    return section


def carriage_special_length(params):
    """The axle offset at which the two-wheeled carriage admits conserved
    shifts of the required trigonometric form:
    sqrt((m R^2 + 2 J2)(R^2 J + 2 c^2 J2)) / (m0 R^2)."""
    m0 = float(params["m0"])
    m1 = float(params["m1"])
    J = float(params["J"])
    J2 = float(params["J2"])
    R = float(params["R"])
    c = float(params["c"])
    for name, val in (("m0", m0), ("m1", m1), ("J", J), ("J2", J2),
                      ("R", R), ("c", c)):
        if val <= 0:
            raise ValueError(f"parameter {name} must be positive, got {val}")
    m = m0 + 2 * m1
    return math.sqrt((m * R * R + 2 * J2) * (R * R * J + 2 * c * c * J2)) / (
        m0 * R * R)
