"""Frame-based differential calculus of a Lagrangian on TQ.

Vertical and complete lifts of frame fields act on functions of (q, u) as
directional derivatives; all of them are evaluated here through exact jets at
a point.  The vertical lift of X has tangent (0, X(q)); the complete lift has
tangent (X(q), (DX)u).  Differentiating a vertical-lift derivative along a
moving direction picks up a correction from the q-dependence of the frame
coefficients, which :func:`dvlift_at` accounts for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exprlang import ExprFunction, parse, run_kernel
from .frames import TangentPoint
from .linsolve import LU, det_pp

__all__ = [
    "Lagrangian", "RegularityReport",
    "vlift_at", "clift_at", "vlift_rate_at", "dvlift_at", "hessian_rows",
    "hessian_regularity",
    "vlift_deriv", "clift_deriv", "dvlift", "dvlift_field", "clift_field",
    "epsilon_form", "hessian", "energy", "regularity",
]

REGULARITY_DET_TOL = 1e-10


class Lagrangian:
    """A function on TQ given by an expression in coordinates and velocities.
    Immutable after construction: one object serves every user of an
    identical definition (SystemDef.lagrangian)."""

    def __init__(self, expr, coords, vel_names, params=None):
        self.coords = tuple(coords)
        self.vel_names = tuple(vel_names)
        if len(self.coords) != len(self.vel_names):
            raise ValueError("coordinate and velocity name counts differ")
        self.params = dict(params or {})
        self._pnames = tuple(self.params)
        self._pvals = tuple(float(self.params[k]) for k in self._pnames)
        if isinstance(expr, str):
            expr = parse(expr)
        self.expr = expr
        self.fn = ExprFunction(expr, self.coords + self.vel_names, self._pnames)

    @property
    def n(self):
        return len(self.coords)

    def value(self, q, u):
        return run_kernel(self.fn.kernel(0), (q, u), self._pvals)[0]

    def taylor(self, q, u, dirs):
        """Jet slots along directions; each direction is a (dq, du) pair.

        A tuple of floats at a scalar point; at a batched point an array
        with the slots on its first axis."""
        return run_kernel(self.fn.kernel(len(dirs)), (q, u), self._pvals,
                          dirs)

    def taylor_env(self, env):
        """The tree walk of L over leaf values; parameters not in env take
        L's values."""
        return self.fn.taylor_env({**self.params, **env})


def _zeros_like(q):
    return np.zeros(np.asarray(q).shape)


# The lift calculus over evaluated vectors.  These are the only places where
# a frame-calculus quantity of L is formed from frame rows; the frame-index
# functions below and the per-state context of the nonholonomic field both
# evaluate the rows and call them.


def vlift_at(L, q, u, X):
    """vlift X(L) at (q, u) for the evaluated vector X = X(q)."""
    return L.taylor(q, u, [(_zeros_like(q), X)])[1]


def clift_at(L, q, u, X, DX):
    """clift X(L) at (q, u) from X = X(q) and DX = (DX)u."""
    return L.taylor(q, u, [(X, DX)])[1]


def vlift_rate_at(L, q, u, X, wq, wu):
    """The plain mixed jet of L along (0, X) and (wq, wu), for the
    evaluated vector X = X(q): dvlift_at without its correction."""
    return L.taylor(q, u, [(_zeros_like(q), X), (wq, wu)])[3]


def dvlift_at(L, q, u, X, wq, wu, DXw):
    """Derivative of vlift X(L) along (wq, wu), from X = X(q) and
    DXw = (DX)wq.

    The inner direction X(q) moves with the base point, so the plain mixed
    jet acquires a correction through the fibre gradient of L: the vertical
    lift of DXw.
    """
    return vlift_rate_at(L, q, u, X, wq, wu) + vlift_at(L, q, u, DXw)


def hessian_rows(taylor, q, u, rows):
    """g_ij = vlift X_i(vlift X_j(L)) for evaluated rows X_i, shape
    (..., k, n), from the jets taylor(q, u, dirs) of L; symmetric."""
    zq = _zeros_like(q)
    k = rows.shape[-2]
    g = np.empty(np.shape(q)[:-1] + (k, k))
    for a in range(k):
        for b in range(a, k):
            g[..., a, b] = g[..., b, a] = taylor(
                q, u, [(zq, rows[..., a, :]), (zq, rows[..., b, :])])[3]
    return g


def vlift_deriv(L, frame, i, p):
    """vlift X_i applied to a TQ function: derivative along (0, X_i(q))."""
    return vlift_at(L, p.q, p.u, frame.fields[i].values(p.q))


def clift_field(L, Z, q, u):
    """clift Z applied to a TQ function: derivative along (Z(q), (DZ)u)."""
    return clift_at(L, q, u, Z.values(q), Z.dirderiv(q, u))


def clift_deriv(L, frame, i, p):
    return clift_field(L, frame.fields[i], p.q, p.u)


def dvlift_field(L, Z, q, u, wq, wu):
    """Derivative of the function vlift Z(L) along the tangent vector
    (wq, wu); see dvlift_at."""
    return dvlift_at(L, q, u, Z.values(q), wq, wu, Z.dirderiv(q, wq))


def dvlift(L, frame, i, p, wq, wu):
    return dvlift_field(L, frame.fields[i], p.q, p.u, wq, wu)


def epsilon_form(L, Z, q, u, wq, wu):
    """The one-form value Gamma(vlift Z(L)) - clift Z(L) for the second-order
    tangent (wq, wu); C-infinity linear in Z."""
    return dvlift_field(L, Z, q, u, wq, wu) - clift_field(L, Z, q, u)


def hessian(L, frame, p, indices=None):
    """Hessian blocks g_ij = vlift X_i(vlift X_j(L)) in the frame; symmetric."""
    q = np.asarray(p.q, dtype=float)
    M = frame.matrix(q)
    rows = M if indices is None else M[..., list(indices), :]
    return hessian_rows(L.taylor, q, np.asarray(p.u, dtype=float), rows)


def energy(L, frame, p):
    """E = v^i vlift X_i(L) - L = (0, u)(L) - L, since v^i X_i = u: slot 1
    minus slot 0 of one jet of L.  A function on TQ; the frame is not
    read."""
    t = L.taylor(p.q, p.u, [(_zeros_like(p.q), p.u)])
    return t[1] - t[0]


@dataclass
class RegularityReport:
    regular_D: bool
    det_D: float
    regular_Dperp: bool
    det_Dperp: float
    regular_g: bool
    det_g: float
    point: TangentPoint
    threshold: float = REGULARITY_DET_TOL


def regularity(L, frame, split, p, threshold=REGULARITY_DET_TOL):
    """Determinant tests for the three regularity conditions at p."""
    return hessian_regularity(hessian(L, frame, p), split, p, threshold)


def hessian_regularity(g, split, p, threshold=REGULARITY_DET_TOL,
                       factors=None):
    """The regularity tests on a full frame Hessian g evaluated at p.

    regular_D tests the D-block (g_alpha_beta); regular_Dperp the Schur
    complement g_ab - g_a_alpha g^alpha_beta g_beta_b; regular_g the plain
    (g_ab) block.  det_D and the Schur complement's solve read factors, the
    linsolve.LU of the D-block where the caller holds it.
    """
    m = split.m
    lu = LU.of(g[..., :m, :m]) if factors is None else factors
    det_D = lu.det
    gab = g[..., m:, m:]
    det_g = det_pp(gab)
    if split.n_constraints == 0:
        det_perp = det_g
    else:
        # the Schur complement where g_D is invertible, NaN where it is not
        # (lu.solve gives None at a single state, NaN at a batch's states)
        W = lu.solve(g[..., :m, m:])
        det_perp = (math.nan if W is None
                    else det_pp(gab - g[..., m:, :m] @ W))
    ok = lambda d: bool(np.min(np.abs(d)) > threshold)
    return RegularityReport(
        regular_D=ok(det_D), det_D=det_D,
        regular_Dperp=ok(det_perp), det_Dperp=det_perp,
        regular_g=ok(det_g), det_g=det_g,
        point=p, threshold=threshold)
