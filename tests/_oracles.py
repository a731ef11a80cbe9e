"""Independent numerical oracles used to pin expected values.

The coordinate-space oracle derives the constrained dynamics the classical
way: finite differences of L in coordinates, constraint rows from the
numerically inverted frame matrix, and one KKT solve per state.  It shares no
differentiation code with the package (only plain value evaluation), so it
cross-checks both the jet engine and the frame calculus.
"""

import json

import numpy as np

FD_H = 1e-6


def fd_grad(f, x, h=FD_H):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def fd_jac(f, x, h=FD_H):
    x = np.asarray(x, dtype=float)
    cols = []
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h))
    return np.stack(cols, axis=-1)


def coordinate_gamma_oracle(sysd, q, v_alpha, h=FD_H):
    """Quasi-velocity rates Gamma^alpha from the classical multiplier form.

    Solves [H_uu, -A^T; A, 0] [qdd; lam] = [grad_q L - H_uq u; -(dA.u) u]
    with everything obtained by finite differences of plain evaluations, then
    maps qdd to vdot through v = X(q)^-T u.
    """
    L = sysd.lagrangian()
    F = sysd.frame()
    n, m = sysd.n, sysd.m
    q = np.asarray(q, dtype=float)
    v_full = np.zeros(n)
    v_full[:m] = v_alpha
    X = F.matrix(q)
    u = X.T @ v_full

    def Lval(qq, uu):
        return L.value(qq, uu)

    def constraint_rows(qq):
        # rows a of X(qq)^-1 give the constraint one-forms v^a
        Xi = np.linalg.inv(F.matrix(qq).T)
        return Xi[m:, :]

    A = constraint_rows(q)
    grad_q = fd_grad(lambda qq: Lval(qq, u), q, h)
    grad_u = lambda qq, uu: fd_grad(lambda w: Lval(qq, w), uu, h)
    H_uu = fd_jac(lambda w: grad_u(q, w), u, h)
    H_uq = fd_jac(lambda qq: grad_u(qq, u), q, h)
    dA_u = np.zeros((n - m, n))
    for j in range(n):
        qp, qm = q.copy(), q.copy()
        qp[j] += h
        qm[j] -= h
        dA_u += (constraint_rows(qp) - constraint_rows(qm)) / (2 * h) * u[j]
    KKT = np.zeros((n + n - m, n + n - m))
    KKT[:n, :n] = H_uu
    KKT[:n, n:] = -A.T
    KKT[n:, :n] = A
    rhs = np.concatenate([grad_q - H_uq @ u, -dA_u @ u])
    sol = np.linalg.solve(KKT, rhs)
    qdd = sol[:n]
    # vdot = X^-T (qdd - d(X^T)/dt v)
    Xdot = np.zeros((n, n))
    for j in range(n):
        qp, qm = q.copy(), q.copy()
        qp[j] += h
        qm[j] -= h
        Xdot += (F.matrix(qp) - F.matrix(qm)) / (2 * h) * u[j]
    vdot = np.linalg.solve(X.T, qdd - Xdot.T @ v_full)
    return vdot[:m], sol[n:]


def coefficient_slots(frame, cols, dirs):
    """Slots of every coefficient X_i^j of frame (row-major, 2**len(dirs)
    each) from the numpy binding of its fused kernel, over per-coordinate
    leaves: cols[c] and dirs[d][c] are arrays of any shape, or floats (0-d
    columns at a single point, so that the coefficients round there as
    they do in a batch)."""
    from framedyn.exprlang import _guarded

    return _guarded(frame._kernels(len(dirs)).batched, cols, frame._pvals,
                    *dirs)


def chart_columns(pt):
    """Per-coordinate columns of a QvChartPoint's (q, v) and of each of its
    directions (0-d at a single point), as exprlang.run builds them at a
    batch."""
    from framedyn.exprlang import _columns

    shape = pt.q.shape[:-1]
    return (_columns((pt.q, pt.v), shape),
            [_columns(d, shape) for d in pt.dirs])


def momentum_extension_reference(pt, L, m, momenta=True, exprs=None,
                                 tilde=False):
    """QvChartPoint.section for the momenta as they were assembled before
    the section source: the n partials of one fibre run
    (eval_fibre_partial) and the frame's coefficient jets
    (coefficient_slots) combined by TaylorValue products,
    p_a = sum_j (dL/du^j) X_a^j summed left to right (reduce(add)), then
    the slots of exprs (a CustomSection's extension) added (b + e)."""
    from functools import reduce
    from operator import add

    from framedyn.jets import TaylorValue

    assert momenta and not tilde
    n, size = pt.frame.n, 1 << pt.ndirs
    cols, dir_cols = chart_columns(pt)
    partials = [pt.eval_fibre_partial(L, i) for i in range(n)]
    slots = coefficient_slots(pt.frame, cols[:n], [d[:n] for d in dir_cols])
    X = [TaylorValue(pt.ndirs, slots[s:s + size])
         for s in range(0, len(slots), size)]
    out = [reduce(add, [p * x for p, x in zip(partials, X[a * n:])])
           for a in range(m, n)]
    if exprs is not None:
        out = [b + e for b, e in zip(out, exprs.extension(pt))]
    return out


def shifted_extension_reference(section, pt):
    """Section.extension as it was before the section source took the
    shift: a shifted section's momenta (QvChartPoint.section without the
    shift) plus its shift's extension by TaylorValue.__add__ (b + e)."""
    from framedyn.vakonomic import ShiftedMomentumSection

    if not isinstance(section, ShiftedMomentumSection):
        return section.extension(pt)
    return [b + e for b, e in zip(pt.section(section.L, section.split.m),
                                  section.shift.extension(pt))]


def shifted_taylor_reference(section, q, v_alpha, dirs):
    """ShiftedMomentumSection.taylor as it was before the section source
    took the shift: the momenta on C (MomentumSection.taylor of the same
    L, frame and split) plus the shift's taylor by TaylorValue.__add__."""
    from framedyn.vakonomic import MomentumSection

    base = MomentumSection(section.L, section.frame, section.split)
    return [b + e for b, e in zip(base.taylor(q, v_alpha, dirs),
                                  section.shift.taylor(q, v_alpha, dirs))]


def qv_taylor_reference(Lt, q, v, dirs):
    """VariationalLagrangian.qv_taylor as it was before the section source
    formed L~: the composite's jets (QvChartPoint.eval) less each extension
    Phi_a (shifted_extension_reference) times the chart velocity v^a, in
    TaylorValue arithmetic, v^a a TaylorValue.variable of the point's own
    columns."""
    from framedyn.jets import TaylorValue
    from framedyn.quasichart import QvChartPoint

    m, n = Lt.split.m, Lt.split.n
    pt = QvChartPoint(Lt.frame, q, v, dirs)
    out = pt.eval(Lt.L)
    phis = shifted_extension_reference(Lt.section, pt)
    if phis is None:
        return out
    cols, dir_cols = chart_columns(pt)
    for j, a in enumerate(range(m, n)):
        out = out - phis[j] * TaylorValue.variable(
            cols[n + a], [d[n + a] for d in dir_cols], pt.ndirs)
    return out


class ChartPointReference:
    """The composite L(q, X(q)^T v) of a chart point, assembled leaf by leaf.

    The frame coefficients' jets come from one call of the frame's fused
    kernel over per-coordinate leaves; u_j = sum_i v^i X_i^j is formed in
    TaylorValue arithmetic (v first in each product, summed left to right),
    and L is tree-walked over those full-jet leaves (Lagrangian.taylor_env).
    With probe=True a last, constant fibre direction is reserved, along
    which eval_fibre_partial adds a unit to u^i.  The compiled composite of
    framedyn.quasichart must give the same slots.
    """

    def __init__(self, frame, q, v, dirs, probe=False):
        from framedyn.jets import TaylorValue

        self.frame = frame
        q = np.asarray(q, dtype=float)
        v = np.asarray(v, dtype=float)
        self.ndirs = len(dirs)
        self.k = k = self.ndirs + (1 if probe else 0)
        self.probe = probe
        n = frame.n
        dirs = [(np.broadcast_to(np.asarray(dq, dtype=float), q.shape),
                 np.broadcast_to(np.asarray(dv, dtype=float), q.shape))
                for dq, dv in dirs]
        qdirs = [[d[0][..., i] for i in range(n)] for d in dirs]
        vdirs = [[d[1][..., i] for i in range(n)] for d in dirs]
        if probe:
            qdirs.append([0.0] * n)
            vdirs.append([0.0] * n)
        qcols = [q[..., i] for i in range(n)]
        self.q_tvs = {name: TaylorValue.variable(
            qcols[i], tuple(d[i] for d in qdirs), k)
            for i, name in enumerate(frame.coords)}
        self.v_tvs = [TaylorValue.variable(
            v[..., i], tuple(d[i] for d in vdirs), k) for i in range(n)]
        slots = coefficient_slots(frame, qcols, qdirs)
        nslots = 1 << k
        tvs = [TaylorValue(k, slots[s:s + nslots])
               for s in range(0, len(slots), nslots)]
        self.coeff_tvs = [tvs[i * n:(i + 1) * n] for i in range(n)]
        self.u_tvs = []
        for j in range(n):
            acc = self.v_tvs[0] * self.coeff_tvs[0][j]
            for i in range(1, n):
                acc = acc + self.v_tvs[i] * self.coeff_tvs[i][j]
            self.u_tvs.append(acc)

    def _walk(self, L, u_tvs):
        from framedyn.jets import TaylorValue

        env = dict(self.q_tvs)
        env.update(zip(L.vel_names, u_tvs))
        out = L.taylor_env(env)
        if not isinstance(out, TaylorValue):
            out = TaylorValue.constant(out, self.k)
        return out

    def eval(self, L):
        out = self._walk(L, self.u_tvs)
        return out.drop(1 << self.ndirs) if self.probe else out

    def eval_fibre_partial(self, L, i):
        from framedyn.jets import TaylorValue

        bit = 1 << self.ndirs
        delta = TaylorValue.variable(0.0, (0.0,) * self.ndirs + (1.0,),
                                     self.k)
        u_tvs = list(self.u_tvs)
        u_tvs[i] = u_tvs[i] + delta
        return self._walk(L, u_tvs).extract(bit)


def _custom_reference(section, q_tvs, v_tvs, k):
    """Tree walk of a custom section's expressions over leaf TaylorValues."""
    from framedyn.exprlang import ExprFunction
    from framedyn.jets import TaylorValue

    names = section.frame.coords + tuple(f"v{i + 1}"
                                         for i in range(len(v_tvs)))
    env = dict(q_tvs)
    env.update(zip(names[len(q_tvs):], v_tvs))
    for name, val in section.params.items():
        env.setdefault(name, TaylorValue.constant(float(val), k))
    out = []
    for e in section.exprs:
        tv = ExprFunction(e, names, tuple(section.params)).taylor_env(env)
        out.append(tv if isinstance(tv, TaylorValue)
                   else TaylorValue.constant(tv, k))
    return out


def _momentum_reference(L, split, pt):
    """p_a = sum_i (dL/du^i) X_a^i at a probed ChartPointReference."""
    bit = 1 << pt.ndirs
    partials = [pt.eval_fibre_partial(L, i) for i in range(split.n)]
    out = []
    for a in range(split.m, split.n):
        acc = None
        for i in range(split.n):
            term = partials[i] * pt.coeff_tvs[a][i].drop(bit)
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def section_extension_reference(section, pt):
    """Phi_a of a section at a ChartPointReference built with probe=True:
    the momenta for momentum sections (plus the shift's extension), the
    expressions re-read on the chart leaves for custom sections, None for
    the zero section."""
    from framedyn.vakonomic import (CustomSection, ShiftedMomentumSection,
                                    ZeroSection)

    if isinstance(section, ZeroSection):
        return None
    if isinstance(section, CustomSection):
        bit = 1 << pt.ndirs
        q_tvs = {name: tv.drop(bit) for name, tv in pt.q_tvs.items()}
        v_tvs = [tv.drop(bit) for tv in pt.v_tvs[:section.split.m]]
        return _custom_reference(section, q_tvs, v_tvs, pt.ndirs)
    out = _momentum_reference(section.L, section.split, pt)
    if isinstance(section, ShiftedMomentumSection):
        out = [b + e for b, e in zip(
            out, section_extension_reference(section.shift, pt))]
    return out


def section_taylor_reference(section, q, v_alpha, dirs):
    """Jets of phi_a along C-chart directions [(dq, dv_alpha)]."""
    from framedyn.jets import TaylorValue
    from framedyn.vakonomic import (CustomSection, ShiftedMomentumSection,
                                    ZeroSection)

    split = section.split
    q = np.asarray(q, dtype=float)
    v_alpha = np.asarray(v_alpha, dtype=float)
    k = len(dirs)
    if isinstance(section, ZeroSection):
        return [TaylorValue.constant(0.0, k)] * split.n_constraints
    if isinstance(section, CustomSection):
        q_tvs = {name: TaylorValue.variable(
            q[..., i], tuple(np.asarray(d[0])[..., i] for d in dirs), k)
            for i, name in enumerate(section.frame.coords)}
        v_tvs = [TaylorValue.variable(
            v_alpha[..., i], tuple(np.asarray(d[1])[..., i] for d in dirs), k)
            for i in range(split.m)]
        return _custom_reference(section, q_tvs, v_tvs, k)

    def pad(va):
        v = np.zeros(q.shape)
        v[..., :split.m] = va
        return v

    pt = ChartPointReference(section.frame, q, pad(v_alpha),
                             [(dq, pad(dv)) for dq, dv in dirs], probe=True)
    out = _momentum_reference(section.L, split, pt)
    if isinstance(section, ShiftedMomentumSection):
        out = [b + e for b, e in zip(
            out, section_taylor_reference(section.shift, q, v_alpha, dirs))]
    return out


class StateContextReference:
    """The nonholonomic system at a state, assembled piece by piece: M from
    Frame.matrix, u by base_velocity, the rows D_a by Frame.dfields, g_D by
    hessian_rows and each rhs_a from clift_at and dvlift_at, every piece a
    separate kernel call through run_kernel.  The field function of
    framedyn.nonholonomic must give the same floats.
    """

    def __init__(self, L, frame, split, s):
        from framedyn.frames import base_velocity
        from framedyn.lagrangian import hessian_rows

        s.require_on_C(split)
        self.L, self.frame, self.split = L, frame, split
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
        self.g = hessian_rows(L.taylor, q, self.u, M[..., :m, :])
        self.rhs = np.stack(
            [self.clift(a) - self.dvlift(a, h) for a in range(m)], axis=-1)
        self.gamma = None

    def dfield(self, a):
        if a >= self.D.shape[-2]:
            self.D = self.frame.dfields(self.q, self.u, self.split.n)
        return self.D[..., a, :]

    def clift(self, a):
        from framedyn.lagrangian import clift_at

        return clift_at(self.L, self.q, self.u, self.M[..., a, :],
                        self.dfield(a))

    def dvlift(self, a, w):
        from framedyn.lagrangian import dvlift_at

        return dvlift_at(self.L, self.q, self.u, self.M[..., a, :],
                         self.u, w, self.dfield(a))

    def solve(self, det_tol):
        from framedyn.linsolve import solve_and_det
        from framedyn.nonholonomic import RegularityError

        gamma, det = solve_and_det(self.g, self.rhs)
        if gamma is None or not np.min(np.abs(det)) > det_tol:
            raise RegularityError("regular_D", det)
        self.gamma = gamma
        return gamma

    def multipliers(self):
        from framedyn.frames import base_velocity

        w = self.h + base_velocity(self.M, self.gamma)
        out = [self.dvlift(a, w) - self.clift(a)
               for a in range(self.split.m, self.split.n)]
        return (np.stack(out, axis=-1) if out
                else np.zeros(self.q.shape[:-1] + (0,)))


def solve_scalar_reference(a, x):
    """Partial-pivot elimination as a loop on nested lists of floats, which
    it overwrites; returns (x, det), or (None, 0.0) at a zero pivot.
    framedyn.linsolve's factor and substitute, and LU and solve_and_det,
    which solve by them, must give the same floats."""
    n = len(x)
    det = 1.0
    for k in range(n):
        p = k  # the first row of largest |a[r][k]|, as max() picks it
        for r in range(k + 1, n):
            if abs(a[r][k]) > abs(a[p][k]):
                p = r
        if a[p][k] == 0.0:
            return None, 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            x[k], x[p] = x[p], x[k]
            det = -det
        det *= a[k][k]
        inv = 1.0 / a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] * inv
            if f != 0.0:
                for c in range(k + 1, n):
                    a[r][c] -= f * a[k][c]
                x[r] -= f * x[k]
    for k in range(n - 1, -1, -1):
        s = x[k]
        for c in range(k + 1, n):
            s -= a[k][c] * x[c]
        x[k] = s / a[k][k]
    return x, det


def peeled_solve_reference(M, b, zeros):
    """x with M^T x = b as a loop over the peel of framedyn.linsolve._peel
    on nested lists: equation c, sum_r M[r][c] x_r = b_c, gives x_r for a
    peeled column c before the core and for a peeled row after it, less its
    known terms in increasing r; the core by solve_scalar_reference.  The
    peeled solve of framedyn.linsolve must give the same floats."""
    from framedyn.linsolve import _peel

    n = len(b)
    steps, rows, cols, _ = _peel(n, zeros)
    x = [None] * n

    def rest(r, c):
        s = b[c]
        for r2 in range(n):
            if r2 != r and r2 * n + c not in zeros and x[r2] is not None:
                s -= M[r2][c] * x[r2]
        return s

    for r, c, _, kind in steps:
        if kind == "col":
            x[r] = rest(r, c) / M[r][c]
    if rows:
        core, _ = solve_scalar_reference([[M[r][c] for r in rows]
                                          for c in cols],
                                         [rest(None, c) for c in cols])
        for r, value in zip(rows, core):
            x[r] = value
    for r, c, _, kind in reversed(steps):
        if kind == "row":
            x[r] = rest(r, c) / M[r][c]
    return x


class QuasiVelocityFunction:
    """The quasi-velocity v^j of a frame as a function on TQ, for the lift
    derivatives (lagrangian.vlift_deriv, clift_deriv) to act on.

    Jets (up to two directions) come from implicit differentiation of
    X(q)^T v = u.
    """

    def __init__(self, frame, j):
        self.frame = frame
        self.j = j

    def taylor(self, q, u, dirs):
        from framedyn.frames import solve_transposed

        q = np.asarray(q, dtype=float)
        u = np.asarray(u, dtype=float)
        F = self.frame
        M = F.matrix(q)
        v = solve_transposed(F, M, u)
        out = [v[..., self.j]]
        if not dirs:
            return tuple(out)
        n = F.n

        def dmt(w):
            # directional derivative of M^T along base direction w
            return np.ascontiguousarray(
                np.swapaxes(F.dfields(q, w, n), -1, -2))

        firsts = []
        for dq, du in dirs:
            a = dmt(np.asarray(dq, dtype=float))
            rhs = np.asarray(du, dtype=float) - (a @ v[..., None])[..., 0]
            vs = solve_transposed(F, M, rhs)
            firsts.append(vs)
            out.append(vs[..., self.j])
        if len(dirs) == 1:
            return tuple(out)
        if len(dirs) != 2:
            raise ValueError("QuasiVelocityFunction supports at most 2 dirs")
        (dq1, _), (dq2, _) = dirs
        dq1 = np.asarray(dq1, dtype=float)
        dq2 = np.asarray(dq2, dtype=float)
        # mixed second derivative of M^T along (dq1, dq2)
        m12 = np.ascontiguousarray(
            np.swapaxes(F.derivative(q, [dq1, dq2]), -1, -2))
        a1 = dmt(dq1)
        a2 = dmt(dq2)
        rhs = -(m12 @ v[..., None] + a1 @ firsts[1][..., None]
                + a2 @ firsts[0][..., None])[..., 0]
        v12 = solve_transposed(F, M, rhs)
        out.append(v12[..., self.j])
        return (out[0], out[1], out[2], out[3])


# The constraint and residual sides as they were assembled before their
# generated sources (framedyn.frames._structure_source,
# framedyn.nonholonomic._lift_source, _epsilon_source and _chart_source,
# and framedyn.quasichart._fibre_source): one kernel call per piece.  Those
# sources must give the same floats.


def brackets_reference(frame, q, M):
    """The brackets (D X_j) X_i - (D X_i) X_j, i < j, at [..., c, pair],
    from one Frame.dfields call per X_i, placed by Python loops."""
    n = frame.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    B = np.empty(q.shape[:-1] + (n, len(pairs)))
    for i in range(n):
        D = frame.dfields(q, M[..., i, :], n)
        for idx, (a, b) in enumerate(pairs):
            if a == i:
                B[..., :, idx] = D[..., b, :]
            elif b == i:
                B[..., :, idx] -= D[..., a, :]
    return B


def structure_from_matrix_reference(frame, q, M, B=None):
    """R^k_ij from the brackets B (brackets_reference unless the caller
    passes them), solved against M^T by the frame's peeled solve, which
    tests/test_linsolve.py checks against LAPACK, and reflected by Python
    loops."""
    from framedyn.frames import solve_transposed

    n = frame.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    R = np.zeros(q.shape[:-1] + (n, n, n))
    if not pairs:
        return R
    coeff = solve_transposed(frame, M, brackets_reference(frame, q, M)
                             if B is None else B)
    for idx, (i, j) in enumerate(pairs):
        R[..., :, i, j] = coeff[..., :, idx]
        R[..., :, j, i] = -coeff[..., :, idx]
    return R


def contract_structure(R, v):
    """Rv[..., k, i] = R^k_ij v^j by one np.einsum over the dense R: the
    oracle of the structure source's R v, which sums its terms in
    einsum's order, so that the two are equal under ==."""
    return np.einsum("...ijk,...k->...ij", R, v)


class StructureReference:
    """framedyn.frames.Structure from the routes above: the brackets by
    brackets_reference, R by structure_from_matrix_reference from them and
    Rv by contract_structure."""

    def __init__(self, frame, q, M, v):
        self.brackets = brackets_reference(frame, q, M)
        self.R = structure_from_matrix_reference(frame, q, M, self.brackets)
        self.Rv = contract_structure(self.R, v)


class StateContextLiftsReference:
    """Methods of framedyn.nonholonomic.StateContext, each piece from the
    lift formulas of framedyn.lagrangian, one kernel call each: the rows
    D_a for a >= m by Frame.dfields on first use (the leading rows stay the
    field's), clift_at, vlift_at, dvlift_at, hessian_rows over all the
    rows of M (the g_D block made again from the same jets), and epsilon
    by one dvlift_at per index."""

    def dfield(self, a):
        if a >= self.D.shape[-2]:
            self.D = self.frame.dfields(self.q, self.u, self.split.n)
        return self.D[..., a, :]

    def vlift(self, a):
        from framedyn.lagrangian import vlift_at

        return vlift_at(self.L, self.q, self.u, self.M[..., a, :])

    def clift(self, a):
        from framedyn.lagrangian import clift_at

        return clift_at(self.L, self.q, self.u, self.M[..., a, :],
                        self.dfield(a))

    def dvlift(self, a, w):
        from framedyn.lagrangian import dvlift_at

        return dvlift_at(self.L, self.q, self.u, self.M[..., a, :], self.u,
                         w, self.dfield(a))

    def regularity_report(self, threshold):
        from framedyn.lagrangian import hessian_regularity, hessian_rows

        return self.memo(("regularity", threshold), lambda: hessian_regularity(
            hessian_rows(self.L.taylor, self.q, self.u, self.M),
            self.split, self.p, threshold))

    def epsilon(self, indices, gamma):
        """One dvlift - clift per index, each rate a kernel call."""
        from framedyn.exprlang import _gathered

        w = self.fibre(gamma)
        return _gathered([StateContextLiftsReference.dvlift(self, a, w)
                          - self.clift(a) for a in indices],
                         self.q.shape[:-1])


def chart_jets_reference(field, ctx, v, gamma, C):
    """NonholonomicField._chart_jets by one QvChartPoint.eval per jet, with
    the zero halves, e_alpha and the padded Gamma as arrays."""
    from framedyn.quasichart import QvChartPoint

    m = field.split.m
    q = ctx.q
    zq = np.zeros(q.shape)
    gpad = np.zeros(q.shape)
    gpad[..., :m] = gamma

    def jet(*dirs):
        return QvChartPoint(field.frame, q, v, dirs).eval(field.L).c

    for a in range(m):
        e_va = np.zeros(q.shape)
        e_va[..., a] = 1.0
        yield (jet((zq, e_va), (ctx.u, gpad))[3],
               jet((ctx.M[..., a, :], zq))[1],
               jet((zq, C[..., :, a]))[1])


def fibre_partial_reference(pt, L, i):
    """QvChartPoint.eval_fibre_partial by one run of the composite's
    compiled kernel per partial, w and its directions 0.0, with the probe
    direction w^i = 1 appended."""
    from framedyn.exprlang import _guarded
    from framedyn.jets import TaylorValue
    from framedyn.quasichart import _composite

    n = pt.frame.n
    fn, params = _composite(L, pt.frame)
    w = [0.0] * n
    probe = [0.0] * (3 * n)
    probe[2 * n + i] = 1.0
    cols, dir_cols = chart_columns(pt)
    slots = _guarded(fn.kernel(pt.ndirs + 1).batched, cols + w, params,
                     *[d + w for d in dir_cols], probe)
    return TaylorValue(pt.ndirs, slots[1 << pt.ndirs:])


# -- the stepping loop on numpy arrays ----------------------------------------
#
# framedyn.integrator.integrate steps on lists of Python floats and calls
# the field's generated source directly; this is the loop it replaced, on
# arrays, with every stage rate from the provider's public `rate` on a new
# QuasiState.  Both must give the same floats, step sequence and errors.


def _reference_rate(provider, frame, split):
    from framedyn.frames import QuasiState, base_velocity

    if hasattr(provider, "rate"):
        tail = np.zeros(split.n - split.m)

        def rate(q, v):
            return provider.rate(QuasiState(q, np.concatenate((v, tail))))
        return rate

    def rate(q, v):
        u = base_velocity(frame.matrix(q), v)
        return u, np.asarray(provider(q, v), dtype=float)

    return rate


def integrate_reference(provider, frame, split, initial, cfg):
    """framedyn.integrator.integrate with RK4 and DOPRI5 as numpy array
    arithmetic."""
    from framedyn.integrator import (_DP_A, _DP_B4, _DP_B5, _DP_C,
                                     IntegrationError, Trajectory,
                                     _non_finite, attach_observables)

    def non_finite(q, v, pattern="{}"):
        return _non_finite(q.tolist() + v.tolist(), q.size, pattern)

    initial.require_on_C(split)
    rate = _reference_rate(provider, frame, split)
    m = split.m
    q = np.array(initial.q, dtype=float)
    v = np.array(initial.v[:m], dtype=float)
    t0, t1 = cfg.t_span
    times, qs, vs = [t0], [q], [v]

    def f(t, q, v):
        try:
            dq, dv = rate(q, v)
        except Exception as exc:
            raise IntegrationError(f"field evaluation failed: {exc}", t)
        bad = non_finite(dq, dv, "d{}/dt")
        if bad:
            raise IntegrationError(f"non-finite {bad} from the field at "
                                   f"q = {q.tolist()}, v = {v.tolist()}", t)
        return dq, dv

    def require_finite_step(q, v, t, h):
        bad = non_finite(q, v)
        if bad:
            raise IntegrationError(
                f"non-finite {bad} after the step of size {h}", t)

    if cfg.method == "rk4":
        nsteps = max(1, int(round((t1 - t0) / cfg.step)))
        h_nominal = cfg.step
        t = t0
        i = 0
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h_nominal, t1 - t)
            k1q, k1v = f(t, q, v)
            k2q, k2v = f(t + h / 2, q + h / 2 * k1q, v + h / 2 * k1v)
            k3q, k3v = f(t + h / 2, q + h / 2 * k2q, v + h / 2 * k2v)
            k4q, k4v = f(t + h, q + h * k3q, v + h * k3v)
            q = q + (h / 6) * (k1q + 2 * k2q + 2 * k3q + k4q)
            v = v + (h / 6) * (k1v + 2 * k2v + 2 * k3v + k4v)
            require_finite_step(q, v, t, h)
            i += 1
            t = t0 + i * h_nominal if i <= nsteps else t1
            if t > t1:
                t = t1
            times.append(t)
            qs.append(q)
            vs.append(v)
            if i > cfg.max_steps:
                raise IntegrationError("step budget exhausted", t)
    else:
        t = t0
        h = min(cfg.step if cfg.step > 0 else (t1 - t0) / 100, t1 - t0)
        kq1, kv1 = f(t, q, v)
        nacc = 0
        while t < t1 - 1e-15 * max(1.0, abs(t1)):
            h = min(h, t1 - t)
            kqs, kvs = [kq1], [kv1]
            for stage in range(1, 7):
                aq, av = q, v
                for j, aij in enumerate(_DP_A[stage]):
                    if aij:
                        aq = aq + h * aij * kqs[j]
                        av = av + h * aij * kvs[j]
                kq, kv = f(t + h * _DP_C[stage], aq, av)
                kqs.append(kq)
                kvs.append(kv)
            q5 = q + h * sum(b * k for b, k in zip(_DP_B5, kqs) if b)
            v5 = v + h * sum(b * k for b, k in zip(_DP_B5, kvs) if b)
            q4 = q + h * sum(b * k for b, k in zip(_DP_B4, kqs) if b)
            v4 = v + h * sum(b * k for b, k in zip(_DP_B4, kvs) if b)
            require_finite_step(q5, v5, t, h)
            err_q = q5 - q4
            err_v = v5 - v4
            scale_q = cfg.atol + cfg.rtol * np.maximum(np.abs(q), np.abs(q5))
            scale_v = cfg.atol + cfg.rtol * np.maximum(np.abs(v), np.abs(v5))
            err = np.sqrt(
                (np.sum((err_q / scale_q) ** 2) + np.sum((err_v / scale_v) ** 2))
                / (q.size + v.size))
            if err <= 1.0:
                t = t + h
                q, v = q5, v5
                kq1, kv1 = kqs[6], kvs[6]  # FSAL
                times.append(t)
                qs.append(q)
                vs.append(v)
                nacc += 1
                if nacc > cfg.max_steps:
                    raise IntegrationError("step budget exhausted", t)
            factor = 0.9 * (err + 1e-16) ** -0.2
            h = h * min(5.0, max(0.2, factor))
            if h < 1e-13 * (t1 - t0):
                raise IntegrationError("adaptive step underflow", t)
    traj = Trajectory(
        times=np.array(times), q=np.array(qs), v=np.array(vs),
        observables={},
        meta={"method": cfg.method,
              "step": cfg.step if cfg.method == "rk4" else None,
              "rtol": cfg.rtol if cfg.method == "rk45" else None,
              "atol": cfg.atol if cfg.method == "rk45" else None,
              "t_span": list(cfg.t_span)})
    attach_observables(traj, provider, frame, split, cfg)
    return traj


# -- closed-form references of the built-in systems ---------------------------


def _ref_env(system, s):
    env = {}
    for i, name in enumerate(system.coords):
        env[name] = s.q[..., i]
    for a in range(system.m):
        env[f"v{a + 1}"] = s.v[..., a]
    env.update(system.params)
    return env


def reference_check(system, op, states=None, count=200, seed=0):
    """Compare the numeric pipeline against the closed-form references.

    op is one of the keys of system.references ("gamma", "multipliers",
    "momentum_pairing", "constrained_lagrangian").  Returns the max absolute
    difference over the samples.
    """
    from framedyn.exprlang import parse, tree_eval
    from framedyn.frames import velocities_from_quasi
    from framedyn.lagrangian import vlift_deriv
    from framedyn.nonholonomic import NonholonomicField
    from framedyn.systems import sample_states

    if op not in system.references:
        raise ValueError(f"{system.name} has no reference for {op!r}")
    if states is None:
        states = sample_states(system, count, seed)
    L = system.lagrangian()
    F = system.frame()
    split = system.split()
    field_ = NonholonomicField(L, F, split)
    env = _ref_env(system, states)
    ref_exprs = system.references[op]
    ones = np.ones(states.q.shape[:-1])
    if op in ("gamma", "multipliers"):
        got = getattr(field_, op)(states)
        ref = np.stack([tree_eval(parse(e), env) * ones for e in ref_exprs],
                       axis=-1)
    elif op == "momentum_pairing":
        p = velocities_from_quasi(F, states)
        p3 = vlift_deriv(L, F, 2, p)
        p4 = vlift_deriv(L, F, 3, p)
        th = states.q[..., 4]
        R, c = system.params["R"], system.params["c"]
        got = (R * R / (2 * c)) * (np.sin(th) * p3 - np.cos(th) * p4)
        ref = tree_eval(parse(ref_exprs), env) * ones
    elif op == "constrained_lagrangian":
        p = velocities_from_quasi(F, states)
        got = L.value(p.q, p.u)
        ref = tree_eval(parse(ref_exprs), env) * ones
    else:
        raise ValueError(f"unsupported reference op {op!r}")
    diff = float(np.max(np.abs(got - ref)))
    return {"system": system.name, "op": op,
            "count": int(np.prod(states.q.shape[:-1])),
            "max_abs_diff": diff}


def _plain(doc):
    """doc with every numpy array replaced by its tolist()."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _plain(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_plain(v) for v in doc]
    return doc


def json_text_reference(doc, sort_keys=False):
    """The JSON writer as it was: json.dumps with indent=1, which runs the
    pure-Python encoder, one call per value."""
    return json.dumps(_plain(doc), indent=1, sort_keys=sort_keys)


def csv_text_reference(names, table):
    """The CSV writer as it was: one f"{x:.17g}" per cell."""
    lines = [",".join(names)]
    for row in table:
        lines.append(",".join(f"{float(x):.17g}" for x in row))
    return "\n".join(lines) + "\n"
