"""Independent numerical oracles used to pin expected values.

The coordinate-space oracle derives the constrained dynamics the classical
way: finite differences of L in coordinates, constraint rows from the
numerically inverted frame matrix, and one KKT solve per state.  It shares no
differentiation code with the package (only plain value evaluation), so it
cross-checks both the jet engine and the frame calculus.
"""

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
        slots = frame.coefficient_slots(qcols, qdirs)
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
    it overwrites; returns (x, det), or (None, 0.0) at a zero pivot.  The
    unrolled solver of framedyn.linsolve must give the same floats."""
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


# The constraint side as it was assembled before its generated sources
# (framedyn.frames._bracket_source, framedyn.nonholonomic._lift_source and
# framedyn.quasichart._fibre_source): one kernel call per piece.  Those
# sources must give the same floats.


def structure_from_matrix_reference(frame, q, M):
    """R^k_ij from the brackets (D X_j) X_i - (D X_i) X_j, one
    Frame.dfields call per X_i, assembled and reflected by Python loops."""
    n = frame.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    R = np.zeros(q.shape[:-1] + (n, n, n))
    if not pairs:
        return R
    B = np.empty(q.shape[:-1] + (n, len(pairs)))
    for i in range(n):
        D = frame.dfields(q, M[..., i, :], n)
        for idx, (a, b) in enumerate(pairs):
            if a == i:
                B[..., :, idx] = D[..., b, :]
            elif b == i:
                B[..., :, idx] -= D[..., a, :]
    coeff = np.linalg.solve(np.swapaxes(M, -1, -2), B)
    for idx, (i, j) in enumerate(pairs):
        R[..., :, i, j] = coeff[..., :, idx]
        R[..., :, j, i] = -coeff[..., :, idx]
    return R


class StateContextLiftsReference:
    """Methods of framedyn.nonholonomic.StateContext, each piece from the
    lift formulas of framedyn.lagrangian, one kernel call each: the rows
    D_a for a >= m by Frame.dfields on first use (the leading rows stay the
    field's), clift_at, vlift_at, dvlift_at and hessian_rows over the rows
    of M with g_D copied in."""

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
            hessian_rows(self.L.taylor, self.q, self.u, self.M, known=self.g),
            self.split, self.p, threshold))


def fibre_partial_reference(pt, L, i):
    """QvChartPoint.eval_fibre_partial by one run of the composite's kernel
    per partial, with the probe direction w^i = 1 appended."""
    from framedyn.jets import TaylorValue

    n = pt.frame.n
    probe = [0.0] * (3 * n)
    probe[2 * n + i] = 1.0
    slots = pt._run(L, pt.dir_cols + [probe])
    return TaylorValue(pt.ndirs, slots[1 << pt.ndirs:])
