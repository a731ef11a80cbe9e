"""Configuration charts, anholonomic frames, and quasi-velocities.

A frame is an ordered set of n vector fields on the chart, each given by n
coefficient expressions in the coordinates.  The first m fields span the
constraint distribution; the constraint submanifold C is where the trailing
quasi-velocities vanish.  Structure functions R^k_ij are defined by
[X_i, X_j] = R^k_ij X_k.

States may be scalar (q of shape (n,)) or batched (q of shape (N, n)); every
operation broadcasts over the leading axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exprlang import (EvalDomainError, Expr, ExprFunction, Kernels, Tape,
                       _gathered, _guarded, eval_value, free_names,
                       generated, parse, run)
from .linsolve import frame_gate, max_abs, min_abs, solve_peeled

__all__ = [
    "SingularFrameError", "ConstraintViolationError",
    "ConstraintSplit", "TangentPoint", "QuasiState", "VectorField", "Frame",
    "base_velocity", "bracket", "structure_functions", "quasi_velocities",
    "velocities_from_quasi", "change_of_D_basis", "jacobi_residual",
]

FRAME_DET_TOL = 1e-12
ON_C_TOL = 1e-12

# The frame check passes on the structural gate of the frame matrix
# (linsolve.frame_gate) where it is finite and above this bound; otherwise
# Frame.check_matrix decides, on LAPACK's det.  The gate peels the rows and
# columns with one structural nonzero off as factors and eliminates the
# dense core that is left (unrolled); the margin over FRAME_DET_TOL covers
# any rounding difference between that and LAPACK.
FAST_FRAME_DET = FRAME_DET_TOL * 2.0 ** 20


class SingularFrameError(Exception):
    pass


class ConstraintViolationError(Exception):
    pass


@dataclass(frozen=True)
class ConstraintSplit:
    """Index split: fields 0..m-1 span D, fields m..n-1 complete the frame."""

    n: int
    m: int

    def __post_init__(self):
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")

    @property
    def n_constraints(self):
        return self.n - self.m


@dataclass
class TangentPoint:
    q: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.q.shape != self.u.shape:
            raise ValueError("q and u shapes differ")


@dataclass
class QuasiState:
    """A point of TQ in the frame chart (q, v).  v always has length n; the
    C-restricted variant carries implicit zeros in the trailing slots.  Its
    state contexts (NonholonomicField._context) live in a private attribute
    `_contexts`, made on first use, which no field, ==, or repr sees."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.q.shape != self.v.shape:
            raise ValueError("q and v shapes differ")

    def __getstate__(self):  # copies and pickles start without contexts
        return {k: x for k, x in vars(self).items() if k != "_contexts"}

    @classmethod
    def on_C(cls, q, v_alpha, split):
        q = np.asarray(q, dtype=float)
        v_alpha = np.asarray(v_alpha, dtype=float)
        v = np.zeros(q.shape)
        v[..., : split.m] = v_alpha
        return cls(q, v)

    @property
    def batched(self):
        return self.q.ndim > 1

    def v_alpha(self, split):
        return self.v[..., : split.m]

    def require_on_C(self, split, tol=ON_C_TOL):
        va = self.v[..., split.m:]
        if va.size and not np.max(np.abs(va)) <= tol:
            raise ConstraintViolationError(
                f"state is off C: max |v^a| = {np.max(np.abs(va)):.3e} > {tol}")


class VectorField:
    """A vector field on the chart, given by coefficient expressions."""

    def __init__(self, components, coords, params=None):
        self.coords = tuple(coords)
        self.params = dict(params or {})
        self._pnames = tuple(self.params)
        self._pvals = tuple(float(self.params[k]) for k in self._pnames)
        comps = []
        for c in components:
            if isinstance(c, str):
                c = parse(c)
            elif isinstance(c, (int, float)):
                c = parse(repr(float(c)))
            if not isinstance(c, Expr):
                raise TypeError(f"bad component {c!r}")
            comps.append(ExprFunction(c, self.coords, self._pnames))
        self.components = tuple(comps)
        # fused kernels of the n components, by number of directions
        self._kernel = Kernels([c.expr for c in comps], self.coords,
                               self._pnames)

    def values(self, q):
        return _derivative(self._kernel(0), q, self._pvals, ())

    def dirderiv(self, q, w):
        """Directional derivative of each component along base direction w."""
        return _derivative(self._kernel(1), q, self._pvals, [w])


def _derivative(fn, q, params, dirs):
    """The top slot (the derivative once along every base direction in
    dirs) of each expression of a fused kernel at q, scalar or batched;
    shape (..., count).  The result is C-contiguous: matmul, einsum and
    solve may sum in another order over strided input."""
    q = np.asarray(q, dtype=float)
    nslots = 1 << len(dirs)
    top = run(fn, (q,), params, *[(w,) for w in dirs])[nslots - 1::nslots]
    return _gathered(top, q.shape[:-1]) if q.ndim > 1 else np.array(top)


def _structural_zero(expr):
    """Whether expr has no free names and the value 0.0."""
    if free_names(expr):
        return False
    try:
        return eval_value(expr, {}) == 0.0
    except EvalDomainError:
        return False


def _structural_zeros(kernels, n):
    return frozenset(i for i, e in enumerate(kernels.exprs[:n * n])
                     if _structural_zero(e))


class Frame:
    """n vector fields with an invertible coefficient matrix.

    Points are evaluated by fused kernels: all components of the fields
    involved are compiled into one function (see compile_taylor), built on
    first use and cached, and run at scalar and batched points alike (see
    exprlang.run).  A frame is immutable after construction: one object
    serves every user of an identical definition (SystemDef.frame).
    """

    def __init__(self, rows, coords, params=None):
        self.coords = tuple(coords)
        self.n = len(self.coords)
        self.params = dict(params or {})
        self._pvals = tuple(float(v) for v in self.params.values())
        if len(rows) != self.n:
            raise ValueError(f"need {self.n} fields, got {len(rows)}")
        if any(len(row) != self.n for row in rows):
            raise ValueError("field component count != n")
        self.fields = [VectorField(row, self.coords, self.params)
                       for row in rows]
        self._kernels = Kernels(
            [c.expr for f in self.fields for c in f.components], self.coords,
            tuple(self.params))

    def _kernel(self, k, count):
        """Fused kernel of the first `count` fields' components."""
        return self._kernels(k, count * self.n)

    def derivative(self, q, dirs, count=None):
        """The coefficients X_i^j of the first `count` fields (all by
        default) differentiated once along each base direction in dirs,
        shape (..., count, n): the matrix for no direction, the rows
        (D X_i) w for one, the mixed second derivatives for two."""
        count = self.n if count is None else count
        flat = _derivative(self._kernel(len(dirs), count), q, self._pvals,
                           dirs)
        return flat.reshape(flat.shape[:-1] + (count, self.n))

    def matrix(self, q):
        """Coefficient matrix, rows indexed by frame field: M[i, j] = X_i^j."""
        return self.derivative(q, ())

    @cached_property
    def zeros(self):
        """The flat indices (i * n + j) of the coefficients X_i^j that are
        structural zeros, constant 0.0 at every point: the pattern that the
        frame gate and the solves against M^T are generated for.  Found
        once per structure, in exprlang's module cache."""
        return generated("zeros", _structural_zeros, self._kernels, self.n)

    def check(self, M):
        """Reject a singular frame matrix M, scalar or batched: the
        structural gate passes every state where FAST_FRAME_DET < |det| <
        inf, and check_matrix decides the others (the whole of a single
        state's M, the states of a batch below the margin)."""
        n = self.n
        gate = frame_gate(n, self.zeros)
        if M.ndim == 2:
            if not FAST_FRAME_DET < abs(gate(M.ravel().tolist())) < math.inf:
                self.check_matrix(M)
            return
        with np.errstate(all="ignore"):
            det = np.abs(gate.batched([M[..., r, c] for r in range(n)
                                       for c in range(n)]))
        low = ~((FAST_FRAME_DET < det) & (det < math.inf))
        if low.any():
            self.check_matrix(M[np.broadcast_to(low, M.shape[:-2])])

    def check_matrix(self, M):
        """Reject a singular frame matrix M by LAPACK's det (|det| <=
        FRAME_DET_TOL at any state); returns det."""
        det = np.linalg.det(M)
        if not min_abs(det) > FRAME_DET_TOL:
            raise SingularFrameError(
                f"frame matrix is singular: min |det| = {min_abs(det):.3e}")
        return det

    def dfield(self, i, q, w):
        """(D X_i) w: derivative of field i's coefficients along w."""
        return self.fields[i].dirderiv(q, w)

    def dfields(self, q, w, count):
        """Rows (D X_i) w of the first `count` fields, shape (..., count, n)."""
        return self.derivative(q, [w], count)

    def coefficient_slots(self, cols, dirs):
        """Slots of every coefficient X_i^j (row-major, 2**len(dirs) each)
        from the numpy binding of the fused kernel, over per-coordinate
        leaves: cols[c] and dirs[d][c] are arrays of any shape, or floats.
        QvChartPoint passes 0-d columns at a single point, so that the
        coefficients round there as they do in a batch."""
        return _guarded(self._kernel(len(dirs), self.n).batched, cols,
                        self._pvals, *dirs)

    def exprs(self):
        return [[c.expr for c in f.components] for f in self.fields]


def base_velocity(M, v_alpha):
    """u = v^alpha X_alpha, from the leading rows of the frame matrix M."""
    m = v_alpha.shape[-1]
    return np.einsum("...a,...aj->...j", v_alpha, M[..., :m, :])


def bracket(X, Y, q):
    """Lie bracket [X, Y] at q, in coordinate components."""
    q = np.asarray(q, dtype=float)
    xv = X.values(q)
    yv = Y.values(q)
    return Y.dirderiv(q, xv) - X.dirderiv(q, yv)


def structure_functions(frame, q):
    """R[k, i, j] = R^k_ij with [X_i, X_j] = R^k_ij X_k; skew in (i, j).

    Brackets are computed for i < j only and reflected, so the skew symmetry
    is exact.
    """
    q = np.asarray(q, dtype=float)
    M = frame.matrix(q)
    frame.check(M)
    return structure_from_matrix(frame, q, M)


def structure_from_matrix(frame, q, M, B=None):
    """structure_functions at q from the frame matrix M = X(q), already
    evaluated and checked: the brackets [X_i, X_j], i < j, solved against
    M^T (solve_transposed).  B is the bracket array _brackets(frame, q, M)
    where the caller keeps it; otherwise it is made in the call to the
    solve, so that it is freed before R is filled."""
    n = frame.n
    R = np.zeros(q.shape[:-1] + (n, n, n))
    if n < 2:
        return R
    i, j = np.triu_indices(n, 1)
    coeff = solve_transposed(frame, M, _brackets(frame, q, M) if B is None
                             else B)
    R[..., :, i, j] = coeff
    R[..., :, j, i] = -coeff
    return R


def contract_structure(R, v):
    """Rv[..., k, i] = R^k_ij v^j, the one contraction of R with v: the
    residuals, the vakonomic solve and the defects read slices of it."""
    return np.einsum("...ijk,...k->...ij", R, v)


def _brackets(frame, q, M):
    """The brackets [X_i, X_j], i < j in row-major order, at q from the
    frame matrix M there, shape (..., n, n(n-1)/2), from one call of the
    frame's bracket function (_bracket_source)."""
    shape = q.shape[:-1]
    B = run(_bracket_source(frame), (q,), frame._pvals,
            (M.reshape(shape + (-1,)),))
    return _gathered(B, shape).reshape(shape + (frame.n, -1))


def _bracket_source(frame):
    """The one generated function of the brackets of a frame's fields
    (docs/state_context.md): f(q, fp, M) -> the entries of
    B[c, (i, j)] = [X_i, X_j]^c = ((DX_j)X_i - (DX_i)X_j)^c for i < j,
    row-major, with M the flat frame matrix at q.  The frame's k = 1 kernel
    is inlined once along each row X_i of M, on one Tape.  Shared by every
    frame of the same structure."""
    return generated("brackets", _generate_brackets, frame._kernels, frame.n)


def _generate_brackets(fk, n):
    tape = Tape()
    q = [f"q{i}" for i in range(n)]
    X = [[f"m{i}_{j}" for j in range(n)] for i in range(n)]
    # D[i][j * n + c] = ((DX_j) X_i)^c
    D = [tape.kernel(fk, 1, q, [X[i]], "fp")[1::2] for i in range(n)]
    B = [tape.fold("a - b", {"a": D[i][j * n + c], "b": D[j][i * n + c]})
         for c in range(n) for i in range(n) for j in range(i + 1, n)]
    return tape.function("_brackets", ["q", "fp", "M"],
                         {"q": q, "M": sum(X, [])}, [B], f"<brackets n={n}>")


def quasi_velocities(frame, p):
    """Quasi-velocities of a tangent point: solve X(q)^T v = u."""
    M = frame.matrix(p.q)
    frame.check(M)
    return QuasiState(p.q, solve_transposed(frame, M, p.u))


def solve_transposed(frame, M, B):
    """X with M^T X = B for the frame matrix M = X(q), already evaluated
    and checked, and B of shape (..., n) or (..., n, k): the peeled solve of
    the frame's structural zeros (linsolve.peeled), at a single state or a
    batch."""
    X = solve_peeled(M, B, frame.zeros)
    if X is None:
        raise SingularFrameError("frame matrix is singular: a zero pivot "
                                 "in the solve against its transpose")
    return X


def velocities_from_quasi(frame, s):
    """Inverse of quasi_velocities: u = v^i X_i, summed as base_velocity
    sums it, so on C it is the state context's u bit for bit."""
    return TangentPoint(s.q, base_velocity(frame.matrix(s.q), s.v))


def _block_exprs(block, size_out, size_in):
    """Normalise a block of entries to Expr-or-None (None marks a zero)."""
    rows = []
    for r in range(size_out):
        row = []
        for c in range(size_in):
            e = block[r][c]
            if isinstance(e, (int, float)) and float(e) == 0.0:
                e = None
            elif isinstance(e, str):
                e = parse(e)
            elif isinstance(e, (int, float)):
                e = parse(repr(float(e)))
            row.append(e)
        rows.append(row)
    return rows


def change_of_D_basis(frame, split, A_alpha_beta, A_a_b=None, A_a_alpha=None):
    """New adapted frame Y_alpha = A_alpha^beta X_beta,
    Y_a = A_a^b X_b + A_a^alpha X_alpha.

    Block entries are expressions in the coordinates, or constants; A_a_b
    defaults to the identity and A_a_alpha to zero.  Under the induced
    quasi-velocity map the level sets v^a = 0 and w^a = 0 coincide.  Singular
    blocks are not rejected here; they surface as a SingularFrameError when
    the new frame is evaluated.
    """
    from .exprlang import Add, Const, Mul

    n, m = split.n, split.m
    k = n - m
    A1 = _block_exprs(A_alpha_beta, m, m)
    if A_a_b is None:
        A2 = [[parse("1") if r == c else None for c in range(k)]
              for r in range(k)]
    else:
        A2 = _block_exprs(A_a_b, k, k)
    if A_a_alpha is None:
        A3 = [[None] * m for _ in range(k)]
    else:
        A3 = _block_exprs(A_a_alpha, k, m)
    old = frame.exprs()

    def comb(coeff_exprs, field_indices, j):
        terms = [Mul(w, old[fi][j])
                 for w, fi in zip(coeff_exprs, field_indices) if w is not None]
        if not terms:
            return Const(0.0)
        out = terms[0]
        for t in terms[1:]:
            out = Add(out, t)
        return out

    rows = []
    for a in range(m):
        rows.append([comb(A1[a], range(m), j) for j in range(n)])
    for r in range(k):
        coeffs = list(A2[r]) + list(A3[r])
        idx = list(range(m, n)) + list(range(m))
        rows.append([comb(coeffs, idx, j) for j in range(n)])
    return Frame(rows, frame.coords, frame.params)


def jacobi_residual(frame, q):
    """Max componentwise residual of the cyclic Jacobi identity at q,
    computed from exact coefficient jets."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError("jacobi_residual takes a single point")
    n = frame.n
    e = np.eye(n)
    vals = frame.matrix(q)                                        # X[i][l]
    # jac[i][l][p] = d X_i^l / d q^p and hess[i][l][p][r], from the fused
    # kernels of the whole frame
    jac = np.stack([frame.derivative(q, [e[p]]) for p in range(n)], -1)
    hess = np.empty((n, n, n, n))
    for p in range(n):
        for r in range(p, n):
            hess[..., p, r] = hess[..., r, p] = frame.derivative(
                q, [e[p], e[r]])

    def brk(i, j):
        return vals[i] @ jac[j].T - vals[j] @ jac[i].T

    def dbrk(i, j):
        # d/dq^p of [X_i, X_j]^l, at [l, p]
        return (jac[j] @ jac[i] + vals[i] @ hess[j]
                - jac[i] @ jac[j] - vals[j] @ hess[i])

    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = np.zeros(n)
                for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                    B = brk(b, c)
                    dB = dbrk(b, c)
                    total += vals[a] @ dB.T - B @ jac[a].T
                worst = max_abs(total, worst)
    return worst
