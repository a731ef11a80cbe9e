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
from functools import cached_property, partial

import numpy as np

from .exprlang import (EvalDomainError, Expr, ExprFunction, Kernels, Tape,
                       _gathered, bind_source, eval_value, free_names,
                       generated, parse, run)
from .folding import frame_values, target, texts
from .linsolve import (frame_gate, max_abs, min_abs, peel_core, peel_globals,
                       peel_solve, solve_peeled)

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
ZERO_PIVOT = ("frame matrix is singular: a zero pivot in the solve against "
              "its transpose")


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


def _constant(expr):
    """The value of expr if it has no free names, else None."""
    if free_names(expr):
        return None
    try:
        return eval_value(expr, {})
    except EvalDomainError:
        return None


def _constants(kernels, n):
    values = [_constant(e) for e in kernels.exprs[:n * n]]
    return tuple(frozenset(i for i, x in enumerate(values) if x == c)
                 for c in (0.0, 1.0))


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

    def derivative(self, q, dirs, count=None):
        """The coefficients X_i^j of the first `count` fields (all by
        default) differentiated once along each base direction in dirs,
        shape (..., count, n): the matrix for no direction, the rows
        (D X_i) w for one, the mixed second derivatives for two."""
        count = self.n if count is None else count
        flat = _derivative(self._kernels(len(dirs), count * self.n), q,
                           self._pvals, dirs)
        return flat.reshape(flat.shape[:-1] + (count, self.n))

    def matrix(self, q):
        """Coefficient matrix, rows indexed by frame field: M[i, j] = X_i^j."""
        return self.derivative(q, ())

    @cached_property
    def constants(self):
        """(zeros, ones): the flat indices (i * n + j) of the coefficients
        X_i^j constant 0.0 (structural zeros) and 1.0 at every point, that
        the frame gate and the solves against M^T (zeros) and every
        contraction with M's rows (folding.frame_values) are generated
        for.  Found once per structure, in exprlang's module cache."""
        return generated("constants", _constants, self._kernels, self.n)

    zeros = property(lambda self: self.constants[0])
    ones = property(lambda self: self.constants[1])

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
    is exact.  R comes from one run of the structure source (Structure), at
    v = 0.
    """
    q = np.asarray(q, dtype=float)
    M = frame.matrix(q)
    frame.check(M)
    return Structure(frame, q, M, np.zeros(q.shape)).R


class Structure:
    """One run of the frame's structure source (_structure_source) at q,
    from the frame matrix M = X(q), already evaluated and checked, and the
    quasi-velocities v: the brackets, R and Rv, each made an array on its
    first read from the entries of the run, which it then lets go."""

    def __init__(self, frame, q, M, v):
        self.n, self.shape = frame.n, q.shape[:-1]
        fn = _structure_source(frame)
        self._R_at = fn.entries
        self._runs = dict(zip(("brackets", "R", "Rv"), run(
            fn, (q,), frame._pvals, (M.reshape(self.shape + (-1,)),),
            (v,))))

    @cached_property
    def brackets(self):
        """[X_i, X_j]^c at [..., c, p] for the pairs p = (i, j), i < j, in
        row-major order."""
        n = self.n
        return _gathered(self._runs.pop("brackets"), self.shape).reshape(
            self.shape + (n, n * (n - 1) // 2))

    @cached_property
    def R(self):
        """R[..., k, i, j] = R^k_ij, skew in (i, j): zeros, the entries of
        the run for i < j and their negatives for i > j."""
        n = self.n
        R = np.zeros(self.shape + (n, n, n))
        for (k, i, j), x in zip(self._R_at, self._runs.pop("R")):
            R[..., k, i, j] = x
            R[..., k, j, i] = -x
        return R

    @cached_property
    def Rv(self):
        """Rv[..., k, i] = R^k_ij v^j, the one contraction of R with v:
        the residuals, the vakonomic solve and the defects read slices of
        it."""
        n = self.n
        return _gathered(self._runs.pop("Rv"), self.shape).reshape(
            self.shape + (n, n))


def _structure_source(frame):
    """The one generated function of the structure of a frame's fields
    (docs/state_context.md): f(q, fp, M, v) -> (B, R, Rv) at q, with M the
    flat frame matrix there and v the quasi-velocities, each a row-major
    sequence:

    1. B[c, (i, j)] = [X_i, X_j]^c = ((DX_j)X_i - (DX_i)X_j)^c for i < j,
       the frame's k = 1 kernel inlined once along each row X_i of M;
    2. R, the R^k_ij with i < j at the indices f.entries, those that are
       not structural zeros: the peeled solve of M^T C = B, one column of
       B at a time (linsolve.peel_solve), the core factorised once;
    3. Rv[k, i] = R^k_ij v^j over the terms that are not structural zeros,
       summed in np.einsum's order (_einsum_order).

    All of it is on one Tape, folded where it is emitted (M's constant
    entries too), so a structurally zero bracket, column or term emits no
    line.  The solve and Rv run under _solving(): numpy's errors are
    ignored at a batch, and a zero pivot at a single state raises
    SingularFrameError.  Shared by every frame of the same structure."""
    return generated("structure", _generate_structure, frame._kernels,
                     frame.n, *frame.constants)


def _einsum_order(n):
    """The order in which np.einsum("...ijk,...k->...ij") sums its n
    products over k, as a tree of indices: numpy's contiguous reduction
    keeps two partial sums, over the even and over the odd k, adds each
    block of 8 products into them from its end (k = 6, 4, 2, 0 of the
    block), then the products that remain in increasing k, and returns
    the even sum plus the odd one.  For n < 8 that is (t0 + t2 + ...) +
    (t1 + t3 + ...).  tests/test_frames.py checks it against np.einsum."""
    lanes = [None, None]

    def add(lane, k):
        lanes[lane] = k if lanes[lane] is None else (lanes[lane], k)

    for base in range(0, n - n % 8, 8):
        for lane in (0, 1):
            for k in (6, 4, 2, 0):
                add(lane, base + k + lane)
    for k in range(n - n % 8, n):
        add(k % 2, k)
    return lanes[0] if lanes[1] is None else tuple(lanes)


def _contracted(tape, R, k, i, n):
    """Rv[k, i] = R^k_ij v^j on tape, from the values R[(k, i, j)] for
    i < j (those not in R are structural zeros), in _einsum_order."""
    names = {}

    def term(tree):
        if type(tree) is tuple:
            return f"({term(tree[0])} + {term(tree[1])})"
        j = tree
        names[f"r{j}"], names[f"w{j}"] = R.get(
            (k, min(i, j), max(i, j))), f"v{j}"
        return f"{'-' if j < i else ''}r{j}*w{j}"

    return tape.fold(term(_einsum_order(n)), names) if n else None


def _generate_structure(fk, n, zeros, ones):
    tape = Tape()
    q, v = [f"q{i}" for i in range(n)], [f"v{j}" for j in range(n)]
    X = frame_values([[f"m{i}_{j}" for j in range(n)] for i in range(n)],
                     zeros, ones)
    a = sum(X, [])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # D[i][j * n + c] = ((DX_j) X_i)^c
    D = [tape.kernel(fk, 1, q, [X[i]], "fp")[1::2] for i in range(n)]
    B = [[tape.fold("a - b", {"a": D[i][j * n + c], "b": D[j][i * n + c]})
          for i, j in pairs] for c in range(n)]
    solve = len(tape.lines)  # the lines of the solve and Rv follow
    R = {}
    if pairs:
        lu = peel_core(tape, n, zeros, a)
        for p, (i, j) in enumerate(pairs):
            x = peel_solve(tape, n, zeros, a, [col[p] for col in B], lu)
            R.update(((k, i, j), y) for k, y in enumerate(x)
                     if y is not None)
    entries = sorted(R)
    outputs = [sum(B, []), [R[e] for e in entries],
               [_contracted(tape, R, k, i, n)
                for k in range(n) for i in range(n)]]
    keep = sum(outputs, [])
    first = next((line for line, live in zip(tape.lines[solve:],
                                              tape.live(keep)[solve:])
                  if live), None)
    body = tape.released(keep)
    cut = body.index(first) if first else len(body)
    returned = ", ".join(f"({''.join(f'{x}, ' for x in texts(p))})"
                         for p in outputs)
    source = "\n".join(
        ["def _structure(q, fp, M, v):"]
        + [f"    {target(names)}, = {arg}"
           for arg, names in (("q", q), ("M", a), ("v", v))]
        + body[:cut] + ["    with _solving():"]
        + ([f"    {line}" for line in body[cut:]] or ["        pass"])
        + [f"    return {returned}"])
    scalar, batched = peel_globals(n, zeros)
    fn = bind_source(source, "_structure", f"<structure n={n}>",
                     {**scalar, "_solving": _ZeroPivot},
                     {**batched, "_solving": partial(np.errstate,
                                                     all="ignore")})
    fn.entries = tuple(entries)
    return fn


class _ZeroPivot:
    """The context of the solve lines of the structure source at a single
    state: a division by zero there is a zero pivot."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if kind is ZeroDivisionError:
            raise SingularFrameError(ZERO_PIVOT) from exc


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
        raise SingularFrameError(ZERO_PIVOT)
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
