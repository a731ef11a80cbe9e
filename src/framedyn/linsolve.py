"""The small dense solves and determinants that arise at each state.

Every one is Gaussian elimination with partial pivoting, unrolled for one
size (the matrices here are at most a handful of rows) and, for a solve
against a frame matrix, for one pattern of structural zeros (peeled).  Each
generated function is compiled once and bound twice (exprlang.bind_source):
to Python floats at a single state, and to numpy at a batch, where every
entry is a column of per-state values, a pivot swap is an np.where and a
zero pivot sets det to 0.0 at its state where the float binding returns
early.  The two bindings make the same float operations in the same order,
so a batched result is the single-state result at every state.  LAPACK is
left to Frame.check_matrix, which decides the frame check near its
threshold, and to the condition estimate of the reports.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .exprlang import bind_source

__all__ = ["det_pp", "min_abs", "max_abs", "solve", "solve_and_det",
           "cond_estimate", "unrolled", "factor", "substitute", "LU",
           "frame_gate", "peeled", "solve_peeled"]


def _bind(lines, filename, core=None):
    """Bind the generated function _f twice; its text reads _scalar to tell
    the float binding from the numpy one, and _core, the binding of the
    same kind of core, where it eliminates a dense core."""
    return bind_source("\n".join(lines), "_f", filename,
                       scalar={"_scalar": True, "_core": core},
                       batched={"_scalar": False, "_where": np.where,
                                "_core": core and core.batched})


def _elimination(n, solve):
    """The lines that reduce the row-major entries a{r}_{c} of an n x n
    matrix to its upper factor, with det, the pivot rows p{k} and the
    multipliers f{r}_{k} (see unrolled); a zero pivot returns `stop` from
    the float binding and is recorded in `zero` by the numpy one."""
    a = [[f"a{r}_{c}" for c in range(n)] for r in range(n)]
    stop = ("None, 0.0, None" if solve == "x" else "0.0, None" if solve
            else "0.0")
    lines = ["    det = 1.0"]

    def swap(k, r, indent, mask=None):
        cols = range(k, n)
        lhs = [a[k][c] for c in cols] + [a[r][c] for c in cols] + ["det"]
        if mask is None:
            rhs = ([a[r][c] for c in cols] + [a[k][c] for c in cols]
                   + ["-det"])
        else:
            rhs = ([f"_where({mask}, {a[r][c]}, {a[k][c]})" for c in cols]
                   + [f"_where({mask}, {a[k][c]}, {a[r][c]})" for c in cols]
                   + [f"_where({mask}, -det, det)"])
        lines.append(f"{indent}{', '.join(lhs)} = {', '.join(rhs)}")

    for k in range(n):
        if n - k == 2:
            r = k + 1
            lines.append("    if _scalar:")
            if solve:
                lines.append(f"        p{k} = {k}")
            lines.append(f"        if abs({a[r][k]}) > abs({a[k][k]}):")
            swap(k, r, " " * 12)
            if solve:
                lines.append(f"            p{k} = {r}")
            lines += ["    else:",
                      f"        s = abs({a[r][k]}) > abs({a[k][k]})"]
            swap(k, r, " " * 8, "s")
            if solve:
                lines.append(f"        p{k} = _where(s, {r}, {k})")
        elif n - k > 2:
            # the first row of largest |a[r][k]|, as max() picks it
            lines += [f"    c{k} = abs({a[k][k]})", f"    p{k} = {k}",
                      "    if _scalar:"]
            for r in range(k + 1, n):
                lines += [f"        z = abs({a[r][k]})",
                          f"        if z > c{k}:",
                          f"            c{k}, p{k} = z, {r}"]
            for r in range(k + 1, n):
                lines.append(f"        {'if' if r == k + 1 else 'elif'} "
                             f"p{k} == {r}:")
                swap(k, r, " " * 12)
            lines.append("    else:")
            for r in range(k + 1, n):
                lines += [f"        z = abs({a[r][k]})", f"        s = z > c{k}",
                          f"        c{k} = _where(s, z, c{k})",
                          f"        p{k} = _where(s, {r}, p{k})"]
            for r in range(k + 1, n):
                lines.append(f"        s = p{k} == {r}")
                swap(k, r, " " * 8, "s")
        lines += ["    if _scalar:", f"        if {a[k][k]} == 0.0:",
                  f"            return {stop}", "    else:",
                  f"        zero = {'zero | ' if k else ''}({a[k][k]} == 0.0)",
                  f"    det = det * {a[k][k]}"]
        if k < n - 1:
            lines.append(f"    i{k} = 1.0 / {a[k][k]}")
        for r in range(k + 1, n):
            lines.append(f"    f{r}_{k} = {a[r][k]} * i{k}")
            updates = [(a[r][c], f"{a[r][c]} - f{r}_{k} * {a[k][c]}")
                       for c in range(k + 1, n)]
            if not solve:  # a NaN anywhere reaches det
                lines += [f"    {x} = {e}" for x, e in updates]
            elif updates:  # a zero multiplier leaves the row as it is
                lines += ["    if _scalar:",
                          f"        if f{r}_{k} != 0.0:"]
                lines += [f"            {x} = {e}" for x, e in updates]
                lines += ["    else:", f"        s = f{r}_{k} != 0.0"]
                lines += [f"        {x} = _where(s, {e}, {x})"
                          for x, e in updates]
    if n:
        lines.append("    if not _scalar:")
        lines.append("        det = _where(zero, 0.0, det)")
    return lines


def _factors(n):
    """The names of the factor entries that substitution reads: the pivot
    rows, the multipliers and the upper factor, row by row."""
    return ([f"p{k}" for k in range(n - 1)]
            + [f"f{r}_{k}" for k in range(n) for r in range(k + 1, n)]
            + [f"a{k}_{c}" for k in range(n) for c in range(k, n)])


def _substitution(n):
    """The lines that solve for x{r} from the right side b, given the
    factor entries: the pivot swaps and the multipliers in the order of the
    elimination (an update skipped for a zero multiplier), then back
    substitution, subtracting a[k][c] * x[c] in increasing c and dividing
    by a[k][k]."""
    x = [f"x{r}" for r in range(n)]
    lines = [f"    {''.join(f'{e}, ' for e in x)}= b"] if n else []
    for k in range(n - 1):
        lines.append("    if _scalar:")
        for r in range(k + 1, n):
            lines += [f"        {'if' if r == k + 1 else 'elif'} p{k} == {r}:",
                      f"            {x[k]}, {x[r]} = {x[r]}, {x[k]}"]
        lines.append("    else:")
        for r in range(k + 1, n):
            lines += [f"        s = p{k} == {r}",
                      f"        {x[k]}, {x[r]} = _where(s, {x[r]}, {x[k]}), "
                      f"_where(s, {x[k]}, {x[r]})"]
        for r in range(k + 1, n):
            e = f"{x[r]} - f{r}_{k} * {x[k]}"
            lines += ["    if _scalar:", f"        if f{r}_{k} != 0.0:",
                      f"            {x[r]} = {e}", "    else:",
                      f"        {x[r]} = _where(f{r}_{k} != 0.0, {e}, {x[r]})"]
    for k in range(n - 1, -1, -1):
        s = x[k]
        for c in range(k + 1, n):
            s = f"({s} - a{k}_{c} * {x[c]})"
        lines.append(f"    {x[k]} = {s} / a{k}_{k}")
    return lines


def _unpack(n):
    return ([f"    {''.join(f'a{r}_{c}, ' for r in range(n) for c in range(n))}"
             "= a"] if n else [])


@cache
def unrolled(n, solve=True):
    """Partial-pivot elimination of an n x n system, unrolled on local
    names.  Column by column, the pivot is the first row of largest
    |a[r][k]|; a zero pivot stops it.  Each lower row r gets the multiplier
    f = a[r][k] * (1.0 / a[k][k]) and, unless f is 0.0, the update
    a[r][c] -= f * a[k][c], c > k, and x[r] -= f * x[k].  Back substitution
    subtracts a[k][c] * x[c] in increasing c, then divides by a[k][k];
    det is the signed product of the pivots.

    With solve, f(a, b) -> (x, det, lu) for the row-major entries a of A
    and the right side b; x is a tuple, lu the factors of factor(n), and
    both are None with det 0.0 at a zero pivot.  Without, f(a) -> det alone,
    0.0 at a zero pivot, and the updates are made for a zero multiplier
    too, so a NaN entry anywhere in A makes the det NaN (or a pivot zero).
    f.batched takes columns (see the module docstring): x is then made at
    every state, and det is 0.0 where a pivot is zero."""
    head = [f"def _f(a{', b' if solve else ''}):"] + _unpack(n)
    if not solve:
        lines = head + _elimination(n, False) + ["    return det"]
    else:
        lines = (head + _elimination(n, "x") + _substitution(n)
                 + [f"    return ({''.join(f'x{r}, ' for r in range(n))}), "
                    f"det, ({''.join(f'{e}, ' for e in _factors(n))})"])
    return _bind(lines, f"<unrolled n={n}{'' if solve else ' det'}>")


@cache
def factor(n):
    """f(a) -> (det, lu): unrolled's elimination of the row-major entries a
    of an n x n matrix, with lu the factor entries that substitute(n) reads,
    or (0.0, None) at a zero pivot of a single state: those of
    unrolled(n)(a, b), whose x is substitute(n)(lu, b), float for float."""
    lines = (["def _f(a):"] + _unpack(n) + _elimination(n, "lu")
             + [f"    return det, ({''.join(f'{e}, ' for e in _factors(n))})"])
    return _bind(lines, f"<factor n={n}>")


@cache
def substitute(n):
    """f(lu, b) -> x with A x = b, from the factors (det, lu) = factor(n)(a)
    of A."""
    lines = (["def _f(lu, b):"]
             + ([f"    {''.join(f'{e}, ' for e in _factors(n))}= lu"]
                if n else [])
             + _substitution(n)
             + [f"    return ({''.join(f'x{r}, ' for r in range(n))})"])
    return _bind(lines, f"<substitute n={n}>")


def _rows(b, wide):
    """The rows of a batched right side b for the numpy bindings: b[..., r,
    None] of one right side, b[..., r, :] of several (wide)."""
    return [b[..., r, :] if wide else b[..., r, None]
            for r in range(b.shape[-2 if wide else -1])]


def _by_columns(fn, head, b):
    """fn(head, column) over the columns of a single state's right side b,
    shape (n,) or (n, k): x of b's shape, or None if fn gives None."""
    xs = [fn(head, col) for col in ([b.tolist()] if b.ndim == 1
                                    else b.T.tolist())]
    if None in xs:
        return None
    return np.array(xs[0]) if b.ndim == 1 else np.array(xs).T.copy()


def _by_rows(fn, head, b, wide):
    """fn.batched(head, rows of b) at a batch, stacked back to b's shape."""
    with np.errstate(all="ignore"):
        x = fn.batched(head, _rows(b, wide))
    return np.stack(x, axis=-2) if wide else np.concatenate(x, axis=-1)


class LU:
    """The factors of a square matrix A at one state or a batch (factor),
    made once and applied to any number of right sides (solve).  det is
    det(A): a float at a single state, an array of the batch shape
    otherwise, 0.0 wherever a pivot is zero."""

    def __init__(self, n, det, lu):
        self.n, self.det, self.lu = n, det, lu

    @classmethod
    def of(cls, A):
        A = np.asarray(A, dtype=float)
        n, shape = A.shape[-1], A.shape[:-2]
        if not n:
            return cls(0, np.ones(shape) if shape else 1.0, ())
        if not shape:
            return cls(n, *factor(n)(A.ravel().tolist()))
        with np.errstate(all="ignore"):
            det, lu = factor(n).batched([A[..., r, c, None] for r in range(n)
                                         for c in range(n)])
        return cls(n, det[..., 0], lu)

    def solve(self, b):
        """x with A x = b for b of shape (..., n), or of shape (..., n, k)
        for k right sides: None at a singular single state, NaN at the
        singular states of a batch."""
        b = np.asarray(b, dtype=float)
        if self.lu is None:
            return None
        if not self.n:
            return np.zeros(b.shape)
        if np.ndim(self.det) == 0:
            return _by_columns(substitute(self.n), self.lu, b)
        x = _by_rows(substitute(self.n), self.lu, b,
                     b.ndim == np.ndim(self.det) + 2)
        singular = self.det == 0.0
        if singular.any():
            x[singular] = np.nan
        return x


def solve_and_det(A, b):
    """Solve A x = b, also returning det(A), scalar or batched: x is None
    at a singular single state and NaN at the singular states of a batch."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if A.ndim > 2:
        lu = LU.of(A)
        return lu.solve(b), lu.det
    x, det, _ = unrolled(len(b))(A.ravel().tolist(), b.tolist())
    return None if x is None else np.array(x), det


def solve(A, b):
    """Solve A x = b, scalar or batched: x of solve_and_det, without
    det(A)."""
    return solve_and_det(A, b)[0]


def min_abs(x):
    """min |x| over a batch of values; a single float as it is."""
    return abs(x) if isinstance(x, float) else np.min(np.abs(x))


def max_abs(x, start=0.0):
    """max(start, max |x|) as a float: NaN if x or start holds a NaN, where
    Python's max(start, nan) would drop it."""
    return float(np.max(np.abs(x), initial=start))


def det_pp(A):
    """det(A), scalar or batched, by unrolled(n, solve=False)."""
    A = np.asarray(A, dtype=float)
    n, shape = A.shape[-1], A.shape[:-2]
    if not n:
        return np.ones(shape) if shape else 1.0
    if not shape:
        return unrolled(n, solve=False)(A.ravel().tolist())
    with np.errstate(all="ignore"):
        return unrolled(n, solve=False).batched(
            [A[..., r, c] for r in range(n) for c in range(n)])


def cond_estimate(A):
    """2-norm condition number, for report diagnostics (not hot paths)."""
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 0:
        return 1.0
    return float(np.max(np.linalg.cond(A)))


def _peel(n, zeros):
    """The peel of an n x n matrix whose entries at the flat indices in
    zeros (r * n + c) are structural zeros: a row or column with a single
    structural nonzero is peeled off, and again in what is left, until none
    is.  (steps, rows, cols, line): steps the peeled (r, c, negative, kind)
    in order, kind "row" or "col" as the row or the column of entry (r, c)
    was the singleton, negative whether its cofactor sign is odd; rows and
    cols the core that remains; line empty if a row or column of the core
    is structurally zero."""
    rows, cols = list(range(n)), list(range(n))
    steps, line = [], [None]
    while rows:
        # the first remaining row, else column, with fewest nonzeros
        line, kind = min(
            [([(i, j) for j, c in enumerate(cols) if r * n + c not in zeros],
              "row") for i, r in enumerate(rows)]
            + [([(i, j) for i, r in enumerate(rows) if r * n + c not in zeros],
                "col") for j, c in enumerate(cols)], key=lambda x: len(x[0]))
        if len(line) != 1:
            break
        (i, j), = line
        steps.append((rows.pop(i), cols.pop(j), (i + j) % 2 == 1, kind))
    return steps, rows, cols, line


@cache
def frame_gate(n, zeros=frozenset()):
    """f(a) -> det of the n x n matrix A with row-major entries a whose
    entries at the flat indices in zeros (r * n + c) are structural zeros,
    0.0 at every point.  Each peeled singleton (_peel) is a factor;
    unrolled(k, solve=False) eliminates the k x k core that remains (none
    for a permuted triangular A), and det is the signed product of the
    factors and the core's det.  A structurally zero row or column makes
    det 0.0.  f reads NaN if any entry of A is not finite, a peeled or
    dropped one included, through 0.0 * (the sum of the structural
    nonzeros) added to det; a sum of finite entries that overflows reads
    NaN too.  f.batched runs on columns."""
    steps, rows, cols, line = _peel(n, zeros)
    negative = sum(step[2] for step in steps) % 2 == 1
    factors = [f"a{r}_{c}" for r, c, _, _ in steps]
    core = [f"a{r}_{c}" for r in rows for c in cols]
    if core:
        factors.append(f"_core(({''.join(f'{x}, ' for x in core)}))")
    det = (f"{'-' if negative else ''}({' * '.join(factors) or '1.0'})"
           if line else "0.0")  # a structurally zero row or column
    entries = [f"a{r}_{c}" for r in range(n) for c in range(n)]
    check = " + ".join(x for i, x in enumerate(entries) if i not in zeros)
    lines = ["def _f(a):"]
    if n:
        lines.append(f"    {', '.join(entries)}, = a")
    lines.append(f"    return {det} + 0.0 * ({check or '0.0'})")
    return _bind(lines, f"<frame gate n={n}>",
                 unrolled(len(rows), solve=False))


@cache
def peeled(n, zeros=frozenset()):
    """f(a, b) -> x with M^T x = b, for the row-major entries a of an n x n
    matrix M with the structural zeros of frame_gate(n, zeros), peeled in
    the gate's order.  Equation c of the system is sum_r M[r][c] x_r = b_c.
    A peeled column c of M, singleton at row r, gives x_r from equation c
    before the core, in the order of the peel; the core's equations, with
    the known x moved to their right sides, are solved by unrolled(k); a
    peeled row r, singleton at column c, gives x_r from equation c after
    the core, in the reverse order of the peel.  Each equation subtracts
    its known M[r'][c] x_r' from b_c in increasing r', then divides by
    M[r][c].  x is None at a zero pivot of a single state (and not finite
    at one of a batch).  f.batched runs on columns; b's entries may hold
    several right sides on a trailing axis."""
    steps, rows, cols, line = _peel(n, zeros)
    if not line:
        raise ValueError("structurally singular matrix")
    lines = ["def _f(a, b):"] + _unpack(n)
    if n:
        lines.append(f"    {''.join(f'b{c}, ' for c in range(n))}= b")

    def equation(r, c, known, core=()):
        s = f"b{c}"
        for r2 in range(n):
            if r2 == r or r2 * n + c in zeros or r2 in core:
                continue
            if r2 not in known:  # the order of the peel rules this out
                raise AssertionError(f"x{r2} is read before it is solved")
            s = f"({s} - a{r2}_{c} * x{r2})"
        return s

    def singleton(r, c):
        lines.extend([f"    if _scalar and a{r}_{c} == 0.0:",
                      "        return None",
                      f"    x{r} = {equation(r, c, known)} / a{r}_{c}"])
        known.add(r)

    known = set()
    for r, c, _, kind in steps:
        if kind == "col":
            singleton(r, c)
    if rows:
        # the core's equations c (rows of its matrix), unknowns r
        A = [f"a{r}_{c}" for c in cols for r in rows]
        b = [equation(None, c, known, rows) for c in cols]
        lines += [f"    x, _, _ = _core(({''.join(f'{e}, ' for e in A)}), "
                  f"({''.join(f'{e}, ' for e in b)}))",
                  "    if x is None:", "        return None",
                  f"    {''.join(f'x{r}, ' for r in rows)}= x"]
        known.update(rows)
    for r, c, _, kind in reversed(steps):
        if kind == "row":
            singleton(r, c)
    lines.append(f"    return ({''.join(f'x{r}, ' for r in range(n))})")
    return _bind(lines, f"<peeled n={n}>", unrolled(len(rows)))


def solve_peeled(M, B, zeros=frozenset()):
    """X with M^T X = B by peeled(n, zeros), for B of shape (..., n), or
    (..., n, k) for k right sides, at a single state or a batch; None at a
    zero pivot of a single state."""
    M, B = np.asarray(M, dtype=float), np.asarray(B, dtype=float)
    n = M.shape[-1]
    fn = peeled(n, zeros)
    if M.ndim == 2:
        return _by_columns(fn, M.ravel().tolist(), B)
    return _by_rows(fn, [M[..., r, c, None] for r in range(n)
                         for c in range(n)], B, B.ndim == M.ndim)
