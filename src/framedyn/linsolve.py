"""The small dense solves and determinants that arise at each state.

Every one is Gaussian elimination with partial pivoting, unrolled for one
size (the matrices here are at most a handful of rows) and, for a solve
against a frame matrix, for one pattern of structural zeros (peeled).  Every
solve is one factorisation (factor) and one substitution per right side
(substitute): LU, solve_and_det, the generated field source and peeled's
dense core all make it; unrolled is the elimination for det alone.  Each
generated function is made once per size and pattern, kept in exprlang's
module cache (exprlang.generated), and bound twice (exprlang.bind_source):
to Python floats at a single state, and to numpy at a batch, where every
entry is a column of per-state values, a pivot swap is an np.where and a
zero pivot sets det to 0.0 at its state where the float binding returns
early.  The two bindings make the same float operations in the same order,
so a batched result is the single-state result at every state.  LAPACK is
left to Frame.check_matrix, which decides the frame check near its
threshold, and to the condition estimate of the reports.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from .exprlang import Tape, bind_source, generated
from .folding import texts

__all__ = ["det_pp", "min_abs", "max_abs", "solve_and_det", "cond_estimate",
           "unrolled", "factor", "substitute", "LU", "frame_gate", "peeled",
           "solve_peeled", "peel_core", "peel_solve", "peel_globals"]


def _generated(build):
    """build as a generated function of exprlang's module cache
    (exprlang.generated): made on first use under build's name and its
    arguments."""
    @wraps(build)
    def fn(*args):
        return generated(build.__name__, build, *args)

    return fn


def _bind(lines, filename, **helpers):
    """Bind the generated function _f twice; its text reads _scalar to tell
    the float binding from the numpy one, and each named helper, itself a
    generated function, in the binding of the same kind."""
    return bind_source(
        "\n".join(lines), "_f", filename,
        scalar={"_scalar": True, **helpers},
        batched={"_scalar": False, "_where": np.where,
                 **{name: fn.batched for name, fn in helpers.items()}})


def _elimination(n, solve):
    """The lines that reduce the row-major entries a{r}_{c} of an n x n
    matrix to its upper factor, with det, the pivot rows p{k} and the
    multipliers f{r}_{k}.  Column by column, the pivot is the first row of
    largest |a[r][k]|; each lower row r gets the multiplier f = a[r][k] *
    (1.0 / a[k][k]) and the update a[r][c] -= f * a[k][c], c > k, which a
    solve (factor) skips where f is 0.0; det is the signed product of the
    pivots.  A zero pivot returns 0.0, or (0.0, None) for a solve, from the
    float binding and is recorded in `zero` by the numpy one."""
    a = [[f"a{r}_{c}" for c in range(n)] for r in range(n)]
    stop = "0.0, None" if solve else "0.0"
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
    """The lines that solve for x{r}, which hold the right side b, given
    the factor entries: the pivot swaps and the multipliers in the order
    of the elimination (an update skipped for a zero multiplier), then
    back substitution, subtracting a[k][c] * x[c] in increasing c and
    dividing by a[k][k]."""
    x = [f"x{r}" for r in range(n)]
    lines = []
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


def _seq(names):
    """The text of the tuple of names, or the target that unpacks it."""
    return f"({''.join(f'{e}, ' for e in names)})"


def _names(n):
    """The local names of an n x n matrix's entries, row by row."""
    return [f"a{r}_{c}" for r in range(n) for c in range(n)]


@_generated
def unrolled(n):
    """f(a) -> det of the n x n matrix with row-major entries a by
    _elimination, 0.0 at a zero pivot.  The updates are made for a zero
    multiplier too, so a NaN entry anywhere makes det NaN (or a pivot
    zero).  f.batched takes columns (see the module docstring)."""
    lines = (["def _f(a):", f"    {_seq(_names(n))} = a"]
             + _elimination(n, False) + ["    return det"])
    return _bind(lines, f"<unrolled n={n} det>")


@_generated
def factor(n):
    """f(a) -> (det, lu) by _elimination of the row-major entries a of an
    n x n matrix, the update of a zero multiplier skipped: lu the factor
    entries that substitute(n) reads, or (0.0, None) at a zero pivot of a
    single state.  f.batched takes columns and makes lu at every state."""
    lines = (["def _f(a):", f"    {_seq(_names(n))} = a"]
             + _elimination(n, True)
             + [f"    return det, {_seq(_factors(n))}"])
    return _bind(lines, f"<factor n={n}>")


@_generated
def substitute(n):
    """f(lu, b) -> x, a tuple, with A x = b, from the factors (det, lu) =
    factor(n)(a) of A (_substitution)."""
    x = [f"x{r}" for r in range(n)]
    lines = (["def _f(lu, b):", f"    {_seq(_factors(n))} = lu",
              f"    {_seq(x)} = b"] + _substitution(n)
             + [f"    return {_seq(x)}"])
    return _bind(lines, f"<substitute n={n}>")


def _entries(A):
    """The row-major entries of the n x n matrices A for a generated
    function: Python floats at a single state, columns of shape (..., 1)
    at a batch."""
    n = A.shape[-1]
    return (A.ravel().tolist() if A.ndim == 2
            else [A[..., r, c, None] for r in range(n) for c in range(n)])


def _apply(fn, head, b, shape):
    """x = fn(head, b) for a right side b of shape shape + (n,), or shape +
    (n, k) for k right sides, stacked to b's shape.  At a single state
    (shape ()) fn runs on each column of b, and x is None if fn gives
    None; at a batch fn.batched runs once on the rows of b."""
    if not shape:
        xs = [fn(head, col) for col in ([b.tolist()] if b.ndim == 1
                                        else b.T.tolist())]
        if None in xs:
            return None
        return np.array(xs[0]) if b.ndim == 1 else np.array(xs).T.copy()
    wide = b.ndim == len(shape) + 2
    with np.errstate(all="ignore"):
        x = fn.batched(head, [b[..., r, :] if wide else b[..., r, None]
                              for r in range(b.shape[len(shape)])])
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
            return cls(n, *factor(n)(_entries(A)))
        with np.errstate(all="ignore"):
            det, lu = factor(n).batched(_entries(A))
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
        x = _apply(substitute(self.n), self.lu, b, np.shape(self.det))
        if np.ndim(self.det):  # a single state's det is not 0.0 here
            x[self.det == 0.0] = np.nan
        return x


def solve_and_det(A, b):
    """Solve A x = b by LU, also returning det(A), scalar or batched, for
    one right side or several (LU.solve): x is None at a singular single
    state and NaN at the singular states of a batch."""
    lu = LU.of(A)
    return lu.solve(b), lu.det


def min_abs(x):
    """min |x| over a batch of values; a single float as it is."""
    return abs(x) if isinstance(x, float) else np.min(np.abs(x))


def max_abs(x, start=0.0):
    """max(start, max |x|) as a float: NaN if x or start holds a NaN, where
    Python's max(start, nan) would drop it."""
    return float(np.max(np.abs(x), initial=start))


def det_pp(A):
    """det(A), scalar or batched, by unrolled(n)."""
    A = np.asarray(A, dtype=float)
    n, shape = A.shape[-1], A.shape[:-2]
    if not n:
        return np.ones(shape) if shape else 1.0
    if not shape:
        return unrolled(n)(_entries(A))
    with np.errstate(all="ignore"):
        return unrolled(n).batched(_entries(A))[..., 0]


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


@_generated
def frame_gate(n, zeros=frozenset()):
    """f(a) -> det of the n x n matrix A with row-major entries a whose
    entries at the flat indices in zeros (r * n + c) are structural zeros,
    0.0 at every point.  Each peeled singleton (_peel) is a factor;
    unrolled(k) eliminates the k x k core that remains (none for a
    permuted triangular A), and det is the signed product of the factors
    and the core's det.  A structurally zero row or column makes
    det 0.0.  f reads NaN if any entry of A is not finite, a peeled or
    dropped one included, through 0.0 * (the sum of the structural
    nonzeros) added to det; a sum of finite entries that overflows reads
    NaN too.  f.batched runs on columns."""
    steps, rows, cols, line = _peel(n, zeros)
    negative = sum(step[2] for step in steps) % 2 == 1
    factors = [f"a{r}_{c}" for r, c, _, _ in steps]
    core = [f"a{r}_{c}" for r in rows for c in cols]
    if core:
        factors.append(f"_core({_seq(core)})")
    det = (f"{'-' if negative else ''}({' * '.join(factors) or '1.0'})"
           if line else "0.0")  # a structurally zero row or column
    check = " + ".join(x for i, x in enumerate(_names(n)) if i not in zeros)
    lines = ["def _f(a):", f"    {_seq(_names(n))} = a",
             f"    return {det} + 0.0 * ({check or '0.0'})"]
    return _bind(lines, f"<frame gate n={n}>", _core=unrolled(len(rows)))


def peel_core(tape, n, zeros, a):
    """The factors of the core that the peel of an n x n matrix M with the
    structural zeros in zeros leaves (_peel), for peel_solve: one line on
    tape (an exprlang.Tape) that calls _lu (peel_globals) on the core's
    entries, read from a, the values of M's row-major entries; None where
    the peel leaves no core.  Raises ValueError for a structurally
    singular M."""
    steps, rows, cols, line = _peel(n, zeros)
    if not line:
        raise ValueError("structurally singular matrix")
    # the core's equations c are the rows of its matrix, its unknowns r
    core = _seq(texts([a[r * n + c] for c in cols for r in rows]))
    return tape.temp(f"_lu({core})") if rows else None


def peel_solve(tape, n, zeros, a, b, lu):
    """The values of x with M^T x = b, emitted on tape in the order of the
    peel (_peel(n, zeros)): a the values of M's row-major entries, b those
    of the right side, lu the core's factors (peel_core).  Equation c of
    the system is sum_r M[r][c] x_r = b_c.  A peeled column c of M,
    singleton at row r, gives x_r from equation c before the core, in the
    order of the peel; the core's equations, with the known x moved to
    their right sides, go through _substitute(lu, ...); a peeled row r,
    singleton at column c, gives x_r from equation c after the core, in
    the reverse order of the peel.  Each equation subtracts its known
    M[r'][c] x_r' from b_c in increasing r', then divides by M[r][c].
    Every line is folded where it is emitted (Tape.fold): a term whose x
    is a structural zero is dropped, and an x whose equation has no term
    left is a structural zero itself, not divided by its pivot, as are the
    core's x where its whole right side is."""
    steps, rows, cols, _ = _peel(n, zeros)
    x = {}

    def equation(c, skip):
        """(src, names): b_c less the known terms of equation c, for
        Tape.fold; a term of a structurally zero x is left out."""
        src, names = "s", {"s": b[c]}
        for r in range(n):
            if r in skip or r * n + c in zeros:
                continue
            if r not in x:  # the order of the peel rules this out
                raise AssertionError(f"x{r} is read before it is solved")
            if x[r] is not None:
                src = f"({src} - a{r}*x{r})"
                names.update({f"a{r}": a[r * n + c], f"x{r}": x[r]})
        return src, names

    def singleton(r, c):
        src, names = equation(c, (r,))
        if len(names) == 1 and b[c] is None:
            x[r] = None
        else:
            names["p"] = a[r * n + c]
            x[r] = tape.fold(f"{src} / p", names)

    for r, c, _, kind in steps:
        if kind == "col":
            singleton(r, c)
    if rows:
        rhs = [tape.fold(*equation(c, rows)) for c in cols]
        if any(y is not None for y in rhs):
            sol = tape.temp(f"_substitute({lu}, {_seq(texts(rhs))})")
            x.update((r, tape.temp(f"{sol}[{i}]"))
                     for i, r in enumerate(rows))
        else:
            x.update(dict.fromkeys(rows))
    for r, c, _, kind in reversed(steps):
        if kind == "row":
            singleton(r, c)
    return [x[r] for r in range(n)]


def peel_globals(n, zeros):
    """The globals that peel_solve's lines read, for each binding of their
    function (bind_source's scalar and batched): _lu(a), the factors of
    the k x k core that _peel(n, zeros) leaves by factor(k), the float
    binding raising ZeroDivisionError at a zero pivot as a division by a
    zero pivot does, and _substitute, substitute(k)."""
    k = len(_peel(n, zeros)[1])
    if not k:
        return {}, {}
    fn, sub = factor(k), substitute(k)

    def lu(a):
        _, factors = fn(a)
        if factors is None:
            raise ZeroDivisionError("zero pivot")
        return factors

    return ({"_lu": lu, "_substitute": sub},
            {"_lu": lambda a: fn.batched(a)[1], "_substitute": sub.batched})


@_generated
def peeled(n, zeros=frozenset()):
    """f(a, b) -> x with M^T x = b, for the row-major entries a of an n x n
    matrix M with the structural zeros of frame_gate(n, zeros), by the
    lines of peel_solve, over names (so nothing is folded).  The float
    binding raises ZeroDivisionError at a zero pivot; the numpy binding
    leaves x not finite at one.  f.batched runs on columns; b's entries may
    hold several right sides on a trailing axis."""
    tape = Tape()
    a, b = _names(n), [f"b{c}" for c in range(n)]
    x = peel_solve(tape, n, zeros, a, b, peel_core(tape, n, zeros, a))
    lines = (["def _f(a, b):", f"    {_seq(a)} = a", f"    {_seq(b)} = b"]
             + tape.released(x) + [f"    return {_seq(texts(x))}"])
    return bind_source("\n".join(lines), "_f", f"<peeled n={n}>",
                       *peel_globals(n, zeros))


def solve_peeled(M, B, zeros=frozenset()):
    """X with M^T X = B by peeled(n, zeros), for B of shape (..., n), or
    (..., n, k) for k right sides, at a single state or a batch; None at a
    zero pivot of a single state."""
    M, B = np.asarray(M, dtype=float), np.asarray(B, dtype=float)
    try:
        return _apply(peeled(M.shape[-1], zeros), _entries(M), B,
                      M.shape[:-2])
    except ZeroDivisionError:  # a zero pivot of the float binding
        return None
