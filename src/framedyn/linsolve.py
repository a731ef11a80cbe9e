"""Dense linear solves for the small systems that arise at each state.

Scalar points go through a pure-Python Gaussian elimination with partial
pivoting, unrolled for each size (matrices here are at most a handful of
rows); batched points are delegated to numpy.linalg, whose LAPACK backend
performs the same partial-pivot LU factorisation.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["det_pp", "min_abs", "max_abs", "solve", "solve_and_det",
           "cond_estimate", "unrolled", "frame_gate"]


@cache
def unrolled(n, solve=True):
    """Partial-pivot elimination of an n x n system, unrolled on local
    names.  Column by column, the pivot is the first row of largest
    |a[r][k]|; a zero pivot stops it.  Each lower row r gets the multiplier
    f = a[r][k] * (1.0 / a[k][k]) and, unless f is 0.0, the update
    a[r][c] -= f * a[k][c], c > k, and x[r] -= f * x[k].  Back substitution
    subtracts a[k][c] * x[c] in increasing c, then divides by a[k][k];
    det is the signed product of the pivots.

    With solve, f(a, b) -> (x, det) for the row-major entries a of A and the
    right side b; x is a tuple, or None with det 0.0 at a zero pivot.
    Without, f(a) -> det alone, 0.0 at a zero pivot, and the updates are
    made for a zero multiplier too, so a NaN entry anywhere in A makes the
    det NaN (or a pivot zero)."""
    a = [[f"a{r}_{c}" for c in range(n)] for r in range(n)]
    x = [f"x{r}" for r in range(n)]
    lines = [f"def _f(a{', b' if solve else ''}):"]
    if n:
        lines.append(f"    {', '.join(e for row in a for e in row)}, = a")
        if solve:
            lines.append(f"    {', '.join(x)}, = b")
    lines.append("    det = 1.0")

    def swap(k, p, indent):
        cols = range(k, n)
        lhs = [a[k][c] for c in cols] + [a[p][c] for c in cols]
        rhs = [a[p][c] for c in cols] + [a[k][c] for c in cols]
        if solve:
            lhs, rhs = lhs + [x[k], x[p]], rhs + [x[p], x[k]]
        lines.append(f"{indent}{', '.join(lhs + ['det'])} = "
                     f"{', '.join(rhs + ['-det'])}")

    for k in range(n):
        if n - k == 2:
            lines.append(f"    if abs({a[k + 1][k]}) > abs({a[k][k]}):")
            swap(k, k + 1, " " * 8)
        elif n - k > 2:
            # the first row of largest |a[r][k]|, as max() picks it
            lines += [f"    c{k} = abs({a[k][k]})", f"    p{k} = {k}"]
            for r in range(k + 1, n):
                lines += [f"    z{k}_{r} = abs({a[r][k]})",
                          f"    if z{k}_{r} > c{k}:",
                          f"        c{k}, p{k} = z{k}_{r}, {r}"]
            for r in range(k + 1, n):
                lines.append(f"    {'if' if r == k + 1 else 'elif'} "
                             f"p{k} == {r}:")
                swap(k, r, " " * 8)
        lines += [f"    if {a[k][k]} == 0.0:",
                  f"        return {'None, 0.0' if solve else '0.0'}",
                  f"    det = det * {a[k][k]}"]
        if k < n - 1:
            lines.append(f"    i{k} = 1.0 / {a[k][k]}")
        for r in range(k + 1, n):
            lines.append(f"    f{r}_{k} = {a[r][k]} * i{k}")
            if solve:
                lines.append(f"    if f{r}_{k} != 0.0:")
            indent = " " * (8 if solve else 4)
            lines += [f"{indent}{a[r][c]} = {a[r][c]} - f{r}_{k} * {a[k][c]}"
                      for c in range(k + 1, n)]
            if solve:
                lines.append(f"        {x[r]} = {x[r]} - f{r}_{k} * {x[k]}")
    if solve:
        for k in range(n - 1, -1, -1):
            s = x[k]
            for c in range(k + 1, n):
                s = f"({s} - {a[k][c]} * {x[c]})"
            lines.append(f"    {x[k]} = {s} / {a[k][k]}")
        lines.append(f"    return ({''.join(f'{e}, ' for e in x)}), det")
    else:
        lines.append("    return det")
    namespace = {}
    exec(compile("\n".join(lines), f"<unrolled n={n}>", "exec"), namespace)
    return namespace["_f"]


@cache
def frame_gate(n, zeros=frozenset()):
    """f(a) -> det of the n x n matrix A with row-major entries a whose
    entries at the flat indices in zeros (r * n + c) are structural zeros,
    0.0 at every point.  A row or column with a single structural nonzero
    is peeled off as a factor, and again in what is left, until none is;
    unrolled(k, solve=False) eliminates the k x k core that remains (none
    for a permuted triangular A), and det is the signed product of the
    factors and the core's det.  A structurally zero row or column makes
    det 0.0.  f reads NaN if any entry of A is not finite, a peeled or
    dropped one included, through 0.0 * (the sum of the structural
    nonzeros) added to det; a sum of finite entries that overflows reads
    NaN too."""
    rows, cols = list(range(n)), list(range(n))
    negative, factors, line = False, [], [None]
    while rows:
        # the first remaining row, else column, with fewest nonzeros
        line = min([[(i, j) for j, c in enumerate(cols) if r * n + c
                     not in zeros] for i, r in enumerate(rows)]
                   + [[(i, j) for i, r in enumerate(rows) if r * n + c
                       not in zeros] for j, c in enumerate(cols)], key=len)
        if len(line) != 1:
            break
        (i, j), = line
        negative ^= (i + j) % 2 == 1
        factors.append(f"a{rows.pop(i)}_{cols.pop(j)}")
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
    namespace = {"_core": unrolled(len(rows), solve=False)}
    exec(compile("\n".join(lines), f"<frame gate n={n}>", "exec"), namespace)
    return namespace["_f"]


def solve(A, b):
    """Solve A x = b, scalar or batched: x of solve_and_det, without det(A)
    (None at a zero pivot of a single state)."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if A.ndim > 2:
        if A.shape[-1] == 0:
            return np.zeros(b.shape)
        return np.linalg.solve(A, b[..., None])[..., 0]
    x, _ = unrolled(len(b))(A.ravel().tolist(), b.tolist())
    return None if x is None else np.array(x)


def solve_and_det(A, b):
    """Solve A x = b, also returning det(A), scalar or batched."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    if A.ndim > 2:
        return solve(A, b), (np.linalg.det(A) if A.shape[-1]
                             else np.ones(A.shape[:-2]))
    x, det = unrolled(len(b))(A.ravel().tolist(), b.tolist())
    return None if x is None else np.array(x), det


def min_abs(x):
    """min |x| over a batch of values; a single float as it is."""
    return abs(x) if isinstance(x, float) else np.min(np.abs(x))


def max_abs(x, start=0.0):
    """max(start, max |x|) as a float: NaN if x or start holds a NaN, where
    Python's max(start, nan) would drop it."""
    return float(np.max(np.abs(x), initial=start))


def det_pp(A):
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 0:
        return 1.0 if A.ndim == 2 else np.ones(A.shape[:-2])
    return np.linalg.det(A)


def cond_estimate(A):
    """2-norm condition number, for report diagnostics (not hot paths)."""
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 0:
        return 1.0
    return float(np.max(np.linalg.cond(A)))
