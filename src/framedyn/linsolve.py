"""Dense linear solves for the small systems that arise at each state.

Scalar points go through a pure-Python Gaussian elimination with partial
pivoting (matrices here are at most a handful of rows); batched points are
delegated to numpy.linalg, whose LAPACK backend performs the same
partial-pivot LU factorisation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["det_pp", "min_abs", "solve_and_det", "cond_estimate"]


def _solve_scalar(a, x):
    """Partial-pivot elimination on nested lists of floats, which it
    overwrites; returns (x, det)."""
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


def solve_and_det(A, b):
    """Solve A x = b, also returning det(A).  Scalar or batched; a scalar
    system given as nested lists of floats is solved in place."""
    if not isinstance(A, list):
        A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
        if A.ndim > 2:
            if A.shape[-1] == 0:
                return np.zeros(b.shape), np.ones(A.shape[0])
            return np.linalg.solve(A, b[..., None])[..., 0], np.linalg.det(A)
        A, b = A.tolist(), b.tolist()
    x, det = _solve_scalar(A, b)
    if x is None:
        return None, 0.0
    return np.array(x), det


def min_abs(x):
    """min |x| over a batch of values; a single float as it is."""
    return abs(x) if isinstance(x, float) else np.min(np.abs(x))


def det_pp(A):
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 0:
        return 1.0 if A.ndim == 2 else np.ones(A.shape[0])
    return np.linalg.det(A)


def cond_estimate(A):
    """2-norm condition number, for report diagnostics (not hot paths)."""
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 0:
        return 1.0
    return float(np.max(np.linalg.cond(A)))
