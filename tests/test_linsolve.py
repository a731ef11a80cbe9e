import math

import numpy as np
import pytest

from framedyn.linsolve import solve_and_det, unrolled

from _oracles import solve_scalar_reference


def _bits(x):
    """A float's value with its sign and NaN-ness, for exact comparison."""
    return ("nan",) if math.isnan(x) else (x, math.copysign(1.0, x))


def _matrices(rng, n):
    """Random, integer (ties and exact zeros), rank-deficient, NaN-holding
    and zero-column matrices of size n."""
    if n == 0:
        yield np.zeros((0, 0)), np.zeros(0)
        return
    for trial in range(300):
        A = rng.normal(size=(n, n))
        kind = trial % 5
        if kind == 1:
            A = rng.integers(-2, 3, size=(n, n)).astype(float)
        elif kind == 2:
            A[rng.integers(n)] = 2.0 * A[rng.integers(n)]
        elif kind == 3:
            A[rng.integers(n), rng.integers(n)] = np.nan
        elif kind == 4:
            A = np.round(A)
            A[:, rng.integers(n)] = 0.0
        yield A, rng.normal(size=n)


@pytest.mark.parametrize("n", range(7))
def test_unrolled_solve_equals_the_loop(rng, n):
    for A, b in _matrices(rng, n):
        want_x, want_det = solve_scalar_reference(A.tolist(), b.tolist())
        x, det = unrolled(n)(A.ravel().tolist(), b.tolist())
        assert _bits(det) == _bits(want_det)
        if want_x is None:
            assert x is None and det == 0.0
        else:
            assert [_bits(v) for v in x] == [_bits(v) for v in want_x]
        got = solve_and_det(A, b)
        assert _bits(got[1]) == _bits(want_det)


@pytest.mark.parametrize("n", range(1, 7))
def test_unrolled_det_propagates_nan(rng, n):
    # The scalar frame check passes on this det only when it is finite, so
    # a NaN entry anywhere must not be lost to a skipped update.
    det = unrolled(n, solve=False)
    for A, _ in _matrices(rng, n):
        got = det(A.ravel().tolist())
        if np.isnan(A).any():
            assert math.isnan(got) or got == 0.0
        else:
            want = np.linalg.det(A)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    for i in range(n * n):  # NaN in a pivot row beside structural zeros
        A = np.eye(n).ravel()
        A[i] = np.nan
        assert math.isnan(det(A.tolist()))
