import math

import numpy as np
import pytest

from framedyn.frames import FRAME_DET_TOL
from framedyn.linsolve import frame_gate, solve, solve_and_det, unrolled
from framedyn.nonholonomic import FAST_FRAME_DET

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


@pytest.mark.parametrize("n", range(7))
def test_solve_equals_solve_and_det(rng, n):
    # x of solve_and_det bit for bit, at a single state and at a batch
    # (LAPACK raises on a singular batch, and then both raise).
    pairs = list(_matrices(rng, n))
    for A, b in pairs:
        want = solve_and_det(A, b)[0]
        got = solve(A, b)
        if want is None:
            assert got is None
        else:
            assert got.tobytes() == want.tobytes()
    for i in range(0, len(pairs), 10):
        A = np.stack([a for a, _ in pairs[i:i + 10]])
        b = np.stack([x for _, x in pairs[i:i + 10]])
        try:
            want = solve_and_det(A, b)[0]
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                solve(A, b)
            continue
        got = solve(A, b)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _structure(rng, n, kind):
    """A random pattern of structural zeros (flat indices) of size n:
    permuted triangular, block triangular with one dense 2 x 2 or 3 x 3
    core, none at all, or one structurally zero row."""
    nonzero = np.ones((n, n), dtype=bool)
    if kind in ("triangular", "block"):
        nonzero = np.tril((rng.random((n, n)) < 0.7) | np.eye(n, dtype=bool))
    if kind == "block":
        size = int(rng.integers(2, min(3, n) + 1))
        start = int(rng.integers(0, n - size + 1))
        nonzero[start:start + size, start:start + size] = True
    elif kind == "zero_row":
        nonzero[rng.integers(n)] = False
    nonzero = nonzero[rng.permutation(n)][:, rng.permutation(n)]
    return frozenset(np.flatnonzero(~nonzero).tolist())


@pytest.mark.parametrize("n,kind", [
    (n, kind) for kind in ("triangular", "block", "dense", "zero_row")
    for n in range(2 if kind == "block" else 1, 7)])
def test_frame_gate_agrees_with_lapack(rng, n, kind):
    # Wherever the gate passes the scalar frame check (FAST_FRAME_DET <
    # |det| < inf), LAPACK's |det| is above FRAME_DET_TOL and agrees with
    # it to 1e-12 relative; a NaN or an infinity at any structural nonzero
    # (a peeled factor or an entry the peeling drops included) fails it.
    passed = 0
    for trial in range(60):
        zeros = _structure(rng, n, kind)
        gate = frame_gate(n, zeros)
        A = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 2)
        A.ravel()[list(zeros)] = 0.0
        got = gate(A.ravel().tolist())
        want = np.linalg.det(A)
        if FAST_FRAME_DET < abs(got) < math.inf:
            passed += 1
            assert abs(want) > FRAME_DET_TOL
            assert abs(got - want) <= 1e-12 * abs(want), (A, got, want)
        if kind == "zero_row":
            assert got == 0.0
        for i in set(range(n * n)) - zeros:
            for bad in (math.nan, math.inf, -math.inf):
                a = A.ravel().tolist()
                a[i] = bad
                assert math.isnan(gate(a)), (zeros, i, bad)
    assert passed or kind == "zero_row"


def test_frame_gate_peels_the_built_in_frames():
    # The four built-ins are permuted triangular: no core is eliminated.
    # The knife edge (its unit row peeled) leaves a dense 2 x 2 core.
    from framedyn import BUILTIN_NAMES, builtin
    from framedyn.nonholonomic import _structural_zero

    for name in BUILTIN_NAMES:
        frame = builtin(name).frame()
        n = frame.n
        zeros = frozenset(i for i, e in enumerate(frame._kernels.exprs)
                          if _structural_zero(e))
        assert "_core" not in frame_gate(n, zeros).__code__.co_names, name
    knife = frame_gate(3, frozenset({2, 3, 4, 8}))
    assert "_core" in knife.__code__.co_names
    A = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [-0.8, 0.6, 0.0]])
    assert knife(A.ravel().tolist()) == pytest.approx(np.linalg.det(A),
                                                      rel=1e-15)
