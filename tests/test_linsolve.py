import math

import numpy as np
import pytest

from framedyn.frames import FRAME_DET_TOL
from framedyn.linsolve import (LU, _peel, factor, frame_gate, peeled,
                               solve_and_det, solve_peeled, substitute,
                               unrolled)
from framedyn.nonholonomic import FAST_FRAME_DET

from _oracles import peeled_solve_reference, solve_scalar_reference


def _bits(x):
    """A float's value with its sign and NaN-ness, for exact comparison."""
    return ("nan",) if math.isnan(x) else (x, math.copysign(1.0, x))


def _same_floats(got, want):
    """Equal floats with equal signs, NaN where the other is NaN."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and np.array_equal(got[~nan], want[~nan])
            and np.array_equal(np.signbit(got[~nan]), np.signbit(want[~nan])))


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
    # factor and substitute, LU and solve_and_det give the loop's det and x
    # bit for bit at a single state, and x None at a zero pivot.
    for A, b in _matrices(rng, n):
        want_x, want_det = solve_scalar_reference(A.tolist(), b.tolist())
        det, lu = factor(n)(A.ravel().tolist())
        x = None if lu is None else substitute(n)(lu, b.tolist())
        factors = LU.of(A)
        for got_x, got_det in ((x, det), (factors.solve(b), factors.det),
                               solve_and_det(A, b)):
            assert _bits(got_det) == _bits(want_det)
            if want_x is None:
                assert got_x is None and got_det == 0.0
            else:
                assert _same_floats(got_x, want_x)


@pytest.mark.parametrize("n", range(1, 7))
def test_unrolled_det_propagates_nan(rng, n):
    # The scalar frame check passes on this det only when it is finite, so
    # a NaN entry anywhere must not be lost to a skipped update.
    det = unrolled(n)
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
    # solve_and_det is LU's solve and det, for one right side and for
    # three (b of shape (n, 3)), at a batch and at a single state alike; a
    # single state's x and det are the batch's at that state, bit for bit
    # (x None there, NaN in the batch, at a zero pivot).
    pairs = list(_matrices(rng, n))
    A = np.stack([a for a, _ in pairs])
    one = np.stack([x for _, x in pairs])
    for b in (one, rng.normal(size=one.shape + (3,))):
        X, det = solve_and_det(A, b)
        lu = LU.of(A)
        assert _same_floats(X, lu.solve(b)) and _same_floats(det, lu.det)
        for i, a in enumerate(A):
            x, d = solve_and_det(a, b[i])
            assert _bits(d) == _bits(float(det[i]))
            if x is None:
                assert LU.of(a).solve(b[i]) is None and np.isnan(X[i]).all()
                continue
            assert _same_floats(x, LU.of(a).solve(b[i]))
            assert _same_floats(x, X[i])


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

    for name in BUILTIN_NAMES:
        frame = builtin(name).frame()
        assert "_core" not in frame_gate(frame.n,
                                         frame.zeros).__code__.co_names, name
    knife = frame_gate(3, frozenset({2, 3, 4, 8}))
    assert "_core" in knife.__code__.co_names
    A = np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0], [-0.8, 0.6, 0.0]])
    assert knife(A.ravel().tolist()) == pytest.approx(np.linalg.det(A),
                                                      rel=1e-15)


@pytest.mark.parametrize("n", range(1, 7))
def test_factors_and_numpy_binding_equal_the_float_elimination(rng, n):
    # The numpy bindings of unrolled, factor and substitute, and LU on a
    # batch, give at every state what the float bindings give there, with
    # det 0.0 and x NaN at a zero pivot, and with the update of a zero
    # multiplier skipped under a non-finite pivot row.
    pairs = list(_matrices(rng, n))
    for bad in (math.inf, math.nan):
        A = np.eye(n)
        A[0, 1:] = bad
        pairs.append((A, rng.normal(size=n)))
    A = np.stack([a for a, _ in pairs])
    b = np.stack([x for _, x in pairs])
    cols = [A[:, r, c] for r in range(n) for c in range(n)]
    with np.errstate(all="ignore"):
        det_cols = unrolled(n).batched(cols)
        factor_det, factor_cols = factor(n).batched(cols)
        x_cols = substitute(n).batched(factor_cols, list(b.T))
    lu = LU.of(A)
    lu_x = lu.solve(b)
    lu_wide = lu.solve(np.stack([b, -2.0 * b], axis=-1))
    for i, (a, x) in enumerate(pairs):
        det, factors = factor(n)(a.ravel().tolist())
        assert _bits(float(det_cols[i])) == _bits(
            unrolled(n)(a.ravel().tolist()))
        assert _bits(float(factor_det[i])) == _bits(det)
        assert _bits(float(lu.det[i])) == _bits(det)
        if factors is None:
            assert np.isnan(lu_x[i]).all() and np.isnan(lu_wide[i]).all()
            continue
        assert _same_floats([f[i] for f in factor_cols], factors)
        want_x = substitute(n)(factors, x.tolist())
        assert _same_floats([c[i] for c in x_cols], want_x)
        assert _same_floats(lu_x[i], want_x)
        assert _same_floats(lu_wide[i, :, 0], want_x)
        assert _same_floats(lu_wide[i, :, 1],
                            substitute(n)(factors, (-2.0 * x).tolist()))
        assert _same_floats(LU.of(a).solve(x), want_x)


def _planted(rng, n, zeros, count):
    """count random matrices with the structural zeros of zeros."""
    A = rng.normal(size=(count, n, n)) * 10.0 ** rng.integers(-2, 2)
    A.reshape(count, -1)[:, list(zeros)] = 0.0
    return A


@pytest.mark.parametrize("n,kind", [
    (n, kind) for kind in ("triangular", "block", "dense")
    for n in range(2 if kind == "block" else 1, 7)])
def test_peeled_solve_agrees_with_lapack(rng, n, kind):
    # M^T X = B by the gate's peel, for 1 to 10 right sides: the loop of
    # the reference float for float, and within 8 n eps cond(M) of
    # LAPACK's solve; the numpy binding on a batch is == to the float
    # binding at every state, also where a NaN or an infinity is planted at
    # any structural nonzero (a NaN reaches x).
    eps = np.finfo(float).eps
    for trial in range(12):
        zeros = _structure(rng, n, kind)
        k = int(rng.integers(1, 11))
        A = _planted(rng, n, zeros, 6)
        B = rng.normal(size=(6, n, k))
        X = solve_peeled(A, B, zeros)
        for i in range(6):
            x = solve_peeled(A[i], B[i], zeros)
            assert _same_floats(X[i], x)
            assert _same_floats(x, np.transpose([peeled_solve_reference(
                A[i].tolist(), col, zeros) for col in B[i].T.tolist()]))
            want = np.linalg.solve(A[i].T, B[i])
            bound = 8 * n * eps * np.linalg.cond(A[i]) * np.max(np.abs(want))
            assert np.max(np.abs(x - want)) <= bound, (zeros, A[i])
        one = solve_peeled(A, B[..., 0], zeros)
        assert _same_floats(one, X[..., 0])
        assert _same_floats(solve_peeled(A[0], B[0, :, 0], zeros), X[0, :, 0])
        for i in set(range(n * n)) - zeros:
            for bad in (math.nan, math.inf, -math.inf):
                P = A.copy()
                P[:, i // n, i % n] = bad
                X = solve_peeled(P, B, zeros)
                for j in range(6):
                    x = solve_peeled(P[j], B[j], zeros)
                    if x is None:  # a pivot became 0.0 on the way
                        assert not np.isfinite(X[j]).all()
                        continue
                    assert _same_floats(X[j], x), (zeros, i, bad)
                    if math.isnan(bad):
                        assert np.isnan(x).any(), (zeros, i)


@pytest.mark.parametrize("n,kind", [
    (n, kind) for kind in ("triangular", "block", "dense")
    for n in range(2 if kind == "block" else 1, 7)])
def test_peeled_solve_at_a_zero_pivot(rng, n, kind):
    # A peeled pivot of 0.0, or an exactly singular core (integer rows, one
    # twice another), stops the float binding with None; the numpy binding
    # leaves x not finite at that state and solves the others as alone.
    for trial in range(6):
        zeros = _structure(rng, n, kind)
        steps, rows, cols, _ = _peel(n, zeros)
        A = _planted(rng, n, zeros, 3)
        B = rng.normal(size=(3, n, 2))
        singular = []
        for r, c, _, _ in steps:
            P = A.copy()
            P[1, r, c] = 0.0
            singular.append(P)
        if len(rows) > 1:
            P = A.copy()
            core = rng.integers(-3, 4, size=(len(rows), len(cols)))
            core[-1] = 2 * core[0]
            P[1][np.ix_(rows, cols)] = core
            singular.append(P)
        for P in singular:
            assert solve_peeled(P[1], B[1], zeros) is None
            X = solve_peeled(P, B, zeros)
            assert not np.isfinite(X[1]).all()
            for j in (0, 2):
                assert _same_floats(X[j], solve_peeled(P[j], B[j], zeros))


def test_peeled_solve_rejects_a_structurally_singular_pattern():
    with pytest.raises(ValueError):
        peeled(3, frozenset({3, 4, 5}))
