import math

import numpy as np
import pytest

from framedyn.frames import (Frame, QuasiState,
                             SingularFrameError, TangentPoint, VectorField,
                             bracket, change_of_D_basis, jacobi_residual,
                             quasi_velocities, structure_functions,
                             velocities_from_quasi)


@pytest.fixture()
def coord_frame3():
    return Frame([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                 ["q1", "q2", "q3"])


def test_coordinate_fields_commute(coord_frame3, rng):
    q = rng.uniform(-2, 2, 3)
    br = bracket(coord_frame3.fields[0], coord_frame3.fields[1], q)
    assert np.all(br == 0.0)
    R = structure_functions(coord_frame3, q)
    assert np.all(R == 0.0)


def test_delta_class_bracket(particle, rng):
    # [X_1, X_2] = -sum_a Delta'_a X_a; for the particle Delta = q1.
    F = particle.frame
    for _ in range(5):
        q = rng.uniform(-2, 2, 3)
        br = bracket(F.fields[0], F.fields[1], q)
        assert np.allclose(br, -F.fields[2].values(q), atol=1e-14)


def test_carriage_bracket_combination(carriage, rng):
    # [X_1, X_2] = (R^2/2c)(-sin(theta) X_3 + cos(theta) X_4) with this
    # frame; the bracket lies in the span of the translation fields.
    F = carriage.frame
    R_, c_ = carriage.sysd.params["R"], carriage.sysd.params["c"]
    for _ in range(5):
        q = rng.uniform(-2, 2, 5)
        th = q[4]
        br = bracket(F.fields[0], F.fields[1], q)
        want = (R_ ** 2 / (2 * c_)) * (
            -math.sin(th) * F.fields[2].values(q)
            + math.cos(th) * F.fields[3].values(q))
        assert np.allclose(br, want, atol=1e-13)


def test_structure_functions_carriage(carriage, rng):
    F = carriage.frame
    R_, c_ = carriage.sysd.params["R"], carriage.sysd.params["c"]
    q = rng.uniform(-2, 2, 5)
    th = q[4]
    R = structure_functions(F, q)
    assert R[2, 0, 1] == pytest.approx(-(R_ ** 2 / (2 * c_)) * math.sin(th),
                                       abs=1e-14)
    assert R[3, 0, 1] == pytest.approx((R_ ** 2 / (2 * c_)) * math.cos(th),
                                       abs=1e-14)
    mask = np.ones((5, 5, 5), dtype=bool)
    mask[2, 0, 1] = mask[3, 0, 1] = mask[2, 1, 0] = mask[3, 1, 0] = False
    # Chaplygin frame: R^i_a_alpha = 0 and R^i_ab = -delta^i_c C^c_ab
    assert np.max(np.abs(R[:, 2:, :2])) == 0.0
    C = carriage.sysd.chaplygin.C
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert R[2 + c, 2 + a, 2 + b] == -C[a, b, c]


def test_skew_symmetry_exact(all_builtins, rng):
    for bundle in all_builtins.values():
        q = rng.uniform(-1.5, 1.5, (100, bundle.sysd.n))
        R = structure_functions(bundle.frame, q)
        assert np.max(np.abs(R + np.swapaxes(R, -1, -2))) == 0.0


def test_jacobi_identity(all_builtins, carriage, rng):
    for bundle in all_builtins.values():
        for _ in range(3):
            q = rng.uniform(-1.5, 1.5, bundle.sysd.n)
            assert jacobi_residual(bundle.frame, q) <= 1e-9
    # a frame with no symmetry, and the carriage with D rotated by theta
    rotated = change_of_D_basis(
        carriage.frame, carriage.split,
        [["cos(theta)", "-sin(theta)"], ["sin(theta)", "cos(theta)"]])
    for F in (_random_frame(), rotated):
        for _ in range(3):
            q = rng.uniform(-0.8, 0.8, F.n)
            assert jacobi_residual(F, q) <= 1e-12


def test_quasi_velocities_coordinate_frame(coord_frame3, rng):
    u = rng.normal(size=3)
    s = quasi_velocities(coord_frame3, TangentPoint(rng.normal(size=3), u))
    assert np.allclose(s.v, u, atol=0)


def test_quasi_velocities_particle(particle):
    p = TangentPoint(np.array([2.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    s = quasi_velocities(particle.frame, p)
    assert np.allclose(s.v, [1.0, 1.0, 2.0], atol=1e-14)


def test_quasi_velocities_carriage(carriage, rng):
    # v_1 = u_psi1, v_2 = u_psi2; on C u follows the constraint display.
    F = carriage.frame
    split = carriage.split
    R_, c_ = carriage.sysd.params["R"], carriage.sysd.params["c"]
    q = rng.uniform(-1, 1, 5)
    th = q[4]
    v1, v2 = 0.7, -1.3
    s = QuasiState.on_C(q, [v1, v2], split)
    p = velocities_from_quasi(F, s)
    assert p.u[0] == pytest.approx(v1)
    assert p.u[1] == pytest.approx(v2)
    assert p.u[2] == pytest.approx(-(R_ / 2) * math.cos(th) * (v1 + v2))
    assert p.u[3] == pytest.approx(-(R_ / 2) * math.sin(th) * (v1 + v2))
    assert p.u[4] == pytest.approx(-(R_ / (2 * c_)) * (v1 - v2))
    back = quasi_velocities(F, p)
    assert np.allclose(back.v, s.v, atol=1e-14)


def _random_frame():
    return Frame([["1", "q2", "0"], ["0", "exp(q1/4)", "sin(q2)"],
                  ["q2*q3", "0", "2"]], ["q1", "q2", "q3"])


def test_round_trip_random_frames(rng):
    F = _random_frame()
    for _ in range(20):
        q = rng.uniform(-0.8, 0.8, 3)
        v = rng.normal(size=3)
        s = QuasiState(q, v)
        back = quasi_velocities(F, velocities_from_quasi(F, s))
        assert np.max(np.abs(back.v - v)) <= 1e-12


def test_singular_frame_error():
    F = Frame([["1", "0"], ["1", "0"]], ["q1", "q2"])
    with pytest.raises(SingularFrameError):
        quasi_velocities(F, TangentPoint(np.zeros(2), np.ones(2)))


class TestChangeOfBasis:
    def test_identity(self, particle, rng):
        split = particle.split
        F2 = change_of_D_basis(particle.frame, split, [["1", "0"], ["0", "1"]])
        q = rng.uniform(-1, 1, 3)
        assert np.allclose(F2.matrix(q), particle.frame.matrix(q), atol=0)

    def test_scaling_halves_quasi_velocity(self, particle, rng):
        # Y_1 = 2 X_1  =>  w^1 = v^1 / 2 on C.
        split = particle.split
        F2 = change_of_D_basis(particle.frame, split, [["2", "0"], ["0", "1"]])
        q = rng.uniform(-1, 1, 3)
        s = QuasiState.on_C(q, [0.8, -0.6], split)
        u = velocities_from_quasi(particle.frame, s)
        w = quasi_velocities(F2, u)
        assert w.v[0] == pytest.approx(0.4)
        assert w.v[1] == pytest.approx(-0.6)
        assert abs(w.v[2]) <= 1e-15

    def test_constraint_set_preserved(self, carriage, rng):
        # v^a = 0 iff w^a = 0, checked by mapping 100 random C-points both
        # ways through a q-dependent block change.
        split = carriage.split
        F2 = change_of_D_basis(
            carriage.frame, split,
            [["1", "sin(theta)/2"], ["0", "1"]],
            A_a_b=[["2", "0", "0"], ["0", "1", "x"], ["0", "0", "1"]],
            A_a_alpha=[["theta", "0"], ["0", "1"], ["1", "0"]])
        q = rng.uniform(-1, 1, (100, 5))
        v = rng.normal(size=(100, 2))
        s = QuasiState.on_C(q, v, split)
        u = velocities_from_quasi(carriage.frame, s)
        w = quasi_velocities(F2, u)
        assert np.max(np.abs(w.v[:, 2:])) <= 1e-12
        # and back: a C-point of the new frame is a C-point of the old
        s2 = QuasiState.on_C(q, w.v[:, :2], split)
        u2 = velocities_from_quasi(F2, s2)
        v2 = quasi_velocities(carriage.frame, u2)
        assert np.max(np.abs(v2.v[:, 2:])) <= 1e-12

    def test_w_transformation_rule(self, carriage, rng):
        # w^a = Abar^a_b v^b for the inverse block.
        split = carriage.split
        A2 = [["2", "0", "0"], ["0", "4", "0"], ["0", "0", "1"]]
        F2 = change_of_D_basis(carriage.frame, split, [["1", "0"], ["0", "1"]],
                               A_a_b=A2)
        q = rng.uniform(-1, 1, 5)
        v = rng.normal(size=5)
        u = velocities_from_quasi(carriage.frame, QuasiState(q, v))
        w = quasi_velocities(F2, u)
        assert np.allclose(w.v[2:], [v[2] / 2, v[3] / 4, v[4]], atol=1e-13)


def test_vector_field_standalone(rng):
    Z = VectorField(["q2", "-q1", "0"], ["q1", "q2", "q3"])
    q = rng.normal(size=3)
    assert np.allclose(Z.values(q), [q[1], -q[0], 0.0])
    w = rng.normal(size=3)
    assert np.allclose(Z.dirderiv(q, w), [w[1], -w[0], 0.0])


def test_fused_scalar_kernels_match_fields(all_builtins, rng):
    # Frame.matrix and Frame.dfields evaluate every component in one fused
    # function at a scalar point; they must equal the stacked per-field
    # values and directional derivatives bit for bit.
    frames = [b.frame for b in all_builtins.values()]
    carriage = all_builtins["carriage"]
    frames.append(change_of_D_basis(
        carriage.frame, carriage.split,
        [["cos(theta)", "-sin(theta)"], ["sin(theta)", "cos(theta)"]]))
    for F in frames:
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, F.n)
            w = rng.normal(size=F.n)
            want = np.stack([f.values(q) for f in F.fields])
            assert np.array_equal(F.matrix(q), want)
            for count in range(1, F.n + 1):
                want = np.stack([f.dirderiv(q, w) for f in F.fields[:count]])
                assert np.array_equal(F.dfields(q, w, count), want)


def test_nan_point_is_a_singular_frame(particle):
    # min |det| is NaN here; a NaN must fail the determinant test.
    s = QuasiState.on_C(np.array([np.nan, 0.2, 0.3]), [1.0, 1.0],
                        particle.split)
    with np.errstate(invalid="ignore"), pytest.raises(SingularFrameError):
        particle.field.rate(s)
