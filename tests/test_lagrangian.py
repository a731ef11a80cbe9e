import math

import numpy as np
import pytest

from framedyn.frames import (ConstraintSplit, Frame, QuasiState, TangentPoint,
                             VectorField, change_of_D_basis,
                             structure_functions, velocities_from_quasi)
from framedyn.lagrangian import (Lagrangian, QuasiVelocityFunction,
                                 clift_deriv, energy, epsilon_form,
                                 hessian, regularity, vlift_deriv)


@pytest.fixture()
def euclid3():
    coords = ["q1", "q2", "q3"]
    F = Frame([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], coords)
    L = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2", coords, ["u1", "u2", "u3"])
    return L, F


def test_vlift_euclidean_is_velocity(euclid3, rng):
    L, F = euclid3
    p = TangentPoint(rng.normal(size=3), rng.normal(size=3))
    for i in range(3):
        assert vlift_deriv(L, F, i, p) == pytest.approx(p.u[i], abs=0)


def test_clift_zero_for_q_independent(euclid3, rng):
    L, F = euclid3
    p = TangentPoint(rng.normal(size=3), rng.normal(size=3))
    for i in range(3):
        assert clift_deriv(L, F, i, p) == 0.0


def test_carriage_momenta_match_display(carriage, rng):
    L, F, split = carriage.L, carriage.frame, carriage.split
    pr = carriage.sysd.params
    for _ in range(5):
        q = rng.uniform(-2, 2, 5)
        v1, v2 = rng.normal(size=2)
        s = QuasiState.on_C(q, [v1, v2], split)
        p = velocities_from_quasi(F, s)
        th = q[4]
        Khat = 2 * pr["c"] * pr["K"] / pr["R"] ** 2
        p3 = (-0.5 * pr["m"] * pr["R"] * (v1 + v2) * math.cos(th)
              + Khat * (v1 - v2) * math.sin(th))
        p4 = (-0.5 * pr["m"] * pr["R"] * (v1 + v2) * math.sin(th)
              - Khat * (v1 - v2) * math.cos(th))
        assert vlift_deriv(L, F, 2, p) == pytest.approx(p3, abs=1e-12)
        assert vlift_deriv(L, F, 3, p) == pytest.approx(p4, abs=1e-12)


def test_delta_class_momenta(particle, rng):
    # p_a = -I_a Delta_a v_2 on C.
    L, F, split = particle.L, particle.frame, particle.split
    q = rng.uniform(-2, 2, 3)
    v1, v2 = rng.normal(size=2)
    s = QuasiState.on_C(q, [v1, v2], split)
    p = velocities_from_quasi(F, s)
    assert vlift_deriv(L, F, 2, p) == pytest.approx(-q[0] * v2, abs=1e-13)


def test_particle_clift_values_against_fd(particle, rng):
    # clift X_1(L) = 0; clift X_2(L) = q1 v1 v2 on C (the drift of the frame
    # coefficients enters through the fibre part).  Both checked against a
    # central-difference oracle along the lift direction.
    L, F, split = particle.L, particle.frame, particle.split
    q = rng.uniform(-2, 2, 3)
    v = rng.normal(size=2)
    s = QuasiState.on_C(q, v, split)
    p = velocities_from_quasi(F, s)
    h = 1e-6
    for i in range(2):
        Xi = F.fields[i].values(q)
        dXi_u = F.fields[i].dirderiv(q, p.u)
        fd = (L.value(q + h * Xi, p.u + h * dXi_u)
              - L.value(q - h * Xi, p.u - h * dXi_u)) / (2 * h)
        assert clift_deriv(L, F, i, p) == pytest.approx(fd, abs=5e-9)
    assert clift_deriv(L, F, 0, p) == 0.0
    assert clift_deriv(L, F, 1, p) == pytest.approx(q[0] * v[0] * v[1],
                                                    abs=1e-13)


def test_clift_on_quasi_velocity_function(carriage, rng):
    # clift X_i(v^j) = -R^j_ik v^k, exercised through the implicit jets.
    F, split = carriage.frame, carriage.split
    q = rng.uniform(-1, 1, 5)
    v = rng.normal(size=5)
    s = QuasiState(q, v)
    p = velocities_from_quasi(F, s)
    R = structure_functions(F, q)
    for j in (2, 3, 4):
        vf = QuasiVelocityFunction(F, j)
        for i in range(5):
            want = -(R[j, i, :] @ v)
            assert clift_deriv(vf, F, i, p) == pytest.approx(want, abs=1e-11)


def test_vlift_on_quasi_velocity_is_kronecker(particle, rng):
    F = particle.frame
    q = rng.uniform(-1, 1, 3)
    p = TangentPoint(q, rng.normal(size=3))
    for j in range(3):
        vf = QuasiVelocityFunction(F, j)
        for i in range(3):
            got = vlift_deriv(vf, F, i, p)
            assert got == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)


class TestHessian:
    def test_euclidean_identity(self, euclid3, rng):
        L, F = euclid3
        p = TangentPoint(rng.normal(size=3), rng.normal(size=3))
        assert np.allclose(hessian(L, F, p), np.eye(3), atol=0)

    def test_carriage_alpha_block(self, carriage, rng):
        L, F, split = carriage.L, carriage.frame, carriage.split
        pr = carriage.sysd.params
        s = QuasiState.on_C(rng.uniform(-1, 1, 5), rng.normal(size=2), split)
        p = velocities_from_quasi(F, s)
        g = hessian(L, F, p, indices=[0, 1])
        want = [[pr["P"], -pr["Q"]], [-pr["Q"], pr["P"]]]
        assert np.allclose(g, want, atol=1e-12)

    def test_delta_alpha_block(self, particle, rng):
        L, F, split = particle.L, particle.frame, particle.split
        q = rng.uniform(-2, 2, 3)
        s = QuasiState.on_C(q, rng.normal(size=2), split)
        p = velocities_from_quasi(F, s)
        g = hessian(L, F, p, indices=[0, 1])
        want = np.diag([1.0, 1.0 + q[0] ** 2])
        assert np.allclose(g, want, atol=1e-13)

    def test_congruent_under_frame_change(self, carriage, rng):
        L, F, split = carriage.L, carriage.frame, carriage.split
        a, b = 0.8, 0.6
        F2 = change_of_D_basis(
            F, split, [[repr(a), repr(b)], [repr(-b), repr(a)]],
            A_a_b=[["1", "0", "0"], ["0", "2", "0"], ["0", "x", "1"]])
        q = rng.uniform(-1, 1, 5)
        p = TangentPoint(q, rng.normal(size=5))
        g1 = hessian(L, F, p)
        g2 = hessian(L, F2, p)
        B = np.linalg.solve(F.matrix(q).T, F2.matrix(q).T).T  # rows: Y in X
        assert np.allclose(g2, B @ g1 @ B.T, atol=1e-9)


class TestEnergy:
    def test_quadratic_kinetic(self, euclid3, rng):
        L, F = euclid3
        u = rng.normal(size=3)
        p = TangentPoint(rng.normal(size=3), u)
        assert energy(L, F, p) == pytest.approx(0.5 * u @ u, abs=1e-14)

    def test_degree_one_homogeneous_is_zero(self, rng):
        coords = ["q1", "q2"]
        F = Frame([["1", "0"], ["0", "1"]], coords)
        L = Lagrangian("sqrt(u1*u1 + u2*u2 + 1e-9)", coords, ["u1", "u2"])
        p = TangentPoint(rng.normal(size=2), rng.normal(size=2))
        assert energy(L, F, p) == pytest.approx(0.0, abs=1e-9)

    def test_carriage_energy_equals_Lc_on_C(self, carriage, rng):
        L, F, split = carriage.L, carriage.frame, carriage.split
        pr = carriage.sysd.params
        for _ in range(5):
            v1, v2 = rng.normal(size=2)
            s = QuasiState.on_C(rng.uniform(-2, 2, 5), [v1, v2], split)
            p = velocities_from_quasi(F, s)
            Lc = 0.5 * pr["P"] * (v1 ** 2 + v2 ** 2) - pr["Q"] * v1 * v2
            assert energy(L, F, p) == pytest.approx(Lc, abs=1e-12)

    def test_frame_independent(self, carriage, rng):
        L, F, split = carriage.L, carriage.frame, carriage.split
        F2 = change_of_D_basis(F, split, [["1", "theta"], ["0", "1"]],
                               A_a_b=[["3", "0", "0"], ["0", "1", "0"],
                                      ["y", "0", "1"]])
        p = TangentPoint(rng.uniform(-1, 1, 5), rng.normal(size=5))
        assert energy(L, F, p) == pytest.approx(energy(L, F2, p), abs=1e-9)


class TestRegularity:
    def test_positive_definite_all_regular(self, carriage, rng):
        L, F, split = carriage.L, carriage.frame, carriage.split
        p = TangentPoint(rng.uniform(-1, 1, 5), rng.normal(size=5))
        rep = regularity(L, F, split, p)
        assert rep.regular_D and rep.regular_Dperp and rep.regular_g

    def test_carriage_det_is_P2_minus_Q2(self, carriage, rng):
        L, F, split = carriage.L, carriage.frame, carriage.split
        pr = carriage.sysd.params
        p = TangentPoint(rng.uniform(-1, 1, 5), rng.normal(size=5))
        rep = regularity(L, F, split, p)
        assert rep.det_D == pytest.approx(pr["P"] ** 2 - pr["Q"] ** 2,
                                          rel=1e-12)
        assert rep.det_D > 0

    def test_degenerate_block(self, rng):
        coords = ["q1", "q2"]
        F = Frame([["1", "0"], ["0", "1"]], coords)
        L = Lagrangian("u1*u1/2", coords, ["u1", "u2"])
        rep = regularity(L, F, ConstraintSplit(2, 1),
                         TangentPoint(rng.normal(size=2), rng.normal(size=2)))
        assert rep.regular_D
        assert not rep.regular_g


def test_epsilon_form_module_linearity(carriage, rng):
    # epsilon(f Z) = f epsilon(Z) for smooth f on Q and any second-order
    # tangent vector.
    L, F, split = carriage.L, carriage.frame, carriage.split
    q = rng.uniform(-1, 1, 5)
    u = rng.normal(size=5)
    wq, wu = u, rng.normal(size=5)
    Z = VectorField(["sin(theta)", "x", "1", "0", "y*y"],
                    F.coords, F.params)
    fexpr = "1 + x*x/4 + cos(theta)/3"
    fZ = VectorField([f"({fexpr})*({c})" for c in
                      ["sin(theta)", "x", "1", "0", "y*y"]],
                     F.coords, F.params)
    from framedyn.exprlang import ExprFunction
    fval = ExprFunction(fexpr, F.coords, tuple(F.params)).value(
        tuple(q), tuple(F.params.values()))
    lhs = epsilon_form(L, fZ, q, u, wq, wu)
    rhs = fval * epsilon_form(L, Z, q, u, wq, wu)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_batched_matches_scalar(carriage, rng):
    L, F, split = carriage.L, carriage.frame, carriage.split
    q = rng.uniform(-1, 1, (6, 5))
    u = rng.normal(size=(6, 5))
    p = TangentPoint(q, u)
    g = hessian(L, F, p)
    E = energy(L, F, p)
    for i in range(6):
        pi = TangentPoint(q[i], u[i])
        assert np.allclose(g[i], hessian(L, F, pi), atol=1e-13)
        assert E[i] == pytest.approx(energy(L, F, pi), abs=1e-12)


def test_empty_block_determinants_have_the_batch_shape(rng):
    # An unconstrained system (m = n) has 0 x 0 trailing blocks; their
    # determinants are ones of the batch shape, for any number of batch axes.
    from framedyn.linsolve import det_pp, solve_and_det

    coords, vels = ["q1", "q2"], ["u1", "u2"]
    F = Frame([["1", "0"], ["0", "1"]], coords)
    L = Lagrangian("(u1*u1 + u2*u2)/2 + q1*u2", coords, vels)
    q, u = rng.normal(size=(2, 3, 2)), rng.normal(size=(2, 3, 2))
    rep = regularity(L, F, ConstraintSplit(2, 2), TangentPoint(q, u))
    for det in (rep.det_D, rep.det_g, rep.det_Dperp):
        assert np.shape(det) == (2, 3)
    assert det_pp(np.zeros((2, 3, 0, 0))).shape == (2, 3)
    x, det = solve_and_det(np.zeros((2, 3, 0, 0)), np.zeros((2, 3, 0)))
    assert x.shape == (2, 3, 0) and det.shape == (2, 3)
