import numpy as np
import pytest

from framedyn.frames import (ConstraintSplit, ConstraintViolationError,
                             Frame, QuasiState)
from framedyn.lagrangian import Lagrangian, regularity
from framedyn.nonholonomic import NonholonomicField, RegularityError

from _oracles import coordinate_gamma_oracle


def test_particle_closed_form(particle, rng):
    split = particle.split
    q = rng.uniform(-2, 2, (200, 3))
    v = rng.uniform(-2, 2, (200, 2))
    s = QuasiState.on_C(q, v, split)
    gam = particle.field.gamma(s)
    ref = np.stack([np.zeros(200),
                    -q[:, 0] * v[:, 0] * v[:, 1] / (1 + q[:, 0] ** 2)],
                   axis=-1)
    assert np.max(np.abs(gam - ref)) <= 1e-12


def test_carriage_spec_point(carriage):
    # P = 1.5, Q = -0.5, K = 0.5 at the default parameters; at v = (1, 0)
    # the correct field is (+0.125, -0.375).  (The value pair with flipped
    # signs fails the classical-coordinates oracle below.)
    s = QuasiState.on_C(np.zeros(5), [1.0, 0.0], carriage.split)
    gam = carriage.field.gamma(s)
    assert gam[0] == pytest.approx(0.125, abs=1e-12)
    assert gam[1] == pytest.approx(-0.375, abs=1e-12)


def test_carriage_closed_form(carriage, rng):
    pr = carriage.sysd.params
    P, Q, K = pr["P"], pr["Q"], pr["K"]
    q = rng.uniform(-2, 2, (100, 5))
    v = rng.uniform(-2, 2, (100, 2))
    s = QuasiState.on_C(q, v, carriage.split)
    gam = carriage.field.gamma(s)
    d = v[:, 0] - v[:, 1]
    det = P * P - Q * Q
    ref = np.stack([K / det * d * (P * v[:, 1] - Q * v[:, 0]),
                    K / det * d * (Q * v[:, 1] - P * v[:, 0])], axis=-1)
    assert np.max(np.abs(gam - ref)) <= 1e-12


def test_carriage_l0_freewheels(carriage_l0, rng):
    s = QuasiState.on_C(rng.uniform(-1, 1, 5), rng.normal(size=2),
                        carriage_l0.split)
    assert np.max(np.abs(carriage_l0.field.gamma(s))) <= 1e-15


def test_unconstrained_free_particle_geodesic(rng):
    coords = ["q1", "q2", "q3"]
    F = Frame([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], coords)
    L = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2", coords, ["u1", "u2", "u3"])
    split = ConstraintSplit(3, 3)
    s = QuasiState(rng.normal(size=3), rng.normal(size=3))
    assert np.max(np.abs(NonholonomicField(L, F, split).gamma(s))) == 0.0


def test_coordinate_oracle_agreement(all_builtins, rng):
    """The frame pipeline against the classical multiplier formulation,
    assembled entirely from finite differences in coordinates."""
    for name, bundle in all_builtins.items():
        for _ in range(3):
            q = rng.uniform(-1, 1, bundle.sysd.n)
            v = rng.uniform(-1, 1, bundle.sysd.m)
            gam = bundle.field.gamma(
                QuasiState.on_C(q, v, bundle.split))
            ora, _lam = coordinate_gamma_oracle(bundle.sysd, q, v)
            # the oracle itself carries nested finite-difference noise
            assert np.max(np.abs(gam - ora)) <= 5e-5, name


class TestMultipliers:
    def test_chaplygin_multiplier_is_momentum_rate(self, all_builtins, rng):
        # lambda_a = Gamma(p_a) for every built-in (all are Chaplygin).
        from framedyn.vakonomic import MomentumSection
        for bundle in all_builtins.values():
            split = bundle.split
            s = bundle.states(50, seed=5)
            lam = bundle.field.multipliers(s)
            gam = bundle.field.gamma(s)
            M = bundle.frame.matrix(s.q)
            u = np.einsum("...a,...aj->...j", s.v_alpha(split),
                          M[..., : split.m, :])
            tvs = MomentumSection(bundle.L, bundle.frame, split).taylor(
                s.q, s.v_alpha(split), [(u, gam)])
            rate = np.stack([tv.c[1] for tv in tvs], axis=-1)
            assert np.max(np.abs(lam - rate)) <= 1e-9

    def test_delta_class_multiplier_display(self, disk, rng):
        # With sum I_a Delta_a Delta'_a = 0, lambda_a = -I_a Delta'_a v1 v2.
        split = disk.split
        pr = disk.sysd.params
        q = rng.uniform(-2, 2, (50, 4))
        v = rng.uniform(-2, 2, (50, 2))
        s = QuasiState.on_C(q, v, split)
        lam = disk.field.multipliers(s)
        M, R = pr["M"], pr["R"]
        d3p = R * np.sin(q[:, 0])    # Delta'_x for Delta_x = -R cos q1
        d4p = -R * np.cos(q[:, 0])
        prod = v[:, 0] * v[:, 1]
        assert np.allclose(lam[:, 0], -M * d3p * prod, atol=1e-12)
        assert np.allclose(lam[:, 1], -M * d4p * prod, atol=1e-12)

    def test_integrable_constraints_zero_multipliers(self, rng):
        # Constant Delta: the frame commutes and lambda vanishes for the
        # Euclidean Lagrangian.
        from framedyn.systems import builtin
        sysd = builtin("delta_class", deltas=["0.7"], inertias=[1.0, 1.0, 1.0])
        L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
        from framedyn.frames import structure_functions
        field = NonholonomicField(L, F, split)
        q = rng.uniform(-1, 1, (20, 3))
        v = rng.normal(size=(20, 2))
        s = QuasiState.on_C(q, v, split)
        assert np.max(np.abs(structure_functions(F, q))) == 0.0
        assert np.max(np.abs(field.multipliers(s))) <= 1e-14
        assert np.max(np.abs(field.gamma(s))) <= 1e-14


class TestResidualOracles:
    def test_all_residuals_near_zero(self, all_builtins):
        for bundle in all_builtins.values():
            s = bundle.states(100, seed=11)
            r1 = bundle.field.residual_fundamental(s)
            r2 = bundle.field.residual_hamel(s)
            r3 = bundle.field.constrained_form_residual(s)
            for r in (r1, r2, r3):
                assert np.max(np.abs(r)) <= 1e-9

    def test_pairwise_agreement(self, all_builtins):
        for bundle in all_builtins.values():
            s = bundle.states(100, seed=12)
            r1 = bundle.field.residual_fundamental(s)
            r2 = bundle.field.residual_hamel(s)
            r3 = bundle.field.constrained_form_residual(s)
            assert np.max(np.abs(r1 - r2)) <= 1e-9
            assert np.max(np.abs(r1 - r3)) <= 1e-9
            assert np.max(np.abs(r2 - r3)) <= 1e-9

    def test_perturbed_gamma_fails(self, particle):
        s = particle.states(1, seed=13)
        gam = particle.field.gamma(s) + 0.1
        for r in (particle.field.residual_fundamental(s, gamma=gam),
                  particle.field.residual_hamel(s, gamma=gam),
                  particle.field.constrained_form_residual(s, gamma=gam)):
            assert np.max(np.abs(r)) > 1e-3

    def test_coordinate_frame_reduces_to_euler_lagrange(self, rng):
        # Unconstrained coordinate frame: the fundamental residual is the
        # classical Euler-Lagrange residual, zero at the solver output.
        coords = ["q1", "q2"]
        F = Frame([["1", "0"], ["0", "1"]], coords)
        L = Lagrangian("u1*u1/2 + u2*u2/2 - q1*q1/2 - q1*q2", coords,
                       ["u1", "u2"])
        split = ConstraintSplit(2, 2)
        field = NonholonomicField(L, F, split)
        s = QuasiState(rng.normal(size=2), rng.normal(size=2))
        gam = field.gamma(s)
        # EL: udot_i = -dV/dq_i
        assert np.allclose(gam, [-(s.q[0] + s.q[1]), -s.q[0]], atol=1e-12)
        assert np.max(np.abs(field.residual_fundamental(s))) <= 1e-12


def test_off_constraint_rejected(particle):
    s = QuasiState(np.zeros(3), np.array([1.0, 1.0, 1e-6]))
    with pytest.raises(ConstraintViolationError):
        particle.field.gamma(s)


def test_regularity_error_names_condition(rng):
    coords = ["q1", "q2"]
    F = Frame([["1", "0"], ["0", "1"]], coords)
    L = Lagrangian("u2*u2/2", coords, ["u1", "u2"])  # degenerate on D
    split = ConstraintSplit(2, 1)
    field = NonholonomicField(L, F, split)
    with pytest.raises(RegularityError) as ei:
        field.gamma(QuasiState.on_C(np.zeros(2), [1.0], split))
    assert ei.value.condition == "regular_D"


def test_context_regularity_equals_lagrangian_regularity(all_builtins):
    # The vakonomic solve tests regularity from the state context, which
    # reuses its rows of M and its g_D block; the report must be the one
    # lagrangian.regularity computes from scratch, bit for bit.
    for bundle in all_builtins.values():
        S = bundle.states(20, seed=41)
        for s in [S] + [QuasiState(S.q[i], S.v[i]) for i in range(3)]:
            ctx = bundle.field._context(s)
            got = ctx.regularity_report(1e-10)
            want = regularity(bundle.L, bundle.frame, bundle.split, ctx.p,
                              threshold=1e-10)
            for name in ("det_D", "det_Dperp", "det_g"):
                assert (np.asarray(getattr(got, name), dtype=float).tobytes()
                        == np.asarray(getattr(want, name),
                                      dtype=float).tobytes())
            for name in ("regular_D", "regular_Dperp", "regular_g"):
                assert getattr(got, name) is getattr(want, name)


def test_g_invariance_of_gamma(all_builtins, rng):
    # Gamma^alpha(q.g, v) = Gamma^alpha(q, v) under the built-in actions.
    for bundle in all_builtins.values():
        action = bundle.sysd.chaplygin.action
        k = bundle.sysd.n - bundle.sysd.m
        for _ in range(5):
            q = rng.uniform(-1, 1, bundle.sysd.n)
            v = rng.normal(size=bundle.sysd.m)
            g = rng.uniform(-1, 1, k)
            s1 = QuasiState.on_C(q, v, bundle.split)
            s2 = QuasiState.on_C(action(q, g), v, bundle.split)
            assert np.max(np.abs(bundle.field.gamma(s1)
                                 - bundle.field.gamma(s2))) <= 1e-9


def test_condition_warning_attached(particle):
    rep = particle.field.solve_report(particle.states(1, seed=3))
    assert rep["condition"] >= 1.0
    assert rep["warning"] is None
