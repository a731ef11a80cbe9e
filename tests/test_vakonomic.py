import numpy as np
import pytest

from framedyn.frames import QuasiState, TangentPoint, velocities_from_quasi
from framedyn.nonholonomic import RegularityError
from framedyn.vakonomic import (CustomSection, MomentumSection,
                                ShiftedMomentumSection, VariationalLagrangian,
                                ZeroSection, consistency_report, el_field,
                                gamma_bar_tangency, make_section,
                                solve_gamma_C, tilde_tangency_check)


class TestSolveGammaC:
    def test_zero_section_recovers_nonholonomic(self, all_builtins):
        for bundle in all_builtins.values():
            s = bundle.states(100, seed=21)
            sol = solve_gamma_C(bundle.L, bundle.frame, bundle.split,
                                ZeroSection(bundle.frame, bundle.split), s)
            assert np.max(np.abs(sol.gamma_C - bundle.field.gamma(s))) \
                <= 1e-12

    def test_particle_constant_section_rate(self, particle, rng):
        # With a constant section mu, tangency forces
        # A = -(mu q1 v1 + v1 v2)/(1 + q1^2); cross-checked against the
        # coordinate Euler-Lagrange equations of L - mu (u3 + q1 u2).
        mu = 0.7
        sec = CustomSection(particle.frame, particle.split, [repr(mu)])
        for _ in range(10):
            q = rng.uniform(-2, 2, 3)
            v = rng.normal(size=2)
            s = QuasiState.on_C(q, v, particle.split)
            sol = solve_gamma_C(particle.L, particle.frame, particle.split,
                                sec, s)
            q1, v1, v2 = q[0], v[0], v[1]
            want = -(mu * q1 * v1 + v1 * v2) / (1 + q1 ** 2)
            assert sol.A[0] == pytest.approx(want, abs=1e-12)
            # tangency: vdot3 of the coordinate equations with this A
            u = velocities_from_quasi(particle.frame, s).u
            v3dot = (sol.A[0] * (1 + q1 ** 2) + u[0] * u[1]
                     + mu * q1 * u[0])
            assert v3dot == pytest.approx(0.0, abs=1e-12)

    def test_prop3_residuals_at_solution(self, carriage, rng):
        # Both displays of the restricted vakonomic equations hold at the
        # solver output.
        from framedyn.frames import structure_functions
        from framedyn.lagrangian import clift_deriv, dvlift
        L, F, split = carriage.L, carriage.frame, carriage.split
        sec = MomentumSection(L, F, split)
        s = carriage.states(50, seed=22)
        sol = solve_gamma_C(L, F, split, sec, s)
        m = split.m
        M = F.matrix(s.q)
        u = np.einsum("...a,...aj->...j", s.v_alpha(split), M[..., :m, :])
        h = np.zeros(u.shape)
        for b in range(m):
            h = h + s.v[..., b, None] * F.dfield(b, s.q, u)
        wfib = h + np.einsum("...a,...aj->...j", sol.gamma_C, M[..., :m, :])
        p = TangentPoint(s.q, u)
        phi = sec.values(s.q, s.v_alpha(split))
        R = structure_functions(F, s.q)
        for al in range(m):
            lhs = (dvlift(L, F, al, p, u, wfib)
                   - clift_deriv(L, F, al, p))
            rhs = np.einsum("...a,...ak,...k->...",
                            phi, R[..., m:, al, :], s.v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9
        for j, a in enumerate(range(m, split.n)):
            lhs = dvlift(L, F, a, p, u, wfib) - clift_deriv(L, F, a, p)
            rhs = np.einsum("...b,...bk,...k->...",
                            phi, R[..., m:, a, :], s.v) + sol.A[..., j]
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_regularity_error_names_condition(self, rng):
        from framedyn.frames import ConstraintSplit, Frame
        from framedyn.lagrangian import Lagrangian
        coords = ["q1", "q2"]
        F = Frame([["1", "0"], ["0", "1"]], coords)
        # (u1+u2)^2/2: regular on D, zero Schur complement on D-perp
        L = Lagrangian("pow(u1 + u2, 2)/2", coords, ["u1", "u2"])
        split = ConstraintSplit(2, 1)
        s = QuasiState.on_C(np.zeros(2), [1.0], split)
        with pytest.raises(RegularityError) as ei:
            solve_gamma_C(L, F, split, ZeroSection(F, split), s)
        assert ei.value.condition == "regular_Dperp"
        batch = QuasiState.on_C(np.zeros((3, 2)), np.ones((3, 1)), split)
        with pytest.raises(RegularityError) as ei:
            consistency_report(L, F, split, ZeroSection(F, split), batch)
        assert ei.value.condition == "regular_Dperp"


class TestConsistency:
    def test_delta_class_weak_defect_closed_form(self, all_builtins, rng):
        # weak defect of the momentum section:
        # (S v2^2, -S v1 v2) with S = sum I_a Delta_a Delta'_a.
        bundle = all_builtins["nonholonomic_particle"]
        sec = MomentumSection(bundle.L, bundle.frame, bundle.split)
        s = bundle.states(100, seed=23)
        rep = consistency_report(bundle.L, bundle.frame, bundle.split, sec, s)
        S = s.q[:, 0]  # I_3 Delta Delta' = q1
        want = np.stack([S * s.v[:, 1] ** 2, -S * s.v[:, 0] * s.v[:, 1]],
                        axis=-1)
        assert np.max(np.abs(rep.weak_defect - want)) <= 1e-9
        assert np.max(np.abs(rep.weak_defect)) >= 1e-3

    def test_disk_momentum_section_consistent(self, disk):
        sec = MomentumSection(disk.L, disk.frame, disk.split)
        s = disk.states(200, seed=24)
        rep = consistency_report(disk.L, disk.frame, disk.split, sec, s)
        assert np.max(np.abs(rep.weak_defect)) <= 1e-9
        assert np.max(np.abs(rep.strong_defect)) <= 1e-9
        assert np.max(np.abs(rep.tangency_defect)) <= 1e-9
        # round trip: with a vanishing weak defect the restricted vakonomic
        # field recovers the nonholonomic one
        sol = solve_gamma_C(disk.L, disk.frame, disk.split, sec, s)
        assert np.max(np.abs(sol.gamma_C - disk.field.gamma(s))) <= 1e-9

    def test_carriage_momentum_defect_pattern(self, carriage):
        sec = MomentumSection(carriage.L, carriage.frame, carriage.split)
        s = carriage.states(100, seed=25)
        rep = consistency_report(carriage.L, carriage.frame, carriage.split,
                                 sec, s)
        K = carriage.sysd.params["K"]
        d = s.v[:, 0] - s.v[:, 1]
        want = np.stack([-K * d * s.v[:, 1], K * d * s.v[:, 0]], axis=-1)
        assert np.max(np.abs(rep.weak_defect - want)) <= 1e-9

    def test_carriage_special_length_strongly_consistent(self, rng):
        from framedyn.chaplygin import carriage_special_length
        from framedyn.systems import builtin, sample_states
        base = builtin("carriage")
        lstar = carriage_special_length(base.params)
        sysd = builtin("carriage", {"l": lstar})
        L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
        sec = ShiftedMomentumSection(L, F, split, sysd.builtin_k)
        s = sample_states(sysd, 100, seed=26)
        rep = consistency_report(L, F, split, sec, s)
        assert np.max(np.abs(rep.weak_defect)) <= 1e-9
        assert np.max(np.abs(rep.strong_defect)) <= 1e-9
        assert np.max(np.abs(rep.tangency_defect)) <= 1e-9

    def test_zero_section_strong_defect_is_minus_lambda(self, particle):
        s = particle.states(20, seed=27)
        sec = ZeroSection(particle.frame, particle.split)
        rep = consistency_report(particle.L, particle.frame, particle.split,
                                 sec, s)
        lam = particle.field.multipliers(s)
        assert np.max(np.abs(rep.weak_defect)) <= 1e-14
        assert np.max(np.abs(rep.strong_defect + lam)) <= 1e-12


class TestGammaBar:
    def test_chaplygin_momentum_always_zero(self, all_builtins):
        for bundle in all_builtins.values():
            sec = MomentumSection(bundle.L, bundle.frame, bundle.split)
            s = bundle.states(50, seed=28)
            out = gamma_bar_tangency(bundle.L, bundle.frame, bundle.split,
                                     sec, s)
            assert np.max(np.abs(out)) <= 1e-9

    def test_particle_zero_section_defect_is_lambda(self, particle):
        s = particle.states(20, seed=29)
        sec = ZeroSection(particle.frame, particle.split)
        out = gamma_bar_tangency(particle.L, particle.frame, particle.split,
                                 sec, s)
        lam = particle.field.multipliers(s)
        assert np.max(np.abs(out - lam)) <= 1e-12
        assert np.max(np.abs(lam)) > 1e-3  # weak holds, strong fails

    def test_equilibrium_point_zero(self, particle):
        s = QuasiState.on_C(np.array([0.4, 0.1, -0.2]), [0.0, 0.0],
                            particle.split)
        sec = CustomSection(particle.frame, particle.split, ["1 + q1"])
        out = gamma_bar_tangency(particle.L, particle.frame, particle.split,
                                 sec, s)
        assert np.max(np.abs(out)) <= 1e-14


class TestVariationalLagrangian:
    def test_zero_section_gives_L(self, particle, rng):
        VL = VariationalLagrangian(
            particle.L, particle.frame, particle.split,
            ZeroSection(particle.frame, particle.split))
        q = rng.uniform(-1, 1, 3)
        v = rng.normal(size=3)
        u = velocities_from_quasi(particle.frame, QuasiState(q, v)).u
        assert VL.value(q, v) == pytest.approx(particle.L.value(q, u),
                                               abs=1e-13)

    def test_delta_class_closed_form(self, particle, rng):
        # L~ = (u1^2 + u2^2 - u3^2)/2 - q1 u2 u3 for the particle.
        VL = VariationalLagrangian(
            particle.L, particle.frame, particle.split,
            MomentumSection(particle.L, particle.frame, particle.split))
        for _ in range(10):
            q = rng.uniform(-1.5, 1.5, 3)
            v = rng.normal(size=3)
            u = velocities_from_quasi(particle.frame, QuasiState(q, v)).u
            want = (0.5 * (u[0] ** 2 + u[1] ** 2 - u[2] ** 2)
                    - q[0] * u[1] * u[2])
            assert VL.value(q, v) == pytest.approx(want, abs=1e-12)

    def test_extension_restricts_to_section(self, carriage, rng):
        L, F, split = carriage.L, carriage.frame, carriage.split
        for sec in (MomentumSection(L, F, split), ZeroSection(F, split),
                    ShiftedMomentumSection(L, F, split,
                                           carriage.sysd.builtin_k),
                    CustomSection(F, split, ["x*v1", "sin(theta) + v2",
                                             "psi1*v1*v2"])):
            VL = VariationalLagrangian(L, F, split, sec)
            s = carriage.states(50, seed=31)
            got = VL.phi_values(s.q, s.v)
            want = sec.values(s.q, s.v_alpha(split))
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_chaplygin_tilde_momentum(self, carriage, rng):
        # vlift E_a(L~) = -g_ab v^b.
        from framedyn.lagrangian import hessian
        sec = MomentumSection(carriage.L, carriage.frame, carriage.split)
        VL = VariationalLagrangian(carriage.L, carriage.frame,
                                   carriage.split, sec)
        split = carriage.split
        q = rng.uniform(-1, 1, 5)
        v = rng.normal(size=5)
        u = velocities_from_quasi(carriage.frame, QuasiState(q, v)).u
        gab = hessian(carriage.L, carriage.frame, TangentPoint(q, u),
                      indices=range(split.m, split.n))
        zq = np.zeros(5)
        for j, a in enumerate(range(split.m, split.n)):
            e = np.zeros(5)
            e[a] = 1.0
            got = VL.qv_taylor(q, v, [(zq, e)]).c[1]
            want = -(gab[j] @ v[split.m:])
            assert got == pytest.approx(want, abs=1e-11)


class TestElField:
    def test_free_particle_zero(self, rng):
        from framedyn.frames import ConstraintSplit, Frame
        from framedyn.lagrangian import Lagrangian
        coords = ["q1", "q2", "q3"]
        F = Frame([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], coords)
        L = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2", coords,
                       ["u1", "u2", "u3"])
        p = TangentPoint(rng.normal(size=3), rng.normal(size=3))
        assert np.max(np.abs(el_field(L, F, p))) <= 1e-14

    def test_disk_el_field_matches_nonholonomic(self, disk):
        sec = MomentumSection(disk.L, disk.frame, disk.split)
        VL = VariationalLagrangian(disk.L, disk.frame, disk.split, sec)
        s = disk.states(200, seed=32)
        p = velocities_from_quasi(disk.frame, s)
        gt = el_field(VL, disk.frame, p)
        gam = disk.field.gamma(s)
        assert np.max(np.abs(gt[..., : disk.split.m] - gam)) <= 1e-9
        assert np.max(np.abs(gt[..., disk.split.m:])) <= 1e-9

    def test_particle_el_field_differs(self, particle):
        sec = MomentumSection(particle.L, particle.frame, particle.split)
        VL = VariationalLagrangian(particle.L, particle.frame,
                                   particle.split, sec)
        s = particle.states(200, seed=33)
        p = velocities_from_quasi(particle.frame, s)
        gt = el_field(VL, particle.frame, p)
        gam = particle.field.gamma(s)
        assert np.max(np.abs(gt[..., : particle.split.m] - gam)) >= 1e-3
        # but the field is still tangent to C (Chaplygin momentum section)
        assert np.max(np.abs(gt[..., particle.split.m:])) <= 1e-9

    def test_consistent_sections_reproduce_gamma(self, rng):
        # Where all defects vanish (carriage at the special length with the
        # built-in shift), el_field of L~ restricted to C equals Gamma.
        from framedyn.chaplygin import carriage_special_length
        from framedyn.nonholonomic import NonholonomicField
        from framedyn.systems import builtin, sample_states
        base = builtin("carriage")
        sysd = builtin("carriage",
                       {"l": carriage_special_length(base.params)})
        L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
        sec = ShiftedMomentumSection(L, F, split, sysd.builtin_k)
        VL = VariationalLagrangian(L, F, split, sec)
        s = sample_states(sysd, 50, seed=34)
        p = velocities_from_quasi(F, s)
        gt = el_field(VL, F, p)
        gam = NonholonomicField(L, F, split).gamma(s)
        assert np.max(np.abs(gt[..., : split.m] - gam)) <= 1e-9

    def test_tilde_tangency_check(self, disk, carriage):
        for bundle in (disk, carriage):
            sec = MomentumSection(bundle.L, bundle.frame, bundle.split)
            VL = VariationalLagrangian(bundle.L, bundle.frame,
                                       bundle.split, sec)
            rep = tilde_tangency_check(VL, bundle.frame, bundle.split,
                                       [bundle.states(30, seed=35)])
            assert rep["tangent"], rep

    def test_tilde_tangency_check_reports_nan(self, disk, monkeypatch):
        # A NaN trailing coefficient at the second of two states fails the
        # check and is reported, where the first state is tangent.
        import framedyn.vakonomic as vakonomic

        sec = MomentumSection(disk.L, disk.frame, disk.split)
        VL = VariationalLagrangian(disk.L, disk.frame, disk.split, sec)
        S = disk.states(2, seed=35)
        states = [QuasiState(S.q[i], S.v[i]) for i in range(2)]
        assert tilde_tangency_check(VL, disk.frame, disk.split,
                                    states)["tangent"]
        field = vakonomic.el_field
        seen = []

        def poisoned(Lt, frame, p):
            gamma = field(Lt, frame, p)
            seen.append(p)
            if len(seen) == 2:
                gamma[..., -1] = np.nan
            return gamma

        monkeypatch.setattr(vakonomic, "el_field", poisoned)
        rep = tilde_tangency_check(VL, disk.frame, disk.split, states)
        assert np.isnan(rep["max_residual"]) and not rep["tangent"]
        assert np.isnan(rep["per_point"][1])

    def test_el_field_evaluates_the_frame_once(self, carriage, monkeypatch):
        # M serves the quasi-velocities, R and the chart jets: one
        # Frame.matrix call per el_field call, scalar or batched, with the
        # same values as the chart solve of quasi_velocities.
        from framedyn.frames import Frame

        s = carriage.states(4, seed=33)
        p = velocities_from_quasi(carriage.frame, s)
        want = el_field(carriage.L, carriage.frame, p)
        calls = []
        matrix = Frame.matrix

        def counted(self, q):
            calls.append(np.shape(q))
            return matrix(self, q)

        monkeypatch.setattr(Frame, "matrix", counted)
        got = el_field(carriage.L, carriage.frame, p)
        p1 = TangentPoint(p.q[0], p.u[0])
        el_field(carriage.L, carriage.frame, p1)
        assert calls == [(4, 5), (5,)]
        assert np.array_equal(got, want)

    def test_adversarial_extension_not_tangent(self, particle):
        # A non-invariant custom section generically fails the tangency of
        # its Euler-Lagrange field.
        sec = CustomSection(particle.frame, particle.split, ["q2 + v1"])
        VL = VariationalLagrangian(particle.L, particle.frame,
                                   particle.split, sec)
        rep = tilde_tangency_check(VL, particle.frame, particle.split,
                                   [particle.states(30, seed=36)])
        assert not rep["tangent"]


def test_vakonomic_momentum_conservation(all_builtins):
    # For Chaplygin systems, d/dt (p_a - mu_a) = 0 along the solution on any
    # section: Gamma_C(p_a) = A_a.
    from framedyn.vakonomic import CustomSection
    for bundle in all_builtins.values():
        split = bundle.split
        exprs = [f"{bundle.sysd.coords[0]} + v1"] * split.n_constraints
        sec = CustomSection(bundle.frame, split, exprs)
        s = bundle.states(30, seed=37)
        sol = solve_gamma_C(bundle.L, bundle.frame, split, sec, s)
        mom = MomentumSection(bundle.L, bundle.frame, split)
        M = bundle.frame.matrix(s.q)
        u = np.einsum("...a,...aj->...j", s.v_alpha(split),
                      M[..., : split.m, :])
        tvs = mom.taylor(s.q, s.v_alpha(split), [(u, sol.gamma_C)])
        rate = np.stack([tv.c[1] for tv in tvs], axis=-1)
        assert np.max(np.abs(rate - sol.A)) <= 1e-9


def test_make_section_factory(particle):
    L, F, split = particle.L, particle.frame, particle.split
    assert isinstance(make_section("zero", L, F, split), ZeroSection)
    assert isinstance(make_section("momentum", L, F, split), MomentumSection)
    sec = make_section({"kind": "custom", "phi": ["q1*v1"]}, L, F, split)
    assert isinstance(sec, CustomSection)
    with pytest.raises(ValueError):
        make_section({"kind": "momentum_shifted"}, L, F, split)
    sec = make_section({"kind": "momentum_shifted", "k": ["v1"]}, L, F, split)
    assert isinstance(sec, ShiftedMomentumSection)
