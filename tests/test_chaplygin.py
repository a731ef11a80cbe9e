import math

import numpy as np
import pytest

from framedyn.chaplygin import (ChaplyginStructure, carriage_special_length,
                                gamma_k_residual, prop6_scalar,
                                shifted_section, verify_chaplygin)
from framedyn.frames import QuasiState
from framedyn.vakonomic import MomentumSection, consistency_report


class TestVerify:
    def test_all_builtins_pass(self, all_builtins):
        for bundle in all_builtins.values():
            rep = verify_chaplygin(bundle.L, bundle.frame, bundle.split,
                                   bundle.sysd.chaplygin,
                                   [bundle.states(30, seed=41)])
            assert rep["passed"], rep
            for key in ("invariance", "structure_R", "commute", "coadjoint"):
                assert rep[key] <= 1e-12

    def test_wrong_constants_fail(self, carriage):
        wrong = ChaplyginStructure(np.zeros((3, 3, 3)))
        rep = verify_chaplygin(carriage.L, carriage.frame, carriage.split,
                               wrong, [carriage.states(10, seed=42)])
        assert not rep["passed"]
        assert rep["structure_R"] > 0.1
        assert rep["coadjoint"] > 1e-3

    def test_each_momentum_once_per_state(self, carriage, monkeypatch):
        # p_c = vlift E_c(L) is read from the state context, whose lift
        # source makes every momentum in one call per state, not once per
        # (a, b, c) of the coadjoint law.
        import framedyn.nonholonomic as nonholonomic

        calls = []
        lift_function = nonholonomic._lift_function

        def counted(*args):
            fn = lift_function(*args)

            def wrapper(q, u, M):
                calls.append(np.shape(q))
                return fn(q, u, M)
            return wrapper

        monkeypatch.setattr(nonholonomic, "_lift_function", counted)
        S = carriage.states(6, seed=42)
        states = [S] + [QuasiState(S.q[i], S.v[i]) for i in range(2)]
        rep = verify_chaplygin(carriage.L, carriage.frame, carriage.split,
                               carriage.sysd.chaplygin, states)
        assert rep["passed"], rep
        assert calls == [(6, 5), (5,), (5,)]

    def test_brackets_once_per_state(self, carriage, monkeypatch):
        # [X_alpha, E_a] is read from the bracket array that R is solved
        # from: one run of the bracket function per state.
        import framedyn.frames as frames

        calls = []
        bracket_source = frames._bracket_source

        def counted(frame):
            calls.append(frame)
            return bracket_source(frame)

        F, split = carriage.frame, carriage.split
        S = carriage.states(6, seed=42)
        states = [S] + [QuasiState(S.q[i], S.v[i]) for i in range(5)]
        i, j = np.triu_indices(split.n, 1)
        commute = (i < split.m) & (j >= split.m)
        want = max(np.max(np.abs(frames._brackets(F, s.q, F.matrix(s.q))[
            ..., commute])) for s in states)
        monkeypatch.setattr(frames, "_bracket_source", counted)
        rep = verify_chaplygin(carriage.L, F, split, carriage.sysd.chaplygin,
                               states)
        assert len(calls) == len(states) == 6
        assert rep["commute"] == want and rep["passed"], rep


    def test_nan_state_fails_and_is_reported(self):
        # A NaN in one of three batched states reaches the invariance and
        # coadjoint residuals; the verdict fails instead of dropping it.
        from framedyn.systems import builtin, sample_states
        special = builtin("carriage", {"l": carriage_special_length(
            builtin("carriage").params)})
        L, F, split = special.lagrangian(), special.frame(), special.split()
        S = sample_states(special, 3, seed=5)
        clean = verify_chaplygin(L, F, split, special.chaplygin, [S])
        assert clean["passed"], clean
        S = sample_states(special, 3, seed=5)
        S.v[1, 0] = np.nan
        rep = verify_chaplygin(L, F, split, special.chaplygin, [S])
        assert not rep["passed"]
        assert math.isnan(rep["invariance"]) and math.isnan(rep["coadjoint"])


class TestProp6:
    def test_disk_identically_zero(self, disk):
        out = prop6_scalar(disk.L, disk.frame, disk.split,
                           disk.states(100, seed=43))
        assert np.max(np.abs(out)) <= 1e-12

    def test_carriage_proportional_to_K(self, carriage):
        s = carriage.states(100, seed=44)
        out = prop6_scalar(carriage.L, carriage.frame, carriage.split, s)
        K = carriage.sysd.params["K"]
        d = s.v[:, 0] - s.v[:, 1]
        want = np.stack([-K * d * s.v[:, 1], K * d * s.v[:, 0]], axis=-1)
        assert np.max(np.abs(out - want)) <= 1e-12

    def test_carriage_l0_zero(self, carriage_l0):
        out = prop6_scalar(carriage_l0.L, carriage_l0.frame,
                           carriage_l0.split,
                           carriage_l0.states(50, seed=45))
        assert np.max(np.abs(out)) <= 1e-14

    def test_rest_state_zero(self, carriage):
        from framedyn.frames import QuasiState
        s = QuasiState.on_C(np.zeros(5), [0.0, 0.0], carriage.split)
        assert np.max(np.abs(prop6_scalar(
            carriage.L, carriage.frame, carriage.split, s))) == 0.0

    def test_matches_weak_defect_of_momentum_section(self, all_builtins):
        for bundle in all_builtins.values():
            s = bundle.states(50, seed=46)
            p6 = prop6_scalar(bundle.L, bundle.frame, bundle.split, s)
            sec = MomentumSection(bundle.L, bundle.frame, bundle.split)
            rep = consistency_report(bundle.L, bundle.frame, bundle.split,
                                     sec, s)
            assert np.max(np.abs(p6 - rep.weak_defect)) <= 1e-12


class TestShiftedSection:
    def test_zero_shift_is_momentum(self, carriage):
        sec = shifted_section(carriage.L, carriage.frame, carriage.split,
                              ["0", "0", "0"],
                              states=[carriage.states(20, seed=47)])
        assert sec.k_check["conserved"]
        mom = MomentumSection(carriage.L, carriage.frame, carriage.split)
        s = carriage.states(20, seed=48)
        got = sec.values(s.q, s.v_alpha(carriage.split))
        want = mom.values(s.q, s.v_alpha(carriage.split))
        assert np.max(np.abs(got - want)) == 0.0

    def test_builtin_k_conserved_only_at_special_length(self, rng):
        from framedyn.systems import builtin, sample_states
        base = builtin("carriage")
        lstar = carriage_special_length(base.params)
        special = builtin("carriage", {"l": lstar})
        L, F, split = special.lagrangian(), special.frame(), special.split()
        sec = shifted_section(L, F, split, special.builtin_k,
                              states=[sample_states(special, 50, seed=49)])
        assert sec.k_check["max_gamma_k"] <= 1e-9

        generic = builtin("carriage", {"l": 1.0})
        Lg, Fg = generic.lagrangian(), generic.frame()
        sec2 = shifted_section(Lg, Fg, split, generic.builtin_k,
                               states=[sample_states(generic, 50, seed=50)])
        assert sec2.k_check["max_gamma_k"] > 1e-3


    def test_nan_state_is_not_conserved(self):
        # psi1 enters neither L nor the frame, only the shift: a NaN there
        # makes Gamma(k) NaN at one of three states, and it is reported.
        from framedyn.systems import builtin, sample_states
        special = builtin("carriage", {"l": carriage_special_length(
            builtin("carriage").params)})
        L, F, split = special.lagrangian(), special.frame(), special.split()
        k = [special.builtin_k[0] + " + 0*psi1*v1"] + special.builtin_k[1:]
        sec = shifted_section(L, F, split, k)
        S = sample_states(special, 3, seed=5)
        assert gamma_k_residual(L, F, split, sec, [S])["conserved"]
        S.q[1, 0] = np.nan
        rep = gamma_k_residual(L, F, split, sec, [S])
        assert math.isnan(rep["max_gamma_k"]) and not rep["conserved"]


class TestSpecialLength:
    def test_reference_value(self):
        # m0=2, m1=0.5 (m=3), J=1, J2=0.5, R=1, c=1:
        # lstar = sqrt((3+1)(1+1))/2 = sqrt(2)
        p = dict(m0=2.0, m1=0.5, J=1.0, J2=0.5, R=1.0, c=1.0)
        assert carriage_special_length(p) == pytest.approx(math.sqrt(2),
                                                           rel=1e-15)

    def test_J2_to_zero_limit(self):
        # lstar -> sqrt(m J) R^2 / (m0 R^2) = sqrt(m J)/m0
        p = dict(m0=2.0, m1=0.5, J=1.3, J2=1e-12, R=1.7, c=0.9)
        m = p["m0"] + 2 * p["m1"]
        assert carriage_special_length(p) == pytest.approx(
            math.sqrt(m * p["J"]) / p["m0"], rel=1e-6)

    def test_scaling_homogeneity(self):
        p = dict(m0=2.0, m1=0.5, J=1.0, J2=0.5, R=1.0, c=1.0)
        p2 = dict(m0=2.0, m1=0.5, J=4.0, J2=2.0, R=2.0, c=2.0)
        assert carriage_special_length(p2) == pytest.approx(
            2 * carriage_special_length(p), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            carriage_special_length(
                dict(m0=0.0, m1=0.5, J=1.0, J2=0.5, R=1.0, c=1.0))

    def test_weak_pairing_cancels_for_any_length(self, rng):
        # The hatted shift kills the momentum pairing at every l; only the
        # conservation of k selects the special length.
        from framedyn.systems import builtin, sample_states
        from framedyn.vakonomic import ShiftedMomentumSection
        sysd = builtin("carriage", {"l": 0.73})
        L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
        sec = ShiftedMomentumSection(L, F, split, sysd.builtin_k)
        s = sample_states(sysd, 50, seed=51)
        rep = consistency_report(L, F, split, sec, s)
        assert np.max(np.abs(rep.weak_defect)) <= 1e-12
