"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or in the
captured output) and asserts at the stated tolerance.  The two-wheeled
carriage criteria use the sign-corrected closed forms derived and verified
independently in tests/_oracles.py and test_nonholonomic.py.
"""

import math
import time

import numpy as np
from framedyn import (IntegratorConfig, MomentumSection, NonholonomicField,
                      QuasiState, ShiftedMomentumSection,
                      VariationalLagrangian, ZeroSection, builtin,
                      carriage_special_length, change_of_D_basis,
                      consistency_report, el_field, integrate,
                      quasi_velocities, sample_states, solve_gamma_C,
                      velocities_from_quasi, verify_chaplygin)
from framedyn.chaplygin import gamma_k_residual


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_particle_dynamics(particle):
    rng = np.random.default_rng(101)
    q1 = rng.uniform(-2, 2, 1000)
    v = rng.uniform(-2, 2, (1000, 2))
    q = np.zeros((1000, 3))
    q[:, 0] = q1
    s = QuasiState.on_C(q, v, particle.split)
    t0 = time.perf_counter()
    gam = particle.field.gamma(s)
    elapsed = time.perf_counter() - t0
    ref = np.stack(
        [np.zeros(1000), -q1 * v[:, 0] * v[:, 1] / (1 + q1 ** 2)], axis=-1)
    err = float(np.max(np.abs(gam - ref)))
    _report(1, err <= 1e-9 and elapsed < 1.0,
            f"particle Gamma max err {err:.2e} over 1000 points "
            f"in {elapsed:.3f} s")


def test_criterion_02_carriage_dynamics():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(5):
        params = {
            "m0": rng.uniform(0.5, 3.0), "m1": rng.uniform(0.1, 1.0),
            "J": rng.uniform(0.3, 2.0), "J2": rng.uniform(0.2, 1.5),
            "R": rng.uniform(0.5, 2.0), "c": rng.uniform(0.5, 2.0),
            "l": rng.uniform(0.1, 2.0),
        }
        sysd = builtin("carriage", params)
        L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
        field = NonholonomicField(L, F, split)
        q = rng.uniform(-2, 2, (1000, 5))
        q[:, 4] = rng.uniform(-math.pi, math.pi, 1000)
        v = rng.uniform(-2, 2, (1000, 2))
        s = QuasiState.on_C(q, v, split)
        gam = field.gamma(s)
        P, Q, K = sysd.params["P"], sysd.params["Q"], sysd.params["K"]
        d = v[:, 0] - v[:, 1]
        det = P * P - Q * Q
        ref = np.stack([K / det * d * (P * v[:, 1] - Q * v[:, 0]),
                        K / det * d * (Q * v[:, 1] - P * v[:, 0])], axis=-1)
        worst = max(worst, float(np.max(np.abs(gam - ref))))
    _report(2, worst <= 1e-9,
            f"carriage Gamma max err {worst:.2e} over 5 parameter sets x "
            "1000 points (sign-corrected closed forms)")


def test_criterion_03_delta_class_dichotomy(particle, disk):
    sec_d = MomentumSection(disk.L, disk.frame, disk.split)
    s_d = sample_states(disk.sysd, 200, seed=103)
    rep_d = consistency_report(disk.L, disk.frame, disk.split, sec_d, s_d)
    disk_max = float(np.max(np.abs(rep_d.weak_defect)))

    sec_p = MomentumSection(particle.L, particle.frame, particle.split)
    s_p = sample_states(particle.sysd, 200, seed=103)
    rep_p = consistency_report(particle.L, particle.frame, particle.split,
                               sec_p, s_p)
    part_max = float(np.max(np.abs(rep_p.weak_defect)))
    S = s_p.q[:, 0]
    want = np.stack([S * s_p.v[:, 1] ** 2, -S * s_p.v[:, 0] * s_p.v[:, 1]],
                    axis=-1)
    form_err = float(np.max(np.abs(rep_p.weak_defect - want)))
    _report(3, disk_max <= 1e-9 and part_max >= 1e-3 and form_err <= 1e-9,
            f"disk weak defect {disk_max:.2e}, particle {part_max:.2e}, "
            f"closed-form match {form_err:.2e}")


def test_criterion_04_carriage_thresholds():
    checks = []
    for l in (0.0, 0.7, 1.0):
        sysd = builtin("carriage", {"l": l})
        L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
        sec = MomentumSection(L, F, split)
        s = sample_states(sysd, 200, seed=104)
        rep = consistency_report(L, F, split, sec, s)
        K = sysd.params["K"]
        d = s.v[:, 0] - s.v[:, 1]
        want = np.stack([-K * d * s.v[:, 1], K * d * s.v[:, 0]], axis=-1)
        pattern_err = float(np.max(np.abs(rep.weak_defect - want)))
        consistent = float(np.max(np.abs(rep.weak_defect))) <= 1e-9
        checks.append(pattern_err <= 1e-9)
        checks.append(consistent == (l == 0.0))

    base = builtin("carriage")
    lstar = carriage_special_length(base.params)
    special = builtin("carriage", {"l": lstar})
    L, F, split = special.lagrangian(), special.frame(), special.split()
    sec = ShiftedMomentumSection(L, F, split, special.builtin_k)
    s = sample_states(special, 200, seed=104)
    rep = consistency_report(L, F, split, sec, s)
    strong = max(float(np.max(np.abs(rep.weak_defect))),
                 float(np.max(np.abs(rep.strong_defect))),
                 float(np.max(np.abs(rep.tangency_defect))))
    kres = gamma_k_residual(L, F, split, sec, [s])["max_gamma_k"]
    checks.append(strong <= 1e-9)
    checks.append(kres <= 1e-9)
    _report(4, all(checks),
            f"K(v1-v2) pattern and verdicts over l in {{0, 0.7, 1}}; at "
            f"l* = {lstar:.6f} strong defects {strong:.2e}, "
            f"Gamma(k) {kres:.2e}")


def test_criterion_05_variational_lagrangian(particle, disk):
    sec = MomentumSection(disk.L, disk.frame, disk.split)
    VL = VariationalLagrangian(disk.L, disk.frame, disk.split, sec)
    s = sample_states(disk.sysd, 200, seed=105)
    p = velocities_from_quasi(disk.frame, s)
    agree = float(np.max(np.abs(
        el_field(VL, disk.frame, p)[..., : disk.split.m]
        - disk.field.gamma(s))))

    sec_p = MomentumSection(particle.L, particle.frame, particle.split)
    VLp = VariationalLagrangian(particle.L, particle.frame,
                                particle.split, sec_p)
    sp = sample_states(particle.sysd, 200, seed=105)
    pp = velocities_from_quasi(particle.frame, sp)
    differ = float(np.max(np.abs(
        el_field(VLp, particle.frame, pp)[..., : particle.split.m]
        - particle.field.gamma(sp))))
    _report(5, agree <= 1e-9 and differ >= 1e-3,
            f"disk el-field vs Gamma {agree:.2e}; particle deviation "
            f"{differ:.2e}")


def test_criterion_06_oracle_equivalence(all_builtins):
    worst = 0.0
    for name, bundle in all_builtins.items():
        s = sample_states(bundle.sysd, 500, seed=106)
        r1 = bundle.field.residual_fundamental(s)
        r2 = bundle.field.residual_hamel(s)
        r3 = bundle.field.constrained_form_residual(s)
        worst = max(worst,
                    float(np.max(np.abs(r1 - r2))),
                    float(np.max(np.abs(r1 - r3))),
                    float(np.max(np.abs(r2 - r3))))
    _report(6, worst <= 1e-9,
            f"three residual oracles pairwise within {worst:.2e} "
            "on 500 points per system")


def test_criterion_07_chaplygin_identities(all_builtins):
    worst_id = 0.0
    worst_mult = 0.0
    for bundle in all_builtins.values():
        s = sample_states(bundle.sysd, 100, seed=107)
        rep = verify_chaplygin(bundle.L, bundle.frame, bundle.split,
                               bundle.sysd.chaplygin, [s], tol=1e-12)
        worst_id = max(worst_id, rep["invariance"], rep["structure_R"],
                       rep["commute"], rep["coadjoint"])
        lam = bundle.field.multipliers(s)
        gam = bundle.field.gamma(s)
        M = bundle.frame.matrix(s.q)
        u = np.einsum("...a,...aj->...j", s.v_alpha(bundle.split),
                      M[..., : bundle.split.m, :])
        tvs = MomentumSection(bundle.L, bundle.frame, bundle.split).taylor(
            s.q, s.v_alpha(bundle.split), [(u, gam)])
        rate = np.stack([tv.c[1] for tv in tvs], axis=-1)
        worst_mult = max(worst_mult, float(np.max(np.abs(lam - rate))))
    _report(7, worst_id <= 1e-12 and worst_mult <= 1e-9,
            f"identity residuals {worst_id:.2e}, lambda vs Gamma(p) "
            f"{worst_mult:.2e}")


def test_criterion_08_jet_engine():
    from test_exprlang import _builtin_expressions
    from framedyn.exprlang import ExprFunction
    rng = np.random.default_rng(108)
    pool = _builtin_expressions()
    h = 1e-5
    worst_rel = 0.0
    swap_exact = True
    for _ in range(1000):
        src, names, params = pool[rng.integers(len(pool))]
        f = ExprFunction(src, names, tuple(params))
        pv = tuple(params.values())
        x = rng.uniform(-1.5, 1.5, len(names))
        w1 = rng.normal(size=len(names))
        w2 = rng.normal(size=len(names))
        jet = f.taylor(tuple(x), pv, (tuple(w1), tuple(w2)))
        swapped = f.taylor(tuple(x), pv, (tuple(w2), tuple(w1)))
        swap_exact = swap_exact and jet[3] == swapped[3] \
            and jet[1] == swapped[2] and jet[2] == swapped[1]

        def val(y):
            return f.value(tuple(y), pv)

        f0 = abs(val(x))
        fd1 = (val(x + h * w1) - val(x - h * w1)) / (2 * h)
        fd12 = (val(x + h * (w1 + w2)) - val(x + h * (w1 - w2))
                - val(x - h * (w1 - w2)) + val(x - h * (w1 + w2))) / (
            4 * h * h)
        # rel tol 1e-6, with the second difference compared above its own
        # eps/h^2 roundoff floor
        rel1 = abs(jet[1] - fd1) / max(1.0, abs(jet[1]), abs(fd1))
        floor = 4 * 2.3e-16 / (h * h) * max(1.0, f0)
        rel12 = max(0.0, abs(jet[3] - fd12) - floor) / max(
            1.0, abs(jet[3]), abs(fd12))
        worst_rel = max(worst_rel, rel1, rel12)
    _report(8, worst_rel <= 1e-6 and swap_exact,
            f"jet vs central differences rel err {worst_rel:.2e} on 1000 "
            f"samples; d12 swap exact: {swap_exact}")


INITIAL_STATES = {
    "nonholonomic_particle": ([0.2, 0.0, 0.0], [1.0, 0.8]),
    "vertical_disk": ([0.4, 0.0, 0.0, 0.0], [1.0, 0.6]),
    "delta_class": ([0.3, 0.0, 0.0, 0.0], [0.9, 0.7]),
    "carriage": ([0.0, 0.0, 0.0, 0.0, 0.1], [1.0, 0.4]),
}


def test_criterion_09_integrator(all_builtins):
    worst_drift = 0.0
    for name, bundle in all_builtins.items():
        q0, v0 = INITIAL_STATES[name]
        s0 = QuasiState.on_C(np.array(q0), np.array(v0), bundle.split)
        traj = integrate(bundle.field, bundle.frame, bundle.split, s0,
                         IntegratorConfig(step=1e-3, t_span=(0.0, 10.0)))
        E = traj.observables["energy"]
        worst_drift = max(worst_drift, float(np.max(np.abs(E - E[0]))))

    # convergence order on the particle against a tight adaptive reference
    bundle = all_builtins["nonholonomic_particle"]
    s0 = QuasiState.on_C(np.array([0.2, 0.0, 0.0]), np.array([1.0, 1.0]),
                         bundle.split)
    ref = integrate(bundle.field, bundle.frame, bundle.split, s0,
                    IntegratorConfig(method="rk45", rtol=1e-12, atol=1e-13,
                                     t_span=(0.0, 2.0), observables=()))
    errs = []
    hs = (0.05, 0.025, 0.0125)
    for h in hs:
        tr = integrate(bundle.field, bundle.frame, bundle.split, s0,
                       IntegratorConfig(step=h, t_span=(0.0, 2.0),
                                        observables=()))
        errs.append(float(np.max(np.abs(tr.q[-1] - ref.q[-1]))))
    orders = [math.log(errs[i] / errs[i + 1]) / math.log(2)
              for i in range(len(errs) - 1)]
    order_ok = all(3.7 <= o <= 4.3 for o in orders)
    _report(9, worst_drift <= 1e-6 and order_ok,
            f"energy drift {worst_drift:.2e} over [0,10] at h=1e-3; "
            f"observed orders {[round(o, 2) for o in orders]}")


def test_criterion_10_frame_independence(carriage):
    a, b = math.cos(0.6), math.sin(0.6)
    F2 = change_of_D_basis(carriage.frame, carriage.split,
                           [[repr(a), repr(b)], [repr(-b), repr(a)]])
    field2 = NonholonomicField(carriage.L, F2, carriage.split)
    q0 = np.array([0.0, 0.0, 0.0, 0.0, 0.1])
    v0 = np.array([1.0, 0.4])
    s1 = QuasiState.on_C(q0, v0, carriage.split)
    u0 = velocities_from_quasi(carriage.frame, s1)
    w0 = quasi_velocities(F2, u0)
    s2 = QuasiState.on_C(q0, w0.v[:2], carriage.split)
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 5.0), observables=())
    t1 = integrate(carriage.field, carriage.frame, carriage.split, s1, cfg)
    t2 = integrate(field2, F2, carriage.split, s2, cfg)
    diff = float(np.max(np.abs(t1.q - t2.q)))
    _report(10, diff <= 1e-6,
            f"q-trajectories under rotated D-basis differ by {diff:.2e} "
            "over [0,5]")


def test_criterion_11_zero_section(all_builtins):
    worst = 0.0
    for bundle in all_builtins.values():
        s = sample_states(bundle.sysd, 100, seed=111)
        sol = solve_gamma_C(bundle.L, bundle.frame, bundle.split,
                            ZeroSection(bundle.frame, bundle.split), s)
        worst = max(worst,
                    float(np.max(np.abs(sol.gamma_C - bundle.field.gamma(s)))))
    _report(11, worst <= 1e-12,
            f"zero-section Gamma_C vs Gamma within {worst:.2e}")
