import ast
import re
from functools import cached_property

import numpy as np
import pytest

from framedyn.frames import (ConstraintSplit, ConstraintViolationError,
                             Frame, QuasiState)
from framedyn.lagrangian import Lagrangian, regularity
from framedyn.nonholonomic import (NonholonomicField, RegularityError,
                                   _field_source)

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


@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_exactly_singular_g_D_is_a_regularity_error(route):
    # g_D = q1^2 vanishes at q1 = 0.  That state, alone or in a batch,
    # raises RegularityError on regular_D with det 0.0 there from every
    # call that solves the system, where a batch raised numpy's LinAlgError.
    from framedyn.vakonomic import ZeroSection, consistency_report

    coords, vels = ["q1", "q2"], ["u1", "u2"]
    L = Lagrangian("q1*q1*u1*u1/2 + u2*u2/2", coords, vels)
    F = Frame([["1", "0"], ["0", "1"]], coords)
    split = ConstraintSplit(2, 1)
    field = NonholonomicField(L, F, split)
    q = np.array([[0.0, 0.5], [1.0, 0.5]])
    v = np.array([[1.0, 0.0], [0.5, 0.0]])
    s = QuasiState(q, v) if route == "batched" else QuasiState(q[0], v[0])
    for call in (field.gamma, field.rate, field.multipliers,
                 lambda s: consistency_report(L, F, split,
                                              ZeroSection(F, split), s)):
        with pytest.raises(RegularityError) as ei:
            call(QuasiState(s.q.copy(), s.v.copy()))
        assert ei.value.condition == "regular_D"
        assert np.array_equal(ei.value.det,
                              [0.0, 1.0] if route == "batched" else 0.0)


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


# -- the field function against the piecewise assembly ----------------------


def _gate_systems():
    """The four built-ins, the carriage with D rotated by theta and the
    carriage at the special length l*: (name, sysd, L, frame, split)."""
    from framedyn import BUILTIN_NAMES, builtin, change_of_D_basis
    from framedyn.chaplygin import carriage_special_length

    out = []
    for name in BUILTIN_NAMES:
        sysd = builtin(name)
        out.append((name, sysd, sysd.lagrangian(), sysd.frame(),
                    sysd.split()))
    sysd = builtin("carriage")
    rotated = change_of_D_basis(
        sysd.frame(), sysd.split(),
        [["cos(theta)", "-sin(theta)"], ["sin(theta)", "cos(theta)"]])
    out.append(("carriage_rotated", sysd, sysd.lagrangian(), rotated,
                sysd.split()))
    lstar = builtin("carriage", {"l": carriage_special_length(sysd.params)})
    out.append(("carriage_lstar", lstar, lstar.lagrangian(), lstar.frame(),
                lstar.split()))
    return out


GATE_SYSTEMS = _gate_systems()


def _same(got, want):
    """Equal under == (so only the sign of an exact zero may differ), the
    same shape, and finite."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and bool(np.all(np.isfinite(got))))


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS,
                         ids=[g[0] for g in GATE_SYSTEMS])
def test_field_function_equals_piecewise_assembly(name, sysd, L, frame,
                                                  split):
    from framedyn import sample_states

    from _oracles import StateContextReference

    field = NonholonomicField(L, frame, split)
    m = split.m
    S = sample_states(sysd, 40, seed=17)
    states = [S] + [QuasiState(S.q[i], S.v[i]) for i in range(40)]
    for s in states:
        ref = StateContextReference(L, frame, split, s)
        ref.solve(field.det_tol)
        ctx = field._solve(s)
        pieces = {"M": (ctx.M, ref.M), "u": (ctx.u, ref.u),
                  "D": (ctx.D[..., :m, :], ref.D[..., :m, :]),
                  "g_D": (ctx.g, ref.g), "rhs": (ctx.rhs, ref.rhs),
                  "Gamma": (ctx.gamma, ref.gamma),
                  "lambda": (ctx.multipliers(), ref.multipliers())}
        u, gamma = field.rate(s)
        pieces["rate"] = (np.concatenate([u, gamma], axis=-1),
                          np.concatenate([ref.u, ref.gamma], axis=-1))
        for piece, (got, want) in pieces.items():
            assert _same(got, want), (name, piece, s.q.shape)


def _raised(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the class is compared
        return exc
    raise AssertionError("no exception raised")


def _error_cases():
    """(label, L, frame, split, state) whose evaluation must fail."""
    from framedyn.frames import ConstraintSplit

    coords = ["q1", "q2"]
    vels = ["u1", "u2"]
    identity = Frame([["1", "0"], ["0", "1"]], coords)
    split = ConstraintSplit(2, 1)
    regular = Lagrangian("(u1*u1 + u2*u2)/2", coords, vels)
    q = np.array([[0.0, 0.5], [-1.0, 0.5]])
    v = np.array([[1.0, 0.0], [0.5, 0.0]])
    return [
        ("singular_frame", regular,
         Frame([["q1", "0"], ["0", "1"]], coords), split, q, v),
        ("singular_g_D", Lagrangian("3e-11*u1*u1/2 + u2*u2/2", coords, vels),
         identity, split, q, v),
        ("domain_fault", Lagrangian("(u1*u1 + u2*u2)/2 + log(q1)", coords,
                                    vels), identity, split, q, v),
        # a NaN frame fails its determinant check on both routes, not as a
        # numpy fault of the batched kernels' error state
        ("nan_frame", regular, Frame([["cos(q1)", "0"], ["0", "1"]], coords),
         split, np.array([[np.nan, 0.5], [0.2, 0.5]]), v),
        # the frame check runs before any line of L: a singular frame is
        # reported, not the domain fault of log(q1) at the same state
        ("singular_frame_before_domain_fault",
         Lagrangian("(u1*u1 + u2*u2)/2 + log(q1)", coords, vels),
         Frame([["q1", "0"], ["0", "1"]], coords), split, q, v),
    ]


ERROR_CASES = _error_cases()


@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in det:RuntimeWarning")
@pytest.mark.parametrize("label,L,frame,split,q,v", ERROR_CASES,
                         ids=[c[0] for c in ERROR_CASES])
@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_field_function_errors_match_piecewise_assembly(label, L, frame,
                                                        split, q, v, route):
    from _oracles import StateContextReference

    field = NonholonomicField(L, frame, split)
    s = QuasiState(q, v) if route == "batched" else QuasiState(q[0], v[0])
    want = _raised(lambda: StateContextReference(L, frame, split, s).solve(
        field.det_tol))
    for call in (field.rate, field.gamma, field.multipliers,
                 field.solve_report):
        got = _raised(lambda: call(s))
        assert type(got) is type(want), (label, route, got)
        assert str(got) == str(want), (label, route)
        if isinstance(want, RegularityError):
            assert got.condition == want.condition == "regular_D"
            assert np.array_equal(got.det, want.det)


def test_non_finite_field_in_integrate_matches_piecewise_assembly(particle):
    # At |v| = 1e160 the right side overflows and Gamma is NaN: the run
    # stops naming dv1/dt, with the field and with the piecewise assembly
    # as the provider alike.
    from framedyn.integrator import (IntegrationError, IntegratorConfig,
                                     integrate)

    from _oracles import StateContextReference

    L, frame, split = particle.L, particle.frame, particle.split

    def reference(q, v):
        ref = StateContextReference(L, frame, split,
                                    QuasiState.on_C(q, v, split))
        return ref.solve(particle.field.det_tol)

    s0 = QuasiState.on_C(np.array([0.1, 0.2, 0.3]), [1e160, 1e160], split)
    cfg = IntegratorConfig(method="rk4", t_span=(0.0, 0.01), observables=())
    messages = []
    with np.errstate(all="ignore"):
        for provider in (particle.field, reference):
            with pytest.raises(IntegrationError) as ei:
                integrate(provider, frame, split, s0, cfg)
            messages.append(str(ei.value))
    assert "non-finite dv1/dt = nan" in messages[0]
    assert messages[0] == messages[1]
    # the batched route at the same state fails inside a kernel, alike; the
    # generated route forms no product with the frame's constant entries
    # (docs/exprlang.md, "Structural zeros"), so its first fault is a
    # later operation than the piecewise assembly's 0 * inf
    S = QuasiState(s0.q[None], s0.v[None])
    with np.errstate(all="ignore"):
        got = _raised(lambda: particle.field.gamma(S))
        want = _raised(lambda: reference(S.q, S.v[:, :split.m]))
    assert type(got) is type(want)
    assert str(got) == "invalid value encountered in subtract"
    assert str(want) == "invalid value encountered in multiply"


@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_rate_and_solve_report_reject_off_C_states(carriage, route):
    # v^3 = 3 lies off C; rate and solve_report used to drop it silently.
    q, v = np.zeros(5), np.array([1.0, 2.0, 3.0, 0.0, 0.0])
    s = QuasiState(q, v) if route == "scalar" else QuasiState(q[None],
                                                              v[None])
    for call in (carriage.field.rate, carriage.field.solve_report,
                 carriage.field.gamma):
        with pytest.raises(ConstraintViolationError,
                           match=r"max \|v\^a\| = 3\.000e\+00"):
            call(s)


def test_field_evaluation_runs_no_per_kernel_dispatch(carriage, monkeypatch):
    # A scalar rate and a batched gamma are one Python call of the field
    # function plus arithmetic: no per-expression kernel, the Lagrangian's
    # jets or the frame's derivative entry is reached, and the runner sees
    # the field source alone (the scalar route calls its math binding
    # directly).
    import framedyn.exprlang as exprlang
    import framedyn.frames as frames
    import framedyn.nonholonomic as nonholonomic

    field = carriage.field
    S = carriage.states(30, seed=23)
    s1 = QuasiState(S.q[0], S.v[0])
    want_rate = field.rate(s1)
    want_gamma = field.gamma(S)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-kernel dispatch reached")

    ran = []
    real_run = nonholonomic.run

    def run(fn, *args):
        ran.append(fn)
        return real_run(fn, *args)

    monkeypatch.setattr(nonholonomic, "run", run)
    monkeypatch.setattr(exprlang, "run_kernel", forbidden)
    monkeypatch.setattr(exprlang.Kernels, "__call__", forbidden)
    monkeypatch.setattr(frames, "run", forbidden)
    monkeypatch.setattr(Lagrangian, "taylor", forbidden)
    monkeypatch.setattr(Frame, "derivative", forbidden)
    # fresh copies, so the calls evaluate instead of reading the memo
    got_u, got_gamma = field.rate(QuasiState(s1.q.copy(), s1.v.copy()))
    assert np.array_equal(got_u, want_rate[0])
    assert np.array_equal(got_gamma, want_rate[1])
    assert np.array_equal(field.gamma(QuasiState(S.q.copy(), S.v.copy())),
                          want_gamma)
    source = _field_source(carriage.L, carriage.frame, carriage.split)
    assert ran == [source]


def test_generated_field_function_is_shared_by_structure():
    from framedyn import builtin

    def kernel(sysd, frame=None):
        return _field_source(sysd.lagrangian(), frame or sysd.frame(),
                             sysd.split())

    first = kernel(builtin("carriage"))
    assert kernel(builtin("carriage")) is first
    assert kernel(builtin("carriage", {"l": 0.0})) is first
    rotated = {g[0]: g for g in GATE_SYSTEMS}["carriage_rotated"]
    assert _field_source(*rotated[2:]) is not first


def _generated_sources(L, frame, split):
    """The generated functions of a system, the field's first: the field,
    the lifts, the structure, the chart jets, the momentum partials along
    0, 1 and 2 directions and epsilon for the indices of the fundamental
    residual and for those of the multipliers."""
    from framedyn.frames import _structure_source
    from framedyn.nonholonomic import (_chart_source, _epsilon_source,
                                       _lift_source)
    from framedyn.quasichart import _composite, _fibre_source

    fn = _composite(L, frame)[0]
    return ([_field_source(L, frame, split), _lift_source(L, frame, split),
             _structure_source(frame),
             _chart_source(fn, split.m, frame.constants)]
            + [_fibre_source(fn, frame.n, k) for k in range(3)]
            + [_epsilon_source(L, tuple(indices), frame.constants)
               for indices in (range(split.m), range(split.m, split.n))])


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS,
                         ids=[g[0] for g in GATE_SYSTEMS])
def test_generated_field_source_emits_each_line_once(name, sysd, L, frame,
                                                     split):
    # The kernels are inlined with text numbering alone: a line that
    # several jets need (the values of L's subtrees at (q, u), the frame
    # values, the slots no probe reaches) is emitted once in each generated
    # source, the field's and those of the constraint side.  A del line
    # assigns nothing.  Dead lines are left out (Tape.live), so a small
    # source such as the particle's brackets has few lines: the floor that
    # keeps the test from passing on empty sources is on the field and on
    # the system's total.
    sources = _generated_sources(L, frame, split)
    total = 0
    for source in sources:
        right = [line.split(" = ", 1)[1]
                 for line in source.__source__.splitlines() if " = " in line]
        assert right, (name, source.__name__)
        assert len(right) == len(set(right)), (name, source.__name__)
        total += len(right)
        if source is sources[0]:
            assert len(right) > 20, name
    assert total > 10 * len(sources), name


def _unread_temporaries(source):
    """The temporaries (t<i>) that a generated source assigns and that no
    later line reads, the return included."""
    assigned, read = {}, {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                if re.fullmatch(r"t\d+", node.id):
                    assigned[node.id] = node.lineno
            elif isinstance(node.ctx, ast.Load):
                read[node.id] = max(read.get(node.id, 0), node.lineno)
    return sorted(x for x, line in assigned.items()
                  if read.get(x, 0) <= line)


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS,
                         ids=[g[0] for g in GATE_SYSTEMS])
def test_generated_sources_have_no_dead_line(name, sysd, L, frame, split):
    # A source emits only the lines its outputs read: every temporary it
    # assigns is read by a later line or returned.
    for source in _generated_sources(L, frame, split):
        assert _unread_temporaries(source.__source__) == [], (
            name, source.__code__.co_filename)


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS,
                         ids=[g[0] for g in GATE_SYSTEMS])
def test_velocities_from_quasi_is_the_context_u(name, sysd, L, frame, split):
    # u = v^alpha X_alpha is summed in one order everywhere, so on C the
    # public inverse chart map gives the state context's u bit for bit.
    from framedyn import sample_states
    from framedyn.frames import velocities_from_quasi

    field = NonholonomicField(L, frame, split)
    S = sample_states(sysd, 40, seed=23)
    for s in [S] + [QuasiState(S.q[i], S.v[i]) for i in range(10)]:
        u = velocities_from_quasi(frame, s).u
        assert u.shape == s.q.shape
        assert np.array_equal(u, field._context(s).u), name


def test_scalar_rate_runs_no_lapack_and_no_frame_check(all_builtins,
                                                       monkeypatch):
    # At a scalar state the generated function unrolls the frame
    # determinant and the solve of g_D Gamma = rhs: neither the LAPACK det
    # nor Frame.check_matrix nor solve_and_det is reached, and no kernel is
    # compiled for a system whose field function is built.
    import framedyn.exprlang as exprlang
    import framedyn.linsolve as linsolve
    from framedyn.frames import Frame as FrameClass

    cases = []
    for b in all_builtins.values():
        S = b.states(5, seed=41)
        states = [QuasiState(S.q[i], S.v[i]) for i in range(5)]
        cases.append((b.field, states, [b.field.rate(_fresh(s))
                                        for s in states]))
    coords, vels = ["q1", "q2"], ["u1", "u2"]
    fresh_system = NonholonomicField(
        Lagrangian("(u1*u1 + 2.5*u2*u2)/2 + sin(q1)*u1*u2", coords, vels),
        Frame([["1", "q1*q2"], ["0", "1"]], coords),
        ConstraintSplit(2, 1))

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK, frame check or kernel compile reached")

    monkeypatch.setattr(FrameClass, "check_matrix", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(linsolve, "solve_and_det", forbidden)
    monkeypatch.setattr(exprlang, "compile_taylor", forbidden)
    for field, states, want in cases:
        for s, (u, gamma) in zip(states, want):
            got_u, got_gamma = field.rate(_fresh(s))
            assert np.array_equal(got_u, u)
            assert np.array_equal(got_gamma, gamma)
    u, gamma = fresh_system.rate(QuasiState(np.array([0.3, -0.7]),
                                            np.array([1.2, 0.0])))
    assert np.all(np.isfinite(gamma)) and gamma.shape == (1,)


def _knife_edge():
    """The knife edge, whose frame matrix has a dense 2 x 2 core, with
    states drawn from its box."""
    coords = ["x", "y", "th"]
    params = {"mass": 1.5, "inertia": 0.7}
    L = Lagrangian("(mass/2)*(ux*ux + uy*uy) + (inertia/2)*uth*uth",
                   coords, ["ux", "uy", "uth"], params)
    frame = Frame([["cos(th)", "sin(th)", "0"], ["0", "0", "1"],
                   ["-sin(th)", "cos(th)", "0"]], coords, params)
    split = ConstraintSplit(3, 2)
    rng = np.random.default_rng(29)
    S = QuasiState.on_C(rng.uniform(-2.0, 2.0, (20, 3)),
                        rng.uniform(-2.0, 2.0, (20, 2)), split)
    return "knife_edge", None, L, frame, split, S


def _route_systems():
    from framedyn import sample_states

    return ([(name, sysd, L, frame, split, sample_states(sysd, 20, seed=5))
             for name, sysd, L, frame, split in GATE_SYSTEMS]
            + [_knife_edge()])


@pytest.mark.parametrize("name,sysd,L,frame,split,S", _route_systems(),
                         ids=[g[0] for g in GATE_SYSTEMS] + ["knife_edge"])
def test_batched_solves_equal_single_states(name, sysd, L, frame, split, S):
    # The eliminations run on columns at a batch and on floats at a single
    # state with the same operations: Gamma, lambda, Gamma_C, det g_D and R
    # of the batch are == to those of each state alone.
    from framedyn.vakonomic import ShiftedMomentumSection, solve_gamma_C

    section = (_shifted(sysd, L, frame, split) if sysd
               else ShiftedMomentumSection(L, frame, split, ["v1"]))

    def outputs(s):
        field = NonholonomicField(L, frame, split)
        ctx = field._solve(s)
        return {"gamma": field.gamma(s), "lambda": field.multipliers(s),
                "gamma_C": solve_gamma_C(L, frame, split, section,
                                         s).gamma_C,
                "det_D": ctx.regularity_report(1e-10).det_D, "R": ctx.R}

    batched = outputs(S)
    for i in range(S.q.shape[0]):
        single = outputs(QuasiState(S.q[i].copy(), S.v[i].copy()))
        for key, value in single.items():
            assert np.array_equal(batched[key][i], value), (name, key, i)


def test_batched_state_context_runs_no_lapack(all_builtins, monkeypatch):
    # A batched state of each built-in is checked, solved, tested for
    # regularity and given R without LAPACK's solve or det: the frame gate,
    # the peeled solve and one factorisation of g_D run instead.
    from framedyn.chaplygin import prop6_scalar
    from framedyn.vakonomic import (MomentumSection, ZeroSection,
                                    consistency_report, solve_gamma_C)

    def forbidden(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    monkeypatch.setattr(np.linalg, "solve", forbidden)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    for b in all_builtins.values():
        L, F, split = b.L, b.frame, b.split
        s = b.states(30, seed=43)
        b.field.gamma(s)
        b.field.multipliers(s)
        for section in (ZeroSection(F, split), MomentumSection(L, F, split),
                        _shifted(b.sysd, L, F, split)):
            consistency_report(L, F, split, section, s)
            solve_gamma_C(L, F, split, section, s)
        prop6_scalar(L, F, split, s)


# -- one context per state ---------------------------------------------------


def _fresh(s):
    """A copy of s with an empty memo: the oracle of the memo tests."""
    return QuasiState(s.q.copy(), s.v.copy())


def _shifted(sysd, L, frame, split):
    """A shifted momentum section: the built-in shifts where the system has
    them, v1 for every constraint index otherwise."""
    from framedyn.vakonomic import ShiftedMomentumSection

    k = sysd.builtin_k or ["v1"] * split.n_constraints
    return ShiftedMomentumSection(L, frame, split, k)


def _state_calls(sysd, L, frame, split):
    """name -> s -> list of arrays, for every public call that reads the
    state context."""
    from framedyn.chaplygin import gamma_k_residual, prop6_scalar
    from framedyn.vakonomic import (consistency_report, gamma_bar_tangency,
                                    solve_gamma_C)

    field = NonholonomicField(L, frame, split)
    section = _shifted(sysd, L, frame, split)
    args = (L, frame, split)

    def report(s):
        r = consistency_report(*args, section, s)
        return [r.weak_defect, r.strong_defect, r.tangency_defect]

    def vakonomic(s):
        r = solve_gamma_C(*args, section, s)
        return [r.gamma_C, r.A, r.Lambda]

    return {
        "gamma": lambda s: [field.gamma(s)],
        "multipliers": lambda s: [field.multipliers(s)],
        "consistency_report": report,
        "solve_gamma_C": vakonomic,
        "prop6_scalar": lambda s: [prop6_scalar(*args, s)],
        "gamma_bar_tangency": lambda s: [
            gamma_bar_tangency(*args, section, s)],
        "gamma_k_residual": lambda s: [np.array(gamma_k_residual(
            *args, section, [s])["max_gamma_k"])],
        "residual_fundamental": lambda s: [field.residual_fundamental(s)],
        "residual_hamel": lambda s: [field.residual_hamel(s)],
        "constrained_form_residual": lambda s: [
            field.constrained_form_residual(s)],
    }


@pytest.mark.parametrize("route", ["scalar", "batched"])
@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS,
                         ids=[g[0] for g in GATE_SYSTEMS])
def test_call_order_does_not_change_values(name, sysd, L, frame, split,
                                           route):
    # Every call on a state reads one memoised context, whatever ran there
    # before; the oracle is the same call on a fresh copy.  This also pins
    # that the leading rows of the context's D stay the same when the
    # trailing rows a >= m are evaluated and D is replaced.
    from framedyn import sample_states

    calls = _state_calls(sysd, L, frame, split)
    names = list(calls)
    orders = [names, names[::-1],
              [names[i] for i in np.random.default_rng(7).permutation(
                  len(names))]]
    S = sample_states(sysd, 40, seed=19)
    states = [S] if route == "batched" else [
        QuasiState(S.q[i], S.v[i]) for i in range(40)]
    for s in states:
        want = {key: fn(_fresh(s)) for key, fn in calls.items()}
        for order in orders:
            shared = _fresh(s)
            for key in order:
                got = calls[key](shared)
                assert len(got) == len(want[key])
                for g, w in zip(got, want[key]):
                    assert _same(g, w), (name, route, key, order.index(key))


@pytest.mark.parametrize("route", ["scalar", "batched"])
@pytest.mark.parametrize("edit", ["q_in_place", "v_in_place", "signed_zero",
                                  "q_reassigned", "v_reassigned"])
def test_edited_state_is_evaluated_again(carriage, edit, route):
    # The memo is stamped with the bytes and shape of q and v and the ids of
    # both arrays: any edit after a call misses it, and the next call equals
    # one on a fresh state.  v_reassigned gives s an equal copy of v and then
    # edits the old array, which a context reads R.v from on first use.
    field = carriage.field
    q = np.array([[0.0, 0.3, -0.2, 0.5, 0.1], [0.4, -0.6, 0.2, 0.0, -0.3]])
    v = np.array([[0.7, -1.1, 0.0, 0.0, 0.0], [0.2, 0.5, 0.0, 0.0, 0.0]])
    s = QuasiState(q, v) if route == "batched" else QuasiState(q[0], v[0])
    field.gamma(s)
    before = field._context(s)
    if edit == "q_in_place":
        s.q[..., 1] += 0.5
    elif edit == "v_in_place":
        s.v[..., 0] += 0.5
    elif edit == "signed_zero":
        s.q[..., 0] = -s.q[..., 0] if route == "scalar" else [-0.0, 0.4]
    elif edit == "q_reassigned":
        s.q = s.q + 0.25
    else:
        old, s.v = s.v, s.v.copy()
        old[..., 0] += 0.5
    got = [field.gamma(s), *field.rate(s), field.multipliers(s),
           field.residual_hamel(s)]
    assert field._context(s) is not before
    fresh = _fresh(s)
    want = [field.gamma(fresh), *field.rate(fresh), field.multipliers(fresh),
            field.residual_hamel(fresh)]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes(), edit


@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_results_do_not_alias_the_memo(carriage, route):
    # Mutating what a call returned leaves every later call unchanged.
    calls = _state_calls(carriage.sysd, carriage.L, carriage.frame,
                         carriage.split)
    field = carriage.field
    calls["rate"] = lambda s: list(field.rate(s))
    calls["solve_report"] = lambda s: [field.solve_report(s)["gamma"]]
    S = carriage.states(6, seed=29)
    s = S if route == "batched" else QuasiState(S.q[0], S.v[0])
    want = {key: [a.copy() for a in fn(s)] for key, fn in calls.items()}
    for fn in calls.values():
        for a in fn(s):
            a += 1.0
    for key, fn in calls.items():
        for g, w in zip(fn(s), want[key]):
            assert g.tobytes() == w.tobytes(), key
    assert len(vars(s)["_contexts"]) == 1


def test_sweep_sequence_evaluates_each_state_once(carriage, monkeypatch):
    # The calls of one benchmark sweep op on one batched state run the field
    # function once, build R once, contract it with v once, and run the
    # vakonomic solve once; every other product with R.v (the residuals'
    # corrections, the phi R v products of the solve, the defects and
    # prop6_scalar) is a slice of that one contraction.  They reach
    # no frame derivative kernel (R and the trailing lifts come from
    # generated sources) and no jet of L on its own: the mixed jets along
    # (0, X_a) and (u, w) of lambda, Lambda and the fundamental residual
    # come from one run of the epsilon source each, over the whole index
    # range, and the chart jets of each chart-form residual from one run
    # of the chart source.  The momenta run the section source twice:
    # along (u, Gamma) for the section's values and its rate, and along
    # (u, Gamma_C); no fibre source is fetched and no TaylorValue product
    # is formed.
    import framedyn.frames as frames
    import framedyn.nonholonomic as nonholonomic
    import framedyn.quasichart as quasichart
    from framedyn.chaplygin import gamma_k_residual, prop6_scalar
    from framedyn.jets import TaylorValue
    from framedyn.linsolve import LU
    from framedyn.vakonomic import consistency_report, solve_gamma_C

    counts = dict.fromkeys(("field", "structure", "R", "einsum",
                            "factorise", "lu_solve", "derivative", "taylor",
                            "fibre", "section", "mul"), 0)
    runs = {"chart": [], "epsilon": []}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_source(key):
        # the generated source _{key}_source, each run on either binding
        # recorded in runs[key] with the arguments it was made for
        source = getattr(nonholonomic, f"_{key}_source")

        def make(*args):
            fn = source(*args)

            def scalar(*a):
                runs[key].append(args)
                return fn(*a)

            def batched(*a):
                runs[key].append(args)
                return fn.batched(*a)

            scalar.batched = batched
            return scalar

        monkeypatch.setattr(nonholonomic, f"_{key}_source", make)

    field_function = nonholonomic._field_function
    monkeypatch.setattr(nonholonomic, "_field_function",
                        lambda *a: counted("field", field_function(*a)))
    structure_source = frames._structure_source

    def counted_structure(frame):
        # each run of the structure source on either binding
        fn = structure_source(frame)
        scalar = counted("structure", fn)
        scalar.batched = counted("structure", fn.batched)
        scalar.entries = fn.entries
        return scalar

    monkeypatch.setattr(frames, "_structure_source", counted_structure)
    dense_R = cached_property(counted("R", frames.Structure.R.func))
    dense_R.__set_name__(frames.Structure, "R")
    monkeypatch.setattr(frames.Structure, "R", dense_R)
    monkeypatch.setattr(np, "einsum", counted("einsum", np.einsum))
    monkeypatch.setattr(LU, "of", classmethod(counted("factorise",
                                                      LU.of.__func__)))
    monkeypatch.setattr(LU, "solve", counted("lu_solve", LU.solve))
    monkeypatch.setattr(Frame, "derivative",
                        counted("derivative", Frame.derivative))
    monkeypatch.setattr(Lagrangian, "taylor",
                        counted("taylor", Lagrangian.taylor))
    monkeypatch.setattr(quasichart, "_fibre_source",
                        counted("fibre", quasichart._fibre_source))
    section_source = quasichart._section_source

    def counted_section(*args):
        # each run of the section source on either binding
        fn = section_source(*args)
        scalar = counted("section", fn)
        scalar.batched = counted("section", fn.batched)
        return scalar

    monkeypatch.setattr(quasichart, "_section_source", counted_section)
    monkeypatch.setattr(TaylorValue, "__mul__",
                        counted("mul", TaylorValue.__mul__))
    counted_source("chart")
    counted_source("epsilon")
    L, F, split = carriage.L, carriage.frame, carriage.split
    section = _shifted(carriage.sysd, L, F, split)
    field = NonholonomicField(L, F, split)  # its field function is counted
    s = carriage.states(50, seed=31)
    gamma = field.gamma(s)
    field.multipliers(s)
    consistency_report(L, F, split, section, s)
    solve_gamma_C(L, F, split, section, s)
    # g_D is factorised once; its factors solve for Gamma, the Schur
    # complement of the regularity tests and Gamma_C
    assert (counts["factorise"], counts["lu_solve"]) == (1, 3)
    prop6_scalar(L, F, split, s)
    gamma_k_residual(L, F, split, section, [s])
    n, m = split.n, split.m
    # one epsilon run over the constraint indices for lambda, one for Lambda
    assert [a for _, a, _ in runs["epsilon"]] == [tuple(range(m, n))] * 2
    for oracle, chart, epsilon in (("residual_fundamental", 0, 1),
                                   ("residual_hamel", 1, 0),
                                   ("constrained_form_residual", 1, 0)):
        before = len(runs["chart"]), len(runs["epsilon"])
        getattr(field, oracle)(s, gamma=gamma)
        assert (len(runs["chart"]) - before[0],
                len(runs["epsilon"]) - before[1]) == (chart, epsilon), oracle
    assert runs["epsilon"][2][1] == tuple(range(m))
    assert [args[1] for args in runs["chart"]] == [m, m]
    # one run of the structure source gives R v, and no dense R is built;
    # einsum: the solve's two phi R v products, the one of prop6_scalar,
    # and u = w^alpha X_alpha in the fibre of lambda, Lambda and the
    # fundamental residual
    assert counts == {"field": 1, "structure": 1, "R": 0, "einsum": 6,
                      "factorise": 1, "lu_solve": 3, "derivative": 0,
                      "taylor": 0, "fibre": 0, "section": 2, "mul": 0}


@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_residual_fundamental_reads_only_the_leading_fields(route):
    # At q1 = 0 the derivative of the trailing field (sqrt(q1), 0, 1) is
    # singular and those of the leading fields are not.  Gamma and the
    # fundamental residual need only the leading fields: the residual
    # equals the piecewise route's [0, 0], where it raised when it read
    # clift and the correction from the lift source, which differentiates
    # every field.  The multipliers need the trailing field and raise.
    import framedyn.frames as frames
    from framedyn.exprlang import EvalDomainError

    from _oracles import StateContextReference

    coords = ["q1", "q2", "q3"]
    frame = Frame([["1", "0", "0"], ["0", "1", "0"], ["sqrt(q1)", "0", "1"]],
                  coords)
    L = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2 + q2*u1", coords,
                   ["u1", "u2", "u3"])
    split = ConstraintSplit(3, 2)
    q, v = np.array([0.0, 0.3, -0.2]), np.array([0.7, -0.4, 0.0])
    s = QuasiState(q, v) if route == "scalar" else QuasiState(q[None],
                                                              v[None])
    field = NonholonomicField(L, frame, split)
    assert np.array_equal(field.gamma(s), np.reshape([0.4, 0.7], s.v[
        ..., :2].shape))
    ref = StateContextReference(L, frame, split, s)
    gamma = ref.solve(field.det_tol)
    w = ref.h + frames.base_velocity(ref.M, gamma)
    want = np.stack([ref.dvlift(a, w) - ref.clift(a) for a in range(2)],
                    axis=-1)
    got = field.residual_fundamental(s)
    assert _same(got, want) and np.all(want == 0.0)
    with pytest.raises(EvalDomainError):
        field.multipliers(s)


@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in det:RuntimeWarning")
@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_memo_keeps_error_semantics(route):
    from framedyn.frames import SingularFrameError
    from framedyn.vakonomic import MomentumSection, solve_gamma_C

    cases = {c[0]: c[1:] for c in ERROR_CASES}

    def state(q, v):
        return QuasiState(q, v) if route == "batched" else QuasiState(q[0],
                                                                      v[0])

    # a singular frame is never memoised: every call raises the same error
    L, frame, split, q, v = cases["singular_frame"]
    field = NonholonomicField(L, frame, split)
    s = state(q, v)
    errors = [_raised(lambda: call(s)) for call in (
        field.gamma, field.gamma, field.rate, field.multipliers)]
    assert all(type(e) is SingularFrameError for e in errors)
    assert len({str(e) for e in errors}) == 1
    assert not vars(s).get("_contexts")
    # a singular g_D raises regular_D with the same det at every call
    L, frame, split, q, v = cases["singular_g_D"]
    field = NonholonomicField(L, frame, split)
    s = state(q, v)
    first, second = (_raised(lambda: field.gamma(s)) for _ in range(2))
    for e in (first, second):
        assert type(e) is RegularityError and e.condition == "regular_D"
    assert str(first) == str(second)
    assert np.array_equal(first.det, second.det)
    # det g_D = 3e-11: the state passes at det_tol = 1e-12 and fails at the
    # default 1e-10, in either order, on the field and the vakonomic solve
    loose = NonholonomicField(L, frame, split, det_tol=1e-12)
    section = MomentumSection(L, frame, split)
    for tight_first in (False, True):
        s = state(q, v)
        tight_calls = [lambda: field.gamma(s),
                       lambda: solve_gamma_C(L, frame, split, section, s)]
        loose_calls = [lambda: loose.gamma(s),
                       lambda: solve_gamma_C(L, frame, split, section, s,
                                             det_tol=1e-12).gamma_C]
        for _ in range(2):
            if tight_first:
                for call in tight_calls:
                    assert type(_raised(call)) is RegularityError
            got = [call() for call in loose_calls]
            fresh = _fresh(s)
            want = [loose.gamma(fresh), solve_gamma_C(
                L, frame, split, section, fresh, det_tol=1e-12).gamma_C]
            for g, w in zip(got, want):
                assert _same(g, w)
            for call in tight_calls:
                assert type(_raised(call)) is RegularityError


def test_copies_and_pickles_start_without_contexts(carriage):
    import copy
    import pickle

    s = carriage.states(3, seed=37)
    want = carriage.field.gamma(s)
    for other in (copy.copy(s), copy.deepcopy(s),
                  pickle.loads(pickle.dumps(s))):
        assert "_contexts" not in vars(other)
        assert np.array_equal(carriage.field.gamma(other), want)
