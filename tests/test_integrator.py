import re

import numpy as np
import pytest

from framedyn.frames import ConstraintSplit, Frame, QuasiState
from framedyn.integrator import (IntegrationError, IntegratorConfig,
                                 Trajectory, drift_report, export_csv,
                                 export_json, integrate)
from framedyn.lagrangian import Lagrangian
from framedyn.nonholonomic import NonholonomicField

from test_nonholonomic import GATE_SYSTEMS, _shifted


@pytest.fixture(scope="module")
def free3():
    coords = ["q1", "q2", "q3"]
    F = Frame([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], coords)
    L = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2", coords, ["u1", "u2", "u3"])
    split = ConstraintSplit(3, 3)
    return NonholonomicField(L, F, split), F, split


def test_free_particle_rk4_exact(free3):
    field, F, split = free3
    s0 = QuasiState(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, -0.5]))
    traj = integrate(field, F, split, s0,
                     IntegratorConfig(step=0.01, t_span=(0.0, 3.0)))
    assert np.max(np.abs(traj.q[-1] - (s0.q + 3.0 * s0.v))) <= 1e-12
    assert np.max(np.abs(traj.v - s0.v)) == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_carriage_l0_wheel_speeds_constant(carriage_l0):
    s0 = QuasiState.on_C(np.zeros(5), [1.0, 0.25], carriage_l0.split)
    traj = integrate(carriage_l0.field, carriage_l0.frame, carriage_l0.split,
                     s0, IntegratorConfig(step=1e-2, t_span=(0.0, 10.0)))
    assert np.max(np.abs(traj.v - traj.v[0])) <= 1e-10


def test_disk_momentum_rate_equals_multiplier(disk):
    # pdot_a = lambda_a along the flow, checked by finite differences of the
    # recorded momentum series against the recorded multipliers.
    s0 = QuasiState.on_C(np.array([0.3, 0.0, 0.0, 0.0]), [0.8, 1.1],
                         disk.split)
    cfg = IntegratorConfig(step=2e-3, t_span=(0.0, 4.0),
                           observables=("energy", "momenta", "multipliers"))
    traj = integrate(disk.field, disk.frame, disk.split, s0, cfg)
    h = traj.times[1] - traj.times[0]
    for a in range(disk.split.m, disk.sysd.n):
        p = traj.observables[f"p{a + 1}"]
        lam = traj.observables[f"lambda{a + 1}"]
        pdot = (p[2:] - p[:-2]) / (2 * h)
        assert np.max(np.abs(pdot - lam[1:-1])) <= 1e-5


def test_drift_report_bounds(particle):
    s0 = QuasiState.on_C(np.array([0.1, 0.0, 0.0]), [1.0, 1.0],
                         particle.split)
    traj = integrate(particle.field, particle.frame, particle.split, s0,
                     IntegratorConfig(step=1e-3, t_span=(0.0, 2.0)))
    rep = drift_report(traj, particle.L, particle.frame, particle.split)
    assert rep["max_residual_fundamental"] <= 1e-9
    assert rep["max_residual_hamel"] <= 1e-9
    assert rep["energy_drift"] <= 1e-8


def test_energy_drift_scales_fourth_order(particle):
    # halving the step shrinks the drift by about 2^4
    s0 = QuasiState.on_C(np.array([0.5, 0.0, 0.0]), [1.5, 1.2],
                         particle.split)
    drifts = []
    for h in (0.08, 0.04):
        traj = integrate(particle.field, particle.frame, particle.split, s0,
                         IntegratorConfig(step=h, t_span=(0.0, 4.0)))
        E = traj.observables["energy"]
        drifts.append(np.max(np.abs(E - E[0])))
    ratio = drifts[0] / drifts[1]
    assert 8 <= ratio <= 32


def test_time_reversal(particle):
    s0 = QuasiState.on_C(np.array([0.3, -0.1, 0.2]), [1.0, -0.7],
                         particle.split)
    cfg = IntegratorConfig(step=1e-3, t_span=(0.0, 3.0),
                           observables=())
    fwd = integrate(particle.field, particle.frame, particle.split, s0, cfg)
    flipped = QuasiState.on_C(fwd.q[-1], -fwd.v[-1], particle.split)
    back = integrate(particle.field, particle.frame, particle.split,
                     flipped, cfg)
    assert np.max(np.abs(back.q[-1] - s0.q)) <= 1e-6
    assert np.max(np.abs(back.v[-1] + s0.v[:2])) <= 1e-6


def test_observables_pure_functions_of_state(carriage):
    from framedyn.integrator import attach_observables
    s0 = QuasiState.on_C(np.zeros(5), [0.9, -0.3], carriage.split)
    cfg = IntegratorConfig(step=5e-3, t_span=(0.0, 1.0),
                           observables=("energy", "momenta", "multipliers"),
                           custom_observables={"spin": "v1 - v2"})
    traj = integrate(carriage.field, carriage.frame, carriage.split, s0, cfg)
    clone = Trajectory(traj.times, traj.q.copy(), traj.v.copy(), {})
    attach_observables(clone, carriage.field, carriage.frame, carriage.split,
                       cfg)
    for name, col in traj.observables.items():
        assert np.array_equal(col, clone.observables[name]), name
    assert np.array_equal(traj.observables["spin"],
                          traj.v[:, 0] - traj.v[:, 1])


def test_defect_observables_are_the_consistency_report(carriage):
    # One column per component of each defect, == to consistency_report on
    # the stored states; without a section there are no defects to give.
    from framedyn.vakonomic import ShiftedMomentumSection, consistency_report
    L, F, split = carriage.L, carriage.frame, carriage.split
    section = ShiftedMomentumSection(L, F, split, carriage.sysd.builtin_k)
    s0 = QuasiState.on_C(np.zeros(5), [0.9, -0.3], split)
    cfg = IntegratorConfig(step=1e-2, t_span=(0.0, 0.2),
                           observables=("defects",), section=section)
    traj = integrate(carriage.field, F, split, s0, cfg)
    rep = consistency_report(L, F, split, section, traj.states(split))
    want = {f"weak_defect_{a + 1}": rep.weak_defect[:, a]
            for a in range(split.m)}
    for j, a in enumerate(range(split.m, split.n)):
        want[f"strong_defect_{a + 1}"] = rep.strong_defect[:, j]
        want[f"tangency_defect_{a + 1}"] = rep.tangency_defect[:, j]
    assert sorted(traj.observables) == sorted(want)
    for name, col in want.items():
        assert np.array_equal(traj.observables[name], col), name
    assert np.max(np.abs(rep.strong_defect)) > 1e-3  # l != l*
    cfg.section = None
    with pytest.raises(ValueError, match="require cfg.section"):
        integrate(carriage.field, F, split, s0, cfg)


def test_observables_and_drift_report_read_the_state_context(carriage,
                                                             monkeypatch):
    # Energy, momenta and multipliers share the context of the stored
    # states, and the drift report reads the same one (Trajectory.states
    # returns the state it made before): no field or value of L is
    # evaluated outside a context, and one batched context is built in all.
    import framedyn.nonholonomic as nonholonomic
    from framedyn.frames import VectorField

    def refused(*args, **kwargs):
        raise AssertionError("evaluated outside the state context")

    monkeypatch.setattr(VectorField, "values", refused)
    monkeypatch.setattr(Lagrangian, "value", refused)
    batched = []
    init = nonholonomic.StateContext.__init__

    def counted(self, field, s):
        batched.append(s.batched)
        init(self, field, s)

    monkeypatch.setattr(nonholonomic.StateContext, "__init__", counted)
    s0 = QuasiState.on_C(np.zeros(5), [0.9, -0.3], carriage.split)
    for method in ("rk4", "rk45"):
        cfg = IntegratorConfig(method=method, step=1e-2, t_span=(0.0, 0.2),
                               observables=("energy", "momenta",
                                            "multipliers"))
        traj = integrate(carriage.field, carriage.frame, carriage.split, s0,
                         cfg)
        drift_report(traj, carriage.L, carriage.frame, carriage.split)
        assert sorted(traj.observables) == [
            "energy", "lambda3", "lambda4", "lambda5", "p3", "p4", "p5"]
        assert batched == [True], method
        batched.clear()


def test_stepping_runs_without_states(carriage, monkeypatch):
    # The stages call the field source on lists of floats: rate is never
    # called and no StateContext is made while stepping.
    import framedyn.nonholonomic as nonholonomic

    def refused(*args, **kwargs):
        raise AssertionError("a state evaluated on the stepping path")

    monkeypatch.setattr(NonholonomicField, "rate", refused)
    monkeypatch.setattr(nonholonomic, "StateContext", refused)
    s0 = QuasiState.on_C(np.zeros(5), [0.9, -0.3], carriage.split)
    for method in ("rk4", "rk45"):
        cfg = IntegratorConfig(method=method, step=1e-2, t_span=(0.0, 0.2),
                               observables=())
        traj = integrate(carriage.field, carriage.frame, carriage.split, s0,
                         cfg)
        assert len(traj.times) > 2


@pytest.mark.parametrize("edit", ["q_in_place", "v_in_place",
                                  "q_reassigned", "v_reassigned"])
def test_edited_trajectory_gives_a_fresh_state(carriage, edit):
    # Trajectory.states returns the state it made before only while q is
    # the same, unchanged array and v still matches that state's v; after
    # any edit it makes a new state, and the drift report equals the one of
    # an unedited copy of the edited trajectory.
    s0 = QuasiState.on_C(np.zeros(5), [0.9, -0.3], carriage.split)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_span=(0.0, 0.1),
                           observables=("energy",))
    traj = integrate(carriage.field, carriage.frame, carriage.split, s0, cfg)
    split = carriage.split
    first = traj.states(split)
    assert traj.states(split) is first
    if edit == "q_in_place":
        traj.q[3, 2] += 0.25
    elif edit == "v_in_place":
        traj.v[3, 0] += 0.25
    elif edit == "q_reassigned":
        traj.q = traj.q.copy()
    else:
        traj.v = traj.v * 2.0
    again = traj.states(split)
    assert again is not first
    assert np.array_equal(again.q, traj.q)
    assert np.array_equal(again.v[:, :split.m], traj.v)
    assert traj.states(split) is again
    fresh = Trajectory(traj.times, traj.q.copy(), traj.v.copy(), {})
    want = drift_report(fresh, carriage.L, carriage.frame, split)
    assert drift_report(traj, carriage.L, carriage.frame, split) == want


def test_equal_v_keeps_the_state(carriage):
    # v reassigned with the same bytes still matches the state's v.
    s0 = QuasiState.on_C(np.zeros(5), [0.9, -0.3], carriage.split)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_span=(0.0, 0.05),
                           observables=())
    traj = integrate(carriage.field, carriage.frame, carriage.split, s0, cfg)
    first = traj.states(carriage.split)
    traj.v = traj.v.copy()
    assert traj.states(carriage.split) is first


def test_custom_observable_domain_fault_names_it(particle):
    from framedyn.exprlang import EvalDomainError
    s0 = QuasiState.on_C(np.array([-0.5, 0.1, 0.2]), [0.3, 0.1],
                         particle.split)
    cfg = IntegratorConfig(step=1e-2, t_span=(0.0, 0.05), observables=(),
                           custom_observables={"spin": "v1 - v2",
                                               "bad": "log(q1)"})
    with pytest.raises(EvalDomainError, match="observable 'bad'"):
        integrate(particle.field, particle.frame, particle.split, s0, cfg)


def test_rk45_matches_rk4(carriage):
    s0 = QuasiState.on_C(np.zeros(5), [1.0, -0.4], carriage.split)
    t4 = integrate(carriage.field, carriage.frame, carriage.split, s0,
                   IntegratorConfig(step=1e-3, t_span=(0.0, 1.5),
                                    observables=()))
    t45 = integrate(carriage.field, carriage.frame, carriage.split, s0,
                    IntegratorConfig(method="rk45", rtol=1e-10, atol=1e-12,
                                     t_span=(0.0, 1.5), observables=()))
    assert np.max(np.abs(t45.q[-1] - t4.q[-1])) <= 1e-8
    assert len(t45.times) < len(t4.times)  # adaptive takes far fewer steps


def test_rk45_tightening_tolerance_adds_steps(particle):
    s0 = QuasiState.on_C(np.array([0.2, 0.0, 0.0]), [1.0, 1.0],
                         particle.split)
    loose = integrate(particle.field, particle.frame, particle.split, s0,
                      IntegratorConfig(method="rk45", rtol=1e-6, atol=1e-8,
                                       t_span=(0.0, 2.0), observables=()))
    tight = integrate(particle.field, particle.frame, particle.split, s0,
                      IntegratorConfig(method="rk45", rtol=1e-11, atol=1e-13,
                                       t_span=(0.0, 2.0), observables=()))
    assert len(tight.times) > len(loose.times)


def test_callable_provider(particle):
    # a plain coefficient provider (q, v_alpha) -> Gamma^alpha
    def provider(q, v):
        s = QuasiState.on_C(q, v, particle.split)
        return particle.field.gamma(s)

    s0 = QuasiState.on_C(np.array([0.1, 0.0, 0.0]), [1.0, 1.0],
                         particle.split)
    cfg = IntegratorConfig(step=1e-2, t_span=(0.0, 1.0), observables=())
    ta = integrate(provider, particle.frame, particle.split, s0, cfg)
    tb = integrate(particle.field, particle.frame, particle.split, s0, cfg)
    assert np.array_equal(ta.q, tb.q)


def test_integration_error_carries_time(particle):
    def bad(q, v):
        raise RuntimeError("boom")

    s0 = QuasiState.on_C(np.zeros(3), [1.0, 1.0], particle.split)
    with pytest.raises(IntegrationError) as ei:
        integrate(bad, particle.frame, particle.split, s0,
                  IntegratorConfig(step=0.1, t_span=(0.0, 1.0),
                                   observables=()))
    assert ei.value.t == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(step=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_span=(1.0, 0.0))


@pytest.mark.parametrize("name,kwargs", [
    ("step", {"step": float("nan")}),
    ("rtol", {"method": "rk45", "rtol": float("nan")}),
    ("atol", {"method": "rk45", "atol": float("inf")}),
    ("t_span[0]", {"t_span": (-float("inf"), 1.0)}),
    ("t_span[1]", {"t_span": (0.0, float("inf"))}),
])
def test_config_rejects_non_finite_numbers(name, kwargs):
    # A NaN or an infinity would otherwise fail later, or be reported as a
    # step underflow, or (atol = inf) switch off the error control.
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite"):
        IntegratorConfig(**kwargs)


class TestExports:
    def test_csv_format(self, particle, tmp_path):
        s0 = QuasiState.on_C(np.array([0.1, 0.0, 0.0]), [1.0, 1.0],
                             particle.split)
        traj = integrate(particle.field, particle.frame, particle.split, s0,
                         IntegratorConfig(step=0.1, t_span=(0.0, 0.5)))
        path = tmp_path / "traj.csv"
        export_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,q1,q2,q3,v1,v2,energy"
        assert len(lines) == len(traj.times) + 1
        # 17 significant digits round-trip exactly
        row = lines[2].split(",")
        assert float(row[1]) == traj.q[1, 0]

    def test_json_mirrors_columns(self, particle, tmp_path):
        import json
        s0 = QuasiState.on_C(np.array([0.1, 0.0, 0.0]), [1.0, 1.0],
                             particle.split)
        traj = integrate(particle.field, particle.frame, particle.split, s0,
                         IntegratorConfig(step=0.1, t_span=(0.0, 0.5)))
        path = tmp_path / "traj.json"
        export_json(traj, path)
        doc = json.loads(path.read_text())
        assert doc["t"] == [float(t) for t in traj.times]
        assert doc["v1"] == [float(x) for x in traj.v[:, 0]]
        assert set(doc) >= {"t", "q1", "q2", "q3", "v1", "v2", "energy"}

    def test_reruns_byte_identical(self, particle, tmp_path):
        s0 = QuasiState.on_C(np.array([0.1, 0.0, 0.0]), [1.0, 1.0],
                             particle.split)
        cfg = IntegratorConfig(step=0.05, t_span=(0.0, 0.5))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(integrate(particle.field, particle.frame, particle.split,
                             s0, cfg), a)
        export_csv(integrate(particle.field, particle.frame, particle.split,
                             s0, cfg), b)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("method", ["rk4", "rk45"])
def test_non_finite_field_fails_loudly(particle, method):
    # At |v| = 1e160 the right-hand side overflows and Gamma is NaN; the run
    # must stop at t = 0 naming the component, not return NaN states or
    # report a step-size underflow.
    s0 = QuasiState.on_C(np.array([0.1, 0.2, 0.3]), [1e160, 1e160],
                         particle.split)
    cfg = IntegratorConfig(method=method, t_span=(0.0, 0.01))
    with np.errstate(all="ignore"):
        with pytest.raises(IntegrationError) as ei:
            integrate(particle.field, particle.frame, particle.split, s0, cfg)
    assert ei.value.t == 0.0
    assert "non-finite dv1/dt = nan" in str(ei.value)


def test_huge_finite_state_is_not_flagged(free3):
    # The entries sum to inf, but each is finite: the run must go through.
    field, F, split = free3
    s0 = QuasiState(np.array([1e308, 1e308, 0.0]), np.array([0.0, 0.0, 1.0]))
    traj = integrate(field, F, split, s0,
                     IntegratorConfig(step=0.1, t_span=(0.0, 0.5)))
    assert np.all(np.isfinite(traj.q)) and traj.q[-1, 2] == pytest.approx(0.5)


# -- the float stepper against the array loop it replaced -------------------


def _same_trajectory(got, want):
    assert np.array_equal(got.times, want.times)
    for name in ("q", "v"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == np.float64 and a.flags.c_contiguous, name
        assert a.shape == b.shape and np.array_equal(a, b), name
    assert got.observables.keys() == want.observables.keys()
    for name, col in want.observables.items():
        assert np.array_equal(got.observables[name], col), name
    assert got.meta == want.meta


# RK4 at two steps, DOPRI5 from a small first step and from a large one,
# which the delta class and the rotated carriage reject
GATE_CONFIGS = (
    {"method": "rk4", "step": 1e-2, "t_span": (0.0, 1.0)},
    {"method": "rk4", "step": 1e-3, "t_span": (0.0, 0.1)},
    {"method": "rk45", "rtol": 1e-10, "atol": 1e-12, "t_span": (0.0, 0.5)},
    {"method": "rk45", "step": 0.5, "rtol": 1e-6, "atol": 1e-8,
     "t_span": (0.0, 2.0)},
)


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS,
                         ids=[g[0] for g in GATE_SYSTEMS])
def test_stepper_equals_array_oracle(name, sysd, L, frame, split):
    # Times (so DOPRI5's accepted step sequence), states and every
    # observable, defects included, are == to the numpy loop whose stages
    # call the public rate.
    from framedyn import sample_states

    from _oracles import integrate_reference

    field = NonholonomicField(L, frame, split)
    section = _shifted(sysd, L, frame, split)
    S = sample_states(sysd, 2, seed=3)
    for i in range(2):
        s0 = QuasiState(S.q[i].copy(), S.v[i].copy())
        for kwargs in GATE_CONFIGS:
            cfg = IntegratorConfig(
                observables=("energy", "momenta", "multipliers", "defects"),
                custom_observables={"spin": "v1 - v2"}, section=section,
                **kwargs)
            _same_trajectory(integrate(field, frame, split, s0, cfg),
                             integrate_reference(field, frame, split, s0, cfg))


class _RateOnly:
    """A provider with a rate method only."""

    def __init__(self, field):
        self.rate = field.rate


@pytest.mark.parametrize("kind", ["callable", "rate_only"])
def test_other_providers_step_as_the_array_oracle(carriage, particle, kind):
    from _oracles import integrate_reference

    for b in (particle, carriage):
        if kind == "callable":
            def provider(q, v, b=b):
                return b.field.gamma(QuasiState.on_C(q, v, b.split))
        else:
            provider = _RateOnly(b.field)
        s0 = b.states(1, seed=5)
        s0 = QuasiState(s0.q[0], s0.v[0])
        for kwargs in GATE_CONFIGS:
            cfg = IntegratorConfig(observables=(), **kwargs)
            got = integrate(provider, b.frame, b.split, s0, cfg)
            _same_trajectory(got, integrate_reference(provider, b.frame,
                                                      b.split, s0, cfg))
            assert np.array_equal(got.q, integrate(b.field, b.frame, b.split,
                                                   s0, cfg).q)


def _failing_runs():
    """(label, field, state, config kwargs, message start) of runs that
    must stop: at t = 0 or part way, on RK4 and DOPRI5 alike."""
    from framedyn import builtin
    from framedyn.frames import ConstraintSplit

    coords, vels = ["q1", "q2"], ["u1", "u2"]
    identity = Frame([["1", "0"], ["0", "1"]], coords)
    kinetic = Lagrangian("(u1*u1 + u2*u2)/2", coords, vels)
    particle = builtin("nonholonomic_particle")
    cases = [
        ("non_finite_rate", particle.lagrangian(), particle.frame(),
         particle.split(), [0.1, 0.2, 0.3], [1e160, 1e160], {},
         "non-finite dv1/dt = nan from the field"),
        # |det g_D| = q2^8 falls below det_tol near q2 = 0
        ("singular_g_D", Lagrangian("(pow(q2, 8)*u1*u1 + u2*u2)/2", coords,
                                    vels),
         identity, ConstraintSplit(2, 2), [0.0, 0.2], [0.0, -1.0], {},
         "field evaluation failed: regularity condition 'regular_D'"),
        ("singular_frame", kinetic,
         Frame([["1", "0"], ["0", "pow(q1, 6)"]], coords),
         ConstraintSplit(2, 1), [0.04, 0.0], [-1.0], {},
         "field evaluation failed: frame matrix is singular"),
        ("domain_fault", Lagrangian("(u1*u1 + u2*u2)/2 - sqrt(q1)", coords,
                                    vels),
         identity, ConstraintSplit(2, 1), [0.04, 0.0], [-1.0], {},
         "field evaluation failed: math domain error"),
        ("non_finite_step", kinetic, identity, ConstraintSplit(2, 2),
         [1.5e308, 0.0], [1.5e308, 0.0], {"step": 0.5},
         "non-finite q1 = inf after the step of size 0.5"),
    ]
    return [(label, NonholonomicField(L, F, split), F, split,
             QuasiState.on_C(np.array(q), np.array(v), split), kwargs, start)
            for label, L, F, split, q, v, kwargs, start in cases]


FAILING_RUNS = _failing_runs()


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("label,field,frame,split,s0,kwargs,start",
                         FAILING_RUNS, ids=[c[0] for c in FAILING_RUNS])
def test_stepper_errors_equal_array_oracle(label, field, frame, split, s0,
                                           kwargs, start, method):
    from _oracles import integrate_reference

    cfg = IntegratorConfig(method=method, t_span=(0.0, 1.0), observables=(),
                           **kwargs)
    errors = []
    for run in (integrate, integrate_reference):
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationError) as ei:
                run(field, frame, split, s0, cfg)
        errors.append((str(ei.value), ei.value.t))
    assert errors[0] == errors[1]
    assert errors[0][0].startswith(start), errors[0]


def test_error_norm_part_sums_as_numpy(rng):
    # One part of the DOPRI5 error norm equals the array formula under ==,
    # over 1 to 7 entries of mixed scale, and a square that overflows gives
    # inf as numpy does (Python's ** would raise OverflowError).
    from framedyn.integrator import _error_part

    atol, rtol = 1e-10, 1e-8
    for size in [1, 2, 3, 4, 5, 6, 7] * 200:
        y, y5, y4 = (rng.standard_normal(size) * 10.0 ** rng.integers(
            -6, 6, size) for _ in range(3))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
        want = np.sum(((y5 - y4) / scale) ** 2)
        assert _error_part(y.tolist(), y5.tolist(), y4.tolist(), atol,
                           rtol) == want
    with np.errstate(over="ignore"):
        want = np.sum(((np.array([0.0]) - 1e200) / 1.0) ** 2)
    assert _error_part([0.0], [0.0], [1e200], 1.0, 0.0) == want == np.inf
