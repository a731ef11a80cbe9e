"""The jets of the variational Lagrangian L~ = L - Phi_a v^a and the shifted
section's momenta from the section source (quasichart._section_source),
against the TaylorValue routes they replace (kept in _oracles), bit for
bit; and no TaylorValue arithmetic on the section and L~ paths."""

import numpy as np
import pytest

from framedyn import (CustomSection, MomentumSection, QuasiState,
                      ShiftedMomentumSection, SystemDef, VariationalLagrangian,
                      ZeroSection, el_field, sample_states,
                      tilde_tangency_check, velocities_from_quasi)
from framedyn.exprlang import ExprFunction
from framedyn.jets import TaylorValue

from _oracles import (qv_taylor_reference, shifted_extension_reference,
                      shifted_taylor_reference)
from test_constraint_side import LITERAL_SYSTEM, SLED
from test_nonholonomic import GATE_SYSTEMS, _shifted
from test_single_equals_batch import POW

STATES = 40


def _systems():
    out = [g for g in GATE_SYSTEMS]
    for doc in (SLED, POW, LITERAL_SYSTEM):
        sysd = SystemDef.from_json_dict(doc)
        out.append((doc["name"], sysd, sysd.lagrangian(), sysd.frame(),
                    sysd.split()))
    return out


SYSTEMS = _systems()
IDS = [g[0] for g in SYSTEMS]


def _sections(sysd, L, frame, split):
    shifted = _shifted(sysd, L, frame, split)
    return [ZeroSection(frame, split), MomentumSection(L, frame, split),
            shifted, CustomSection(frame, split, shifted.shift.phi)]


def _bits(x, shape):
    """x broadcast to the batch shape, as the bytes of its floats."""
    return np.broadcast_to(np.asarray(x, dtype=float), shape).tobytes()


def _same_slots(got, want, shape):
    """Two lists of TaylorValues with the same slots, sign bits and NaN
    payloads included."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.k == w.k
        for a, b in zip(g.c, w.c):
            assert _bits(a, shape) == _bits(b, shape)


def _points(sysd, split):
    """(q, v on C, v off C, three seeded (dq, dv) directions) at the
    seeded states: the whole batch first, then each state alone."""
    S = sample_states(sysd, STATES, seed=19)
    rng = np.random.default_rng(43)
    off = S.v + rng.normal(0.0, 0.3, S.v.shape)
    dirs = rng.normal(0.0, 1.0, (3, 2) + S.q.shape)
    yield S.q, S.v, off, [tuple(d) for d in dirs]
    for i in range(STATES):
        yield S.q[i], S.v[i], off[i], [(dq[i], dv[i]) for dq, dv in dirs]


@pytest.mark.parametrize("name,sysd,L,frame,split", SYSTEMS, ids=IDS)
def test_tilde_jets_equal_taylor_value_route(name, sysd, L, frame, split):
    # qv_taylor of every section kind, on and off C, along 0, 1 and 2
    # directions, batched and one state at a time: the same floats as the
    # TaylorValue route, sign bits included.
    tilde = [VariationalLagrangian(L, frame, split, sec)
             for sec in _sections(sysd, L, frame, split)]
    for q, v_on, v_off, dirs in _points(sysd, split):
        for Lt in tilde:
            for v in (v_on, v_off):
                for k in range(3):
                    _same_slots([Lt.qv_taylor(q, v, dirs[:k])],
                                [qv_taylor_reference(Lt, q, v, dirs[:k])],
                                q.shape[:-1])


@pytest.mark.parametrize("name,sysd,L,frame,split", SYSTEMS, ids=IDS)
def test_shifted_momenta_equal_their_sum(name, sysd, L, frame, split):
    # The shifted section's taylor on C and its extension on and off C,
    # along 0, 1 and 2 directions: the momenta plus the shift, summed on
    # the section source's tape, are the floats of the TaylorValue sum
    # b + e.
    from framedyn.quasichart import QvChartPoint

    shifted, m = _shifted(sysd, L, frame, split), split.m
    for q, v_on, v_off, dirs in _points(sysd, split):
        shape = q.shape[:-1]
        for k in range(3):
            C_dirs = [(dq, dv[..., :m]) for dq, dv in dirs[:k]]
            _same_slots(shifted.taylor(q, v_on[..., :m], C_dirs),
                        shifted_taylor_reference(shifted, q, v_on[..., :m],
                                                 C_dirs), shape)
            for v in (v_on, v_off):
                pt = QvChartPoint(frame, q, v, dirs[:k])
                _same_slots(shifted.extension(pt),
                            shifted_extension_reference(shifted, pt), shape)


def test_non_finite_phi_keeps_the_route_nans(carriage):
    # Where a phi_a overflows to inf at a state, its products with the 0.0
    # slots of v^a are NaN, as the TaylorValue route formed them: L~ of a
    # custom and a shifted section at single states, sign bits included.
    L, frame, split = carriage.L, carriage.frame, carriage.split
    exprs = ["exp(10000*x)", "v1", "y"]
    S = carriage.states(STATES, seed=1)
    rng = np.random.default_rng(5)
    dirs = rng.normal(0.0, 1.0, (2, 2) + S.q.shape)
    overflows = 0
    for sec in (CustomSection(frame, split, exprs),
                ShiftedMomentumSection(L, frame, split, exprs)):
        Lt = VariationalLagrangian(L, frame, split, sec)
        for i in range(STATES):
            q, v = S.q[i], S.v[i] + 0.5
            d = [(dq[i], dv[i]) for dq, dv in dirs]
            for k in range(3):
                got = Lt.qv_taylor(q, v, d[:k])
                with np.errstate(invalid="ignore"):
                    want = qv_taylor_reference(Lt, q, v, d[:k])
                _same_slots([got], [want], ())
                overflows += not np.isfinite(got.c[-1])
    assert overflows > 20


def test_no_taylor_value_arithmetic_on_the_section_and_tilde_paths(
        carriage, monkeypatch):
    # qv_taylor, value, el_field and tilde_tangency_check of L~, and every
    # section's taylor, extension and values, batched and at one state,
    # call no TaylorValue operator.
    from framedyn.quasichart import QvChartPoint

    calls = []
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "__pow__", "apply", "extract", "drop"):
        def counted(*args, _op=op, _fn=getattr(TaylorValue, op), **kwargs):
            calls.append(_op)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(TaylorValue, op, counted)
    L, frame, split, m = (carriage.L, carriage.frame, carriage.split,
                          carriage.split.m)
    S = carriage.states(20, seed=11)
    dirs = [(S.v, S.q), (S.q, S.v)]
    for s in (S, QuasiState(S.q[3], S.v[3])):
        d = dirs if s is S else [(dq[3], dv[3]) for dq, dv in dirs]
        for sec in _sections(carriage.sysd, L, frame, split):
            Lt = VariationalLagrangian(L, frame, split, sec)
            for k in range(3):
                Lt.qv_taylor(s.q, s.v + 0.5, d[:k])
                sec.taylor(s.q, s.v_alpha(split),
                           [(dq, dv[..., :m]) for dq, dv in d[:k]])
                sec.extension(QvChartPoint(frame, s.q, s.v, d[:k]))
            sec.values(s.q, s.v_alpha(split))
            Lt.value(s.q, s.v)
            Lt.phi_values(s.q, s.v)
            el_field(Lt, frame, velocities_from_quasi(frame, s))
            tilde_tangency_check(Lt, frame, split, [s])
    assert calls == []


def test_too_many_directions_raise_before_generation(carriage):
    # Three directions where a velocity partial is taken (the momenta, so
    # MomentumSection.taylor and L~ of a momentum section) and four on an
    # expression are a ValueError naming the limit; nothing is generated.
    from framedyn import exprlang

    L, frame, split = carriage.L, carriage.frame, carriage.split
    s = carriage.states(5, seed=2)
    made = len(exprlang._KERNELS)
    section = MomentumSection(L, frame, split)
    with pytest.raises(ValueError, match="at most 2 directions where a "
                                         "velocity partial is taken, not 3"):
        section.taylor(s.q, s.v_alpha(split),
                       [(s.q, s.v_alpha(split))] * 3)
    with pytest.raises(ValueError, match="at most 2 directions where a "
                                         "velocity partial is taken, not 3"):
        VariationalLagrangian(L, frame, split, section).qv_taylor(
            s.q, s.v, [(s.q, s.v)] * 3)
    fn = ExprFunction("sin(x)*y", ("x", "y"))
    with pytest.raises(ValueError, match="at most 3 directions, not 4"):
        fn.taylor([0.5, 2.0], (), [(1.0, 0.0)] * 4)
    assert len(exprlang._KERNELS) == made
