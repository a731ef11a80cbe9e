"""The constraint side of a state from its generated sources: the brackets
behind R (frames._bracket_source), the trailing lifts of the state context
(nonholonomic._lift_source) and the momentum partials of a chart point
(quasichart._fibre_source), against the piecewise routes they replace
(kept in _oracles)."""

import numpy as np
import pytest

from framedyn import NonholonomicField, builtin, sample_states
from framedyn.chaplygin import gamma_k_residual, prop6_scalar
from framedyn.frames import (QuasiState, TangentPoint, _bracket_source,
                             structure_functions)
from framedyn.lagrangian import REGULARITY_DET_TOL
from framedyn.nonholonomic import _lift_source
from framedyn.quasichart import QvChartPoint, _composite, _fibre_source
from framedyn.vakonomic import (MomentumSection, VariationalLagrangian,
                                consistency_report, el_field,
                                gamma_bar_tangency, solve_gamma_C)

from test_nonholonomic import GATE_SYSTEMS, _same, _shifted

IDS = [g[0] for g in GATE_SYSTEMS]


def _outputs(sysd, L, frame, split, s, with_el):
    """Every output that reads R, the trailing lifts or the momentum
    partials at the state s, in one flat dict of arrays."""
    field = NonholonomicField(L, frame, split)
    ctx = field._solve(s)
    reg = ctx.regularity_report(REGULARITY_DET_TOL)
    out = {"R": ctx.R, "structure_functions": structure_functions(frame, s.q),
           "det_D": reg.det_D, "det_Dperp": reg.det_Dperp,
           "det_g": reg.det_g, "lambda": field.multipliers(s),
           "prop6": prop6_scalar(L, frame, split, s),
           "residual_fundamental": field.residual_fundamental(s),
           "residual_hamel": field.residual_hamel(s),
           "constrained_form_residual": field.constrained_form_residual(s)}
    for a in range(split.n):
        out[f"D{a}"] = ctx.dfield(a)
        out[f"clift{a}"] = ctx.clift(a)
        out[f"vlift{a}"] = ctx.vlift(a)
    sections = {"momentum": MomentumSection(L, frame, split),
                "shifted": _shifted(sysd, L, frame, split)}
    for name, sec in sections.items():
        r = consistency_report(L, frame, split, sec, s)
        sol = solve_gamma_C(L, frame, split, sec, s)
        jets = sec.taylor(s.q, s.v_alpha(split), [(ctx.u, ctx.gamma)])
        out.update({
            f"{name}.weak": r.weak_defect, f"{name}.strong": r.strong_defect,
            f"{name}.tangency": r.tangency_defect,
            f"{name}.gamma_C": sol.gamma_C, f"{name}.A": sol.A,
            f"{name}.Lambda": sol.Lambda,
            f"{name}.values": sec.values(s.q, s.v_alpha(split)),
            f"{name}.gamma_bar": gamma_bar_tangency(L, frame, split, sec, s)})
        for j, tv in enumerate(jets):
            out[f"{name}.jet{j}"] = np.stack(np.broadcast_arrays(*tv.c))
    out["gamma_k"] = gamma_k_residual(L, frame, split, sections["shifted"],
                                      [s])["max_gamma_k"]
    if with_el:
        p = TangentPoint(s.q, ctx.u)
        out["el_field"] = el_field(L, frame, p)
        out["el_field_tilde"] = el_field(VariationalLagrangian(
            L, frame, split, sections["momentum"]), frame, p)
    return out


def _use_piecewise_routes(monkeypatch):
    """Route R, the context's lifts and the momentum partials through the
    piecewise oracles; the generated sources raise if reached."""
    import framedyn.frames as frames
    import framedyn.nonholonomic as nonholonomic
    import framedyn.quasichart as quasichart
    import framedyn.vakonomic as vakonomic

    from _oracles import (StateContextLiftsReference,
                          fibre_partial_reference,
                          structure_from_matrix_reference)

    def forbidden(*args, **kwargs):
        raise AssertionError("a generated constraint-side source was run")

    for module in (frames, nonholonomic, vakonomic):
        monkeypatch.setattr(module, "structure_from_matrix",
                            structure_from_matrix_reference)
    for name in ("dfield", "vlift", "clift", "dvlift", "regularity_report"):
        monkeypatch.setattr(nonholonomic.StateContext, name,
                            getattr(StateContextLiftsReference, name))
    monkeypatch.setattr(quasichart.QvChartPoint, "eval_fibre_partial",
                        fibre_partial_reference)
    monkeypatch.setattr(frames, "_bracket_source", forbidden)
    monkeypatch.setattr(nonholonomic, "_lift_function", forbidden)
    monkeypatch.setattr(quasichart, "_fibre_source", forbidden)


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS, ids=IDS)
def test_generated_constraint_side_equals_piecewise_routes(
        name, sysd, L, frame, split, monkeypatch):
    # Every output is == to the one the piecewise routes give, batched and
    # one state at a time; only the sign of an exact zero may differ.
    S = sample_states(sysd, 40, seed=17)
    states = [S] + [QuasiState(S.q[i], S.v[i]) for i in range(40)]

    def outputs():
        return [_outputs(sysd, L, frame, split, QuasiState(
            s.q.copy(), s.v.copy()), with_el=i < 4)
            for i, s in enumerate(states)]

    got = outputs()
    _use_piecewise_routes(monkeypatch)
    want = outputs()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.keys() == w.keys()
        for key in g:
            assert _same(g[key], w[key]), (name, i, key)


def test_momentum_partials_run_once_per_chart_point(carriage, monkeypatch):
    # The first partial at a point makes all n; the later ones read them.
    import framedyn.quasichart as quasichart

    calls = []
    source = quasichart._fibre_source

    def counted(*args):
        calls.append(args[1:])
        return source(*args)

    monkeypatch.setattr(quasichart, "_fibre_source", counted)
    s = carriage.states(7, seed=3)
    n = carriage.split.n
    for dirs in ([], [(s.q, s.v)], [(s.q, s.v), (s.v, s.q)]):
        pt = QvChartPoint(carriage.frame, s.q, s.v, dirs)
        first = [pt.eval_fibre_partial(carriage.L, i) for i in range(n)]
        again = [pt.eval_fibre_partial(carriage.L, i) for i in range(n)]
        assert all(a is b for a, b in zip(first, again))
    assert calls == [(n, 0), (n, 1), (n, 2)]


def _sources(L, frame, split):
    """The three generated constraint-side functions of a system: the
    brackets, the lifts and the momentum partials along 0, 1 and 2
    directions."""
    fn = _composite(L, frame)[0]
    return ([_bracket_source(frame), _lift_source(L, frame, split)]
            + [_fibre_source(fn, frame.n, k) for k in range(3)])


def test_generated_constraint_side_is_shared_by_structure():
    def sources(sysd, frame=None):
        return _sources(sysd.lagrangian(), frame or sysd.frame(),
                        sysd.split())

    first = sources(builtin("carriage"))
    assert all(a is b for a, b in zip(sources(builtin("carriage")), first))
    assert all(a is b for a, b in zip(
        sources(builtin("carriage", {"l": 0.0})), first))
    rotated = {g[0]: g for g in GATE_SYSTEMS}["carriage_rotated"]
    assert all(a is not b for a, b in zip(_sources(*rotated[2:]), first))


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS, ids=IDS)
def test_generated_constraint_side_emits_each_line_once(name, sysd, L, frame,
                                                        split):
    # Value numbering: a line that several inlined kernels need (the frame
    # values, L's subtrees at (q, u), the slots no probe reaches) is
    # emitted once in each source.
    for fn in _sources(L, frame, split):
        right = [line.split(" = ", 1)[1]
                 for line in fn.__source__.splitlines() if " = " in line]
        assert len(right) > 10, (name, fn.__name__)
        assert len(right) == len(set(right)), (name, fn.__name__)


@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_domain_faults_in_lift_and_bracket_sources(route, monkeypatch):
    # X_3 = (sqrt(q1), 0, 1) is finite at q1 = 0 and the frame is regular,
    # but its first derivative divides by zero there.  Gamma reads no
    # derivative of X_3; the lifts and the brackets do, and must raise
    # EvalDomainError as the piecewise routes do.
    from framedyn import (ConstraintSplit, EvalDomainError, Frame,
                          Lagrangian, ZeroSection)

    from test_nonholonomic import _raised

    coords = ("q1", "q2", "q3")
    frame = Frame([["1", "0", "0"], ["0", "1", "0"], ["sqrt(q1)", "0", "1"]],
                  coords)
    L = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2 + q2*u1", coords,
                   ("u1", "u2", "u3"))
    split = ConstraintSplit(3, 2)
    field = NonholonomicField(L, frame, split)
    q = np.array([[0.0, 0.3, -0.2], [0.5, 0.1, 0.2]])
    v = np.array([[0.7, -0.4, 0.0], [0.2, 0.9, 0.0]])
    s = QuasiState(q, v) if route == "batched" else QuasiState(q[0], v[0])

    def fresh():
        return QuasiState(s.q.copy(), s.v.copy())

    calls = {
        "multipliers": lambda: field.multipliers(fresh()),
        "R": lambda: structure_functions(frame, fresh().q),
        "consistency_report": lambda: consistency_report(
            L, frame, split, ZeroSection(frame, split), fresh()),
    }
    assert np.all(np.isfinite(field.gamma(fresh())))
    got = {name: _raised(call) for name, call in calls.items()}
    _use_piecewise_routes(monkeypatch)
    for name, call in calls.items():
        want = _raised(call)
        assert type(got[name]) is type(want) is EvalDomainError, name
        assert str(got[name]) == str(want), name
