"""The constraint and residual sides of a state from their generated
sources: the brackets behind R (frames._bracket_source), the trailing lifts
of the state context (nonholonomic._lift_source), the rates of the one-form
epsilon (nonholonomic._epsilon_source), the chart jets of the chart-form
residuals (nonholonomic._chart_source) and the momentum partials of a chart
point (quasichart._fibre_source), against the piecewise routes they replace
(kept in _oracles)."""

import numpy as np
import pytest

from framedyn import NonholonomicField, builtin, sample_states
from framedyn.chaplygin import gamma_k_residual, prop6_scalar
from framedyn.frames import (QuasiState, TangentPoint, _bracket_source,
                             structure_functions)
from framedyn.lagrangian import REGULARITY_DET_TOL
from framedyn.nonholonomic import (_chart_source, _epsilon_source,
                                   _lift_source)
from framedyn.quasichart import QvChartPoint, _composite, _fibre_source
from framedyn.vakonomic import (MomentumSection, VariationalLagrangian,
                                consistency_report, el_field,
                                gamma_bar_tangency, solve_gamma_C)

from test_nonholonomic import GATE_SYSTEMS, _same, _shifted

IDS = [g[0] for g in GATE_SYSTEMS]


RESIDUALS = ("residual_fundamental", "residual_hamel",
             "constrained_form_residual")


def _outputs(sysd, L, frame, split, s, delta, with_el):
    """Every output that reads R, the trailing lifts, epsilon, the chart
    jets or the momentum partials at the state s, in one flat dict of
    arrays; the residuals also at the trial coefficients Gamma + delta."""
    field = NonholonomicField(L, frame, split)
    ctx = field._solve(s)
    reg = ctx.regularity_report(REGULARITY_DET_TOL)
    out = {"R": ctx.R, "structure_functions": structure_functions(frame, s.q),
           "det_D": reg.det_D, "det_Dperp": reg.det_Dperp,
           "det_g": reg.det_g, "lambda": field.multipliers(s),
           "prop6": prop6_scalar(L, frame, split, s)}
    for name in RESIDUALS:
        out[name] = getattr(field, name)(s)
        out[f"{name}.trial"] = getattr(field, name)(s, gamma=ctx.gamma + delta)
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
    """Route R, the context's lifts, epsilon, the chart jets of the
    residuals and the momentum partials through the piecewise oracles; the
    generated sources raise if reached."""
    import framedyn.frames as frames
    import framedyn.nonholonomic as nonholonomic
    import framedyn.quasichart as quasichart
    import framedyn.vakonomic as vakonomic

    from _oracles import (StateContextLiftsReference, chart_jets_reference,
                          fibre_partial_reference,
                          structure_from_matrix_reference)

    def forbidden(*args, **kwargs):
        raise AssertionError("a generated source was run")

    for module in (frames, nonholonomic, vakonomic):
        monkeypatch.setattr(module, "structure_from_matrix",
                            structure_from_matrix_reference)
    for name in ("dfield", "vlift", "clift", "epsilon", "regularity_report"):
        monkeypatch.setattr(nonholonomic.StateContext, name,
                            getattr(StateContextLiftsReference, name))
    monkeypatch.setattr(nonholonomic.NonholonomicField, "_chart_jets",
                        chart_jets_reference)
    monkeypatch.setattr(quasichart.QvChartPoint, "eval_fibre_partial",
                        fibre_partial_reference)
    for module, name in ((frames, "_bracket_source"),
                         (nonholonomic, "_lift_function"),
                         (nonholonomic, "_epsilon_source"),
                         (nonholonomic, "_chart_source"),
                         (quasichart, "_fibre_source")):
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS, ids=IDS)
def test_generated_constraint_side_equals_piecewise_routes(
        name, sysd, L, frame, split, monkeypatch):
    # Every output is == to the one the piecewise routes give, batched and
    # one state at a time; only the sign of an exact zero may differ.
    S = sample_states(sysd, 40, seed=17)
    delta = np.random.default_rng(23).normal(0.0, 0.1, (40, split.m))
    states = [(S, delta)] + [(QuasiState(S.q[i], S.v[i]), delta[i])
                             for i in range(40)]

    def outputs():
        return [_outputs(sysd, L, frame, split, QuasiState(
            s.q.copy(), s.v.copy()), d, with_el=i < 4)
            for i, (s, d) in enumerate(states)]

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


@pytest.mark.parametrize("first", ["consistency_report",
                                   "gamma_bar_tangency"])
def test_section_values_and_rate_are_made_once_per_state(carriage, first,
                                                         monkeypatch):
    # consistency_report and gamma_bar_tangency at one state share the
    # section's values and its rate along (u, Gamma) through the state
    # context: in either order the fibre function runs three times (the
    # values, the rates along Gamma and along Gamma_C), not five, and
    # every output is == to the one that call gives alone on a fresh state.
    import framedyn.quasichart as quasichart

    L, F, split = carriage.L, carriage.frame, carriage.split
    section = MomentumSection(L, F, split)
    S = carriage.states(100, seed=5)
    calls = {
        "consistency_report": lambda s: consistency_report(L, F, split,
                                                           section, s),
        "gamma_bar_tangency": lambda s: gamma_bar_tangency(L, F, split,
                                                           section, s)}
    order = [first] + [name for name in calls if name != first]

    def fresh():
        return QuasiState(S.q.copy(), S.v.copy())

    want = {name: calls[name](fresh()) for name in order}
    runs = []
    source = quasichart._fibre_source

    def counted(*args):
        runs.append(args[1:])
        return source(*args)

    monkeypatch.setattr(quasichart, "_fibre_source", counted)
    s = fresh()
    got = {name: calls[name](s) for name in order}
    assert len(runs) == 3
    report, again = got["consistency_report"], want["consistency_report"]
    for key in ("weak_defect", "strong_defect", "tangency_defect"):
        assert _same(getattr(report, key), getattr(again, key)), key
    assert _same(got["gamma_bar_tangency"], want["gamma_bar_tangency"])


def _sources(L, frame, split):
    """The generated functions of a system that read its frame: the
    brackets, the lifts, the momentum partials along 0, 1 and 2 directions
    and the chart jets."""
    fn = _composite(L, frame)[0]
    return ([_bracket_source(frame), _lift_source(L, frame, split)]
            + [_fibre_source(fn, frame.n, k) for k in range(3)]
            + [_chart_source(fn, split.m)])


def _epsilon_sources(L, split):
    """The epsilon functions of a system, for the indices of the
    fundamental residual and for those of the multipliers."""
    return [_epsilon_source(L, tuple(indices)) for indices in (
        range(split.m), range(split.m, split.n))]


def test_generated_constraint_side_is_shared_by_structure():
    def sources(sysd, frame=None):
        L, split = sysd.lagrangian(), sysd.split()
        return (_sources(L, frame or sysd.frame(), split),
                _epsilon_sources(L, split))

    def same(a, b):
        return all(x is y for x, y in zip(a, b))

    def apart(a, b):
        return all(x is not y for x, y in zip(a, b))

    first, epsilon = sources(builtin("carriage"))
    for sysd in (builtin("carriage"), builtin("carriage", {"l": 0.0})):
        assert same(sources(sysd)[0], first)
        assert same(sources(sysd)[1], epsilon)
    _, _, L, frame, split = {g[0]: g for g in GATE_SYSTEMS}[
        "carriage_rotated"]
    assert apart(_sources(L, frame, split), first)
    # epsilon reads no frame expression: the rotated carriage, whose L is
    # the carriage's, shares it; another L does not
    assert same(_epsilon_sources(L, split), epsilon)
    assert apart(sources(builtin("vertical_disk"))[1], epsilon)


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS, ids=IDS)
def test_generated_constraint_side_emits_each_line_once(name, sysd, L, frame,
                                                        split):
    # Value numbering: a line that several inlined kernels need (the frame
    # values, L's subtrees at (q, u), the slots no probe reaches) is
    # emitted once in each source.
    for fn in _sources(L, frame, split) + _epsilon_sources(L, split):
        right = [line.split(" = ", 1)[1]
                 for line in fn.__source__.splitlines() if " = " in line]
        assert len(right) > 10, (name, fn.__name__)
        assert len(right) == len(set(right)), (name, fn.__name__)


@pytest.mark.parametrize("route", ["scalar", "batched"])
def test_domain_faults_in_lift_and_bracket_sources(route, monkeypatch):
    # X_3 = (sqrt(q1), 0, 1) is finite at q1 = 0 and the frame is regular,
    # but its first derivative divides by zero there.  Gamma reads no
    # derivative of X_3; the lifts, the brackets and the chart jets do, and
    # must raise EvalDomainError as the piecewise routes do.
    import framedyn.nonholonomic as nonholonomic
    from framedyn import (ConstraintSplit, EvalDomainError, Frame,
                          Lagrangian, ZeroSection)
    from framedyn.exprlang import run
    from framedyn.lagrangian import vlift_rate_at

    from _oracles import chart_jets_reference
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
        "residual_hamel": lambda: field.residual_hamel(fresh()),
        "constrained_form_residual": lambda:
            field.constrained_form_residual(fresh()),
    }
    # Every fault that the chart and epsilon sources meet at a state is
    # met first by the field, lift or bracket source; so they also run on
    # their own: the chart jets at this state (they differentiate X_3),
    # and the epsilon rates of an L whose jets divide by zero at u3 = 0,
    # where every state here lies.
    ctx = field._solve(fresh())
    C = np.zeros(s.q.shape + (split.m,))
    Lu = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2 + sqrt(u3)", coords,
                    ("u1", "u2", "u3"))
    w = ctx.fibre(ctx.gamma)
    calls["chart_jets"] = lambda: list(field._chart_jets(
        ctx, ctx.v, ctx.gamma, C))
    calls["epsilon_rates"] = lambda: run(
        nonholonomic._epsilon_source(Lu, (0, 1, 2)),
        (ctx.q, ctx.u, ctx.M.reshape(s.q.shape[:-1] + (-1,)), w), Lu._pvals)
    assert np.all(np.isfinite(field.gamma(fresh())))
    got = {name: _raised(call) for name, call in calls.items()}
    _use_piecewise_routes(monkeypatch)
    calls["chart_jets"] = lambda: list(chart_jets_reference(
        field, ctx, ctx.v, ctx.gamma, C))
    calls["epsilon_rates"] = lambda: [vlift_rate_at(
        Lu, ctx.q, ctx.u, ctx.M[..., a, :], ctx.u, w) for a in range(3)]
    for name, call in calls.items():
        want = _raised(call)
        assert type(got[name]) is type(want) is EvalDomainError, name
        assert str(got[name]) == str(want), name
