"""The constraint and residual sides of a state from their generated
sources: the brackets, R and R v (frames._structure_source), the trailing
lifts of the state context (nonholonomic._lift_source), the rates of the
one-form epsilon (nonholonomic._epsilon_source), the chart jets of the
chart-form residuals (nonholonomic._chart_source), the momentum
partials of a chart point (quasichart._fibre_source) and the momenta of
the sections (quasichart._section_source), against the piecewise routes
they replace (kept in _oracles)."""

import numpy as np
import pytest

from framedyn import (NonholonomicField, builtin, change_of_D_basis,
                      sample_states)
from framedyn.chaplygin import gamma_k_residual, prop6_scalar
from framedyn.frames import (QuasiState, TangentPoint, _structure_source,
                             structure_functions)
from framedyn.lagrangian import REGULARITY_DET_TOL
from framedyn.nonholonomic import (_chart_source, _epsilon_source,
                                   _lift_source)
from framedyn.quasichart import (QvChartPoint, _composite, _fibre_source,
                                 _section_source)
from framedyn.vakonomic import (MomentumSection, VariationalLagrangian,
                                _slot, consistency_report, el_field,
                                gamma_bar_tangency, solve_gamma_C)

from test_nonholonomic import GATE_SYSTEMS, _same, _shifted

IDS = [g[0] for g in GATE_SYSTEMS]


RESIDUALS = ("residual_fundamental", "residual_hamel",
             "constrained_form_residual")


def _outputs(sysd, L, frame, split, s, delta, with_el):
    """Every output that reads R, the trailing lifts, epsilon, the chart
    jets, the momentum partials or the momenta at the state s, in one flat
    dict of arrays; the residuals also at the trial coefficients
    Gamma + delta, and each section's values and its rates along
    (u, Gamma) and (u, Gamma_C), read directly."""
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
        jets_C = sec.taylor(s.q, s.v_alpha(split), [(ctx.u, sol.gamma_C)])
        out.update({
            f"{name}.rate": _slot(jets, 1, s.q),
            f"{name}.rate_C": _slot(jets_C, 1, s.q),
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
    residuals, the momentum partials, the momenta and the jets of L~
    through the piecewise oracles; the generated sources raise if
    reached."""
    import framedyn.frames as frames
    import framedyn.nonholonomic as nonholonomic
    import framedyn.quasichart as quasichart
    import framedyn.vakonomic as vakonomic

    from _oracles import (StateContextLiftsReference, StructureReference,
                          chart_jets_reference, fibre_partial_reference,
                          momentum_extension_reference, qv_taylor_reference)

    def forbidden(*args, **kwargs):
        raise AssertionError("a generated source was run")

    for module in (frames, nonholonomic, vakonomic):
        monkeypatch.setattr(module, "Structure", StructureReference)
    for name in ("dfield", "vlift", "clift", "epsilon", "regularity_report"):
        monkeypatch.setattr(nonholonomic.StateContext, name,
                            getattr(StateContextLiftsReference, name))
    monkeypatch.setattr(nonholonomic.NonholonomicField, "_chart_jets",
                        chart_jets_reference)
    monkeypatch.setattr(quasichart.QvChartPoint, "eval_fibre_partial",
                        fibre_partial_reference)
    monkeypatch.setattr(quasichart.QvChartPoint, "section",
                        momentum_extension_reference)
    monkeypatch.setattr(vakonomic.VariationalLagrangian, "qv_taylor",
                        qv_taylor_reference)
    for module, name in ((frames, "_structure_source"),
                         (nonholonomic, "_lift_function"),
                         (nonholonomic, "_epsilon_source"),
                         (nonholonomic, "_chart_source"),
                         (quasichart, "_fibre_source"),
                         (quasichart, "_section_source")):
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
    # context: in either order the section source runs twice (the values
    # with the rate along Gamma, then the rate along Gamma_C), and every
    # output is == to the one that call gives alone on a fresh state.
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
    source = quasichart._section_source

    def counted(*args):
        runs.append(args[2:3] + args[4:])
        return source(*args)

    monkeypatch.setattr(quasichart, "_section_source", counted)
    s = fresh()
    got = {name: calls[name](s) for name in order}
    assert runs == [(1, split.m)] * 2
    report, again = got["consistency_report"], want["consistency_report"]
    for key in ("weak_defect", "strong_defect", "tangency_defect"):
        assert _same(getattr(report, key), getattr(again, key)), key
    assert _same(got["gamma_bar_tangency"], want["gamma_bar_tangency"])


# A sled whose L and frame hold exp, log and tan: the section values must
# round the same in a run along a direction as in a run along none.
SLED = {
    "name": "sled", "n": 3, "m": 2, "coords": ["x", "y", "s"],
    "frame": [["1", "0", "0"], ["0", "1", "tan(s/3)"], ["0", "0", "1"]],
    "lagrangian": "exp(x/4)*u1*u1/2 + (u2*u2 + u3*u3)/2"
                  " + log(1 + y*y)*u2*u3/4 - x*y",
    "sample_box": {"q": [[-1.5, 1.5]] * 3, "v": [[-2.0, 2.0]] * 2},
}


@pytest.mark.parametrize("route", ["batched", "single"])
def test_section_values_do_not_depend_on_the_run(route):
    # Slot 0 of a run along (u, Gamma) is == to the values of a run along
    # no direction, so the state context may keep either; and
    # gamma_bar_tangency and solve_gamma_C give the same floats before
    # consistency_report has run at the state (values alone, where
    # solve_gamma_C's context is not solved) and after it (values and
    # rate from one run).
    from framedyn.systems import SystemDef

    sysd = SystemDef.from_json_dict(SLED)
    L, frame, split = sysd.lagrangian(), sysd.frame(), sysd.split()
    S = sample_states(sysd, 40, seed=7)
    states = [S] if route == "batched" else [
        QuasiState(S.q[i], S.v[i]) for i in range(40)]
    sections = [MomentumSection(L, frame, split),
                _shifted(sysd, L, frame, split)]
    for sec, s in ((sec, s) for sec in sections for s in states):
        def fresh():
            return QuasiState(s.q.copy(), s.v.copy())

        def calls(t, report_first):
            out = []
            if report_first:
                out += vars(consistency_report(L, frame, split, sec, t)
                            ).values()
            sol = solve_gamma_C(L, frame, split, sec, t)
            out += [sol.gamma_C, sol.A, sol.Lambda,
                    gamma_bar_tangency(L, frame, split, sec, t)]
            if not report_first:
                out += vars(consistency_report(L, frame, split, sec, t)
                            ).values()
            return [x for x in out if isinstance(x, np.ndarray)]

        ctx = NonholonomicField(L, frame, split)._solve(fresh())
        v_alpha = s.v_alpha(split)
        jets = sec.taylor(s.q, v_alpha, [(ctx.u, ctx.gamma)])
        assert _same(_slot(jets, 0, s.q), sec.values(s.q, v_alpha))
        before, after = calls(fresh(), False), calls(fresh(), True)
        after = after[3:] + after[:3]  # the report's defects last
        assert len(before) == len(after) == 7
        for got, want in zip(after, before):
            assert _same(got, want), sec.kind


def _sources(L, frame, split):
    """The generated functions of a system that read its frame: the
    structure (brackets, R and R v), the lifts, the momentum partials and
    the momenta along 0, 1 and 2 directions and the chart jets."""
    fn = _composite(L, frame)[0]
    return ([_structure_source(frame), _lift_source(L, frame, split)]
            + [_fibre_source(fn, frame.n, k) for k in range(3)]
            + [_section_source(fn, frame.n, k, frame, split.m)
               for k in range(3)]
            + [_chart_source(fn, split.m, frame.constants)])


def _epsilon_sources(L, frame, split):
    """The epsilon functions of a system, for the indices of the
    fundamental residual and for those of the multipliers."""
    return [_epsilon_source(L, tuple(indices), frame.constants)
            for indices in (range(split.m), range(split.m, split.n))]


def test_generated_constraint_side_is_shared_by_structure():
    def sources(sysd, frame=None):
        L, split = sysd.lagrangian(), sysd.split()
        frame = frame or sysd.frame()
        return _sources(L, frame, split), _epsilon_sources(L, frame, split)

    def same(a, b):
        return all(x is y for x, y in zip(a, b))

    def apart(a, b):
        return all(x is not y for x, y in zip(a, b))

    first, epsilon = sources(builtin("carriage"))
    for sysd in (builtin("carriage"), builtin("carriage", {"l": 0.0})):
        assert same(sources(sysd)[0], first)
        assert same(sources(sysd)[1], epsilon)
    _, sysd, L, frame, split = {g[0]: g for g in GATE_SYSTEMS}[
        "carriage_rotated"]
    assert apart(_sources(L, frame, split), first)
    # epsilon reads no frame expression, only M's constant entries
    # (Frame.constants): the carriage with its D-basis changed by the
    # identity, whose entries are other expressions with the same
    # constants, shares it; the rotated carriage, whose L is the carriage's
    # but whose M has other constant entries, does not, nor does another L
    identity = change_of_D_basis(sysd.frame(), split, [["1", "0"],
                                                        ["0", "1"]])
    assert identity.constants == sysd.frame().constants
    assert apart(_sources(L, identity, split)[:2], first[:2])
    assert same(_epsilon_sources(L, identity, split), epsilon)
    assert apart(_epsilon_sources(L, frame, split), epsilon)
    assert apart(sources(builtin("vertical_disk"))[1], epsilon)


@pytest.mark.parametrize("name,sysd,L,frame,split", GATE_SYSTEMS, ids=IDS)
def test_generated_constraint_side_emits_each_line_once(name, sysd, L, frame,
                                                        split):
    # Value numbering: a line that several inlined kernels need (the frame
    # values, L's subtrees at (q, u), the slots no probe reaches) is
    # emitted once in each source.  Dead lines are left out, so the floor
    # that keeps the test from passing on empty sources is on the total.
    sources = _sources(L, frame, split) + _epsilon_sources(L, frame, split)
    total = 0
    for fn in sources:
        right = [line.split(" = ", 1)[1]
                 for line in fn.__source__.splitlines() if " = " in line]
        assert right, (name, fn.__name__)
        assert len(right) == len(set(right)), (name, fn.__name__)
        total += len(right)
    assert total > 10 * len(sources), name


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
        nonholonomic._epsilon_source(Lu, (0, 1, 2), frame.constants),
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


# A system whose L and frame hold no literal 0 or 1: every zero and every
# 1.0 in its generated sources would be one that a generator put there.
DENSE_SYSTEM = {
    "name": "dense", "n": 3, "m": 2, "coords": ["x", "y", "z"],
    "frame": [["2 + cos(z)", "sin(z)", "x*y"],
              ["sin(x)", "3 + cos(x)", "y*z"],
              ["x*z", "y*x", "2 + sin(y)"]],
    "lagrangian": "(2 + sin(y))*u1*u1/2 + (3 + cos(z))*u2*u2/2 + x*u3*u3/2"
                  " + x*y*u1*u2 + z*u2*u3 + cos(x)*u1*u3 - y*z",
}


def test_no_structural_zero_is_emitted():
    # Structural zeros (the base part of a vertical lift, the probe w and
    # the probe's entries but its 1.0) are folded where a line is emitted:
    # no product with a generator's zero or 1.0 is formed, no zero term is
    # added, and no all-zero slot is returned as 0.0.
    import re

    from framedyn.quasichart import _composite_source
    from framedyn.systems import SystemDef

    sysd = SystemDef.from_json_dict(DENSE_SYSTEM)
    L, frame, split = sysd.lagrangian(), sysd.frame(), sysd.split()
    fn = _composite(L, frame)[0]
    sources = (_sources(L, frame, split) + _epsilon_sources(L, frame, split)
               + [_composite_source(fn, frame.n, k) for k in range(3)])
    for source in sources:
        text = source.__source__
        numbers = re.findall(r"(?<![\w.])\d+\.\d*(?:e[-+]?\d+)?", text)
        assert all(float(x) != 0.0 for x in numbers), text
        assert not re.search(r"\*\s*1\.0(?![\d])|(?<![\w.])1\.0\s*\*", text), (
            text)


# A frame whose entries hold the literals 0, -0.0, 1, 2-1 and 0*x, and an L
# with no literal 0 or 1 (tools/dump_outputs.py dumps the same system).
LITERAL_SYSTEM = {
    "name": "literal_frame", "n": 3, "m": 2, "coords": ["x", "y", "z"],
    "frame": [["1", "0*x", "y"], ["-0.0", "2-1", "z"], ["0", "0", "1"]],
    "lagrangian": "(2 + sin(y))*u1*u1/2 + u2*u2/2 + (2 + cos(x))*u3*u3/2"
                  " + z*u1*u2/4 - y*z",
    "sample_box": {"q": [[-1.0, 1.0]] * 3, "v": [[-1.0, 1.0]] * 2},
}


def _constant_systems():
    from framedyn.systems import SystemDef

    carriage = builtin("carriage")
    literal = SystemDef.from_json_dict(LITERAL_SYSTEM)
    rotated = {g[0]: g for g in GATE_SYSTEMS}["carriage_rotated"]
    return [("carriage", carriage.lagrangian(), carriage.frame(),
             carriage.split(), 17), ("carriage_rotated", *rotated[2:], 13),
            ("literal_frame", literal.lagrangian(), literal.frame(),
             literal.split(), 6)]


@pytest.mark.parametrize("name,L,frame,split,count", _constant_systems(),
                         ids=["carriage", "carriage_rotated", "literal_frame"])
def test_no_frame_constant_is_read_or_multiplied_by_one(name, L, frame,
                                                        split, count):
    # The frame's constant entries (Frame.zeros, Frame.ones) are structural
    # where a generator contracts with the rows of M: a source that takes M
    # as an input unpacks them into _, the field source, which makes M
    # with the frame's kernel, forms u = v^a X_a without their literals,
    # and no source multiplies by 1.0.  The entry 0*x is not constant: its
    # literal 0.0 stays a factor.
    import re

    from framedyn.nonholonomic import _field_source
    from framedyn.quasichart import _composite_source

    constant = frame.zeros | frame.ones
    assert len(constant) == count
    n, m = split.n, split.m
    fn = _composite(L, frame)[0]
    inputs = ([("m", _structure_source(frame)),
               ("m", _lift_source(L, frame, split)),
               ("X", _chart_source(fn, m, frame.constants))]
              + [("m", _epsilon_source(L, tuple(indices), frame.constants))
                 for indices in (range(m), range(m, n))])
    for prefix, source in inputs:
        read = re.findall(rf"\b{prefix}(\d+)_(\d+)\b", source.__source__)
        assert read, source.__source__
        assert not {int(i) * n + int(j) for i, j in read} & constant, (
            source.__source__)
    field = _field_source(L, frame, split).__source__
    head, tail = field.split("    M = (")
    M = tail.split(")", 1)[0].rstrip(", ").split(", ")
    literals = {M[i] for i in constant}
    zero = re.search(r"(t\d+) = 0\.0$", head, re.M).group(1)
    if name == "literal_frame":  # the entry 0*x reads the literal 0.0
        assert f" = {zero}*q0" in head
    # u = v^a X_a reads no literal of M; the entries of h with no term
    # keep the literal 0.0 of their sum's start, so the other literals of
    # M are read by no line after it
    for line in tail.splitlines()[1:]:
        assert not re.search(rf"v\d+\*({'|'.join(literals)})\b", line), line
        assert not (literals - {zero}) & set(re.findall(r"\bt\d+\b",
                                                        line)), line
    sources = ([field] + [s.__source__ for _, s in inputs]
               + [f(fn, n, k).__source__ for k in range(3)
                  for f in (_fibre_source, _composite_source)]
               + [_section_source(fn, n, k, frame, m).__source__
                  for k in range(3)])
    for text in sources:
        assert not re.search(r"\*\s*1\.0(?![\d])|(?<![\w.])1\.0\s*\*",
                             text), text
    # the section source reads no line of the frame's kernel that makes a
    # constant entry (the rotated carriage's entries hold products 1*X_b)
    for text in sources[-3:] if name != "carriage_rotated" else ():
        assert not [x for x in re.findall(r"^ +t\d+ = ([-+(). \d]+)$", text,
                                          re.M) if eval(x) in (0.0, 1.0)]


@pytest.mark.parametrize("name,count", [
    ("nonholonomic_particle", 1), ("vertical_disk", 2), ("delta_class", 2),
    ("carriage", 8)])
def test_structure_source_keeps_the_nonzero_entries(name, count):
    # Folded with the frame's constant entries, the structure source keeps
    # exactly the R^k_ij (i < j) that are nonzero at seeded states; the
    # carriage keeps 8 of its 50, where its constant entries read as values
    # kept 18.
    sysd = builtin(name)
    frame = sysd.frame()
    n = frame.n
    R = structure_functions(frame, sample_states(sysd, 200, seed=7).q)
    nonzero = {(k, i, j) for k in range(n) for i in range(n)
               for j in range(i + 1, n) if np.any(R[:, k, i, j] != 0.0)}
    entries = set(_structure_source(frame).entries)
    assert len(entries) == count
    assert nonzero <= entries
    if name != "carriage":
        assert entries == nonzero


def test_user_literals_keep_their_semantics_on_generated_routes():
    # The literals of L and the frame's 0*x are never folded, and M keeps
    # the frame's literal entries, -0.0 included: 0*x is NaN at x = NaN,
    # and a literal zero of M keeps its sign, on the
    # scalar and the batched field, lift and fibre routes as on the
    # piecewise oracles.  Two differences from the oracles are by design
    # (docs/exprlang.md, "Structural zeros"): an exact zero that a dropped
    # structural term would have summed may change sign, so signs are
    # compared on the frame's literal entries and their derivatives (M and
    # the rows D), where no structural zero enters; and a structural zero
    # times NaN, which the oracles form with a zero array, stays zero, so
    # at x = NaN every NaN of a generated route is NaN on the oracle, and
    # the outputs the oracle leaves finite are ==.
    from framedyn import ConstraintSplit, Frame, Lagrangian
    from framedyn.frames import SingularFrameError
    from framedyn.lagrangian import clift_at, hessian_rows, vlift_at
    from framedyn.nonholonomic import _field_function, _lift_function

    from _oracles import StateContextReference, fibre_partial_reference
    from test_nonholonomic import _raised

    coords = ("x", "y", "z")
    frame = Frame([["1", "0*x", "y"], ["-0.0", "1", "z"], ["0", "0", "1"]],
                  coords)
    L = Lagrangian("(u1*u1 + u2*u2 + u3*u3)/2 + 0*x*u1*u2 + -0.0*u3",
                   coords, ("u1", "u2", "u3"))
    split = ConstraintSplit(3, 2)
    q = np.array([[-0.5, 0.3, -0.2], [0.7, -0.4, 0.9], [np.nan, 0.1, 0.2]])
    v = np.array([[0.4, -0.6, 0.0], [-0.8, -0.1, 0.0], [0.3, 0.2, 0.0]])

    def same(got, want, signs=False):
        got, want = np.asarray(got, dtype=float), np.asarray(want, float)
        nan = np.isnan(got)
        assert got.shape == want.shape
        assert not finite or not np.any(np.isnan(want))
        assert np.all(np.isnan(want) | ~nan)  # a NaN here is one there
        kept = ~np.isnan(want)
        assert np.array_equal(got[kept], want[kept])
        if signs:
            assert np.array_equal(np.signbit(got), np.signbit(want))
        return nan

    rows = [(q[:2], v[:2]), (q, v)] + [(q[i], v[i]) for i in range(3)]
    for qs, vs in rows:
        finite = bool(np.all(np.isfinite(qs)))
        # field route, against the piecewise assembly; at x = NaN both
        # raise, since the literal 0*x makes M NaN
        s = QuasiState(qs, vs)
        field = _field_function(L, frame, split)
        if not finite:
            with np.errstate(invalid="ignore"):  # LAPACK's det of NaN
                got = _raised(lambda: field(QuasiState(qs, vs)))
                want = _raised(
                    lambda: StateContextReference(L, frame, split, s))
            assert type(got) is type(want) is SingularFrameError
            M = frame.matrix(qs)
            u = np.einsum("...a,...aj->...j", vs[..., :2], M[..., :2, :])
        else:
            M, u, D, h, g, rhs, clift, *_ = field(s)
            ref = StateContextReference(L, frame, split, s)
            same(np.reshape(M, ref.M.shape), ref.M, signs=True)
            same(u, ref.u)
            D = np.asarray(D, dtype=float).reshape(ref.D.shape)
            same(D, ref.D, signs=True)
            for got, want in ((h, ref.h), (rhs, ref.rhs)):
                same(np.asarray(got, dtype=float).reshape(want.shape), want)
            same(np.asarray(g, dtype=float).reshape(ref.g.shape), ref.g)
            same(np.asarray(clift, dtype=float).reshape(
                ref.rhs.shape), np.stack([ref.clift(a) for a in range(2)],
                                         axis=-1))
            M, u = ref.M, ref.u
        # lift route, against the lift formulas one kernel call each
        lifts = _lift_function(L, frame, split)(qs, u, M)
        Dn = frame.dfields(qs, u, 3)
        H = hessian_rows(L.taylor, qs, u, M)
        nans = [same(lifts.D, Dn[..., 2:, :], signs=finite),
                same(lifts.H, np.stack([H[..., a, b] for a in range(3)
                                        for b in range(max(a, 2), 3)])),
                same(lifts.vlift, np.stack([vlift_at(L, qs, u, M[..., a, :])
                                            for a in range(3)])),
                same(lifts.clift, np.stack([clift_at(
                    L, qs, u, M[..., 2, :], Dn[..., 2, :])])),
                same(lifts.corr, np.stack([vlift_at(L, qs, u,
                                                    Dn[..., 2, :])]))]
        # fibre route, against one run of the composite's kernel a partial
        for k in range(3):
            dirs = [(np.full(qs.shape, 0.3 * (d + 1)),
                     np.full(qs.shape, -0.2 * (d + 1))) for d in range(k)]
            pt = QvChartPoint(frame, qs, vs, dirs)
            nans += [same(pt.eval_fibre_partial(L, i).c,
                          fibre_partial_reference(pt, L, i).c)
                     for i in range(3)]
        # the literal 0*x is not folded: NaN at x = NaN, finite elsewhere
        assert any(np.any(n) for n in nans) == (not finite)
