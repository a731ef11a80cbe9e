"""One rounding for a single state and a batch (docs/exprlang.md, "One
source, two bindings"): every public op at a single state gives the floats
of its row in a batch, on systems whose frames and Lagrangians read exp,
log, tan and integer powers; and, for random expressions of the grammar,
a kernel run at one point gives the row of a batched run, and raises where
the batch raises."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedyn import (NonholonomicField, QuasiState, SystemDef, builtin,
                      sample_states)
from framedyn.exprlang import EvalDomainError, ExprFunction, run_kernel
from framedyn.vakonomic import (CustomSection, MomentumSection, _slot,
                                consistency_report, gamma_bar_tangency,
                                solve_gamma_C)

from test_constraint_side import SLED
from test_nonholonomic import _shifted

# The sled's coordinates and box, with integer powers in L and the frame.
POW = {
    "name": "pow_sled", "n": 3, "m": 2, "coords": ["x", "y", "s"],
    "frame": [["1", "0", "0"], ["0", "1", "pow(s, 3)/5"], ["0", "0", "1"]],
    "lagrangian": "(1 + pow(x, 2)/7)*u1*u1/2 + (u2*u2 + u3*u3)/2"
                  " + pow(y, 3)*u2*u3/9 - pow(x*y, 2)",
    "sample_box": SLED["sample_box"],
}
STATES = 200


def _delta_states(sysd):
    """Seeded states of delta_class, the first of them moved to values of
    q1 at which Python's q1**2 is not q1*q1 (the frame reads pow(q1, 2)),
    found among seeded draws; none are moved where the C library's pow
    squares exactly."""
    S = sample_states(sysd, STATES, seed=3)
    q1 = np.random.default_rng(3).uniform(-2.0, 2.0, 5000).tolist()
    odd = [x for x in q1 if x ** 2 != x * x]
    q = S.q.copy()
    odd = odd[:STATES]
    q[:len(odd), 0] = odd
    return QuasiState(q, S.v.copy())


def _system(name):
    if name == "delta_class":
        sysd = builtin(name)
        return sysd, _delta_states(sysd)
    sysd = (builtin(name) if name == "carriage"
            else SystemDef.from_json_dict({"sled": SLED, "pow": POW}[name]))
    return sysd, sample_states(sysd, STATES, seed=3)


def _custom(frame, split):
    """One expression per constraint index that reads exp, log, tan and a
    power of three coordinates (the sled's x, y and s first)."""
    c = frame.coords * 3
    return CustomSection(frame, split, [
        f"exp(3*{c[a]}) + log(1 + {c[a + 1]}*{c[a + 1]}) + tan({c[a + 2]}/3)"
        f" + pow({c[a]}, 3)*v1" for a in range(split.n_constraints)])


def _outputs(sysd, L, frame, split, s):
    field = NonholonomicField(L, frame, split)
    out = {"gamma": field.gamma(s), "multipliers": field.multipliers(s)}
    for name in ("residual_fundamental", "residual_hamel",
                 "constrained_form_residual"):
        out[name] = getattr(field, name)(s)
    sections = {"momentum": MomentumSection(L, frame, split),
                "shifted": _shifted(sysd, L, frame, split),
                "custom": _custom(frame, split)}
    for name, sec in sections.items():
        rep = consistency_report(L, frame, split, sec, s)
        sol = solve_gamma_C(L, frame, split, sec, s)
        out.update({f"{name}.weak": rep.weak_defect,
                    f"{name}.strong": rep.strong_defect,
                    f"{name}.tangency": rep.tangency_defect,
                    f"{name}.gamma_C": sol.gamma_C, f"{name}.A": sol.A,
                    f"{name}.Lambda": sol.Lambda,
                    f"{name}.gamma_bar": gamma_bar_tangency(L, frame, split,
                                                            sec, s)})
        t = QuasiState(s.q.copy(), s.v.copy())  # values and rate unmemoised
        ctx = field._solve(t)
        v_alpha = t.v_alpha(split)
        out[f"{name}.values"] = sec.values(t.q, v_alpha)
        out[f"{name}.rate"] = _slot(sec.taylor(t.q, v_alpha,
                                               [(ctx.u, ctx.gamma)]), 1, t.q)
    return out


@pytest.mark.parametrize("name", ["sled", "pow", "carriage", "delta_class"])
def test_single_state_equals_its_batch_row(name):
    sysd, S = _system(name)
    args = sysd, sysd.lagrangian(), sysd.frame(), sysd.split()
    batch = _outputs(*args, S)
    for i in range(STATES):
        single = _outputs(*args, QuasiState(S.q[i].copy(), S.v[i].copy()))
        for key, value in single.items():
            assert np.array_equal(value, batch[key][i], equal_nan=True), (
                name, i, key)


# -- random expressions of the grammar ----------------------------------------

VARS = ("a", "b")


@st.composite
def _expressions(draw):
    """An expression of the grammar from a postfix program of up to twelve
    steps, each a leaf, an operator of + - * / on the last two terms, a
    function or a power (exponent -3..4) of the last term, or its negation;
    the terms left are summed."""
    terms = []
    for step in draw(st.lists(st.integers(0, 4), min_size=1, max_size=12)):
        if step == 0 or not terms or step == 1 and len(terms) < 2:
            terms.append(draw(st.sampled_from(VARS + ("0.5", "1.5", "3"))))
        elif step == 1:
            b, a = terms.pop(), terms.pop()
            terms.append(f"({a} {draw(st.sampled_from('+-*/'))} {b})")
        elif step == 2:
            fn = draw(st.sampled_from(("sin", "cos", "tan", "exp", "log",
                                       "sqrt")))
            terms.append(f"{fn}({terms.pop()})")
        elif step == 3:
            terms.append(f"pow({terms.pop()}, {draw(st.integers(-3, 4))})")
        else:
            terms.append(f"-{terms.pop()}")
    return " + ".join(terms)


_POINTS = np.random.default_rng(5).uniform(-3.0, 3.0, (64, 2))
_DIRS = np.random.default_rng(6).normal(size=(2, 64, 2))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_expressions(), st.integers(0, 2))
def test_kernel_at_a_point_equals_its_batch_row(src, k):
    # Where the point raises, the batch raises.  Where the 64-state batch
    # raises, each point is compared with a batch of its own state; where
    # that raises and the point does not (inf - inf is NaN on floats, where
    # a batch raises), nothing is compared.
    kernel = ExprFunction(src, VARS).kernel(k)

    def batch(rows):
        try:
            return run_kernel(kernel, (_POINTS[rows],), (),
                              [(d[rows],) for d in _DIRS[:k]])
        except EvalDomainError:
            return None

    full = batch(slice(None))
    for i in range(len(_POINTS)):
        row = full[:, i] if full is not None else batch(slice(i, i + 1))
        try:
            point = run_kernel(kernel, (_POINTS[i],), (),
                               [(d[i],) for d in _DIRS[:k]])
        except EvalDomainError:
            assert row is None, (src, i)
            continue
        if row is not None:
            assert np.array_equal(point, np.ravel(row), equal_nan=True), (
                src, i)
