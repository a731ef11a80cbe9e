"""The compiled chart composite against the leaf-by-leaf reference.

QvChartPoint runs one compiled kernel of L(q, X(q)^T v + w); the reference
in _oracles.py forms u in TaylorValue arithmetic and tree-walks L.  Every
slot must agree under == (so only the sign of an exact zero may differ),
at a batch of states and at each state alone, for every direction count
up to three (two with the fibre probe).
"""

import numpy as np
import pytest

from framedyn import builtin, change_of_D_basis
from framedyn.frames import ConstraintSplit, Frame
from framedyn.lagrangian import Lagrangian
from framedyn.quasichart import QvChartPoint
from framedyn.vakonomic import (CustomSection, MomentumSection,
                                ShiftedMomentumSection, ZeroSection)

from _oracles import (ChartPointReference, section_extension_reference,
                      section_taylor_reference)

ROTATION = [["cos(theta)", "-sin(theta)"], ["sin(theta)", "cos(theta)"]]


def _system(name):
    if name == "clash":
        # L and the frame bind the parameter a to different values
        coords = ("x", "y", "z")
        L = Lagrangian("0.5*a*(ux*ux + uy*uy) + 0.5*uz*uz + a*sin(x)*uy*uz",
                       coords, ("ux", "uy", "uz"), {"a": 2.0})
        F = Frame([["1", "0", "a*y"], ["0", "1", "-a*x"],
                   ["0", "0", "1 + 0.1*cos(x)"]], coords, {"a": 3.0})
        split = ConstraintSplit(3, 2)
        k = ["a*x*v1 + v2"]
        custom = ["exp(a*y)*v1*v2"]
        return L, F, split, k, custom
    sysd = builtin("carriage" if name == "rotated" else name)
    L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
    if name == "rotated":
        F = change_of_D_basis(F, split, ROTATION)
    c = F.coords
    k = sysd.builtin_k or [f"sin({c[0]})*v1 + {c[-1]}*v2"] * (
        split.n - split.m)
    custom = [f"{c[0]}*v1 + cos({c[-1]})*v2", "exp(v1/3) - 0.5",
              "v1*v2"][: split.n - split.m]
    return L, F, split, k, custom


CASES = ["nonholonomic_particle", "vertical_disk", "delta_class",
         "carriage", "rotated", "clash"]


def _same(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(w))
        assert np.all(g == w), (g, w)


def _same_jets(got, want):
    if want is None:
        assert got is None
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.k == w.k
        _same(g.c, w.c)


@pytest.mark.parametrize("name", CASES)
def test_chart_point_equals_reference(name):
    L, F, split, k, custom = _system(name)
    n, m = split.n, split.m
    sections = [ZeroSection(F, split), MomentumSection(L, F, split),
                ShiftedMomentumSection(L, F, split, k),
                CustomSection(F, split, custom)]
    rng = np.random.default_rng(51)
    batch = 4
    q = rng.uniform(-1.0, 1.0, (batch, n))
    v = rng.uniform(-1.0, 1.0, (batch, n))
    dirs = [(rng.uniform(-1.0, 1.0, (batch, n)),
             rng.uniform(-1.0, 1.0, (batch, n))) for _ in range(3)]
    points = [slice(None)] + list(range(batch))
    for i in points:
        for nd in range(4):
            d = [(dq[i], dv[i]) for dq, dv in dirs[:nd]]
            pt = QvChartPoint(F, q[i], v[i], d)
            ref = ChartPointReference(F, q[i], v[i], d)
            _same(pt.eval(L).c, ref.eval(L).c)
            if nd == 3:
                continue
            ref = ChartPointReference(F, q[i], v[i], d, probe=True)
            _same(pt.eval(L).c, ref.eval(L).c)
            for j in range(n):
                _same(pt.eval_fibre_partial(L, j).c,
                      ref.eval_fibre_partial(L, j).c)
            dc = [(dq, dv[..., :m]) for dq, dv in d]
            for sec in sections:
                _same_jets(sec.extension(pt),
                           section_extension_reference(sec, ref))
                _same_jets(sec.taylor(q[i], v[i][..., :m], dc),
                           section_taylor_reference(sec, q[i],
                                                    v[i][..., :m], dc))


def test_parameter_clash_keeps_each_value():
    # at x = 0, y = 1 and v = e_1, u = X_1 = (1, 0, 3) with the frame's
    # a = 3, and L = 0.5*2*1 + 0.5*3^2 with its own a = 2
    L, F, split, _, _ = _system("clash")
    q = np.array([0.0, 1.0, 0.0])
    val = QvChartPoint(F, q, np.array([1.0, 0.0, 0.0]), []).eval(L).c[0]
    assert val == pytest.approx(0.5 * 2.0 + 0.5 * 9.0, rel=1e-15)
