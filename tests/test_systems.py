import math

import numpy as np
import pytest

from framedyn.frames import velocities_from_quasi
from framedyn.systems import (SystemDef, builtin, measure_density,
                              sample_states)

from _oracles import reference_check


def test_builtin_names():
    for name in ("nonholonomic_particle", "vertical_disk", "delta_class",
                 "carriage"):
        sysd = builtin(name)
        assert sysd.n > sysd.m >= 2 or name != "carriage"
    with pytest.raises(ValueError):
        builtin("rolling_penny")


def test_particle_is_delta_instance(particle):
    sysd = particle.sysd
    assert sysd.n == 3 and sysd.m == 2
    assert sysd.lagrangian_expr.count("u") == 6  # three quadratic terms
    assert sysd.delta_info["deltas"] == ["q1"]


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        builtin("nonholonomic_particle", {"I1": -1.0})
    with pytest.raises(ValueError):
        builtin("carriage", {"R": 0.0})
    with pytest.raises(ValueError):
        builtin("carriage", {"l": -0.1})


def test_carriage_derived_params(carriage):
    pr = carriage.sysd.params
    R, c, J, J2, m = pr["R"], pr["c"], pr["J"], pr["J2"], pr["m"]
    assert pr["m"] == pr["m0"] + 2 * pr["m1"]
    assert pr["P"] == pytest.approx(R * R * (J + m * c * c) / (4 * c * c) + J2)
    assert pr["Q"] == pytest.approx(R * R * (J - m * c * c) / (4 * c * c))
    assert pr["K"] == pytest.approx(pr["m0"] * pr["l"] * R ** 3 / (4 * c * c))
    assert pr["Khat"] == pytest.approx(2 * c * pr["K"] / R ** 2)
    assert pr["H"] == pytest.approx((m * R * R + 2 * J2) / (2 * R))
    det = pr["P"] ** 2 - pr["Q"] ** 2
    assert pr["Phat"] == pytest.approx(-2 * c * pr["K"] * pr["P"] / (R * det))


class TestMeasureDensity:
    def test_particle(self, particle):
        assert measure_density(particle.sysd, 0.0) == pytest.approx(1.0)
        assert measure_density(particle.sysd, 1.0) == pytest.approx(
            1 / math.sqrt(2))

    def test_disk_constant(self, disk):
        pr = disk.sysd.params
        want = 1 / math.sqrt(pr["axial_inertia"] + pr["M"] * pr["R"] ** 2)
        for q1 in np.linspace(-3, 3, 7):
            assert measure_density(disk.sysd, q1) == pytest.approx(
                want, rel=1e-14)

    def test_constant_delta(self):
        sysd = builtin("delta_class", deltas=["0.5"],
                       inertias=[1.0, 2.0, 3.0])
        want = 1 / math.sqrt(2.0 + 3.0 * 0.25)
        for q1 in (-1.0, 0.0, 2.0):
            assert measure_density(sysd, q1) == pytest.approx(want)

    def test_not_delta_class(self, carriage):
        with pytest.raises(ValueError):
            measure_density(carriage.sysd, 0.0)


class TestReferenceChecks:
    def test_gamma_all_builtins(self, all_builtins):
        for name, bundle in all_builtins.items():
            if "gamma" not in bundle.sysd.references:
                continue
            rep = reference_check(bundle.sysd, "gamma", count=200)
            assert rep["max_abs_diff"] <= 1e-9, name

    def test_carriage_momentum_pairing(self, carriage):
        rep = reference_check(carriage.sysd, "momentum_pairing", count=200)
        assert rep["max_abs_diff"] <= 1e-9

    def test_constrained_lagrangian_displays(self, carriage, particle):
        rep = reference_check(carriage.sysd, "constrained_lagrangian",
                              count=100)
        assert rep["max_abs_diff"] <= 1e-12
        # delta-class L_c = (I1 v1^2 + (I2 + sum I_a Delta_a^2) v2^2)/2
        s = sample_states(particle.sysd, 100, seed=3)
        p = velocities_from_quasi(particle.frame, s)
        got = particle.L.value(p.q, p.u)
        want = 0.5 * (s.v[:, 0] ** 2
                      + (1 + s.q[:, 0] ** 2) * s.v[:, 1] ** 2)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_unknown_reference(self, particle):
        with pytest.raises(ValueError):
            reference_check(particle.sysd, "nope")


def test_disk_measure_condition_is_exact_zero(disk, rng):
    # sum I_a Delta_a Delta'_a = M R^2 (cos sin - sin cos) = 0
    pr = disk.sysd.params
    for q1 in rng.uniform(-3, 3, 5):
        d3, d4 = -pr["R"] * math.cos(q1), -pr["R"] * math.sin(q1)
        d3p, d4p = pr["R"] * math.sin(q1), -pr["R"] * math.cos(q1)
        S = pr["M"] * (d3 * d3p + d4 * d4p)
        assert S == pytest.approx(0.0, abs=1e-13)


def test_json_roundtrip(carriage):
    doc = carriage.sysd.to_json_dict()
    clone = SystemDef.from_json_dict(doc)
    assert clone.content_hash() == carriage.sysd.content_hash()
    q = np.zeros(5)
    assert np.allclose(clone.frame().matrix(q),
                       carriage.frame.matrix(q), atol=0)


def test_sample_states_deterministic(particle):
    a = sample_states(particle.sysd, 10, seed=7)
    b = sample_states(particle.sysd, 10, seed=7)
    assert np.array_equal(a.q, b.q) and np.array_equal(a.v, b.v)
    c = sample_states(particle.sysd, 10, seed=8)
    assert not np.array_equal(a.q, c.q)


def test_every_builtin_verifies_its_chaplygin_structure(all_builtins):
    from framedyn.chaplygin import verify_chaplygin
    for bundle in all_builtins.values():
        rep = verify_chaplygin(bundle.L, bundle.frame, bundle.split,
                               bundle.sysd.chaplygin,
                               [bundle.states(20, seed=9)])
        assert rep["passed"]
