"""The vertically rolling disk and its variational Lagrangian.

The disk has constant invariant measure density, so the nonholonomic and
vakonomic problems are strongly consistent on the momentum section, and the
nonholonomic field is the restriction of an Euler-Lagrange field: building
L~ = L - p_a v^a and solving its full (unconstrained) Euler-Lagrange
equations reproduces the constrained dynamics exactly.
"""

import numpy as np

from framedyn import (MomentumSection, NonholonomicField,
                      VariationalLagrangian, builtin, consistency_report,
                      el_field, measure_density, prop6_scalar, sample_states,
                      tilde_tangency_check, velocities_from_quasi,
                      verify_chaplygin)

sysd = builtin("vertical_disk")
L, F, split = sysd.lagrangian(), sysd.frame(), sysd.split()
field = NonholonomicField(L, F, split)

print("== the disk is a Chaplygin system ==")
states = sample_states(sysd, 100, seed=0)
rep = verify_chaplygin(L, F, split, sysd.chaplygin, [states])
print({k: v for k, v in rep.items() if k != "tolerance"})

print("\n== constant measure density ==")
for q1 in (0.0, 0.7, 2.4):
    print(f"N({q1:+.1f}) = {measure_density(sysd, q1):.10f}")

print("\n== consistency scalar and defects ==")
p6 = prop6_scalar(L, F, split, states)
print(f"R^a_ab v p_a over 100 states: max |.| = {np.max(np.abs(p6)):.2e}")
mom = MomentumSection(L, F, split)
rep = consistency_report(L, F, split, mom, states)
print(f"weak/strong/tangency defects: "
      f"{np.max(np.abs(rep.weak_defect)):.2e} / "
      f"{np.max(np.abs(rep.strong_defect)):.2e} / "
      f"{np.max(np.abs(rep.tangency_defect)):.2e}")

print("\n== the variational Lagrangian reproduces the dynamics ==")
VL = VariationalLagrangian(L, F, split, mom)
p = velocities_from_quasi(F, states)
gamma_tilde = el_field(VL, F, p)
gamma = field.gamma(states)
print("el-field of L~ restricted to C vs nonholonomic Gamma: max diff "
      f"{np.max(np.abs(gamma_tilde[:, :split.m] - gamma)):.2e}")
print("tangency of the el-field to C: max |Gamma~^a| = "
      f"{np.max(np.abs(gamma_tilde[:, split.m:])):.2e}")
check = tilde_tangency_check(VL, F, split, [states])
print(f"tilde_tangency_check: tangent={check['tangent']}, "
      f"max residual {check['max_residual']:.2e}")

print("\n== contrast: the particle has no constant density ==")
part = builtin("nonholonomic_particle")
Lp, Fp, sp = part.lagrangian(), part.frame(), part.split()
st = sample_states(part, 100, seed=0)
VLp = VariationalLagrangian(Lp, Fp, sp, MomentumSection(Lp, Fp, sp))
pp = velocities_from_quasi(Fp, st)
dev = np.max(np.abs(el_field(VLp, Fp, pp)[:, :sp.m]
                    - NonholonomicField(Lp, Fp, sp).gamma(st)))
print(f"particle: el-field of L~ deviates from Gamma by up to {dev:.3f}")
