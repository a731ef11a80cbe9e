"""framedyn: nonholonomic and vakonomic dynamics in anholonomic frames.

The package derives constrained Lagrangian dynamics from frame data alone:
exact forward-mode jets differentiate the Lagrangian and the frame
coefficients, the fundamental equations of the Lagrange-d'Alembert principle
are solved pointwise, vakonomic fields are built on multiplier sections, and
the two dynamics are compared through weak/strong consistency defects.  See
README.md for a tour and demos/ for worked examples.
"""

__version__ = "0.1.0"

from .jets import Jet2, TaylorValue
from .exprlang import (
    parse, eval_jet2, eval_value, ExprFunction,
    ExprError, ExprSyntaxError, UnknownFunctionError, UnboundNameError,
    EvalDomainError,
)
from .frames import (
    ConstraintSplit, Frame, VectorField, TangentPoint, QuasiState,
    SingularFrameError, ConstraintViolationError,
    bracket, structure_functions, quasi_velocities, velocities_from_quasi,
    change_of_D_basis, jacobi_residual,
)
from .lagrangian import (
    Lagrangian, QuasiVelocityFunction, RegularityReport,
    vlift_deriv, clift_deriv, hessian, energy, regularity,
)
from .nonholonomic import NonholonomicField, RegularityError
from .vakonomic import (
    Section, ZeroSection, CustomSection, MomentumSection,
    ShiftedMomentumSection, make_section, VakonomicSolution,
    ConsistencyReport, solve_gamma_C, consistency_report,
    gamma_bar_tangency, VariationalLagrangian, el_field,
    tilde_tangency_check,
)
from .chaplygin import (
    ChaplyginStructure, verify_chaplygin, prop6_scalar, shifted_section,
    carriage_special_length,
)
from .systems import (
    SystemDef, builtin, BUILTIN_NAMES, measure_density, sample_states,
)
from .integrator import (
    IntegratorConfig, Trajectory, IntegrationError, integrate, drift_report,
    export_csv, export_json,
)
