"""Fractional p(x,y)-Laplacian Dirichlet problems with exterior data, at desk scale."""

from .checks import CheckResult, EstimateReport
from .exponents import (ExponentError, ExponentField, ScalarExponent, ValidationReport,
                        conjugate_exponent, critical_exponent, trace_exponent,
                        validate_exponent_field, validate_growth_pair)
from .lebesgue import (BisectionError, GridFunction, holder_pairing_check, luxemburg_norm,
                       modular, norm_modular_relation_check, norm_of_one_bounds, pairing,
                       power_norm_bounds_check)
from .mesh_kernel import (KernelError, KernelWeights, Mesh, MeshError, assemble_weights,
                          build_mesh, restrict_interior)
from .poisson import (PoissonProblem, PoissonSolution, Tolerances, energy, energy_gradient,
                      initial_guess, lr_estimate_check, minimizer_equivalence_check,
                      solve_poisson)
from .semilinear import (BallRadius, DecompositionError, FixedPointTrace, GrowthError,
                         NemytskyError, Nonlinearity, calibrate_nemytsky_constant,
                         fixed_point_solve, gamma_exponent, growth_screen,
                         invariant_ball_radius, measure_constant, nemytsky,
                         nemytsky_bound_check, shell_partition, solve_by_decomposition)
from .sobolev import (DirichletPair, apply_operator, full_norm, gagliardo_modular,
                      gagliardo_seminorm, weak_form)

__version__ = "0.1.0"
