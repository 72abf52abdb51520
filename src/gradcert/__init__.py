"""Gradient-like iterative solvers with majorant-based convergence certificates.

Solves nonlinear operator equations f(x) = 0 by residual-driven steps
x_{n+1} = x_n - Lambda(x_n, f(x_n)) T(x_n) f(x_n) (minimal residuals,
steepest descent, minimal errors and friends; the identity-T rules also
run in finite-dimensional l_p geometry), and computes the scalar majorant
certificates that guarantee convergence and yield a priori / a posteriori
error bounds.
"""

from .errors import (ArgumentError, AssumptionError, BreakdownError,
                     ConvergenceError, DivergenceError, GradcertError)
from .estimator import (Estimates, SamplePlan, estimate_lambda_tilde,
                        estimate_nu_tilde, estimate_nu_trajectory,
                        estimate_omega_lipschitz, estimated_bound_data,
                        sample_estimates)
from .majorant import (BoundData, HolderModulus, LipschitzModulus,
                       MajorantCertificate, RelaxationMap, TabulatedModulus,
                       altman_validity_threshold, aposteriori_bound,
                       apriori_bound, apriori_bounds, certify, majorant_sum,
                       mu_altman_family, mu_min_family, smallest_fixed_point)
from .methods import (ALL_FAMILIES, ALTMAN_MIN_ERROR, ALTMAN_STEEPEST_DESCENT,
                      BANACH_ALTMAN_STEEPEST_DESCENT, BANACH_FAMILIES,
                      BANACH_MIN_RESIDUAL, BANACH_STEEPEST_DESCENT,
                      HILBERT_FAMILIES, MIN_CO_ERROR, MIN_ERROR, MIN_RESIDUAL,
                      STEEPEST_DESCENT, IterationTrace, MethodSpec, StopRule,
                      TraceStep, VerificationReport, Violation,
                      empirical_rates, solve, step_direction,
                      verify_relaxation)
from .problems import (CertifiedBounds, JacobianReport, Problem,
                       chandrasekhar, identity, indefinite2d, linear_spd,
                       make_problem, newton_solve, problem_names, quad2d,
                       registry, scalar_quad, validate_jacobian)
from .spaces import (SpaceAxiomReport, SpaceGeometry, euclidean, norm,
                     semiscalar, sequence_p, verify_space_axioms)

__version__ = "0.1.0"
