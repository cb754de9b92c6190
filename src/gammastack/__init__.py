"""Exact-arithmetic engine for group-equivariant Lie bialgebras.

Everything is computed over the rationals with hard truncation degrees, so
every identity in the pipeline is checked as residual == 0, never "small".
"""

from gammastack.tensors import Monomial, SparseTensor, TensorSeries, unit_monomial
from gammastack.linalg import LinearSystem, LinearSolveResult, solve_linear
from gammastack.liealg import (
    FiniteGroup,
    GammaLieBialgebra,
    LieBialgebra,
    ValidationIssue,
    copoisson_envelope,
    validate_gamma_lba,
)
from gammastack.formal import PairingContext, build_delta_gamma
from gammastack.cohomology import (
    CoboundaryObstruction,
    alt,
    cohochschild_d,
    solve_coboundary,
)
from gammastack.stack import (
    AlgebraMap,
    StackBuildError,
    StackCertificate,
    build_iso,
    build_u,
    gauge_act,
    lift_twist,
    solve_gauge,
    verify_stack,
    verify_twist_equation,
)
from gammastack.quantum import (
    CrossedElement,
    GammaQUEData,
    HElement,
    QuantumError,
    QuantumStackCertificate,
    QueContext,
    SemidirectBialgebra,
    admissibilize,
    build_semidirect,
    classical_limit_residuals,
    drinfeld_prime_membership,
    drinfeld_prime_membership_general,
    gauge_transform,
    is_admissible,
    quantize_stack,
    validate_que_data,
)
from gammastack.problemfile import (
    Problem,
    ProblemParseError,
    build_que_data,
    parse_problem,
)

__all__ = [
    "Monomial",
    "SparseTensor",
    "TensorSeries",
    "unit_monomial",
    "LinearSystem",
    "LinearSolveResult",
    "solve_linear",
    "LieBialgebra",
    "FiniteGroup",
    "GammaLieBialgebra",
    "ValidationIssue",
    "validate_gamma_lba",
    "copoisson_envelope",
    "PairingContext",
    "build_delta_gamma",
    "CoboundaryObstruction",
    "alt",
    "cohochschild_d",
    "solve_coboundary",
    "AlgebraMap",
    "StackBuildError",
    "StackCertificate",
    "build_iso",
    "build_u",
    "gauge_act",
    "lift_twist",
    "solve_gauge",
    "verify_stack",
    "verify_twist_equation",
    "CrossedElement",
    "GammaQUEData",
    "HElement",
    "QuantumError",
    "QuantumStackCertificate",
    "QueContext",
    "SemidirectBialgebra",
    "admissibilize",
    "build_semidirect",
    "classical_limit_residuals",
    "drinfeld_prime_membership",
    "drinfeld_prime_membership_general",
    "gauge_transform",
    "is_admissible",
    "quantize_stack",
    "validate_que_data",
    "Problem",
    "ProblemParseError",
    "build_que_data",
    "parse_problem",
]
