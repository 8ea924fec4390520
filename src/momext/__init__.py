"""Truncated matrix moment problems on the real line.

Given finitely many Hermitian matrix moments S_0, ..., S_{2d}, this package
decides solvability, builds every solution that comes from the canonical
operator construction (an isometric or contractive parameter per solution),
and verifies each output against the prescribed moments:

- solvability check on the two nested block Hankel sections,
- the block Cholesky Gram model, the block Jacobi shift, the Cayley
  parametrization of its extensions, the forbidden parameter
  X = C_-^{-1} C_+ = U^H (which depends on the data) and the default -X,
- self-adjoint extensions and their atomic spectral measures,
- generalized resolvents of constant contractive parameters, the matrix
  Stieltjes transform of a solution, and closed-form recovery of its
  moments and cell masses,
- the even-length scalar variant with its four-way classification.

The JSON file formats and the command line live in momext.jsonio and
momext.cli.
"""

from .errors import (DependentDomain, DimensionMismatch, InsufficientMoments,
                     MomentProblemError, NormViolation, NotAdmissible,
                     NotPSD, ProblemFileError, SingularSystem)
from .extensions import (AdmissibilityReport, ExtensionParameter,
                         SelfAdjointExtension, is_admissible,
                         pencil_spectral_radius, selfadjoint_extension)
from .gram import GramSpace, factor_psd
from .hankel import (BlockHankel, ConditionReport, MomentSequence,
                     build_block_hankel, check_truncated_conditions)
from .measures import (AtomicMatrixMeasure, ContourRecovery, PerronResult,
                       StieltjesTransform, VerificationReport,
                       measure_distance, moments_from_transform,
                       perron_inversion, spectral_measure, verify_moments,
                       verify_recovered_moments)
from .pipeline import (SolveResult, SweepEntry, SweepResult, Workspace,
                       default_parameter, prepare, solve_truncated,
                       theta_sweep)
from .scalar import ScalarEvenResult, solve_scalar_even
from .shift import (DeficiencyPair, ShiftOperator, build_shift,
                    deficiency_subspaces, forbidden_operator)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "AtomicMatrixMeasure", "BlockHankel",
    "ConditionReport", "ContourRecovery", "DEFAULT", "DeficiencyPair",
    "DependentDomain", "DimensionMismatch", "ExtensionParameter",
    "GramSpace",
    "InsufficientMoments", "MomentProblemError", "MomentSequence",
    "NormViolation", "NotAdmissible", "NotPSD",
    "PerronResult", "ProblemFileError",
    "ScalarEvenResult", "SelfAdjointExtension",
    "ShiftOperator", "SingularSystem", "SolveResult", "StieltjesTransform",
    "SweepEntry", "SweepResult", "Tolerances", "VerificationReport",
    "Workspace", "build_block_hankel", "build_shift",
    "check_truncated_conditions",
    "default_parameter",
    "deficiency_subspaces", "factor_psd",
    "forbidden_operator", "is_admissible", "measure_distance",
    "moments_from_transform", "pencil_spectral_radius",
    "perron_inversion", "prepare", "selfadjoint_extension",
    "solve_scalar_even", "solve_truncated", "spectral_measure",
    "theta_sweep", "verify_moments",
    "verify_recovered_moments", "__version__",
]
