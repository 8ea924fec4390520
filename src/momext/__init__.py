"""Truncated matrix moment problems on the real line.

Given finitely many Hermitian matrix moments S_0, ..., S_{2d}, this package
decides solvability, builds every solution that comes from the canonical
operator construction (an isometric or contractive parameter per solution),
and verifies each output against the prescribed moments:

- solvability check on the two nested block Hankel sections,
- Gram-space model, block shift, defect subspaces, forbidden parameter,
- self-adjoint extensions and their atomic spectral measures,
- generalized resolvents, the matrix Stieltjes transform of a solution,
  closed-form recovery of its moments and cell masses (smoothed density
  inversion for lam-dependent parameters),
- the even-length scalar variant with its four-way classification.

The JSON file formats and the command line live in momext.jsonio and
momext.cli.
"""

from .errors import (DependentDomain, DimensionMismatch,
                     IllConditionedProjection, InsufficientMoments,
                     MomentProblemError, NormViolation, NotAdmissible,
                     NotConverged, NotPSD, ProblemFileError, SingularSystem)
from .extensions import (ExtensionParameter, SelfAdjointExtension,
                         apply_generalized_resolvent, pencil_spectral_radius,
                         resolvent_matrix, selfadjoint_extension)
from .gram import GramSpace, factor_psd
from .hankel import (BlockHankel, ConditionReport, MomentSequence,
                     build_block_hankel, check_solvability_prefix,
                     check_truncated_conditions)
from .measures import (AtomicMatrixMeasure, ContourRecovery, PerronResult,
                       StieltjesTransform, VerificationReport,
                       measure_distance, moments_from_transform,
                       perron_inversion, spectral_measure,
                       stieltjes_transform, verify_moments,
                       verify_recovered_moments)
from .pipeline import (SolveResult, SweepEntry, SweepResult, Workspace,
                       default_parameter, prepare, solve_truncated,
                       theta_sweep)
from .scalar import ScalarEvenResult, compute_rank_r, solve_scalar_even
from .shift import (AdmissibilityReport, DeficiencyPair, ForbiddenOperator,
                    ShiftOperator, build_shift, deficiency_subspaces,
                    forbidden_operator, is_admissible)
from .tolerances import DEFAULT, Tolerances

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport", "AtomicMatrixMeasure", "BlockHankel",
    "ConditionReport", "ContourRecovery", "DEFAULT", "DeficiencyPair",
    "DependentDomain", "DimensionMismatch", "ExtensionParameter",
    "ForbiddenOperator", "GramSpace", "IllConditionedProjection",
    "InsufficientMoments", "MomentProblemError", "MomentSequence",
    "NormViolation", "NotAdmissible", "NotConverged", "NotPSD",
    "PerronResult", "ProblemFileError",
    "ScalarEvenResult", "SelfAdjointExtension",
    "ShiftOperator", "SingularSystem", "SolveResult", "StieltjesTransform",
    "SweepEntry", "SweepResult", "Tolerances", "VerificationReport",
    "Workspace", "apply_generalized_resolvent", "build_block_hankel",
    "build_shift", "check_solvability_prefix", "check_truncated_conditions",
    "compute_rank_r", "default_parameter",
    "deficiency_subspaces", "factor_psd",
    "forbidden_operator", "is_admissible", "measure_distance",
    "moments_from_transform", "pencil_spectral_radius",
    "perron_inversion", "prepare", "resolvent_matrix", "selfadjoint_extension",
    "solve_scalar_even", "solve_truncated", "spectral_measure",
    "stieltjes_transform", "theta_sweep", "verify_moments",
    "verify_recovered_moments", "__version__",
]
