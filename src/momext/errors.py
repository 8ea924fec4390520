"""Exception types for the moment-problem pipeline.

Every failure mode that carries mathematical meaning gets its own class so
callers (and the command line tool) can branch on it.  All of them inherit
from MomentProblemError.
"""


class MomentProblemError(Exception):
    """Base class for structured failures in this package."""


class ProblemFileError(MomentProblemError):
    """A problem / parameter / measure file failed validation."""


class InsufficientMoments(MomentProblemError):
    """Fewer moment matrices than the requested construction needs."""


class NotPSD(MomentProblemError):
    """A matrix that must be positive (semi)definite is not, beyond tolerance.

    ``section`` says which Hankel section failed: "leading" for the order-(d-1)
    section that must be positive definite, "trailing" for the order-d section
    that must be positive semidefinite, or None for other matrices.
    """

    def __init__(self, message, section=None, min_eigenvalue=None):
        super().__init__(message)
        self.section = section
        self.min_eigenvalue = min_eigenvalue


class DependentDomain(MomentProblemError):
    """The vectors meant to span the shift domain are numerically dependent."""


class NormViolation(MomentProblemError):
    """A parameter matrix exceeds the unit operator-norm bound."""


class NotAdmissible(MomentProblemError):
    """The extension parameter collides with the forbidden operator.

    ``margin`` carries sigma_min(C_minus V - C_plus), which vanishes on the
    forbidden operator X, for diagnostics.
    """

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class DimensionMismatch(MomentProblemError):
    """Block dimensions do not add up (domain + defect != ambient)."""


class SingularSystem(MomentProblemError):
    """A resolvent linear system was singular at a point, or a transform's
    pole-residue form failed its check."""

