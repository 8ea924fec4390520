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
momext.cli.  Each exported name is imported from its home module on first
access, so ``import momext`` alone loads no submodule.
"""

_EXPORTS = {
    "errors": ("DependentDomain", "DimensionMismatch", "InsufficientMoments",
               "MomentProblemError", "NormViolation", "NotAdmissible",
               "NotPSD", "ProblemFileError", "SingularSystem"),
    "extensions": ("AdmissibilityReport", "ExtensionParameter",
                   "SelfAdjointExtension", "is_admissible",
                   "pencil_spectral_radius", "selfadjoint_extension"),
    "hankel": ("BlockHankel", "ConditionReport", "GramSpace",
               "MomentSequence", "build_block_hankel",
               "check_truncated_conditions", "factor_psd"),
    "measures": ("AtomicMatrixMeasure", "ContourRecovery", "PerronResult",
                 "StieltjesTransform", "VerificationReport",
                 "measure_distance", "moments_from_transform",
                 "perron_inversion", "spectral_measure", "verify_moments",
                 "verify_recovered_moments"),
    "pipeline": ("SolveResult", "SweepEntry", "SweepResult", "Workspace",
                 "default_parameter", "prepare", "solve_truncated",
                 "theta_sweep"),
    "scalar": ("ScalarEvenResult", "solve_scalar_even"),
    "shift": ("DeficiencyPair", "ShiftOperator", "build_shift",
              "deficiency_subspaces", "forbidden_operator"),
    "tolerances": ("DEFAULT", "Tolerances"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    """Import an exported name from its home module and bind it here, so
    later reads find it without this call (PEP 562).  __import__, unlike
    importlib.import_module, reports the load to -X importtime."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = __import__(f"{__name__}.{_HOME[name]}", fromlist=[name])
    globals()[name] = value = getattr(home, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
