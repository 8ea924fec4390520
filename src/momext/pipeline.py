"""End-to-end drivers: moments in, measures or transforms out.

solve_truncated runs the full construction,

    conditions -> Gram space -> shift -> defect subspaces -> forbidden
    operator -> parameter -> extension -> measure (or transform),

and theta_sweep walks the unimodular parameter family e^{i theta}, reporting
which angles are forbidden and how the resulting measures differ.

Everything happens in the block Cholesky frame (momext.gram, momext.shift).
The default parameter is V = -X, opposite the forbidden operator X (the
adjoint of the rotation of the minus defect basis), whose extension closes
the Jacobi matrix with B = Re Omega: closed forms, with no solve after
prepare, that follow the data under x -> a x + b and S_n -> U S_n U^H.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NotAdmissible, NotPSD
from .gram import GramSpace, _factor
from .hankel import ConditionReport, MomentSequence, _check
from .linalg import read_only
from .measures import (AtomicMatrixMeasure, ContourRecovery,
                       StieltjesTransform, VerificationReport,
                       _screened_transform, moments_from_transform,
                       pairwise_distances,
                       spectral_measure, verify_measures, verify_moments,
                       verify_recovered_moments)
from .extensions import (KIND_ISOMETRIC, ExtensionParameter,
                         SelfAdjointExtension, _selfadjoint_extension,
                         screen_parameter)
from .shift import (AdmissibilityReport, DeficiencyPair, ForbiddenOperator,
                    ShiftOperator, build_shift, deficiency_subspaces,
                    forbidden_operator)
from .tolerances import DEFAULT, Tolerances

#: diagnostic spectral points sampled for transform-route results
TRANSFORM_SAMPLE_POINTS = (1j, 2j, 1.0 + 1j)

#: atoms of two sweep measures closer than this share a site in the
#: distance matrix
SWEEP_SITE_TOL = 1e-3


@dataclasses.dataclass(eq=False)
class Workspace:
    """Everything the construction derives from the data before a parameter."""

    sequence: MomentSequence
    condition: ConditionReport
    space: GramSpace
    shift: ShiftOperator
    pair: DeficiencyPair
    forbidden: ForbiddenOperator

    @property
    def defect(self) -> int:
        return self.pair.defect


def prepare(seq: MomentSequence, tol: Tolerances = DEFAULT) -> Workspace:
    """Check solvability and build the operator stage; raises NotPSD if not.

    The leading condition failing raises NotPSD(section="leading"); the
    trailing one NotPSD(section="trailing").

    One pass over the data: H_d is built once (H_{d-1} is its leading
    block), and one eigvalsh of each section serves the two tests, the
    rank m and the domain check.  Then come one Cholesky, two solves with
    its factor L, one N x N eigh, one batched solve with J_0 - conj z0 and
    J_0 - z0, one q x q eigh and one q x q SVD; X is read off the rotation
    of the defect bases.  The Workspace is bit for bit the one the
    public chain check_truncated_conditions, factor_psd(build_block_hankel
    (...)), build_shift, deficiency_subspaces, forbidden_operator gives.
    """
    report, section, (w, w_lead) = _check(seq, tol)
    if not report.leading_positive:
        raise NotPSD(
            f"the leading section (order {report.order - 1}) is not positive "
            f"definite: min eigenvalue {report.min_eig_leading:.6e}",
            section="leading", min_eigenvalue=report.min_eig_leading)
    if not report.trailing_psd:
        raise NotPSD(
            f"the trailing section (order {report.order}) is not positive "
            f"semidefinite: min eigenvalue {report.min_eig_trailing:.6e}",
            section="trailing", min_eigenvalue=report.min_eig_trailing)
    space = _factor(section, w, w_lead, tol)
    shift = build_shift(space)
    pair = deficiency_subspaces(shift)
    forb = forbidden_operator(shift, pair)
    return Workspace(sequence=seq, condition=report, space=space, shift=shift,
                     pair=pair, forbidden=forb)


def default_parameter(ws: Workspace, tol: Tolerances = DEFAULT):
    """V = -X, the parameter opposite the forbidden operator, screened: the
    parameter, its report and None (it is no angle of the unimodular
    family unless X is).  Its extension has B = Re Omega with no solve,
    its margin is 2 sigma_min(C_plus) and its forbidden gap is 2.  The
    screen still measures its norm, isometry, margin and gap."""
    parameter = ExtensionParameter(kind=KIND_ISOMETRIC,
                                   matrix=read_only(-ws.forbidden.matrix))
    _, report = screen_parameter(ws.shift, ws.pair, parameter, ws.forbidden,
                                 tol)
    if not report.admissible:
        raise NotAdmissible(f"the default parameter -X is not admissible "
                            f"(margin {report.margin:.3e}); supply one "
                            f"explicitly", margin=report.margin)
    return parameter, report, None


@dataclasses.dataclass(eq=False)
class SolveResult:
    """Outcome of solve_truncated; kind is "atomic" or "transform"."""

    kind: str
    condition: ConditionReport
    defect: int
    gram_rank: int
    gram_eigenvalues: np.ndarray
    parameter: ExtensionParameter
    parameter_theta: float | None
    admissibility: AdmissibilityReport
    measure: AtomicMatrixMeasure | None
    extension: SelfAdjointExtension | None
    verification: VerificationReport | None
    recovery: ContourRecovery | None
    transform_samples: tuple | None
    transform: StieltjesTransform | None
    workspace: Workspace


def solve_truncated(seq: MomentSequence,
                    parameter: ExtensionParameter | None = None,
                    tol: Tolerances = DEFAULT) -> SolveResult:
    """Produce a solution of the truncated problem for one parameter choice.

    Isometric constant parameters give an atomic measure verified against
    every prescribed moment; contractive ones give the transform route with
    moments recovered from the transform in closed form, which the result
    keeps.  With no parameter supplied, V = -X is used (the unique choice
    when the defect is 0).
    """
    return _solve(prepare(seq, tol), parameter, tol)


def _solve(ws: Workspace, parameter: ExtensionParameter | None,
           tol: Tolerances) -> SolveResult:
    """solve_truncated on an already prepared workspace."""
    seq = ws.sequence
    theta = None
    if parameter is None:
        parameter, report, theta = default_parameter(ws, tol)
        vmat = parameter.matrix
    else:
        vmat, report = screen_parameter(ws.shift, ws.pair, parameter,
                                        ws.forbidden, tol)
        if not report.admissible:
            raise NotAdmissible(
                f"supplied parameter is not admissible "
                f"(margin {report.margin:.3e})", margin=report.margin)

    common = dict(condition=ws.condition, defect=ws.defect,
                  gram_rank=ws.space.ambient_dim,
                  gram_eigenvalues=ws.space.eigenvalues,
                  parameter=parameter, parameter_theta=theta,
                  admissibility=report, workspace=ws)

    if parameter.kind == KIND_ISOMETRIC:
        ext = _selfadjoint_extension(ws.shift, ws.pair, parameter, vmat,
                                     report, tol)
        measure = spectral_measure(ext, ws.shift, tol)
        verification = verify_moments(measure, seq, rel_tol=1e-8)
        return SolveResult(kind="atomic", measure=measure, extension=ext,
                           verification=verification, recovery=None,
                           transform_samples=None, transform=None, **common)

    transform = _screened_transform(ws.shift, ws.pair, parameter, vmat, report,
                                    tol)
    samples = tuple(zip(TRANSFORM_SAMPLE_POINTS,
                        transform.eval_upper_many(TRANSFORM_SAMPLE_POINTS)))
    recovery = moments_from_transform(transform, 2 * ws.condition.order)
    verification = verify_recovered_moments(recovery.moments, seq,
                                            rel_tol=1e-6)
    return SolveResult(kind="transform", measure=None, extension=None,
                       verification=verification, recovery=recovery,
                       transform_samples=samples, transform=transform,
                       **common)


@dataclasses.dataclass(frozen=True, eq=False)
class SweepEntry:
    theta: float
    admissibility: AdmissibilityReport
    measure: AtomicMatrixMeasure | None
    verification: VerificationReport | None


@dataclasses.dataclass(eq=False)
class SweepResult:
    """theta grid, per-angle outcomes, and pairwise measure distances."""

    thetas: np.ndarray
    entries: tuple
    forbidden_thetas: np.ndarray
    distance_matrix: np.ndarray     # nan where either angle was inadmissible
    workspace: Workspace


def theta_sweep(seq: MomentSequence, n_thetas: int = 8,
                thetas=None, tol: Tolerances = DEFAULT) -> SweepResult:
    """Walk the unimodular family e^{i theta} I over a theta grid.

    Needs at least one angle and defect >= 1 (otherwise there is nothing to
    sweep; ValueError).  Angles whose parameter coincides with the forbidden
    operator (or whose margin is below adm_abs) are flagged and skipped; the
    rest produce measures, compared pairwise with measure_distance at
    SWEEP_SITE_TOL.

    The sweep is one array pass over all K angles: one stacked
    screen_parameter, then for the admitted angles one batched extension
    (the q x q solves for B and one eigh), one atom assembly, one
    verification and one distance kernel over their pairs.
    Each entry equals what solve_truncated gives for its angle alone.
    """
    if thetas is None:
        thetas = 2.0 * np.pi * np.arange(n_thetas) / n_thetas
    thetas = np.asarray(thetas, dtype=float)
    if not thetas.size:
        raise ValueError("the angle grid is empty: there is nothing to sweep")
    ws = prepare(seq, tol)
    q = ws.defect
    if q == 0:
        raise ValueError("the defect is zero: the extension is unique and "
                         "there is no family to sweep")
    _, reports = screen_parameter(
        ws.shift, ws.pair, ExtensionParameter.unimodular(thetas, q),
        ws.forbidden, tol)
    admitted = np.flatnonzero([r.admissible for r in reports])
    measures = [None] * len(thetas)
    verifications = [None] * len(thetas)
    if admitted.size:
        family = ExtensionParameter.unimodular(thetas[admitted], q)
        ext = _selfadjoint_extension(ws.shift, ws.pair, family, family.matrix,
                                     [reports[i] for i in admitted], tol)
        found = spectral_measure(ext, ws.shift, tol)
        for i, measure, verification in zip(
                admitted, found,
                verify_measures(found, ws.sequence, rel_tol=1e-8)):
            measures[i], verifications[i] = measure, verification
    entries = tuple(SweepEntry(
        theta=float(theta), admissibility=report, measure=measure,
        verification=verification)
        for theta, report, measure, verification in zip(
            thetas, reports, measures, verifications))
    k = len(entries)
    dist = np.full((k, k), np.nan)
    dist[np.ix_(admitted, admitted)] = pairwise_distances(
        [measures[i] for i in admitted], site_tol=SWEEP_SITE_TOL)
    forbidden = np.array([e.theta for e in entries
                          if not e.admissibility.admissible])
    return SweepResult(thetas=thetas, entries=entries,
                       forbidden_thetas=forbidden, distance_matrix=dist,
                       workspace=ws)
