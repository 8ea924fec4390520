"""End-to-end drivers: moments in, measures or transforms out.

solve_truncated runs the full construction,

    conditions -> Gram space -> shift -> defect subspaces -> forbidden
    operator -> parameter -> extension -> measure (or transform),

and theta_sweep walks the unimodular parameter family e^{i theta}, reporting
which angles are forbidden and how the resulting measures differ.

Everything happens in the block Cholesky frame (momext.hankel, momext.shift).
The default parameter is V = -X, opposite the forbidden operator X (the
adjoint of the rotation of the minus defect basis), whose extension closes
the Jacobi matrix with B = Re Omega: closed forms, with no solve after
prepare, that follow the data under x -> a x + b and S_n -> U S_n U^H.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .hankel import (ConditionReport, GramSpace, MomentSequence,
                     check_truncated_conditions, _factor)
from .linalg import read_only
from .measures import (ATOMIC_REL_TOL, AtomicMatrixMeasure,
                       ContourRecovery, StieltjesTransform,
                       VerificationReport, _assemble, _distances,
                       _moment_sums, _spectral_atoms, _verifications,
                       moments_from_transform, spectral_measure,
                       verify_moments, verify_recovered_moments)
from .extensions import (KIND_ISOMETRIC, AdmissibilityReport,
                         ExtensionParameter, SelfAdjointExtension, _generator,
                         _hermitize, _screen, _selfadjoint_extension,
                         screen_parameter)
from .shift import (DeficiencyPair, ShiftOperator, build_shift,
                    deficiency_subspaces)
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
    forbidden: np.ndarray       # X, the pair's forbidden operator

    @property
    def defect(self) -> int:
        return self.pair.defect


def prepare(seq: MomentSequence, tol: Tolerances = DEFAULT) -> Workspace:
    """Check solvability and build the operator stage, or raise the refusal
    (NotPSD or DependentDomain) that check_truncated_conditions reports.

    One pass over the data: H_d is built once (H_{d-1} is its leading
    block), and the frame that hankel._decide took for the report (no
    eigvalsh unless a screen cannot decide) is the Gram space's.  Then
    come another solve with L for the shift, one batched solve with J_0 -
    conj z0 and J_0 - z0, one q x q eigh and one q x q SVD, which also
    gives X.  The Workspace is bit for bit the one the public chain
    check_truncated_conditions, factor_psd(build_block_hankel(...)),
    build_shift, deficiency_subspaces, forbidden_operator gives.
    """
    report = check_truncated_conditions(seq, tol)
    space = _factor(report.section, report._frame)
    shift = build_shift(space)
    pair = deficiency_subspaces(shift)
    return Workspace(sequence=seq, condition=report, space=space, shift=shift,
                     pair=pair, forbidden=pair.forbidden)


def default_parameter(ws: Workspace, tol: Tolerances = DEFAULT):
    """V = -X, the parameter opposite the forbidden operator, screened: the
    parameter, its report and None (kept for callers that unpack three,
    as bench/workloads.py does).  Its extension has B = Re Omega with no
    solve, and its report (norm 1, gap 2 to X, margin 2 sigma_min(C_plus))
    is read off the defect stage with no singular value call."""
    parameter = ExtensionParameter(kind=KIND_ISOMETRIC,
                                   matrix=read_only(-ws.forbidden))
    return parameter, screen_parameter(ws.pair, parameter, tol), None


@dataclasses.dataclass(eq=False)
class SolveResult:
    """Outcome of solve_truncated; kind is "atomic" or "transform"."""

    kind: str
    condition: ConditionReport
    defect: int
    gram_rank: int
    parameter: ExtensionParameter
    admissibility: AdmissibilityReport
    measure: AtomicMatrixMeasure | None
    extension: SelfAdjointExtension | None
    verification: VerificationReport | None
    recovery: ContourRecovery | None
    transform_samples: tuple | None
    transform: StieltjesTransform | None
    workspace: Workspace

    @property
    def gram_eigenvalues(self) -> np.ndarray:
        """The spectrum of H_d, descending: computed on first read."""
        return self.workspace.space.eigenvalues


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
    """solve_truncated on an already prepared workspace; a contraction is
    screened once, by the transform it builds, which keeps the report."""
    seq = ws.sequence
    transform = None
    if parameter is None:
        parameter, report, _ = default_parameter(ws, tol)
    elif parameter.kind == KIND_ISOMETRIC:
        report = screen_parameter(ws.pair, parameter, tol)
    else:
        transform = StieltjesTransform(ws.shift, ws.pair, parameter, tol)
        report = transform.admissibility

    common = dict(condition=ws.condition, defect=ws.defect,
                  gram_rank=ws.space.ambient_dim,
                  parameter=parameter, admissibility=report, workspace=ws)

    if transform is None:
        ext = _selfadjoint_extension(ws.shift, ws.pair, parameter)
        measure = spectral_measure(ext, ws.shift, tol)
        verification = verify_moments(measure, seq, rel_tol=ATOMIC_REL_TOL)
        return SolveResult(kind="atomic", measure=measure, extension=ext,
                           verification=verification, recovery=None,
                           transform_samples=None, transform=None, **common)

    samples = tuple(zip(TRANSFORM_SAMPLE_POINTS,
                        transform.eval_upper_many(TRANSFORM_SAMPLE_POINTS)))
    recovery = moments_from_transform(transform, 2 * ws.condition.order)
    verification = verify_recovered_moments(recovery.moments, seq)
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

    Needs a 1-D grid of at least one finite angle, checked before anything
    is prepared, and defect >= 1 (otherwise there is nothing to sweep);
    ValueError otherwise.  Angles whose parameter coincides with the
    forbidden operator (or whose margin is below adm_abs) are flagged and
    skipped; the rest produce measures, compared pairwise with
    measure_distance at SWEEP_SITE_TOL.

    The sweep is one array pass over all K angles.  It builds the (K, q, q)
    stack of the e^{i theta} I itself (no public call takes a stack) and
    screens it once; the admissible mask gives the admitted angles and the
    forbidden ones, then for the admitted angles (sliced from the stack)
    one batched extension (the q x q solves for B, made Hermitian alone,
    and one eigh), one atom assembly, and one verification and one
    distance kernel over the stack of atoms that the assembly hands over
    (padded only when an atom was merged or dropped).  At q = 1 the screen
    takes moduli and makes no SVD call.
    Each entry equals what solve_truncated gives for its angle alone.
    """
    if thetas is None:
        thetas = 2.0 * np.pi * np.arange(n_thetas) / n_thetas
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1:
        raise ValueError(f"the angle grid must be one-dimensional, got "
                         f"shape {thetas.shape}")
    if not thetas.size:
        raise ValueError("the angle grid is empty: there is nothing to sweep")
    if not np.isfinite(thetas).all():
        raise ValueError("the angle grid holds a non-finite angle")
    ws = prepare(seq, tol)
    q = ws.defect
    if q == 0:
        raise ValueError("the defect is zero: the extension is unique and "
                         "there is no family to sweep")
    family = np.exp(1j * thetas)[:, None, None] * np.eye(q, dtype=complex)
    mask, reports = _screen(KIND_ISOMETRIC, family, ws.pair, ws.forbidden,
                            tol)
    admitted = np.flatnonzero(mask)
    k = len(thetas)
    measures = [None] * k
    verifications = [None] * k
    dist = np.full((k, k), np.nan)
    if admitted.size:
        g = _generator(ws.shift, ws.pair, family[admitted])
        _hermitize(ws.shift, g)
        found, (locs, weights), padded = _assemble(
            *_spectral_atoms(g, ws.shift, tol), stacked=True)
        found_verifications = _verifications(
            _moment_sums(np.nan_to_num(locs) if padded else locs, weights,
                         len(ws.sequence)),
            ws.sequence, rel_tol=ATOMIC_REL_TOL)
        for i, measure, verification in zip(admitted.tolist(), found,
                                             found_verifications):
            measures[i], verifications[i] = measure, verification
        dist[np.ix_(admitted, admitted)] = _distances(locs, weights,
                                                      SWEEP_SITE_TOL)
    entries = tuple(map(SweepEntry, thetas.tolist(), reports, measures,
                        verifications))
    return SweepResult(thetas=thetas, entries=entries,
                       forbidden_thetas=thetas[~mask], distance_matrix=dist,
                       workspace=ws)
