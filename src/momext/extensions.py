"""Extensions of the block shift, one per constant parameter.

An admissible isometric parameter V: N_plus -> N_minus produces a
self-adjoint extension A_V acting on the whole Gram space:

    domain column block   [ x_0..x_{dN-1} | B_minus V - B_plus ]
    image  column block   [ x_N..x_{dN+N-1} | i (B_minus V + B_plus) ]

and A_V = image @ inverse(domain).  A contractive V gives no operator on
the space, but the same blocks still define its generalized resolvent

    R(lam) = domain (image - lam domain)^{-1}      for Im lam > 0,

and R(conj lam) = R(lam)^H on the lower half-plane.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatch, NormViolation, NotAdmissible
from .linalg import as_complex_matrix, max_abs, read_only, singular_values
from .shift import (DeficiencyPair, ForbiddenOperator, ShiftOperator,
                    admissibility_reports)
from .tolerances import DEFAULT, Tolerances

KIND_ISOMETRIC = "isometric"
KIND_CONTRACTION = "contraction"


@dataclasses.dataclass(frozen=True, eq=False)
class ExtensionParameter:
    """A constant q x q contraction from N_plus to N_minus, or a (K, q, q)
    stack of K of them, which the construction below runs in one pass.

    kind is "isometric" (unitary between the defect subspaces; required for
    self-adjoint extensions) or "contraction".
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_ISOMETRIC, KIND_CONTRACTION):
            raise ValueError(f"unknown parameter kind {self.kind!r}")

    @classmethod
    def isometric(cls, matrix) -> "ExtensionParameter":
        return cls(kind=KIND_ISOMETRIC,
                   matrix=read_only(as_complex_matrix(matrix, "parameter")))

    @classmethod
    def contraction(cls, matrix) -> "ExtensionParameter":
        return cls(kind=KIND_CONTRACTION,
                   matrix=read_only(as_complex_matrix(matrix, "parameter")))

    @classmethod
    def unimodular(cls, theta, defect: int = 1) -> "ExtensionParameter":
        """e^{i theta} times the identity; the natural defect-q unitary family.
        An array of K angles gives the (K, q, q) stack of their parameters."""
        phase = np.exp(1j * np.asarray(theta, dtype=float))
        return cls(kind=KIND_ISOMETRIC, matrix=read_only(
            phase[..., None, None] * np.eye(defect, dtype=complex)))

    @classmethod
    def empty(cls) -> "ExtensionParameter":
        """The unique parameter when the defect is zero."""
        return cls.isometric(np.zeros((0, 0), dtype=complex))

    def constant_matrix(self, defect: int, tol: Tolerances = DEFAULT) -> np.ndarray:
        """The matrix (or stack), checked for shape, norm and (if isometric)
        isometry, all from one batched singular value call."""
        return self._checked(defect, tol)[0]

    def _checked(self, defect: int, tol: Tolerances):
        """constant_matrix, with the norms it read: the largest singular
        value of the matrix (shape ()) or of each in the stack (K,)."""
        v = self.matrix
        if v.shape[-2:] != (defect, defect):
            raise DimensionMismatch(
                f"parameter has shape {v.shape}, expected ({defect}, {defect})")
        if defect == 0:
            return v, np.zeros(v.shape[:-2])
        sv = singular_values(v)
        if sv[..., 0].max() > 1.0 + tol.norm_abs:
            raise NormViolation(
                f"parameter norm {sv[..., 0].max():.12g} exceeds 1 + "
                f"{tol.norm_abs:.1e}")
        if self.kind == KIND_ISOMETRIC and max_abs(sv - 1.0) > tol.norm_abs:
            raise NormViolation(
                f"isometric parameter has singular values off 1 by "
                f"{max_abs(sv - 1.0):.3e}")
        return v, sv[..., 0]


def screen_parameter(shift: ShiftOperator, pair: DeficiencyPair,
                     parameter: ExtensionParameter,
                     forbidden: ForbiddenOperator | None = None,
                     tol: Tolerances = DEFAULT):
    """The checked matrix of a parameter (constant_matrix) and its
    admissibility report (is_admissible), or a stack and a tuple of
    reports, with the norms in the reports read off the singular values
    constant_matrix takes rather than from a second call."""
    vmat, norms = parameter._checked(pair.defect, tol)
    reports = admissibility_reports(vmat if vmat.ndim == 3 else vmat[None],
                                    norms.reshape(-1), shift, pair,
                                    forbidden, tol)
    return vmat, reports if vmat.ndim == 3 else reports[0]


def extension_blocks(shift: ShiftOperator, pair: DeficiencyPair,
                     vmat: np.ndarray):
    """Domain and image column blocks of the (quasi-)extension for V = vmat,
    or stacks of them for a stack of parameters."""
    bp, bm = pair.basis_plus, pair.basis_minus
    lead = vmat.shape[:-2]

    def blocks(known, defect_columns):
        known = np.broadcast_to(known, lead + known.shape)
        return np.concatenate([known, defect_columns], axis=-1)

    return (blocks(shift.dom_matrix, bm @ vmat - bp),
            blocks(shift.shift_matrix, 1j * (bm @ vmat + bp)))


def quasi_extension(shift: ShiftOperator, pair: DeficiencyPair,
                    parameter: ExtensionParameter,
                    tol: Tolerances = DEFAULT) -> np.ndarray:
    """G = img dom^{-1}, the m x m matrix of the quasi-extension A_V
    (Hermitian iff V is admissible and isometric); a (K, m, m) stack for a
    stacked parameter, from one batched inverse.

    The one admissibility gate of the construction: an inadmissible V makes
    dom singular, and is rejected with its margin as NotAdmissible rather
    than left to surface from the inverse; in a stack, the first such V is
    named.  Raises DimensionMismatch if dN + q != m.
    """
    return _quasi_extension(shift, pair,
                            *screen_parameter(shift, pair, parameter, None,
                                              tol), tol)


def _quasi_extension(shift: ShiftOperator, pair: DeficiencyPair,
                     vmat: np.ndarray, reports,
                     tol: Tolerances) -> np.ndarray:
    """quasi_extension for a parameter matrix (or stack) and its report (or
    reports) from screen_parameter."""
    if vmat.ndim == 2:
        reports = (reports,)

    def rejected(report):
        margin = "n/a" if report.margin is None else f"{report.margin:.3e}"
        return NotAdmissible(f"parameter is not admissible (margin {margin}, "
                             f"floor {tol.adm_abs:.1e})", margin=report.margin)

    for report in reports:
        if not report.admissible:
            raise rejected(report)
    dom, img = extension_blocks(shift, pair, vmat)
    m = shift.ambient_dim
    if dom.shape[-1] != m:
        raise DimensionMismatch(
            f"domain block is {dom.shape[-2]} x {dom.shape[-1]}, expected "
            f"square of size {m} (dom {shift.dom_dim} + defect "
            f"{pair.defect} != {m})")
    try:
        return img @ np.linalg.inv(dom)
    except np.linalg.LinAlgError:
        # the batched inverse does not say which block is singular
        for report, block in zip(reports, dom.reshape((len(reports), m, m))):
            try:
                np.linalg.inv(block)
            except np.linalg.LinAlgError:
                raise rejected(report) from None
        raise


@dataclasses.dataclass(frozen=True, eq=False)
class SelfAdjointExtension:
    """A_V for an admissible isometric V, as an m x m Hermitian matrix (a
    (K, m, m) stack, with K residuals, for a stacked parameter).

    herm_residual records the symmetry defect (relative to the matrix scale)
    that was removed when symmetrizing; it should sit at roundoff level.
    """

    matrix: np.ndarray
    parameter: ExtensionParameter
    herm_residual: float | np.ndarray


def selfadjoint_extension(shift: ShiftOperator, pair: DeficiencyPair,
                          parameter: ExtensionParameter,
                          tol: Tolerances = DEFAULT) -> SelfAdjointExtension:
    """Build A_V for an admissible isometric parameter (or stack of them)."""
    if parameter.kind != KIND_ISOMETRIC:
        raise ValueError("self-adjoint extensions need an isometric parameter")
    return _selfadjoint_extension(
        shift, pair, parameter,
        *screen_parameter(shift, pair, parameter, None, tol), tol)


def _selfadjoint_extension(shift: ShiftOperator, pair: DeficiencyPair,
                           parameter: ExtensionParameter, vmat: np.ndarray,
                           reports, tol: Tolerances) -> SelfAdjointExtension:
    """selfadjoint_extension for an isometric parameter whose matrix and
    report (or reports) screen_parameter has already given."""
    g = _quasi_extension(shift, pair, vmat, reports, tol)
    gh = np.conj(np.swapaxes(g, -1, -2))
    scale = np.maximum(np.abs(g).max(axis=(-2, -1), initial=0.0), 1.0)
    residual = np.abs(g - gh).max(axis=(-2, -1), initial=0.0) / scale
    return SelfAdjointExtension(
        matrix=read_only(0.5 * (g + gh)), parameter=parameter,
        herm_residual=read_only(residual) if g.ndim == 3 else float(residual))


def pencil_spectral_radius(shift: ShiftOperator, pair: DeficiencyPair,
                           vmat: np.ndarray) -> float:
    """Largest modulus among finite singular points of the rational resolvent.

    The system matrix is image_block - lam * domain_block, so the
    singularities are the finite generalized eigenvalues of that pencil.
    They are found through the shifted inverse at lam = i, which is never
    one of them: image_block - i * domain_block has the columns
    (A - i)x_a and 2i B_plus, which span (A - i)D(A) and its orthogonal
    complement N_plus, whatever V is.  With M = (image - i dom)^{-1} dom,
    each eigenvalue mu of M is 1 / (lam - i); mu = 0 (at roundoff) is an
    infinite eigenvalue of the pencil and is dropped.
    """
    dom, img = extension_blocks(shift, pair, vmat)
    if dom.shape[1] != dom.shape[0]:
        raise DimensionMismatch("resolvent pencil is not square")
    if dom.shape[0] == 0:
        return 0.0
    mu = np.linalg.eigvals(np.linalg.solve(img - 1j * dom, dom))
    finite = mu[np.abs(mu) > mu.size * np.finfo(float).eps * max_abs(mu)]
    if finite.size == 0:
        return 0.0
    return float(np.max(np.abs(1j + 1.0 / finite)))
