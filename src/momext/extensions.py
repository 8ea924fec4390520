"""Extensions of the block shift, one per constant parameter.

A constant q x q contraction V gives the m x m matrix

    G = [[J_0, E^H],
         [E,   B(V)]],
    B(V) = (Omega C_minus V - Omega^H C_plus) (C_minus V - C_plus)^{-1}

in the block Cholesky frame (momext.shift): an admissible isometric V
makes G Hermitian, the self-adjoint extension A_V, and a strict
contraction makes Im B < 0, the quasi-extension whose generalized
resolvent

    R(lam) = (G - lam)^{-1}      for Im lam > 0

is that of the solution, with R(conj lam) = R(lam)^H on the lower
half-plane.  G costs one q x q solve, and none for the default V = -X,
whose block is B(-X) = Re Omega = (Omega + Omega^H) / 2 in closed form
(so its G is exactly Hermitian); nothing m x m is inverted.
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
    self-adjoint extensions) or "contraction"; any other kind, or a
    non-finite entry, raises ValueError.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_ISOMETRIC, KIND_CONTRACTION):
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if not np.isfinite(self.matrix).all():
            raise ValueError("parameter matrix has a non-finite entry")

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
        v = self._shaped(defect)
        if defect:
            self._check_singular_values(singular_values(v), tol)
        return v

    def _shaped(self, defect: int) -> np.ndarray:
        v = self.matrix
        if v.shape[-2:] != (defect, defect):
            raise DimensionMismatch(
                f"parameter has shape {v.shape}, expected ({defect}, {defect})")
        return v

    def _check_singular_values(self, sv: np.ndarray, tol: Tolerances):
        """NormViolation unless the singular values of the matrix (or of
        each in the stack) are at most 1 + norm_abs and, for an isometric
        parameter, within norm_abs of 1."""
        if sv[..., 0].max() > 1.0 + tol.norm_abs:
            raise NormViolation(
                f"parameter norm {sv[..., 0].max():.12g} exceeds 1 + "
                f"{tol.norm_abs:.1e}")
        if self.kind == KIND_ISOMETRIC and max_abs(sv - 1.0) > tol.norm_abs:
            raise NormViolation(
                f"isometric parameter has singular values off 1 by "
                f"{max_abs(sv - 1.0):.3e}")


def screen_parameter(shift: ShiftOperator, pair: DeficiencyPair,
                     parameter: ExtensionParameter,
                     forbidden: ForbiddenOperator | None = None,
                     tol: Tolerances = DEFAULT):
    """The checked matrix of a parameter (constant_matrix) and its
    admissibility report (is_admissible), or a stack and a tuple of
    reports, all from the one batched singular value call of
    admissibility_reports."""
    vmat = parameter._shaped(pair.defect)
    _, reports = _screen_stack(parameter, vmat if vmat.ndim == 3
                               else vmat[None], pair, forbidden, tol)
    return vmat, reports if vmat.ndim == 3 else reports[0]


def _screen_stack(parameter: ExtensionParameter, stack: np.ndarray,
                  pair: DeficiencyPair, forbidden: ForbiddenOperator | None,
                  tol: Tolerances):
    """The (K,) admissible mask and the K reports of the (K, q, q) stack of
    a parameter, after its norm and isometry checks."""
    sv, admissible, reports = admissibility_reports(stack, pair, forbidden,
                                                    tol)
    if pair.defect:
        parameter._check_singular_values(sv, tol)
    return admissible, reports


def _generator(shift: ShiftOperator, pair: DeficiencyPair,
               vmat: np.ndarray) -> np.ndarray:
    """G for V = vmat, or a stack of them for a (K, q, q) stack; no
    admissibility check, so C_minus V - C_plus must be nonsingular.

    A V equal to -X = -U^H bit for bit gets B = Re Omega; the others get
    B(V) from one batched q x q solve."""
    dn, q = shift.dom_dim, pair.defect
    g = np.empty(vmat.shape[:-2] + (dn + q, dn + q), dtype=complex)
    e = shift.action[dn:]
    g[..., :dn, :dn] = shift.jacobi
    g[..., dn:, :dn] = e
    g[..., :dn, dn:] = np.conj(e.T)
    if not q:
        return g
    solved = ~(vmat == -np.conj(pair.rotation.T)).all(axis=(-2, -1))
    if solved.all():
        g[..., dn:, dn:] = _solved_block(pair, vmat)
        return g
    omega = pair.omega
    g[..., dn:, dn:] = 0.5 * (omega + np.conj(omega.T))     # B(-X)
    if solved.any():
        g[solved, dn:, dn:] = _solved_block(pair, vmat[solved])
    return g


def _solved_block(pair: DeficiencyPair, vmat: np.ndarray) -> np.ndarray:
    """B(V) = (Omega C_minus V - Omega^H C_plus) (C_minus V - C_plus)^{-1}
    for V = vmat (or each V of a stack), by one batched solve."""
    plus, minus = pair.complement_rows
    omega = pair.omega
    den = minus @ vmat - plus
    num = omega @ minus @ vmat - np.conj(omega.T) @ plus
    return np.conj(np.swapaxes(np.linalg.solve(
        np.conj(np.swapaxes(den, -1, -2)),
        np.conj(np.swapaxes(num, -1, -2))), -1, -2))


def quasi_extension(shift: ShiftOperator, pair: DeficiencyPair,
                    parameter: ExtensionParameter,
                    tol: Tolerances = DEFAULT) -> np.ndarray:
    """G, the m x m matrix of the quasi-extension A_V (Hermitian iff V is
    admissible and isometric); a (K, m, m) stack for a stacked parameter.

    The one admissibility gate of the construction: an inadmissible V
    (sigma_min(C_minus V - C_plus) at most adm_abs) is rejected with its
    margin as NotAdmissible before B(V) is solved for; in a stack, the
    first such V is named.
    """
    return _quasi_extension(shift, pair,
                            *screen_parameter(shift, pair, parameter, None,
                                              tol), tol)


def _quasi_extension(shift: ShiftOperator, pair: DeficiencyPair,
                     vmat: np.ndarray, reports,
                     tol: Tolerances) -> np.ndarray:
    """quasi_extension for a parameter matrix (or stack) and its report (or
    reports) from screen_parameter."""
    for report in (reports,) if vmat.ndim == 2 else reports:
        if not report.admissible:
            margin = ("n/a" if report.margin is None
                      else f"{report.margin:.3e}")
            raise NotAdmissible(f"parameter is not admissible (margin "
                                f"{margin}, floor {tol.adm_abs:.1e})",
                                margin=report.margin)
    return _generator(shift, pair, vmat)


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
    report (or reports) screen_parameter has already given: G from the
    admissibility gate, made Hermitian by _hermitize."""
    g = _quasi_extension(shift, pair, vmat, reports, tol)
    residual = _hermitize(shift, g)
    return SelfAdjointExtension(
        matrix=read_only(g), parameter=parameter,
        herm_residual=read_only(residual) if g.ndim == 3 else float(residual))


def _hermitize(shift: ShiftOperator, g: np.ndarray):
    """Make G (or each G of a stack) Hermitian in place, and return its
    symmetry defect relative to its scale, at least shift.herm_residual
    (J_0's).

    Only the q x q block B(V) can be non-Hermitian: J_0 was made Hermitian
    by build_shift and E^H is written as the exact adjoint of E.  So B
    alone becomes (B + B^H) / 2, the defect is B's, and the scale is the
    larger of B's peak and the frame's (shift.frame_peak), at least 1:
    the values of 0.5 (G + G^H) and the defect and scale of the whole
    matrix, bit for bit."""
    dn = shift.dom_dim
    b = g[..., dn:, dn:]
    bh = np.conj(np.swapaxes(b, -1, -2))
    scale = np.maximum(
        np.abs(b).max(axis=(-2, -1), initial=shift.frame_peak), 1.0)
    residual = np.maximum(
        np.abs(b - bh).max(axis=(-2, -1), initial=0.0) / scale,
        shift.herm_residual)
    b[...] = 0.5 * (b + bh)
    return residual


def pencil_spectral_radius(shift: ShiftOperator, pair: DeficiencyPair,
                           vmat: np.ndarray) -> float:
    """Largest modulus among the singular points of the rational resolvent
    (G - lam)^{-1}: the spectral radius of G.  C_minus V - C_plus must be
    nonsingular."""
    g = _generator(shift, pair, np.asarray(vmat, dtype=complex))
    if g.shape[-1] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(g))))
