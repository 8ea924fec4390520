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
half-plane.  Every route to G passes one admissibility gate,
screen_parameter.  G costs one q x q solve, and none for the default
V = -X, whose block is B(-X) = Re Omega = (Omega + Omega^H) / 2 in closed
form (so G is exactly Hermitian), as is its report; nothing m x m is inverted.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DimensionMismatch, NormViolation, NotAdmissible
from .linalg import as_complex_matrix, max_abs, read_only, singular_values
from .shift import DeficiencyPair, ShiftOperator
from .tolerances import DEFAULT, Tolerances

KIND_ISOMETRIC = "isometric"
KIND_CONTRACTION = "contraction"


@dataclasses.dataclass(frozen=True, eq=False)
class ExtensionParameter:
    """A constant q x q contraction from N_plus to N_minus.

    kind is "isometric" (unitary between the defect subspaces; required for
    self-adjoint extensions) or "contraction"; any other kind, a matrix
    that is not 2-d, or a non-finite entry, raises ValueError.
    """

    kind: str
    matrix: np.ndarray

    def __post_init__(self):
        if self.kind not in (KIND_ISOMETRIC, KIND_CONTRACTION):
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if np.ndim(self.matrix) != 2:
            raise ValueError(f"parameter matrix must be 2-d, got shape "
                             f"{np.shape(self.matrix)}")
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
    def unimodular(cls, theta: float, defect: int = 1) -> "ExtensionParameter":
        """e^{i theta} times the identity; the natural defect-q unitary family.
        One angle only: an array of them makes a stack, which is refused."""
        phase = np.exp(1j * np.asarray(theta, dtype=float))
        return cls(kind=KIND_ISOMETRIC, matrix=read_only(
            phase[..., None, None] * np.eye(defect, dtype=complex)))

    def constant_matrix(self, defect: int, tol: Tolerances = DEFAULT) -> np.ndarray:
        """The matrix, checked for shape, norm and (if isometric) isometry,
        all from one singular value call."""
        v = self._shaped(defect)
        if defect:
            _check_singular_values(self.kind, singular_values(v), tol)
        return v

    def _shaped(self, defect: int) -> np.ndarray:
        v = self.matrix
        if v.shape != (defect, defect):
            raise DimensionMismatch(
                f"parameter has shape {v.shape}, expected ({defect}, {defect})")
        return v


def _check_singular_values(kind: str, sv: np.ndarray, tol: Tolerances):
    """NormViolation unless the singular values (of one matrix, or of each
    in a stack, which may be empty) are at most 1 + norm_abs and, for an
    isometric kind, within norm_abs of 1."""
    norm = max_abs(sv[..., :1])
    if norm > 1.0 + tol.norm_abs:
        raise NormViolation(
            f"parameter norm {norm:.17g} exceeds 1 + {tol.norm_abs:.1e}")
    if kind == KIND_ISOMETRIC and max_abs(sv - 1.0) > tol.norm_abs:
        raise NormViolation(
            f"isometric parameter has singular values off 1 by "
            f"{max_abs(sv - 1.0):.3e}")


@dataclasses.dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility test for a constant parameter matrix.

    margin is the smallest singular value of C_minus V - C_plus (in
    [0, 2]) and forbidden_gap that of V - X; both are None when the
    defect is zero (then every parameter is vacuously admissible).
    """

    admissible: bool
    margin: float | None
    parameter_norm: float
    forbidden_gap: float | None
    coincides_with_forbidden: bool
    borderline: bool


def _screen(kind: str, stack: np.ndarray, pair: DeficiencyPair,
            forbidden: np.ndarray, tol: Tolerances):
    """The (K,) admissible mask and the K admissibility reports of a
    (K, q, q) stack of parameter matrices of one kind.  A row equal to -X,
    X equal to the pair's, has its report in closed form (norm 1, gap 2,
    margin pair.opposite_margin >= 2 / sqrt(1 + q)), and a stack of those
    alone makes no singular value call.  The other rows are measured by one
    batched singular value call over the V, the C_minus V - C_plus and the
    V - X (X the forbidden matrix) of the whole stack, after
    _check_singular_values has passed their V.

    The flags are decided over the whole stack as arrays, and each report
    is built from one tolist() per column: the same rule, value for value,
    as deciding each row on its own."""
    k, q = len(stack), pair.defect
    if not q:
        return np.ones(k, dtype=bool), (AdmissibilityReport(
            admissible=True, margin=None, parameter_norm=0.0,
            forbidden_gap=None, coincides_with_forbidden=False,
            borderline=False),) * k
    x, opposite = pair.forbidden, None
    if (pair.opposite_margin is not None
            and -x.item(0) in stack[:, 0, 0].tolist()  # most V are not -X
            and (forbidden is x or np.array_equal(forbidden, x))):
        equal = stack == -x
        if equal.all():         # the default -X: nothing is measured
            report = AdmissibilityReport(*_fields(pair.opposite_margin, 1.0,
                                                  2.0, tol))
            return np.full(k, report.admissible), (report,) * k
        opposite = equal.all(axis=(-2, -1))
    plus, minus = pair.complement_rows
    sv = singular_values(np.concatenate(
        [stack, minus @ stack - plus, stack - forbidden]))
    _check_singular_values(kind, sv[:k] if opposite is None
                           else sv[:k][~opposite], tol)
    values = sv[k:2 * k, -1], sv[:k, 0], sv[2 * k:, -1]   # margin, norm, gap
    if opposite is not None:    # the closed form in the rows of -X
        values = [np.where(opposite, closed, measured) for closed, measured
                  in zip((pair.opposite_margin, 1.0, 2.0), values)]
    fields = _fields(*values, tol)
    return fields[0], tuple(map(AdmissibilityReport,
                                *map(np.ndarray.tolist, fields)))


def _fields(margins, norms, gaps, tol: Tolerances) -> tuple:
    """The report fields of a parameter with this margin, norm and gap to X
    (columns, for arrays of them): the one rule of every screen."""
    ok = margins > tol.adm_abs
    return (ok, margins, norms, gaps, gaps <= tol.adm_abs,
            ok & (margins <= 1e3 * tol.adm_abs))


def is_admissible(matrix: np.ndarray, shift: ShiftOperator,
                  pair: DeficiencyPair,
                  forbidden: np.ndarray | None = None,
                  tol: Tolerances = DEFAULT) -> AdmissibilityReport:
    """Decide whether a constant q x q parameter matrix is admissible, and
    measure its gap to the forbidden matrix, pair.forbidden unless another
    is given.

    Anything but a q x q matrix raises ValueError, and NormViolation comes
    when it is not a contraction (operator norm above 1 + norm_abs);
    isometry vs strict contraction is the caller's business.
    """
    q = pair.defect
    v = np.asarray(matrix, dtype=complex)
    if v.shape != (q, q):
        raise ValueError(f"parameter must be {q} x {q}, got {v.shape}")
    if forbidden is None:
        forbidden = pair.forbidden
    return _screen(KIND_CONTRACTION, v[None], pair, forbidden, tol)[1][0]


def screen_parameter(pair: DeficiencyPair, parameter: ExtensionParameter,
                     tol: Tolerances = DEFAULT) -> AdmissibilityReport:
    """The one admissibility gate: a parameter's report, its gap to the
    pair's X included, from _screen.  An inadmissible V (sigma_min(C_minus
    V - C_plus) at most adm_abs) is rejected with its margin as
    NotAdmissible."""
    stack = parameter._shaped(pair.defect)[None]
    _, (report,) = _screen(parameter.kind, stack, pair, pair.forbidden, tol)
    if not report.admissible:
        raise NotAdmissible(f"parameter is not admissible (margin "
                            f"{report.margin:.3e}, floor {tol.adm_abs:.1e})",
                            margin=report.margin)
    return report


def _generator(shift: ShiftOperator, pair: DeficiencyPair,
               vmat: np.ndarray) -> np.ndarray:
    """G for V = vmat, or a stack of them for a (K, q, q) stack (the sweep's);
    no admissibility check, so C_minus V - C_plus must be nonsingular.

    A V equal to -X bit for bit gets B = Re Omega; the others get
    B(V) from one batched q x q solve."""
    solved = ~(vmat == -pair.forbidden).all(axis=(-2, -1))
    if solved.all():
        return _closure(shift, vmat.shape[:-2], _solved_block(pair, vmat))
    omega = pair.omega
    g = _closure(shift, vmat.shape[:-2], 0.5 * (omega + np.conj(omega.T)))
    if solved.any():
        dn = shift.dom_dim
        g[solved, dn:, dn:] = _solved_block(pair, vmat[solved])
    return g


def _closure(shift: ShiftOperator, batch: tuple, block: np.ndarray):
    """[[J_0, E^H], [E, B]] for the q x q block B = block over the stack
    shape batch: the one layout of the extensions of the shift in C^m."""
    dn = shift.dom_dim
    g = np.empty(batch + (dn + block.shape[-1],) * 2, dtype=complex)
    g[..., :dn, :dn] = shift.jacobi
    g[..., dn:, :dn] = shift.action[dn:]                    # E
    g[..., :dn, dn:] = np.conj(shift.action[dn:].T)
    g[..., dn:, dn:] = block
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


@dataclasses.dataclass(frozen=True, eq=False)
class SelfAdjointExtension:
    """A_V for an admissible isometric V, as an m x m Hermitian matrix.

    herm_residual records the symmetry defect (relative to the matrix scale)
    that was removed when symmetrizing; it should sit at roundoff level.
    """

    matrix: np.ndarray
    parameter: ExtensionParameter
    herm_residual: float


def selfadjoint_extension(shift: ShiftOperator, pair: DeficiencyPair,
                          parameter: ExtensionParameter,
                          tol: Tolerances = DEFAULT) -> SelfAdjointExtension:
    """Build A_V for an admissible isometric parameter."""
    if parameter.kind != KIND_ISOMETRIC:
        raise ValueError("self-adjoint extensions need an isometric parameter")
    screen_parameter(pair, parameter, tol)
    return _selfadjoint_extension(shift, pair, parameter)


def _selfadjoint_extension(shift: ShiftOperator, pair: DeficiencyPair,
                           parameter: ExtensionParameter
                           ) -> SelfAdjointExtension:
    """selfadjoint_extension for an isometric parameter that has already
    passed screen_parameter: G made Hermitian by _hermitize.
    B(-X) = Re Omega is Hermitian as written, so V = -X skips it: its
    residual is J_0's, bit for bit."""
    g = _generator(shift, pair, parameter.matrix)
    if (parameter.matrix == -pair.forbidden).all():
        residual = shift.herm_residual
    else:
        residual = _hermitize(shift, g)
    return SelfAdjointExtension(matrix=read_only(g), parameter=parameter,
                                herm_residual=float(residual))


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
    (G - lam)^{-1}: the spectral radius of G, for one q x q matrix V (a
    stack raises ValueError).  C_minus V - C_plus must be nonsingular."""
    g = _generator(shift, pair, as_complex_matrix(vmat, "parameter"))
    return float(np.max(np.abs(np.linalg.eigvals(g))))
