"""The symmetric block shift, its deficiency subspaces, and admissibility.

In the Gram space of the trailing Hankel section the operator

    A x_a = x_{a+N},    a = 0..dN-1,

is symmetric on D(A) = span{x_0..x_{dN-1}} whenever the leading section is
positive definite.  Self-adjoint (and more generally quasi-self-adjoint)
extensions of A are what produce solutions of the moment problem, and they
are parameterized by contractions V mapping the defect subspace at +i,

    N_plus  = orthogonal complement of (A - i)D(A),

into the one at -i,

    N_minus = orthogonal complement of (A + i)D(A).

Not every isometric V qualifies: V must stay away from the "forbidden"
operator X, the restriction to N_plus of the projection correspondence
induced by the orthogonal complement of D(A).  Parameters with
V psi = X psi for some psi != 0 do not generate an extension; the
admissibility margin computed here is the smallest singular value of the
matrix deciding that, so margin > adm_tol certifies a usable parameter.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import (DependentDomain, IllConditionedProjection, NormViolation)
from .gram import GramSpace
from .linalg import (phase_canonicalize, range_and_complement, read_only,
                     singular_values)
from .tolerances import DEFAULT, Tolerances


@dataclasses.dataclass(frozen=True, eq=False)
class ShiftOperator:
    """The block shift restricted to its natural domain.

    dom_matrix / shift_matrix hold the vectors x_0..x_{dN-1} and their images
    x_N..x_{dN+N-1} as columns.  complement is an orthonormal basis of the
    orthogonal complement of D(A) (m x q, in canonical form) and dom_range
    one of D(A) (m x dN), both from the one complete QR of dom_matrix;
    every admissibility check reads complement.  dom_basis (dom_range with
    its column phases canonicalized) and action, which maps dom_basis
    coordinates to the image in ambient coordinates so that
    A v = action @ (dom_basis^H v) for v in D(A), are computed on first
    use: no solve reads them.
    """

    space: GramSpace
    block_dim: int
    order: int
    dom_matrix: np.ndarray      # m x dN
    shift_matrix: np.ndarray    # m x dN
    dom_range: np.ndarray       # m x dN, orthonormal, as the QR leaves it
    complement: np.ndarray      # m x q, orthonormal, orthogonal to D(A)

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    @property
    def dom_dim(self) -> int:
        return self.dom_matrix.shape[1]

    @property
    def defect(self) -> int:
        return self.ambient_dim - self.dom_dim

    @functools.cached_property
    def dom_basis(self) -> np.ndarray:
        """m x dN orthonormal basis of D(A), phase-canonical."""
        return read_only(phase_canonicalize(self.dom_range))

    @functools.cached_property
    def action(self) -> np.ndarray:
        """m x dN: A in dom_basis coordinates."""
        if self.dom_dim == 0:
            return read_only(np.zeros((self.ambient_dim, 0), dtype=complex))
        # dom_basis^H dom is the triangular R, its rows rotated by phases
        return read_only(self.shift_matrix @ np.linalg.inv(
            np.conj(self.dom_basis.T) @ self.dom_matrix))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v for v in D(A) (no membership check)."""
        return self.action @ (np.conj(self.dom_basis.T) @ v)


def build_shift(space: GramSpace, tol: Tolerances = DEFAULT) -> ShiftOperator:
    """Construct the shift; raises DependentDomain if x_0..x_{dN-1} degenerate.

    Degeneracy here is exactly failure of the leading section to be positive
    definite, so a clean error beats a meaningless operator.
    """
    dom, img = _domain(space, tol)
    return _shift(space, dom, img,
                  range_and_complement(dom[None], tol.rank_rel)[0])


def _domain(space: GramSpace, tol: Tolerances):
    """The domain and image columns x_0..x_{dN-1} and x_N..x_{dN+N-1},
    after checking that the domain ones are independent."""
    n = space.block_dim
    dn = space.order * n
    m = space.ambient_dim
    if space.n_vectors < dn + n:
        raise ValueError("Gram space does not hold enough vectors for the shift")
    dom = np.ascontiguousarray(space.coords[:dn].T)
    img = np.ascontiguousarray(space.coords[n:dn + n].T)
    if dn > 0:
        if m < dn:
            raise DependentDomain(
                f"domain needs {dn} independent vectors but the space has "
                f"dimension {m}")
        sv = singular_values(dom)
        if sv[0] == 0.0 or sv[dn - 1] <= tol.rank_rel * sv[0]:
            raise DependentDomain(
                f"domain vectors are numerically dependent: smallest singular "
                f"value {sv[dn - 1]:.3e} vs largest {sv[0]:.3e}")
    return dom, img


def _shift(space: GramSpace, dom: np.ndarray, img: np.ndarray,
           split) -> ShiftOperator:
    """The shift from its columns and the (range, complement) split of dom."""
    basis, complement = split
    if basis.shape[1] != dom.shape[1]:
        raise DependentDomain(
            f"domain rank {basis.shape[1]} < {dom.shape[1]} after "
            f"orthogonalization")
    return ShiftOperator(
        space=space, block_dim=space.block_dim, order=space.order,
        dom_matrix=read_only(dom), shift_matrix=read_only(img),
        dom_range=read_only(basis), complement=read_only(complement))


@dataclasses.dataclass(frozen=True, eq=False)
class DeficiencyPair:
    """Orthonormal bases of the defect subspaces at +i and -i."""

    basis_plus: np.ndarray      # m x q, spans N_plus
    basis_minus: np.ndarray     # m x q, spans N_minus
    defect: int


def deficiency_subspaces(shift: ShiftOperator,
                         tol: Tolerances = DEFAULT) -> DeficiencyPair:
    """Compute N_plus and N_minus; both have dimension m - dN."""
    dom, img = shift.dom_matrix, shift.shift_matrix
    return _pair(shift, range_and_complement(
        np.stack([img - 1j * dom, img + 1j * dom]), tol.rank_rel))


def _pair(shift: ShiftOperator, splits) -> DeficiencyPair:
    """The defect subspaces from the splits of img - i dom and img + i dom.

    The unpivoted rank check is safe here: A is symmetric, so
    ||(A -+ i)u||^2 = ||Au||^2 + ||u||^2 and sigma_min(img -+ i dom) >=
    sigma_min(dom), which build_shift has certified against rank_rel.
    """
    (_, basis_plus), (_, basis_minus) = splits
    expected = shift.ambient_dim - shift.dom_dim
    if basis_plus.shape[1] != expected or basis_minus.shape[1] != expected:
        raise IllConditionedProjection(
            f"defect dimensions ({basis_plus.shape[1]}, {basis_minus.shape[1]}) "
            f"disagree with ambient - domain = {expected}; (A -+ i) lost "
            f"injectivity numerically")
    return DeficiencyPair(basis_plus=read_only(basis_plus),
                          basis_minus=read_only(basis_minus),
                          defect=expected)


def operator_stage(space: GramSpace, tol: Tolerances = DEFAULT):
    """build_shift, then deficiency_subspaces, in one pass: dom, img - i dom
    and img + i dom are split by one stacked complete QR.  The shift and
    the pair are bit for bit those of the two calls."""
    dom, img = _domain(space, tol)
    splits = range_and_complement(
        np.stack([dom, img - 1j * dom, img + 1j * dom]), tol.rank_rel)
    shift = _shift(space, dom, img, splits[0])
    return shift, _pair(shift, splits[1:])


@dataclasses.dataclass(frozen=True, eq=False)
class ForbiddenOperator:
    """The operator X: N_plus -> N_minus that parameters must avoid.

    For h in the orthogonal complement of D(A), X maps the projection of h
    onto N_plus to the projection of h onto N_minus.  matrix expresses X in
    the (basis_plus, basis_minus) coordinate pair; forbidden_operator
    checks that the projections fill all of N_plus.
    """

    matrix: np.ndarray          # q x q


def forbidden_operator(shift: ShiftOperator, pair: DeficiencyPair,
                       tol: Tolerances = DEFAULT) -> ForbiddenOperator:
    """Build X from the complement of D(A); X is an isometry of N_plus.

    Raises IllConditionedProjection when projecting the complement onto
    N_plus loses rank, which would leave X defined on a proper subspace.
    """
    if pair.defect == 0:
        return ForbiddenOperator(matrix=read_only(np.zeros((0, 0), complex)))
    perp = shift.complement
    u = np.conj(pair.basis_plus.T) @ perp       # q x q
    w = np.conj(pair.basis_minus.T) @ perp      # q x q
    sv = singular_values(u)
    if sv[-1] <= tol.proj_abs * max(sv[0], 1.0):
        raise IllConditionedProjection(
            f"projection of the domain complement onto N_plus is nearly "
            f"singular: smallest singular value {sv[-1]:.3e}")
    x_mat = np.linalg.solve(u.T, w.T).T
    return ForbiddenOperator(matrix=read_only(x_mat))


@dataclasses.dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility test for a constant parameter matrix.

    margin is the smallest singular value of P_perp (B_minus V - B_plus)
    restricted to the complement of D(A); None when the defect is zero (then
    every parameter is vacuously admissible).  forbidden_gap is the smallest
    singular value of V - X when the forbidden operator was supplied.
    """

    admissible: bool
    margin: float | None
    parameter_norm: float
    forbidden_gap: float | None
    coincides_with_forbidden: bool
    borderline: bool


def is_admissible(matrix: np.ndarray, shift: ShiftOperator,
                  pair: DeficiencyPair,
                  forbidden: ForbiddenOperator | None = None,
                  tol: Tolerances = DEFAULT
                  ) -> AdmissibilityReport | tuple[AdmissibilityReport, ...]:
    """Decide whether a constant q x q parameter matrix is admissible.

    matrix may also be a (K, q, q) stack, for which a tuple of K reports
    comes back: each quantity (the norms, the margins, the forbidden gaps)
    is then one batched singular value call over the stack, and each report
    equals the one its matrix alone would get.  Raises NormViolation when a
    matrix is not a contraction (operator norm above 1 + norm_abs);
    isometry vs strict contraction is the caller's business.
    """
    q = pair.defect
    v = np.asarray(matrix, dtype=complex)
    if v.ndim not in (2, 3) or v.shape[-2:] != (q, q):
        raise ValueError(f"parameter must be {q} x {q} or a stack of them, "
                         f"got {v.shape}")
    stack = v if v.ndim == 3 else v[None]
    norms = singular_values(stack)[:, 0] if q else np.zeros(len(stack))
    reports = admissibility_reports(stack, norms, shift, pair, forbidden, tol)
    return reports if v.ndim == 3 else reports[0]


def admissibility_reports(stack: np.ndarray, norms: np.ndarray,
                          shift: ShiftOperator, pair: DeficiencyPair,
                          forbidden: ForbiddenOperator | None,
                          tol: Tolerances = DEFAULT
                          ) -> tuple[AdmissibilityReport, ...]:
    """is_admissible's reports for a (K, q, q) stack whose norms (largest
    singular values, (K,)) the caller has already taken."""
    q = pair.defect
    over = norms > 1.0 + tol.norm_abs
    if over.any():
        raise NormViolation(f"parameter norm {norms[over][0]:.12g} exceeds "
                            f"1 + {tol.norm_abs:.1e}")
    margins = gaps = [None] * len(stack)
    if q:
        adm = np.conj(shift.complement.T) @ (pair.basis_minus @ stack
                                             - pair.basis_plus)
        margins = singular_values(adm)[:, -1].tolist()
        if forbidden is not None:
            gaps = singular_values(stack - forbidden.matrix)[:, -1].tolist()
    return tuple(AdmissibilityReport(
        admissible=margin is None or margin > tol.adm_abs,
        margin=margin,
        parameter_norm=float(norm),
        forbidden_gap=gap,
        coincides_with_forbidden=gap is not None and gap <= tol.adm_abs,
        borderline=(margin is not None
                    and tol.adm_abs < margin <= 1e3 * tol.adm_abs),
    ) for norm, margin, gap in zip(norms, margins, gaps))
