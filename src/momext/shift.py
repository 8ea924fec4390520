"""The symmetric block shift, its defect subspaces, and admissibility.

In the Gram space of the trailing Hankel section the operator

    A x_a = x_{a+N},    a = 0..dN-1,

is symmetric on D(A) = span{x_0..x_{dN-1}} whenever the leading section is
positive definite.  Self-adjoint (and more generally quasi-self-adjoint)
extensions of A are what produce solutions of the moment problem.

In the block Cholesky frame of momext.gram, D(A) is the span of the first
dN coordinates of C^m and its orthogonal complement the span of the last
q = m - dN.  A is the m x dN matrix M = img L^{-T} (L the Cholesky factor
of H_{d-1}): its top dN rows form the Hermitian block Jacobi matrix J_0,
and its bottom q rows E vanish except for their last N columns, B_d.
Every extension of A inside C^m is

    A_V = [[J_0, E^H],
           [E,   B]]

for a q x q matrix B, and the parameters V are those of the paper's
Cayley construction, taken at the reference point z0 = beta + i kappa
(beta the mean diagonal entry of the last block A_{d-1} of J_0, kappa
the root-mean-square singular value ||B_d||_F / sqrt(q) of B_d) so that
they follow the data under x -> a x + b and S_n -> U S_n U^H:

    N_plus  = orthogonal complement of (A - z0) D(A),
    N_minus = orthogonal complement of (A - conj z0) D(A),

and V: N_plus -> N_minus gives B from (A_V - z0) B_minus V =
(A_V - conj z0) B_plus.  With Omega = z0 + E (J_0 - z0)^{-1} E^H and C_pm
the complement rows of the bases B_pm,

    B(V) = (Omega C_minus V - Omega^H C_plus) (C_minus V - C_plus)^{-1},

a q x q solve.  The bases are canonical: B_plus is the orthonormalized
[-(J_0 - conj z0)^{-1} E^H; I], and B_minus is the orthonormalized
[-(J_0 - z0)^{-1} E^H; I] turned by a unitary U so that V = I maps each
defect vector to the one with the best-matching values (x_k, psi), k < N.
Both are orthonormalized by the same G^{-1/2}, so C_plus = G^{-1/2} and
C_minus = G^{-1/2} U.  V is admissible when C_minus V - C_plus is
nonsingular; the forbidden operator X = C_minus^{-1} C_plus is therefore
U^H, with no solve, and V = -X gives B = Re Omega = (Omega + Omega^H) / 2,
the default, again with no solve.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import NormViolation
from .gram import GramSpace
from .linalg import read_only, singular_values
from .tolerances import DEFAULT, Tolerances


@dataclasses.dataclass(frozen=True, eq=False)
class ShiftOperator:
    """The block shift restricted to its natural domain.

    action is A in the coordinates of D(A) (m x dN, A v = action @ v[:dN]
    for v in D(A)), jacobi its top dN rows made Hermitian (J_0), and
    herm_residual the symmetry defect removed from them, relative to their
    scale.  dom_matrix / shift_matrix (the vectors x_0..x_{dN-1} and their
    images x_N..x_{dN+N-1} as columns), dom_basis and complement (the
    coordinate bases of D(A) and of its orthogonal complement) are built
    on first use.
    """

    space: GramSpace
    block_dim: int
    order: int
    action: np.ndarray          # m x dN
    jacobi: np.ndarray          # dN x dN, Hermitian
    herm_residual: float

    @property
    def ambient_dim(self) -> int:
        return self.space.ambient_dim

    @property
    def dom_dim(self) -> int:
        return self.action.shape[1]

    @functools.cached_property
    def dom_matrix(self) -> np.ndarray:
        """m x dN: the vectors x_0..x_{dN-1} as columns."""
        return read_only(np.ascontiguousarray(
            self.space.coords[:self.dom_dim].T))

    @functools.cached_property
    def shift_matrix(self) -> np.ndarray:
        """m x dN: the images x_N..x_{dN+N-1} as columns."""
        n = self.block_dim
        return read_only(np.ascontiguousarray(
            self.space.coords[n:self.dom_dim + n].T))

    @property
    def defect(self) -> int:
        return self.ambient_dim - self.dom_dim

    @functools.cached_property
    def dom_basis(self) -> np.ndarray:
        """m x dN orthonormal basis of D(A): the first dN coordinates."""
        return read_only(np.eye(self.ambient_dim, self.dom_dim,
                                dtype=complex))

    @functools.cached_property
    def complement(self) -> np.ndarray:
        """m x q orthonormal basis of the orthogonal complement of D(A):
        the last q coordinates."""
        return read_only(np.eye(self.ambient_dim, self.defect,
                                k=-self.dom_dim, dtype=complex))

    @property
    def tail(self) -> np.ndarray:
        """B_d, the q x N block of E that is not zero."""
        dn = self.dom_dim
        return self.action[dn:, dn - self.block_dim:]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """A v for v in D(A) (no membership check)."""
        return self.action @ v[:self.dom_dim]


def build_shift(space: GramSpace) -> ShiftOperator:
    """Construct the shift from one solve with the Cholesky factor L.

    The domain vectors were certified independent when the space was
    factored (DependentDomain comes from factor_psd).
    """
    n = space.block_dim
    dn = space.order * n
    m = space.ambient_dim
    coords = space.coords
    action = np.zeros((m, dn), dtype=complex)
    if dn:
        action[:] = np.linalg.solve(coords[:dn, :dn], coords[n:dn + n]).T
        action[dn:, :dn - n] = 0.0          # zero in exact arithmetic
    top = action[:dn]
    jacobi = 0.5 * (top + np.conj(top.T))
    residual = float(np.abs(top - np.conj(top.T)).max(initial=0.0)
                     / max(float(np.abs(top).max(initial=0.0)), 1.0))
    return ShiftOperator(
        space=space, block_dim=n, order=space.order,
        action=read_only(action), jacobi=read_only(jacobi),
        herm_residual=residual)


@dataclasses.dataclass(frozen=True, eq=False)
class DeficiencyPair:
    """Orthonormal bases of the defect subspaces at the reference point z0,
    Omega = z0 + E (J_0 - z0)^{-1} E^H, which turns a parameter into the
    last block of its extension, and the unitary rotation U that turned
    basis_minus (C_minus = C_plus U)."""

    basis_plus: np.ndarray      # m x q, spans N_plus
    basis_minus: np.ndarray     # m x q, spans N_minus
    defect: int
    omega: np.ndarray           # q x q
    rotation: np.ndarray        # q x q, unitary

    @property
    def complement_rows(self):
        """C_plus and C_minus, the rows of the bases in the complement of
        D(A)."""
        dn = len(self.basis_plus) - self.defect
        return self.basis_plus[dn:], self.basis_minus[dn:]


def deficiency_subspaces(shift: ShiftOperator) -> DeficiencyPair:
    """N_plus and N_minus (dimension m - dN) at z0 = beta + i kappa, from one
    batched solve with J_0 - conj z0 and J_0 - z0.

    N_plus is spanned by [-(J_0 - conj z0)^{-1} E^H; I] and N_minus by
    [-(J_0 - z0)^{-1} E^H; I], both with Gram matrix G = I + R^H R
    (R = (J_0 - z0)^{-1} E^H), and G^{-1/2} makes them orthonormal.  The
    values (x_k, psi), k < N, of a defect vector are fixed by its first
    block rows through the same map on both sides, so B_minus is turned by
    the polar factor U of K_minus^H K_plus (K the first block rows of the
    orthonormal bases), the unitary that best matches them; X is then
    U^H.
    """
    q, n, dn = shift.defect, shift.block_dim, shift.dom_dim
    if q == 0:
        empty = read_only(np.zeros((shift.ambient_dim, 0), dtype=complex))
        square = read_only(np.zeros((0, 0), complex))
        return DeficiencyPair(basis_plus=empty, basis_minus=empty, defect=0,
                              omega=square, rotation=square)
    e = shift.action[dn:]
    tail = shift.tail
    corner = shift.jacobi[dn - n:, dn - n:]
    z0 = complex(np.trace(corner).real / n,
                 np.sqrt(np.vdot(tail, tail).real / q))
    points = np.array([np.conj(z0), z0])[:, None, None]
    cols = np.linalg.solve(shift.jacobi - points * np.eye(dn),
                           np.conj(e.T))                # (2, dN, q)
    eye = np.eye(q)
    omega = z0 * eye + e @ cols[1]
    w, u = np.linalg.eigh(eye + np.conj(cols[1].T) @ cols[1])
    root_inv = (u / np.sqrt(w)) @ np.conj(u.T)      # G^{-1/2}
    k = cols[:, :n] @ root_inv
    left, _, right = np.linalg.svd(np.conj(k[1].T) @ k[0])
    bases = np.empty((2, dn + q, q), dtype=complex)
    bases[:, :dn] = -cols
    bases[:, dn:] = eye
    bases = bases @ root_inv
    return DeficiencyPair(basis_plus=read_only(bases[0]),
                          basis_minus=read_only(bases[1] @ left @ right),
                          defect=q, omega=read_only(omega),
                          rotation=read_only(left @ right))


@dataclasses.dataclass(frozen=True, eq=False)
class ForbiddenOperator:
    """The operator X: N_plus -> N_minus that parameters must avoid.

    X = C_minus^{-1} C_plus is the V for which B_minus V - B_plus lies in
    D(A), so that the extension would leave C^m; matrix expresses it in
    the (basis_plus, basis_minus) coordinate pair.  It is U^H, the adjoint
    of the rotation of basis_minus, and so unitary.
    """

    matrix: np.ndarray          # q x q


def forbidden_operator(shift: ShiftOperator,
                       pair: DeficiencyPair) -> ForbiddenOperator:
    """X = C_minus^{-1} C_plus = U^H, read off the rotation of the pair:
    C_plus = G^{-1/2} and C_minus = G^{-1/2} U, so no solve is needed."""
    return ForbiddenOperator(matrix=read_only(np.conj(pair.rotation.T)))


@dataclasses.dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility test for a constant parameter matrix.

    margin is the smallest singular value of C_minus V - C_plus (in
    [0, 2]); None when the defect is zero (then every parameter is
    vacuously admissible).  forbidden_gap is the smallest singular value
    of V - X when the forbidden operator was supplied.
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
    comes back, and each report equals the one its matrix alone would get.
    Raises NormViolation when a matrix is not a contraction (operator norm
    above 1 + norm_abs); isometry vs strict contraction is the caller's
    business.
    """
    q = pair.defect
    v = np.asarray(matrix, dtype=complex)
    if v.ndim not in (2, 3) or v.shape[-2:] != (q, q):
        raise ValueError(f"parameter must be {q} x {q} or a stack of them, "
                         f"got {v.shape}")
    _, reports = admissibility_reports(v if v.ndim == 3 else v[None], pair,
                                       forbidden, tol)
    return reports if v.ndim == 3 else reports[0]


def admissibility_reports(stack: np.ndarray, pair: DeficiencyPair,
                          forbidden: ForbiddenOperator | None,
                          tol: Tolerances = DEFAULT):
    """The singular values (K, q) of each matrix V of a (K, q, q) stack and
    its admissibility report, from one batched singular value call over
    the V, the C_minus V - C_plus and (with the forbidden operator) the
    V - X of the whole stack."""
    k, q = len(stack), pair.defect
    if not q:
        return np.zeros((k, 0)), (AdmissibilityReport(
            admissible=True, margin=None, parameter_norm=0.0,
            forbidden_gap=None, coincides_with_forbidden=False,
            borderline=False),) * k
    plus, minus = pair.complement_rows
    parts = [stack, minus @ stack - plus]
    if forbidden is not None:
        parts.append(stack - forbidden.matrix)
    sv = singular_values(np.concatenate(parts))
    norms = sv[:k, 0]
    over = norms > 1.0 + tol.norm_abs
    if over.any():
        raise NormViolation(f"parameter norm {norms[over][0]:.12g} exceeds "
                            f"1 + {tol.norm_abs:.1e}")
    margins = sv[k:2 * k, -1].tolist()
    gaps = sv[2 * k:, -1].tolist() if forbidden is not None else [None] * k
    return sv[:k], tuple(AdmissibilityReport(
        admissible=margin > tol.adm_abs,
        margin=margin,
        parameter_norm=float(norm),
        forbidden_gap=gap,
        coincides_with_forbidden=gap is not None and gap <= tol.adm_abs,
        borderline=tol.adm_abs < margin <= 1e3 * tol.adm_abs,
    ) for norm, margin, gap in zip(norms, margins, gaps))
