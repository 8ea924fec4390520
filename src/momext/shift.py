"""The block shift, its defect subspaces, and the forbidden operator.

In the Gram space of the trailing Hankel section the operator

    A x_a = x_{a+N},    a = 0..dN-1,

is symmetric on D(A) = span{x_0..x_{dN-1}} whenever the leading section is
positive definite.  Self-adjoint (and more generally quasi-self-adjoint)
extensions of A are what produce solutions of the moment problem.

In the block Cholesky frame of momext.hankel, D(A) is the span of the first
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
import math

import numpy as np

from .errors import DimensionMismatch
from .hankel import GramSpace
from .linalg import read_only


@dataclasses.dataclass(frozen=True, eq=False)
class ShiftOperator:
    """The block shift restricted to its natural domain.

    action is A in the coordinates of D(A) (m x dN, A v = action @ v[:dN]
    for v in D(A)), jacobi its top dN rows made Hermitian (J_0), and
    herm_residual the symmetry defect removed from them, relative to their
    scale.  D(A) is the span of the first dN coordinates of C^m, and its
    orthogonal complement that of the last q.
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

    @property
    def defect(self) -> int:
        return self.ambient_dim - self.dom_dim

    @functools.cached_property
    def frame_peak(self) -> float:
        """The largest |entry| of J_0 and of E: the part of the scale of
        every extension that does not depend on its parameter."""
        return max(float(np.abs(self.jacobi).max(initial=0.0)),
                   float(np.abs(self.action[self.dom_dim:]).max(initial=0.0)))

    @property
    def tail(self) -> np.ndarray:
        """B_d, the q x N block of E that is not zero."""
        dn = self.dom_dim
        return self.action[dn:, dn - self.block_dim:]


def build_shift(space: GramSpace) -> ShiftOperator:
    """Construct the shift from one solve with the Cholesky factor L.

    The domain vectors were certified independent when the space was
    factored (DependentDomain comes from factor_psd or _factor_prefix).  An
    order-0 space has no domain to shift and raises DimensionMismatch.
    """
    if space.order == 0:
        raise DimensionMismatch("the shift needs a section of order >= 1: "
                                "an order-0 space has an empty domain")
    n = space.block_dim
    dn = space.order * n
    m = space.ambient_dim
    coords = space.coords
    action = np.empty((m, dn), dtype=complex)
    action[:] = np.linalg.solve(coords[:dn, :dn], coords[n:dn + n]).T
    action[dn:, :dn - n] = 0.0              # zero in exact arithmetic
    top = action[:dn]
    adjoint = np.conj(top.T)
    jacobi = 0.5 * (top + adjoint)
    residual = float(np.abs(top - adjoint).max(initial=0.0)
                     / max(float(np.abs(top).max(initial=0.0)), 1.0))
    return ShiftOperator(
        space=space, block_dim=n, order=space.order,
        action=read_only(action), jacobi=read_only(jacobi),
        herm_residual=residual)


@dataclasses.dataclass(frozen=True, eq=False)
class DeficiencyPair:
    """Orthonormal bases of the defect subspaces at the reference point z0,
    Omega = z0 + E (J_0 - z0)^{-1} E^H, which turns a parameter into the
    last block of its extension, and the forbidden operator X.

    X = C_minus^{-1} C_plus is the V for which B_minus V - B_plus lies in
    D(A), so that the extension would leave C^m, in the (basis_plus,
    basis_minus) coordinate pair.  basis_minus was turned by a unitary U
    (C_minus = C_plus U), so X = U^H, unitary and read off with no solve.
    """

    basis_plus: np.ndarray      # m x q, spans N_plus
    basis_minus: np.ndarray     # m x q, spans N_minus
    defect: int
    omega: np.ndarray           # q x q
    forbidden: np.ndarray       # q x q, unitary: X = U^H
    #: 2 sigma_min(C_plus), the margin of -X (None on a pair built by hand)
    opposite_margin: float | None = None

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

    G^{-1/2} comes from one q x q eigh; at q = 1 G is 1 x 1 and G^{-1/2}
    is 1 / sqrt(Re G) in closed form, what that eigh (LAPACK returns
    (Re a, [1]) for n = 1) gives bit for bit; its largest eigenvalue
    gives the margin of -X.  U always comes from the q x q SVD.
    """
    q, n, dn = shift.defect, shift.block_dim, shift.dom_dim
    if q == 0:
        empty = read_only(np.zeros((shift.ambient_dim, 0), dtype=complex))
        square = read_only(np.zeros((0, 0), complex))
        return DeficiencyPair(basis_plus=empty, basis_minus=empty, defect=0,
                              omega=square, forbidden=square)
    e = shift.action[dn:]
    tail = shift.tail
    corner = shift.jacobi[dn - n:, dn - n:]
    z0 = complex(corner.trace().real / n,
                 math.sqrt(np.vdot(tail, tail).real / q))
    shifted = np.array([shift.jacobi] * 2)      # J_0 - conj z0, J_0 - z0
    diagonals = shifted.reshape(2, -1)[:, ::dn + 1]
    diagonals[0] -= z0.conjugate()
    diagonals[1] -= z0
    cols = np.linalg.solve(shifted, np.conj(e.T))
    eye = np.eye(q)
    omega = z0 * eye + e @ cols[1]
    gram = eye + np.conj(cols[1].T) @ cols[1]
    if q == 1:          # G is its own eigenvalue, with eigenvector 1
        w, root_inv = gram.real[0], 1.0 / np.sqrt(gram.real)
    else:
        w, u = np.linalg.eigh(gram)
        root_inv = (u / np.sqrt(w)) @ np.conj(u.T)  # G^{-1/2}
    bases = np.empty((2, dn + q, q), dtype=complex)
    bases[:, :dn] = -cols
    bases[:, dn:] = eye
    bases = bases @ root_inv
    k = bases[:, :n]                                    # K_plus, K_minus
    left, _, right = np.linalg.svd(np.conj(k[1].T) @ k[0])
    return DeficiencyPair(basis_plus=read_only(bases[0]),
                          basis_minus=read_only(bases[1] @ left @ right),
                          defect=q, omega=read_only(omega),
                          forbidden=read_only(np.conj((left @ right).T)),
                          opposite_margin=2.0 / math.sqrt(w[-1]))


def forbidden_operator(shift: ShiftOperator,
                       pair: DeficiencyPair) -> np.ndarray:
    """X, the q x q matrix that parameters must avoid: pair.forbidden,
    formed with the defect bases."""
    return pair.forbidden
