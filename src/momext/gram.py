"""Gram-space realization of a positive semidefinite block Hankel section.

factor_psd turns H_d >= 0 into concrete vectors x_0, ..., x_{(d+1)N-1} in
C^m, where m is the numerical rank of H_d, such that

    (x_a, x_b) = H_d[a, b]

with the inner product linear in its first argument.  The whole operator
construction then lives in this concrete C^m: the vectors x_{rN+l} play the
role of the monomials x^r e_l pushed into the solution space.

The coordinates are those of the block Cholesky factorization.  With
H_{d-1} = L L^H, Y = (L^{-1} K)^H for the last block column K of H_d
above its corner S_{2d}, and the Schur complement Sigma = S_{2d} - Y Y^H,

    coords = [[L, 0],
              [Y, F]]          ((d+1)N x m,  m = dN + q),

where F (N x q) holds the top q eigenvectors of Sigma scaled by the
square roots of their eigenvalues.  The first dN coordinates of C^m then
span D(A) = span{x_0..x_{dN-1}} and the last q its orthogonal complement:
the frame of the orthonormal matrix polynomials, in which the shift is a
block Jacobi matrix.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import DependentDomain, NotPSD
from .hankel import BlockHankel
from .linalg import max_abs, phase_canonicalize, read_only
from .tolerances import DEFAULT, Tolerances


@dataclasses.dataclass(frozen=True, eq=False)
class GramSpace:
    """Vectors x_a realizing a PSD Gram matrix in C^ambient_dim.

    coords has one row per vector; eigenvalues holds the full spectrum of the
    factored section in descending order (kept and dropped), so rank
    decisions stay visible in reports.
    """

    ambient_dim: int
    block_dim: int
    order: int
    coords: np.ndarray          # (n_vectors, ambient_dim)
    eigenvalues: np.ndarray     # descending, full spectrum
    rank_cutoff: float

    @property
    def n_vectors(self) -> int:
        return self.coords.shape[0]

    def vector(self, a: int) -> np.ndarray:
        return self.coords[a]

    def gram(self) -> np.ndarray:
        """Reproduced Gram matrix (x_a, x_b); equals the input section."""
        return self.coords @ np.conj(self.coords.T)


def factor_psd(section: BlockHankel, tol: Tolerances = DEFAULT) -> GramSpace:
    """Factor a PSD section into block Cholesky coordinates.

    The rank m counts the eigenvalues of the section above rank_rel times
    the largest, and q = m - dN; a significantly negative eigenvalue
    raises NotPSD, and a leading dN x dN block that is numerically
    singular raises DependentDomain.
    """
    dn = section.order * section.block_dim
    return _factor(section, np.linalg.eigvalsh(section.matrix),
                   np.linalg.eigvalsh(section.matrix[:dn, :dn]), tol)


def _factor(section: BlockHankel, w: np.ndarray, w_lead: np.ndarray,
            tol: Tolerances) -> GramSpace:
    """factor_psd from the ascending eigenvalues of the section (w) and of
    its leading dN x dN block (w_lead), which the solvability check has
    already taken.

    F comes from one eigh of the Hermitized Schur complement, its
    eigenvectors phase-canonicalized.  At N = 1 Sigma is 1 x 1 and F is
    sqrt(max(Re Sigma, 0)) in closed form: what that eigh (LAPACK returns
    (Re a, [1]) for n = 1) and the canonical phase give, bit for bit."""
    scale = max_abs(w)
    if w.size and w[0] < -tol.psd_rel * scale:
        raise NotPSD(
            f"section of order {section.order} is not positive semidefinite: "
            f"min eigenvalue {w[0]:.6e} with scale {scale:.3e}",
            section="trailing", min_eigenvalue=float(w[0]))
    cutoff = tol.rank_rel * max(w[-1] if w.size else 0.0, 0.0)
    m = int(np.count_nonzero(w > cutoff))
    n = section.block_dim
    dn = section.order * n
    h = section.matrix
    lower = _leading_factor(h[:dn, :dn], w_lead, m, tol)
    y = np.conj(np.linalg.solve(lower, h[:dn, dn:]).T) if dn else \
        np.zeros((n, 0), dtype=complex)
    schur = h[dn:, dn:] - y @ np.conj(y.T)
    top = slice(dn + n - m, n)                      # the q largest
    coords = np.zeros((dn + n, m), dtype=complex)
    coords[:dn, :dn] = lower
    coords[dn:, :dn] = y
    if n == 1:          # Sigma is its own eigenvalue, with eigenvector 1
        coords[dn:, dn:] = np.sqrt(np.maximum(schur.real, 0.0))[:, top]
    else:
        sw, su = np.linalg.eigh(0.5 * (schur + np.conj(schur.T)))
        coords[dn:, dn:] = (phase_canonicalize(su[:, top])
                            * np.sqrt(np.maximum(sw[top], 0.0))[None, :])
    return GramSpace(
        ambient_dim=m,
        block_dim=n,
        order=section.order,
        coords=read_only(coords),
        eigenvalues=read_only(w[::-1].astype(float)),
        rank_cutoff=float(cutoff),
    )


def _leading_factor(lead: np.ndarray, w_lead: np.ndarray, m: int,
                    tol: Tolerances) -> np.ndarray:
    """The Cholesky factor L of H_{d-1}, after checking that its vectors
    x_0..x_{dN-1} are independent: the singular values of the domain are
    the square roots of w_lead, and there must be room for them in C^m."""
    dn = len(lead)
    if dn == 0:
        return np.zeros((0, 0), dtype=complex)
    if m < dn:
        raise DependentDomain(
            f"domain needs {dn} independent vectors but the space has "
            f"dimension {m}")
    sv = np.sqrt(np.maximum(w_lead[[0, -1]], 0.0))
    if sv[1] == 0.0 or sv[0] <= tol.rank_rel * sv[1]:
        raise DependentDomain(
            f"domain vectors are numerically dependent: smallest singular "
            f"value {sv[0]:.3e} vs largest {sv[1]:.3e}")
    try:
        return np.linalg.cholesky(lead)
    except np.linalg.LinAlgError:
        raise DependentDomain("the leading section has no Cholesky factor "
                              "in float64") from None
