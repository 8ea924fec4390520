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

Whether H_d is fit to factor, its rank m and the frame itself are
decided once, by hankel._decide, for prepare and factor_psd alike; this
module only assembles the coordinates.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import MomentProblemError
from .hankel import BlockHankel, _decide
from .linalg import max_abs, phase_canonicalize, read_only
from .tolerances import DEFAULT, Tolerances


@dataclasses.dataclass(frozen=True, eq=False)
class GramSpace:
    """Vectors x_a realizing a PSD Gram matrix in C^ambient_dim.

    coords has one row per vector.  eigenvalues (the full spectrum of the
    factored section in descending order, kept and dropped) and
    rank_cutoff keep the rank decision visible in reports; they are
    computed on first read, from the section's one eigvalsh, which a
    screened factorization never needed.
    """

    ambient_dim: int
    block_dim: int
    order: int
    coords: np.ndarray          # ((d+1)N, ambient_dim), row a is x_a
    section: BlockHankel = dataclasses.field(repr=False)
    rank_rel: float = dataclasses.field(repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Descending, the full spectrum."""
        return self.section.eigenvalues[::-1]

    @property
    def rank_cutoff(self) -> float:
        """The section's rank cutoff, at the rank_rel it was factored with."""
        return self.section.rank_cutoff(self.rank_rel)


def factor_psd(section: BlockHankel, tol: Tolerances = DEFAULT) -> GramSpace:
    """Factor a PSD section into block Cholesky coordinates.

    The rank m counts the eigenvalues of the section above rank_rel times
    the largest, and q = m - dN.  The section is refused as prepare
    refuses data, by the rules of hankel._decide on the largest |entry|
    of the section and of its leading block: NotPSD when the leading
    block is not positive definite or the section not positive
    semidefinite, DependentDomain when the leading block's vectors are
    numerically dependent.
    """
    dn = section.order * section.block_dim
    h = section.matrix
    return _factor(section, _decide(section, max_abs(h[:dn, :dn]),
                                    max_abs(h), tol)[2], tol)


def _factor(section: BlockHankel, frame, tol: Tolerances) -> GramSpace:
    """The Gram space assembled from the frame that hankel._decide gives;
    when it gives an error instead, that error is raised here, for
    prepare and factor_psd alike.

    F holds the top q eigenvectors of Sigma, phase-canonicalized, scaled
    by the square roots of their eigenvalues; at N = 1 it is
    sqrt(max(Re Sigma, 0)) in closed form, what the eigh and the
    canonical phase give, bit for bit."""
    if isinstance(frame, MomentProblemError):
        raise frame
    n = section.block_dim
    dn = section.order * n
    lower, y, sw, su, m = frame
    top = slice(dn + n - m, n)                      # the q largest
    coords = np.zeros((dn + n, m), dtype=complex)
    coords[:dn, :dn] = lower
    coords[dn:, :dn] = y
    root = np.sqrt(np.maximum(sw[top], 0.0))[None, :]
    coords[dn:, dn:] = root if su is None else \
        phase_canonicalize(su[:, top]) * root
    return GramSpace(
        ambient_dim=m,
        block_dim=n,
        order=section.order,
        coords=read_only(coords),
        section=section,
        rank_rel=tol.rank_rel,
    )
