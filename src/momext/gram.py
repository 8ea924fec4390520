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

The same frame decides whether H_d is fit to factor: the inertia of H_d
is that of H_{d-1} plus that of Sigma (Haynsworth), so the solvability
tests and the rank m are screened on L, Sigma and its eigenvalues
(_frame), and one eigvalsh of each section decides only when a screen
cannot.  The spectrum of H_d is then computed on first read.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import DependentDomain, NotPSD
from .linalg import max_abs, phase_canonicalize, read_only
from .tolerances import DEFAULT, Tolerances

if TYPE_CHECKING:                       # hankel imports this module
    from .hankel import BlockHankel

#: sections of fewer rows take the eigvalsh route: measured per prepare
#: on a 2-core Xeon (numpy 2.4, one BLAS thread), the screens cost 1-2 us
#: more than the two eigvalsh at 2 x 2 (N = 1, d = 1), as much at 3 x 3,
#: and less from 4 x 4 up (3 us less at 7 x 7, 260 us at 56 x 56)
SCREEN_MIN_SIZE = 3


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
        """rank_rel times the largest eigenvalue: the rank counts those
        above it."""
        return float(self.rank_rel * max(self.section.eigenvalues[-1], 0.0))


def factor_psd(section: BlockHankel, tol: Tolerances = DEFAULT) -> GramSpace:
    """Factor a PSD section into block Cholesky coordinates.

    The rank m counts the eigenvalues of the section above rank_rel times
    the largest, and q = m - dN; a significantly negative eigenvalue
    raises NotPSD, and a leading dN x dN block that is numerically
    singular raises DependentDomain.  These are decided by the screens
    of _frame, on the scales of the largest |entry| of the section and
    of its leading block, and by the section's spectra when a screen
    cannot decide.
    """
    dn = section.order * section.block_dim
    h = section.matrix
    return _factor(section, _frame(section, max_abs(h[:dn, :dn]),
                                   max_abs(h), tol), tol)


def _frame(section: BlockHankel, s_lead: float, s_trail: float,
           tol: Tolerances):
    """The block Cholesky frame (L, Y, the ascending eigenvalues of Sigma
    and their eigenvectors, None at N = 1, and the rank m) of a section
    H_d whose three screens decide; None when one of them cannot, or when
    the section is smaller than SCREEN_MIN_SIZE.

    With A = H_{d-1}, K the last block column above S_2d, and the rank
    cutoff c = rank_rel * lambda_max(H_d), which lies between
    c_lo = rank_rel * max diag H_d and c_hi = rank_rel * ||H_d||_F:

    1. A Cholesky of A - tI, t = max(pos_rel * s_lead, 2 c_hi), certifies
       the leading test, the domain check of _leading_factor (the
       smallest eigenvalue of A exceeds 2 c_hi, above rank_rel^2 times
       its largest; for rank_rel > 1/2, t exceeds that largest and the
       Cholesky fails) and A - cI > 0, so m >= dN.
    2. sigma_min(Sigma) > -tau, tau = psd_rel * s_trail, certifies
       H_d + tau I > 0: the Schur complement of A + tau I in it is at
       least Sigma + tau I.  That is the trailing test, and rules out
       _factor's NotPSD, whose floor is psd_rel times the norm.
    3. With Z = A^{-1} K, the Schur complement Sigma_c of A - cI in
       H_d - cI lies between Sigma - c(1 + 2||Z||^2) I and Sigma - cI,
       so when no eigenvalue of Sigma lies in (c_lo, c_hi (1 + 2||Z||^2)]
       Weyl's inequalities give the sign of each eigenvalue of Sigma_c,
       and by Haynsworth's inertia additivity m = dN + #{sigma above the
       band}, the count of eigenvalues of H_d above c (||Z||_F bounds
       ||Z||).

    Sigma is the computed Schur complement, backward stable with respect
    to H_d, so a screen and the eigvalsh rule can differ only within
    roundoff of a threshold.
    """
    h = section.matrix
    n = section.block_dim
    dn = section.order * n
    if len(h) < SCREEN_MIN_SIZE or not dn:
        return None
    c_hi = tol.rank_rel * math.sqrt(np.vdot(h, h).real)
    shifted = h[:dn, :dn].copy()
    shifted.flat[::dn + 1] -= max(tol.pos_rel * s_lead, 2.0 * c_hi)
    try:
        np.linalg.cholesky(shifted)
        lower = np.linalg.cholesky(h[:dn, :dn])
    except np.linalg.LinAlgError:
        return None
    y, sw, su = _schur(h, lower, n)
    if sw[0] <= -tol.psd_rel * s_trail:
        return None
    z = np.linalg.solve(np.conj(lower.T), np.conj(y.T))
    c_top = c_hi * (1.0 + 2.0 * np.vdot(z, z).real)
    above = int(np.count_nonzero(sw > c_top))
    if np.count_nonzero(sw > tol.rank_rel * h.diagonal().real.max()) != above:
        return None
    return lower, y, sw, su, dn + above


def _schur(h: np.ndarray, lower: np.ndarray, n: int):
    """Y = (L^{-1} K)^H and the ascending eigenvalues and eigenvectors of
    the Hermitized Sigma = S_2d - Y Y^H, from one eigh.  At N = 1 Sigma
    is its own eigenvalue, Re Sigma (LAPACK's eigh returns (Re a, [1])
    for n = 1), and the eigenvectors are None."""
    dn = len(lower)
    y = np.conj(np.linalg.solve(lower, h[:dn, dn:]).T) if dn else \
        np.zeros((n, 0), dtype=complex)
    schur = h[dn:, dn:] - y @ np.conj(y.T)
    if n == 1:
        return y, schur.real[0], None
    sw, su = np.linalg.eigh(0.5 * (schur + np.conj(schur.T)))
    return y, sw, su


def _factor(section: BlockHankel, frame, tol: Tolerances) -> GramSpace:
    """factor_psd from the frame of _frame; when that is None, from the
    eigvalsh rules on the section's two spectra (one eigvalsh each): the
    NotPSD test on the smallest eigenvalue, the count of those above the
    cutoff and the domain check of _leading_factor.

    F holds the top q eigenvectors of Sigma, phase-canonicalized, scaled
    by the square roots of their eigenvalues; at N = 1 it is
    sqrt(max(Re Sigma, 0)) in closed form, what the eigh and the
    canonical phase give, bit for bit."""
    n = section.block_dim
    dn = section.order * n
    h = section.matrix
    if frame is None:
        w = section.eigenvalues
        scale = max(-w[0], w[-1])          # the largest |w|, as w ascends
        if w[0] < -tol.psd_rel * scale:
            raise NotPSD(
                f"section of order {section.order} is not positive "
                f"semidefinite: min eigenvalue {w[0]:.6e} with scale "
                f"{scale:.3e}",
                section="trailing", min_eigenvalue=float(w[0]))
        m = int(np.count_nonzero(w > tol.rank_rel * max(w[-1], 0.0)))
        lower = _leading_factor(h[:dn, :dn], section.leading_eigenvalues, m,
                                tol)
        frame = (lower, *_schur(h, lower, n), m)
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
    low, high = (math.sqrt(max(e, 0.0)) for e in (w_lead[0], w_lead[-1]))
    if high == 0.0 or low <= tol.rank_rel * high:
        raise DependentDomain(
            f"domain vectors are numerically dependent: smallest singular "
            f"value {low:.3e} vs largest {high:.3e}")
    try:
        return np.linalg.cholesky(lead)
    except np.linalg.LinAlgError:
        raise DependentDomain("the leading section has no Cholesky factor "
                              "in float64") from None
