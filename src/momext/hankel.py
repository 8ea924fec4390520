"""Moment sequences, their block Hankel sections, and the Gram space.

A truncated matrix Hamburger problem hands us Hermitian N x N moments
S_0, ..., S_{2d} and asks for a nondecreasing N x N matrix measure M on the
real line with

    integral of x^n dM(x) = S_n,   n = 0..2d.

The data enters every later stage only through the block Hankel sections

    H_k = [ S_{r+t} ]_{r,t = 0..k}     ((k+1)N square),

whose positivity encodes solvability: H_{d-1} positive definite together with
H_d positive semidefinite makes the whole operator construction go through.

Both tests, the rank of H_d and the independence of the domain vectors
are decided in one place, _decide: three screens read them off the
block Cholesky frame of H_d (the inertia of H_d is that of H_{d-1} plus
that of the Schur complement, by Haynsworth), and one eigvalsh of each
section decides only when a screen cannot.  The spectra are otherwise
computed on first read.  The scalar classifier needs no rank rule:
_rank_scan finds the last order r whose section is positive definite, and
_factor_prefix factors H_r by one block Cholesky chain whose next Schur
complement decides H_{r+1} by the trailing rule of _decide.

The same frame realizes H_d >= 0 as a Gram space: factor_psd turns it
into concrete vectors x_0, ..., x_{(d+1)N-1} in C^m, where m is the
numerical rank of H_d, such that

    (x_a, x_b) = H_d[a, b]

with the inner product linear in its first argument.  The whole operator
construction then lives in this concrete C^m: the vectors x_{rN+l} play
the role of the monomials x^r e_l pushed into the solution space.  With
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
import functools
import math

import numpy as np

from .errors import (DependentDomain, InsufficientMoments, MomentProblemError,
                     NotPSD)
from .linalg import (as_complex_matrix, max_abs, phase_canonicalize,
                     read_only)
from .tolerances import DEFAULT, Tolerances

#: Hermitian-symmetry defect allowed in S_n, relative to the largest |entry|
#: of S_0..S_n (the scale its Hankel sections are checked on)
HERM_REL = 1e-10


@dataclasses.dataclass(frozen=True, eq=False)
class MomentSequence:
    """Hermitian matrix moments S_0..S_{count-1}, stored symmetrized as one
    read-only complex (count, N, N) array."""

    dim: int
    moments: np.ndarray

    @classmethod
    def from_arrays(cls, arrays):
        """Check and symmetrize the moments in one pass over their stack
        (a complex (count, N, N) array is taken as it is); an error names
        the first offending S_i.  A non-finite entry is refused with
        ValueError."""
        stack = _stack_moments(arrays if isinstance(arrays, np.ndarray)
                               else list(arrays))
        if not np.isfinite(stack).all():
            i = np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))[0]
            raise ValueError(f"moment S_{i} has a non-finite entry")
        herm = np.conj(np.swapaxes(stack, 1, 2))
        scale = np.maximum.accumulate(
            np.abs(stack).max(axis=(1, 2), initial=0.0))
        defect = np.abs(stack - herm).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(defect > HERM_REL * scale)
        if bad.size:
            i = bad[0]
            raise ValueError(f"moment S_{i} is not Hermitian: defect "
                             f"{defect[i]:.3e} exceeds {HERM_REL:.1e} * scale "
                             f"{scale[i]:.3e}")
        return cls(stack.shape[1], read_only(0.5 * stack + 0.5 * herm))

    @classmethod
    def scalar(cls, values):
        """Convenience constructor for N = 1 from plain numbers."""
        return cls.from_arrays(
            np.asarray(values, dtype=complex).reshape(-1, 1, 1))

    def __len__(self) -> int:
        return len(self.moments)

    def __getitem__(self, n: int) -> np.ndarray:
        return self.moments[n]

    @functools.cached_property
    def _reach(self) -> np.ndarray:
        """The largest |entry| of S_0..S_n for each n, taken once: the scales
        of the Hankel sections (made of S_n entries) and verifications."""
        return read_only(np.maximum.accumulate(
            np.abs(self.moments).max(axis=(1, 2))))


def _stack_moments(arrays) -> np.ndarray:
    """The moments (a list, or an array) as one complex (count, N, N) array.
    Input that does not stack to one is checked up to its first moment of
    the wrong shape, so the error names the first offending S_i."""
    try:
        stack = np.asarray(arrays, dtype=complex)
        if len(stack) and stack.ndim == 3 and stack.shape[1] == stack.shape[2]:
            return stack
    except (TypeError, ValueError):
        pass
    mats = [as_complex_matrix(a, f"moment S_{i}") for i, a in enumerate(arrays)]
    if not mats:
        raise InsufficientMoments("a moment sequence needs at least S_0")
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            if i:       # an earlier moment that fails a check comes first
                MomentSequence.from_arrays(np.array(mats[:i]))
            raise ValueError(f"moment S_{i} has shape {m.shape}, "
                             f"expected ({dim}, {dim})")
    return np.array(mats)


@dataclasses.dataclass(frozen=True, eq=False)
class BlockHankel:
    """The section H_k = [S_{r+t}]_{r,t=0..k}; Hermitian by construction.

    Its spectrum and that of its leading kN x kN block H_{k-1} are each
    one eigvalsh, taken on first read and kept."""

    order: int
    block_dim: int
    matrix: np.ndarray

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        """The ascending eigenvalues of H_k."""
        return read_only(np.linalg.eigvalsh(self.matrix))

    @functools.cached_property
    def leading_eigenvalues(self) -> np.ndarray:
        """The ascending eigenvalues of H_{k-1}."""
        dn = self.order * self.block_dim
        return read_only(np.linalg.eigvalsh(self.matrix[:dn, :dn]))

    def rank_cutoff(self, rank_rel: float) -> float:
        """rank_rel times the largest eigenvalue: the rank counts those
        above it."""
        return float(rank_rel * max(self.eigenvalues[-1], 0.0))


def build_block_hankel(seq: MomentSequence, order: int) -> BlockHankel:
    """Assemble H_order from the sequence; needs moments up to S_{2*order}.

    One index gather: block (r, t) of the section is S_{r+t}."""
    if order < 0:
        raise ValueError(f"Hankel order must be >= 0, got {order}")
    if 2 * order + 1 > len(seq):
        raise InsufficientMoments(
            f"building the order-{order} section needs {2 * order + 1} moments, "
            f"got {len(seq)}")
    n = seq.dim
    size = (order + 1) * n
    index = np.add.outer(np.arange(order + 1), np.arange(order + 1))
    blocks = seq.moments[index]
    g = blocks.transpose(0, 2, 1, 3).reshape(size, size)
    return BlockHankel(order=order, block_dim=n, matrix=read_only(g))


@dataclasses.dataclass(frozen=True)
class ConditionReport:
    """Solvability conditions for the truncated problem of order d, and
    what _decide gives for the section: the frame prepare factors, or the
    refusal it raises.

    The two minimum eigenvalues are read off the spectra of the section,
    computed on first read (one eigvalsh each, kept by the section): a
    verdict that the screens of _decide gave takes no eigvalsh at all."""

    block_dim: int
    order: int
    leading_positive: bool      # H_{d-1} > 0
    trailing_psd: bool          # H_d >= 0
    section: BlockHankel = dataclasses.field(repr=False, compare=False)
    _frame: object = dataclasses.field(repr=False, compare=False)

    @property
    def solvable(self) -> bool:
        return self.leading_positive and self.trailing_psd

    @property
    def refusal(self) -> MomentProblemError | None:
        """NotPSD when a condition fails, DependentDomain when the data is
        outside the covered regime, None when prepare goes on."""
        frame = self._frame
        return frame if isinstance(frame, MomentProblemError) else None

    @property
    def min_eig_leading(self) -> float:
        return float(self.section.leading_eigenvalues[0])

    @property
    def min_eig_trailing(self) -> float:
        return float(self.section.eigenvalues[0])


def check_truncated_conditions(seq: MomentSequence,
                               tol: Tolerances = DEFAULT) -> ConditionReport:
    """Decide solvability of the order-d problem from S_0..S_{2d}.

    The sequence must contain an odd number (>= 3) of moments so both the
    leading section H_{d-1} and the trailing section H_d exist.  The
    tests and the refusal are the rules of _decide, on scales the largest
    |entry| of each section.  min_eig_trailing is the smallest eigenvalue
    of the eigvalsh that the Gram factor of H_d reads for its rank.
    """
    count = len(seq)
    if count < 3 or count % 2 == 0:
        raise InsufficientMoments(
            f"the truncated problem needs an odd number (>= 3) of moments "
            f"S_0..S_2d, got {count}")
    d = (count - 1) // 2
    trail = build_block_hankel(seq, d)
    reach = seq._reach                  # H_{d-1} holds S_0..S_{2d-2}
    leading, trailing, frame = _decide(trail, float(reach[2 * d - 2]),
                                       float(reach[-1]), tol)
    return ConditionReport(block_dim=seq.dim, order=d,
                           leading_positive=leading, trailing_psd=trailing,
                           section=trail, _frame=frame)


def _decide(section: BlockHankel, s_lead: float, s_trail: float,
            tol: Tolerances):
    """The one decision on a section H_d, whose leading dN x dN block is
    H_{d-1} and whose scales s_lead and s_trail are the largest |entry|
    of H_{d-1} and of H_d: (leading_positive, trailing_psd, frame).  The
    frame is the block Cholesky frame that _factor assembles (L, Y, the
    ascending eigenvalues of Sigma and their eigenvectors, None at N = 1,
    and the rank m) when every rule admits the section, and otherwise the
    error that refuses it, raised by _factor: NotPSD for the leading test,
    then for the trailing one, then DependentDomain.  The rules:

    - leading: the smallest eigenvalue of H_{d-1} exceeds pos_rel * s_lead;
    - trailing: that of H_d is at least -psd_rel * s_trail;
    - rank: m counts the eigenvalues of H_d above the cutoff
      c = rank_rel * lambda_max(H_d);
    - domain: x_0..x_{dN-1} are independent in C^m: m >= dN, the
      smallest singular value sqrt(lambda_min(H_{d-1})) exceeds rank_rel
      times the largest, and H_{d-1} has a Cholesky factor.

    With A = H_{d-1}, K the last block column above S_2d, and c between
    c_lo = rank_rel * max diag H_d and c_hi = rank_rel * ||H_d||_F, three
    screens certify all four rules without eigvalsh:

    1. A Cholesky of A - tI, t = max(pos_rel * s_lead, 2 c_hi), certifies
       the leading test, the domain check (the smallest eigenvalue of A
       exceeds 2 c_hi, above rank_rel^2 times its largest; for
       rank_rel > 1/2, t exceeds that largest and the Cholesky fails) and
       A - cI > 0, so m >= dN.
    2. sigma_min(Sigma) > -tau, tau = psd_rel * s_trail, certifies
       H_d + tau I > 0, the trailing test: the Schur complement of
       A + tau I in it is at least Sigma + tau I.
    3. With Z = A^{-1} K, the Schur complement Sigma_c of A - cI in
       H_d - cI lies between Sigma - c(1 + 2||Z||^2) I and Sigma - cI,
       so when no eigenvalue of Sigma lies in (c_lo, c_hi (1 + 2||Z||^2)]
       Weyl's inequalities give the sign of each eigenvalue of Sigma_c,
       and by Haynsworth's inertia additivity m = dN + #{sigma above the
       band}, the count of eigenvalues of H_d above c (||Z||_F bounds
       ||Z||).

    When a screen cannot decide, one eigvalsh of H_d and one of H_{d-1}
    (the spectra the reports read later) apply the rules, on the L and
    Sigma already taken.  Sigma is the computed Schur complement,
    backward stable with respect to H_d, so a screen and the eigvalsh
    rule can differ only within roundoff of a threshold.
    """
    h = section.matrix
    n = section.block_dim
    dn = section.order * n
    c_hi = tol.rank_rel * math.sqrt(np.vdot(h, h).real)
    shifted = h[:dn, :dn].copy()
    shifted.flat[::dn + 1] -= max(tol.pos_rel * s_lead, 2.0 * c_hi)
    try:
        np.linalg.cholesky(shifted)
        lower = np.linalg.cholesky(h[:dn, :dn])
    except np.linalg.LinAlgError:
        lower = None
    else:
        y, sw, su = _schur(h, lower, n)
        if sw[0] > -tol.psd_rel * s_trail:
            z = np.linalg.solve(np.conj(lower.T), np.conj(y.T))
            c_top = c_hi * (1.0 + 2.0 * np.vdot(z, z).real)
            above = int(np.count_nonzero(sw > c_top))
            if np.count_nonzero(
                    sw > tol.rank_rel * h.diagonal().real.max()) == above:
                return True, True, (lower, y, sw, su, dn + above)
    w, w_lead = section.eigenvalues, section.leading_eigenvalues
    leading = not dn or bool(w_lead[0] > tol.pos_rel * s_lead)
    trailing = bool(w[0] >= -tol.psd_rel * s_trail)
    if not leading:
        return leading, trailing, NotPSD(
            f"the leading section (order {section.order - 1}) is not "
            f"positive definite: min eigenvalue {w_lead[0]:.6e}",
            section="leading", min_eigenvalue=float(w_lead[0]))
    if not trailing:
        return leading, trailing, NotPSD(
            f"the trailing section (order {section.order}) is not positive "
            f"semidefinite: min eigenvalue {w[0]:.6e}",
            section="trailing", min_eigenvalue=float(w[0]))
    m = int(np.count_nonzero(w > section.rank_cutoff(tol.rank_rel)))
    if m < dn:
        return True, True, DependentDomain(
            f"domain needs {dn} independent vectors but the space has "
            f"dimension {m}")
    if dn:                              # the leading test made w_lead > 0
        low, high = math.sqrt(w_lead[0]), math.sqrt(w_lead[-1])
        if low <= tol.rank_rel * high:
            return True, True, DependentDomain(
                f"domain vectors are numerically dependent: smallest "
                f"singular value {low:.3e} vs largest {high:.3e}")
    if lower is None:
        try:
            lower = np.linalg.cholesky(h[:dn, :dn])
        except np.linalg.LinAlgError:
            return True, True, DependentDomain(
                "the leading section has no Cholesky factor in float64")
        y, sw, su = _schur(h, lower, n)
    return True, True, (lower, y, sw, su, m)


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


@dataclasses.dataclass(frozen=True, eq=False)
class GramSpace:
    """Vectors x_a realizing a PSD Gram matrix in C^ambient_dim.

    coords has one row per vector.  eigenvalues (the full spectrum of the
    factored section in descending order, kept and dropped) keeps the rank
    decision visible in reports; it is computed on first read, from the
    section's one eigvalsh, which a screened factorization never needed.
    """

    ambient_dim: int
    block_dim: int
    order: int
    coords: np.ndarray          # ((d+1)N, ambient_dim), row a is x_a
    section: BlockHankel = dataclasses.field(repr=False)

    @property
    def eigenvalues(self) -> np.ndarray:
        """Descending, the full spectrum."""
        return self.section.eigenvalues[::-1]


def factor_psd(section: BlockHankel, tol: Tolerances = DEFAULT) -> GramSpace:
    """Factor a PSD section into block Cholesky coordinates.

    The rank m counts the eigenvalues of the section above rank_rel times
    the largest, and q = m - dN.  The section is refused as prepare
    refuses data, by the rules of _decide on the largest |entry| of the
    section and of its leading block: NotPSD when the leading block is
    not positive definite or the section not positive semidefinite,
    DependentDomain when the leading block's vectors are numerically
    dependent.
    """
    dn = section.order * section.block_dim
    h = section.matrix
    return _factor(section, _decide(section, max_abs(h[:dn, :dn]),
                                    max_abs(h), tol)[2])


def _factor(section: BlockHankel, frame) -> GramSpace:
    """The Gram space assembled from the frame that _decide gives; when
    it gives an error instead, that error is raised here, for prepare and
    factor_psd alike.

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
    )


def _rank_scan(values: np.ndarray, d: int, tol: Tolerances) -> int:
    """r, the largest k <= d with the scalar sections H_0..H_k of s_0..s_2d
    all positive definite (-1 if none): H_k passes when lambda_min(H_k)
    exceeds pos_rel * max|s_0..s_2k|.  As k falls lambda_min only grows
    (Cauchy interlacing) and that bound only shrinks, so the passing orders
    form a prefix, scanned down from d: one eigvalsh for nondegenerate data."""
    idx = np.arange(d + 1)
    h, reach = values[idx[:, None] + idx], np.maximum.accumulate(abs(values))
    for k in range(d, -1, -1):
        floor = tol.pos_rel * reach[2 * k]
        if np.linalg.eigvalsh(h[:k + 1, :k + 1])[0] > floor:
            return k
    return -1


def _factor_prefix(seq: MomentSequence, r: int, tol: Tolerances) -> GramSpace:
    """The Gram space of H_r, positive definite by _rank_scan, at full rank
    from L of H_{r-1} and _schur.  When seq reaches S_{2r+2}, H_{r+1} >= 0
    is decided by the trailing rule of _decide: the next Schur complement
    above -psd_rel * max|H_{r+1}| admits it, else lambda_min(H_{r+1}) does,
    or NotPSD refuses.  A factor that breaks down, which only a pos_rel
    near 0 lets past the scan, raises DependentDomain."""
    top, n = min(r + 1, (len(seq) - 1) // 2), seq.dim
    h, end = build_block_hankel(seq, top).matrix, (r + 1) * n
    try:
        lower = np.linalg.cholesky(h[:end - n, :end - n])
        frame = (lower, *_schur(h[:end, :end], lower, n), end)
        if not frame[2][0] > 0.0:       # the last pivot
            raise np.linalg.LinAlgError
        space = _factor(BlockHankel(order=r, block_dim=n,
                                    matrix=h[:end, :end]), frame)
        pivot = _schur(h, space.coords, n)[1][0] if top > r else math.inf
    except np.linalg.LinAlgError:
        raise DependentDomain(f"the order-{r} section has no block Cholesky "
                              f"factor in float64") from None
    tau = tol.psd_rel * seq._reach[2 * top]
    w = pivot if pivot > -tau else np.linalg.eigvalsh(h)[0]
    if w < -tau:
        raise NotPSD(f"the order-{top} section has negative eigenvalue "
                     f"{w:.6e}", section="trailing", min_eigenvalue=float(w))
    return space
