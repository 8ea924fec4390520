"""Shared dense linear-algebra helpers.

Everything here is deterministic for identical inputs: rank decisions use
column-pivoted QR (largest pivot first), and orthonormal bases are
phase-canonicalized (the largest-magnitude entry of each column is rotated to
be real positive, ties to the lowest index) so repeated runs serialize
byte-identically and basis-dependent conventions are reproducible.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import SingularSystem


def as_complex_matrix(a, name="matrix") -> np.ndarray:
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d array, got ndim {m.ndim}")
    return m


def max_abs(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def herm_defect(a) -> float:
    """Largest entry of |A - A^H|."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return max_abs(a - np.conj(a.T))


def hermitize(a, rel_tol: float, what="matrix") -> np.ndarray:
    """Return (A + A^H)/2 after checking the symmetry defect is small."""
    a = as_complex_matrix(a, what)
    scale = max(max_abs(a), 1.0)
    defect = herm_defect(a)
    if defect > rel_tol * scale:
        raise ValueError(f"{what} is not Hermitian: defect {defect:.3e} exceeds "
                         f"{rel_tol:.1e} * scale {scale:.3e}")
    return 0.5 * (a + np.conj(a.T))


def inner(u, v) -> complex:
    """Hermitian inner product, linear in the first argument: (u, v) = v^H u."""
    return complex(np.vdot(v, u))


def operator_norm(a) -> float:
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def singular_values(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros(0)
    return np.linalg.svd(a, compute_uv=False)


def phase_canonicalize(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its leading entry is real positive.

    The leading entry is the lowest-index one among those whose modulus is
    within a relative whisker of the column maximum.  The tolerant tie-break
    matters: entries that are equal in exact arithmetic (common for highly
    symmetric data) differ at roundoff level in floating point, and a bare
    argmax would then pick an arbitrary, platform-dependent pivot.
    """
    q = np.array(q, dtype=complex)
    if q.size == 0:
        return q
    mags = np.abs(q)
    top = mags.max(axis=0)
    lead = np.argmax(mags >= (1.0 - 1e-9) * top, axis=0)
    piv = q[lead, np.arange(q.shape[1])]
    piv[top <= 0.0] = 1.0
    return q * (np.conj(piv) / np.abs(piv))


def range_and_complement(a: np.ndarray, rel_tol: float):
    """Orthonormal bases of col(a) and of its orthogonal complement in C^m.

    One complete column-pivoted QR of the m x k matrix ``a``: pivots below
    rel_tol times the largest count as dependent columns, so the first
    basis has the numerical rank of ``a`` and the second the rest of C^m.
    The complement is then made canonical, a function of the subspace
    alone: it is the Gram-Schmidt basis of the columns of the projector
    P = C C^H taken in pivoted order, obtained as C Q_c from the small
    pivoted QR of C^H (whose columns have the geometry of P's).
    """
    a = np.asarray(a, dtype=complex)
    m, k = a.shape
    rank = 0
    q = np.eye(m, dtype=complex)
    if k:
        q, r, _ = scipy.linalg.qr(a, mode="full", pivoting=True)
        diag = np.abs(np.diag(r))
        if diag.size and diag[0] > 0.0:
            rank = int(np.sum(diag > rel_tol * diag[0]))
    comp = q[:, rank:]
    if m - rank > 1:                    # one column is canonical already
        canon, _, _ = scipy.linalg.qr(np.conj(comp.T), mode="economic",
                                      pivoting=True)
        comp = comp @ canon
    return phase_canonicalize(q[:, :rank]), phase_canonicalize(comp)


def solve_with_residual_check(sys_mat, rhs, rel_tol: float,
                              context="linear system"):
    """Solve sys_mat @ x = rhs by column-pivoted least squares.

    A large residual relative to the data raises SingularSystem; that is how
    an inadmissible parameter shows up at solve time.
    """
    sys_mat = np.asarray(sys_mat, dtype=complex)
    b = np.asarray(rhs, dtype=complex)
    one_d = b.ndim == 1
    if one_d:
        b = b[:, None]
    if sys_mat.shape[0] != b.shape[0]:
        raise ValueError(f"{context}: shape mismatch "
                         f"{sys_mat.shape} vs {b.shape}")
    if sys_mat.shape[1] == 0:
        sol = np.zeros((0, b.shape[1]), dtype=complex)
        resid = max_abs(b)
        if resid > rel_tol * max(max_abs(b), 1.0):
            raise SingularSystem(f"{context}: empty system cannot match "
                                 f"nonzero right-hand side (|rhs| = {resid:.3e})")
        return sol[:, 0] if one_d else sol
    sol, _, _, _ = scipy.linalg.lstsq(sys_mat, b, lapack_driver="gelsy")
    resid = max_abs(sys_mat @ sol - b)
    scale = max(max_abs(b), max_abs(sys_mat) * max(max_abs(sol), 1.0), 1.0)
    if resid > rel_tol * scale:
        raise SingularSystem(f"{context}: residual {resid:.3e} exceeds "
                             f"{rel_tol:.1e} * {scale:.3e}")
    return sol[:, 0] if one_d else sol


def read_only(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a
