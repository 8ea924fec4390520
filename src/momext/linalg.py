"""Shared dense linear-algebra helpers: input and Hermitian checks, norms,
singular values, and orthonormal range and complement bases.  Linear
solves are not here; each caller runs numpy's directly.

Everything here is numpy-only and deterministic for identical inputs:
complement bases are canonical (a column-pivoted Gram-Schmidt, largest column
first), and orthonormal bases are phase-canonicalized (the largest-magnitude
entry of each column is rotated to be real positive, ties to the lowest index)
so repeated runs serialize byte-identically and basis-dependent conventions
are reproducible.
"""

from __future__ import annotations

import math

import numpy as np


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


def singular_values(a) -> np.ndarray:
    """Descending singular values of a matrix, or of each matrix in a stack
    (one batched call, shape a.shape[:-2] + (min(rows, cols),))."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros(a.shape[:-2] + (min(a.shape[-2:]),))
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


def _pivoted_gram_schmidt(x: np.ndarray) -> np.ndarray:
    """q x q orthonormal basis from Gram-Schmidt on the columns of x (q x m,
    rank q), taking at each step the column with the largest remaining norm;
    ties (squared norms within the relative whisker phase_canonicalize
    uses) go to the lowest index."""
    x = np.array(x, dtype=complex)
    q = x.shape[0]
    basis = np.empty((q, q), dtype=complex)
    sq = np.einsum("ij,ij->j", x.conj(), x).real     # remaining norms^2
    for j in range(q):
        p = (sq >= (1.0 - 1e-9) * sq.max()).argmax()
        v = x[:, p]
        v = v / math.sqrt(np.vdot(v, v).real)
        basis[:, j] = v
        if j + 1 < q:
            w = v.conj() @ x
            x -= v[:, None] * w
            sq -= np.abs(w) ** 2
    return basis


def range_and_complement(a: np.ndarray, rel_tol: float) -> list:
    """Orthonormal bases of col(a_j) and of its orthogonal complement in
    C^m, as a (range, complement) pair for each a_j of a (K, m, k) stack,
    k <= m.

    One complete Householder QR of the whole stack (numpy >= 1.22 factors
    a stack in one call; each a_j comes out bit for bit as it would
    alone).  It is not pivoted, so its diagonal only checks rank, it does
    not reveal it: sigma_min(a_j) <= |R_jj| <= sigma_max(a_j), so an a_j
    with sigma_min above rel_tol * sigma_max keeps all k columns, while a
    |R_jj| at or below rel_tol times the largest makes its range basis
    come out with fewer than k columns, which callers treat as a rank
    failure (the split is only meaningful at full column rank).  Callers
    certify that rank beforehand.

    Each complement C is then made canonical, a function of the subspace
    alone: it is the Gram-Schmidt basis of the columns of the projector
    P = C C^H taken largest first, obtained as C Q_c with Q_c from the
    pivoted Gram-Schmidt of C^H (whose columns have the geometry of P's),
    so that a parameter matrix between two such bases keeps its meaning.
    Each range basis is returned as the QR leaves it.
    """
    a = np.asarray(a, dtype=complex)
    count, m, k = a.shape
    ranks = np.zeros(count, dtype=int)
    qs = np.broadcast_to(np.eye(m, dtype=complex), (count, m, m))
    if k:
        qs, rs = np.linalg.qr(a, mode="complete")
        diag = np.abs(np.diagonal(rs, axis1=1, axis2=2))
        ranks = (diag > rel_tol * diag.max(axis=1, keepdims=True)).sum(axis=1)
    splits = []
    for q, rank in zip(qs, ranks.tolist()):
        comp = q[:, rank:]
        if m - rank > 1:                # one column is canonical already
            comp = comp @ _pivoted_gram_schmidt(np.conj(comp.T))
        splits.append((q[:, :rank], phase_canonicalize(comp)))
    return splits


def read_only(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a
