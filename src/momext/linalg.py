"""Shared dense linear-algebra helpers: input checks, norms, singular
values, and the phase convention of eigenvector bases.  Linear
solves and factorizations are not here; each caller runs numpy's directly.

Everything here is numpy-only and deterministic for identical inputs:
eigenvector bases are phase-canonicalized (the largest-magnitude entry of
each column is rotated to be real positive, ties to the lowest index) so
repeated runs serialize byte-identically and basis-dependent conventions
are reproducible.
"""

from __future__ import annotations

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
    return float(np.abs(a).max())


def singular_values(a) -> np.ndarray:
    """Descending singular values of a matrix, or of each matrix in a stack
    (shape a.shape[:-2] + (min(rows, cols),)).

    The kernel follows the block shape: a 1 x 1 matrix is its own singular
    value up to phase, so a stack of them takes the moduli, by np.hypot
    (within 1 ulp of the exact modulus; the SVD and np.abs are up to 2 ulp
    off); larger ones take one batched SVD call."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return np.zeros(a.shape[:-2] + (min(a.shape[-2:]),))
    if a.shape[-2:] == (1, 1):
        return np.hypot(a.real[..., 0], a.imag[..., 0])
    return np.linalg.svd(a, compute_uv=False)


def phase_canonicalize(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its leading entry is real positive.

    The leading entry is the lowest-index one among those whose modulus is
    within a relative whisker of the column maximum.  The tolerant tie-break
    matters: entries that are equal in exact arithmetic (common for highly
    symmetric data) differ at roundoff level in floating point, and a bare
    argmax would then pick an arbitrary, platform-dependent pivot.
    """
    q = np.asarray(q, dtype=complex)
    if q.size == 0:
        return q
    mags = np.abs(q)
    top = mags.max(axis=0)
    lead = np.argmax(mags >= (1.0 - 1e-9) * top, axis=0)
    piv = q[lead, np.arange(q.shape[1])]
    piv[top <= 0.0] = 1.0
    return q * (np.conj(piv) / np.abs(piv))


def read_only(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a.setflags(write=False)
    return a
