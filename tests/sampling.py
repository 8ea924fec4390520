"""Random instance generators for the tests.

Instances are built from explicit atomic measures, so ground truth is always
available: d+1 well-separated atoms with positive definite weights give a
trailing section of full rank (defect N); making exactly one weight drop
rank by one gives a singular trailing section with defect N-1.
"""

from __future__ import annotations

import numpy as np

from momext import (DEFAULT, AtomicMatrixMeasure, ExtensionParameter,
                    MomentSequence, Tolerances, is_admissible)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def random_strict_contraction(rng: np.random.Generator, n: int,
                              min_norm: float = 0.2,
                              max_norm: float = 0.9) -> np.ndarray:
    """Random matrix rescaled to an operator norm inside [min_norm, max_norm]."""
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    target = rng.uniform(min_norm, max_norm)
    return z * (target / np.linalg.norm(z, 2))


def random_psd(rng: np.random.Generator, n: int,
               eig_low: float = 0.3, eig_high: float = 1.5,
               rank: int | None = None) -> np.ndarray:
    """Random Hermitian PSD with eigenvalues in [eig_low, eig_high].

    With rank < n the remaining eigenvalues are exactly zero.
    """
    u = haar_unitary(rng, n)
    eigs = rng.uniform(eig_low, eig_high, size=n)
    if rank is not None:
        eigs[rank:] = 0.0
    return (u * eigs[None, :]) @ np.conj(u.T)


def separated_atoms(rng: np.random.Generator, count: int,
                    low: float = -2.0, high: float = 2.0) -> np.ndarray:
    """Well-separated atom locations: a jittered equispaced grid."""
    if count == 1:
        return np.array([rng.uniform(low, high)])
    base = np.linspace(low, high, count)
    gap = (high - low) / (count - 1)
    return np.sort(base + rng.uniform(-0.3 * gap, 0.3 * gap, size=count))


def _moments_of(measure: AtomicMatrixMeasure, count: int) -> MomentSequence:
    """S_0..S_{count-1}: the sums of t_j^k W_j over the atoms."""
    return MomentSequence.from_arrays(
        [np.einsum("j,jkl->kl", measure.locations ** k, measure.weights)
         for k in range(count)])


def random_feasible_instance(rng: np.random.Generator, block_dim: int,
                             order: int):
    """A full-defect instance: order+1 atoms, all weights positive definite.

    Returns (sequence, truth) where truth is the generating atomic measure;
    the trailing section has full rank, so the defect equals block_dim.
    """
    locs = separated_atoms(rng, order + 1)
    weights = np.array([random_psd(rng, block_dim) for _ in locs])
    truth = AtomicMatrixMeasure.from_atoms(locs, weights)
    return _moments_of(truth, 2 * order + 1), truth


def random_deficient_instance(rng: np.random.Generator, block_dim: int,
                              order: int):
    """One weight drops rank by one: the defect becomes block_dim - 1.

    For block_dim = 1 the rank drop removes the atom entirely, which leaves
    order atoms and a unique (defect-zero) instance.
    """
    locs = separated_atoms(rng, order + 1)
    weights = np.array([random_psd(rng, block_dim) for _ in locs])
    weights[0] = random_psd(rng, block_dim, rank=block_dim - 1)
    keep = [j for j in range(len(locs)) if np.abs(weights[j]).max() > 0]
    locs, weights = locs[keep], weights[keep]
    truth = AtomicMatrixMeasure.from_atoms(locs, weights)
    return _moments_of(truth, 2 * order + 1), truth


def random_admissible_isometry(rng: np.random.Generator, shift, pair,
                               forbidden=None, tol: Tolerances = DEFAULT,
                               tries: int = 64,
                               min_margin: float | None = None
                               ) -> ExtensionParameter:
    """Haar unitaries until one clears the admissibility margin comfortably.

    With the default min_margin=None any candidate whose margin clears
    10 * tol.adm_abs is accepted.  Pass an explicit min_margin (the margin
    is scale free and lives in [0, 2]) to restrict the draw to parameters
    whose extension stays well conditioned: margins of order 1e-2 already
    produce extension eigenvalues of order 1e2, whose high powers amplify
    roundoff in the reconstructed moments.
    """
    q = pair.defect
    if q == 0:
        return ExtensionParameter.isometric(np.zeros((0, 0)))
    floor = 10.0 * tol.adm_abs if min_margin is None else min_margin
    for _ in range(tries):
        candidate = haar_unitary(rng, q)
        report = is_admissible(candidate, shift, pair, forbidden, tol)
        if report.admissible and report.margin > floor:
            return ExtensionParameter.isometric(candidate)
    raise RuntimeError(f"no admissible isometry found in {tries} draws; "
                       f"the instance is pathological")
