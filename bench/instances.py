"""Seeded problem instances for the benchmark, built here from first principles.

Nothing in this module calls momext: every instance comes from an explicit
atomic matrix measure (so the expected defect and the moments are known
exactly), from a random strict contraction, or from a scalar sequence whose
verdict follows from how it was built.  A change to ``momext.sampling`` or to
``is_admissible`` therefore cannot change a workload.

Every instance draws from its own stream ``default_rng([seed, *key])``, so
the same seed gives the same inputs and adding a class does not shift the
others.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

ATOM_LOW, ATOM_HIGH = -2.0, 2.0      # atom locations live in this window
EIG_LOW, EIG_HIGH = 0.3, 1.5         # weight eigenvalues, before rank drops


@dataclasses.dataclass(frozen=True, eq=False)
class MatrixInstance:
    """Moments S_0..S_2d of a known atomic measure, plus what to expect.

    ``defect`` is q = N for d+1 positive definite weights (full defect) and
    q = N-1 when one weight drops rank by one (for N = 1 that atom vanishes).
    ``locations`` and ``weights`` are the generating measure; ``contraction``
    is set on the transform route only.
    """

    label: str
    block_dim: int
    order: int
    moments: tuple
    defect: int
    locations: np.ndarray
    weights: np.ndarray
    contraction: np.ndarray | None = None


@dataclasses.dataclass(frozen=True, eq=False)
class ScalarInstance:
    """An even-length real sequence s_0..s_{2d+1} and its expected verdict."""

    label: str
    values: np.ndarray
    verdict: str


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *(int(k) for k in key)])


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def psd_weight(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Hermitian PSD n x n with ``rank`` eigenvalues in [EIG_LOW, EIG_HIGH]."""
    u = unitary(rng, n)
    eigs = rng.uniform(EIG_LOW, EIG_HIGH, size=n)
    eigs[rank:] = 0.0
    w = (u * eigs[None, :]) @ np.conj(u.T)
    return 0.5 * (w + np.conj(w.T))


def atom_locations(rng: np.random.Generator, count: int) -> np.ndarray:
    """A jittered equispaced grid on [ATOM_LOW, ATOM_HIGH]: well separated."""
    if count == 1:
        return np.array([rng.uniform(ATOM_LOW, ATOM_HIGH)])
    base = np.linspace(ATOM_LOW, ATOM_HIGH, count)
    gap = (ATOM_HIGH - ATOM_LOW) / (count - 1)
    return np.sort(base + rng.uniform(-0.3 * gap, 0.3 * gap, size=count))


def atomic_moments(locations, weights, count: int) -> tuple:
    """S_n = sum_j t_j^n W_j for n < count; weights has shape (J, N, N).

    Real t_j keep every S_n exactly Hermitian when every W_j is.
    """
    powers = np.asarray(locations, dtype=float)[None, :] ** np.arange(count)[:, None]
    return tuple(np.einsum("nj,jkl->nkl", powers,
                           np.asarray(weights, dtype=complex)))


def matrix_instance(seed: int, key: tuple, block_dim: int, order: int,
                    rank_drop: bool, contraction: bool = False
                    ) -> MatrixInstance:
    """d+1 separated atoms; with rank_drop the first weight loses one rank."""
    rng = rng_for(seed, *key)
    locs = atom_locations(rng, order + 1)
    ranks = [block_dim] * len(locs)
    if rank_drop:
        ranks[0] = block_dim - 1
    weights = [psd_weight(rng, block_dim, r) for r in ranks]
    keep = [j for j, r in enumerate(ranks) if r > 0]
    locs, weights = locs[keep], np.array([weights[j] for j in keep])
    moments = atomic_moments(locs, weights, 2 * order + 1)
    defect = block_dim - 1 if rank_drop else block_dim
    vmat = None
    if contraction:
        z = (rng.standard_normal((defect, defect))
             + 1j * rng.standard_normal((defect, defect)))
        vmat = z * (rng.uniform(0.2, 0.9) / np.linalg.norm(z, 2))
    kind = "drop" if rank_drop else "full"
    return MatrixInstance(label=f"N{block_dim}-d{order}-{kind}",
                          block_dim=block_dim, order=order, moments=moments,
                          defect=defect, locations=locs, weights=weights,
                          contraction=vmat)


# Scalar verdict strings, as momext prints them; the expectation comes from
# the construction below, never from momext.
UNIQUE_ZERO = "unique-zero"
NONDEGENERATE = "solvable-nondegenerate"
DEGENERATE = "unique-degenerate"
INFEASIBLE = "infeasible"
SCALAR_VERDICTS = (NONDEGENERATE, DEGENERATE, INFEASIBLE, UNIQUE_ZERO)


def scalar_instance(seed: int, key: tuple, order: int,
                    verdict: str) -> ScalarInstance:
    """s_0..s_{2d+1} built so that its verdict is known in advance.

    * at least d+1 atoms (here d+1 or d+2): solvable-nondegenerate;
    * between 1 and d atoms: unique-degenerate;
    * the same degenerate sequence with s_{2d+1} shifted by a unit-scale
      amount: infeasible (the forced atoms miss the last moment);
    * all zeros: unique-zero.
    """
    rng = rng_for(seed, *key)
    count = 2 * order + 2
    if verdict == UNIQUE_ZERO:
        values = np.zeros(count)
    else:
        if verdict == NONDEGENERATE:
            atoms = order + 1 + int(rng.integers(0, 2))
        else:
            atoms = int(rng.integers(1, order + 1))
        locs = atom_locations(rng, atoms)
        weights = rng.uniform(EIG_LOW, EIG_HIGH, size=atoms)
        values = (locs[None, :] ** np.arange(count)[:, None]) @ weights
        if verdict == INFEASIBLE:
            values[-1] += (1.0 + abs(values[-1])) * rng.uniform(0.5, 1.0)
    return ScalarInstance(label=f"scalar-d{order}-{verdict}", values=values,
                          verdict=verdict)


def digest(ops) -> str:
    """sha256 over every generated input, in order; pins the inputs.

    Covers the arrays of matrix and scalar instances, and the file text of
    CLI operations.
    """
    h = hashlib.sha256()
    for op in ops:
        h.update(op.label.encode())
        for name in ("values", "contraction"):
            if getattr(op, name, None) is not None:
                h.update(np.ascontiguousarray(getattr(op, name)).tobytes())
        for s in getattr(op, "moments", ()):
            h.update(np.ascontiguousarray(s).tobytes())
        if hasattr(op, "input_text"):
            h.update(op.input_text.encode())
    return h.hexdigest()[:16]
