"""Gram-space realization of a positive semidefinite block Hankel section.

factor_psd turns H_d >= 0 into concrete vectors x_0, ..., x_{(d+1)N-1} in
C^m, where m is the numerical rank of H_d, such that

    (x_a, x_b) = H_d[a, b]

with the inner product linear in its first argument.  The whole operator
construction then lives in this concrete C^m: the vectors x_{rN+l} play the
role of the monomials x^r e_l pushed into the solution space.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import NotPSD
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
    """Eigen-factor a PSD section into Gram coordinates.

    Eigenvalues above rank_rel times the largest are kept (descending order);
    a significantly negative eigenvalue raises NotPSD.
    """
    return _factor(section, *np.linalg.eigh(section.matrix), tol)


def _factor(section: BlockHankel, w: np.ndarray, u: np.ndarray,
            tol: Tolerances) -> GramSpace:
    """factor_psd from the section's eigendecomposition (w ascending, u),
    which the solvability check has already taken."""
    scale = max_abs(w)
    if w.size and w[0] < -tol.psd_rel * scale:
        raise NotPSD(
            f"section of order {section.order} is not positive semidefinite: "
            f"min eigenvalue {w[0]:.6e} with scale {scale:.3e}",
            section="trailing", min_eigenvalue=float(w[0]))
    cutoff = tol.rank_rel * max(w[-1] if w.size else 0.0, 0.0)
    desc = np.argsort(-w, kind="stable")
    kept = [int(i) for i in desc if w[i] > cutoff]
    basis = phase_canonicalize(u[:, kept])
    coords = basis * np.sqrt(np.maximum(w[kept], 0.0))[None, :]
    return GramSpace(
        ambient_dim=len(kept),
        block_dim=section.block_dim,
        order=section.order,
        coords=read_only(np.ascontiguousarray(coords)),
        eigenvalues=read_only(w[desc].astype(float)),
        rank_cutoff=float(cutoff),
    )
