"""The eigen-frame construction with the +-i defect subspaces, as a
test-only reference for the solution set of the block Cholesky frame.

This is the route of the paper in its own terms: the Gram coordinates
are the scaled eigenvectors of H_d, the defect subspaces are

    N_plus  = orthogonal complement of (A - i) D(A),
    N_minus = orthogonal complement of (A + i) D(A),

and a unitary V: N_plus -> N_minus gives the self-adjoint extension with
domain columns [x_0..x_{dN-1} | B_minus V - B_plus] and image columns
[x_N..x_{dN+N-1} | i (B_minus V + B_plus)], which is admissible when
P_perp^H (B_minus V - B_plus) is nonsingular (P_perp an orthonormal basis
of the complement of D(A)).  Nothing here is tuned for speed.
"""

from __future__ import annotations

import types

import numpy as np

from momext.extensions import SelfAdjointExtension
from momext.hankel import build_block_hankel, check_truncated_conditions
from momext.measures import spectral_measure
from momext.tolerances import DEFAULT


def _complement(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of col(a), a of full
    column rank."""
    q, _ = np.linalg.qr(a, mode="complete")
    return q[:, a.shape[1]:]


def eigen_workspace(seq, tol=DEFAULT):
    """The eigen-frame model of seq: a namespace with condition and
    space.coords (as a Workspace has them), the domain and image columns,
    the complement of D(A) and the two defect bases."""
    report = check_truncated_conditions(seq, tol)
    n, d = seq.dim, report.order
    w, u = np.linalg.eigh(build_block_hankel(seq, d).matrix)
    kept = w > tol.rank_rel * w[-1]
    coords = u[:, kept] * np.sqrt(w[kept])
    dom, img = coords[:d * n].T, coords[n:(d + 1) * n].T
    return types.SimpleNamespace(
        condition=report, block_dim=n, order=d, ambient_dim=coords.shape[1],
        space=types.SimpleNamespace(coords=coords), dom=dom, img=img,
        perp=_complement(dom), plus=_complement(img - 1j * dom),
        minus=_complement(img + 1j * dom))


def margin(ref, v: np.ndarray) -> float:
    """sigma_min(P_perp^H (B_minus V - B_plus))."""
    adm = np.conj(ref.perp.T) @ (ref.minus @ v - ref.plus)
    return float(np.linalg.svd(adm, compute_uv=False)[-1])


def extension(ref, v: np.ndarray) -> np.ndarray:
    """A_V = image @ inverse(domain), made Hermitian."""
    dom = np.concatenate([ref.dom, ref.minus @ v - ref.plus], axis=1)
    img = np.concatenate([ref.img, 1j * (ref.minus @ v + ref.plus)], axis=1)
    g = img @ np.linalg.inv(dom)
    return 0.5 * (g + np.conj(g.T))


def measure(ref, v: np.ndarray, tol=DEFAULT):
    """The spectral measure of A_V, assembled as momext assembles it."""
    ext = SelfAdjointExtension(matrix=extension(ref, v), parameter=None,
                               herm_residual=0.0)
    return spectral_measure(ext, ref, tol)
