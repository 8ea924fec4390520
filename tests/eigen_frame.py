"""The eigen-frame construction with the +-i defect subspaces, as a
test-only reference for the solution set of the block Cholesky frame,
and the eigvalsh rules that the frame's screens stand in for.

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

import math
import types

import numpy as np

from momext.errors import DependentDomain, NotPSD
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


def eigvalsh_rules(seq, tol=DEFAULT):
    """prepare's decisions by one eigvalsh of each section: a namespace
    with leading_positive, trailing_psd, the rank m, the exception type
    prepare raises (None when it does not), and margins, the distance of
    each decision's deciding eigenvalue from its threshold relative to
    the scale of its section (the largest |entry|; the largest |w| for
    the rank)."""
    d = (len(seq) - 1) // 2
    dn = d * seq.dim
    h = build_block_hankel(seq, d).matrix
    lead = h[:dn, :dn]
    w, w_lead = np.linalg.eigvalsh(h), np.linalg.eigvalsh(lead)
    s_lead, s_trail = np.abs(lead).max(), np.abs(h).max()
    lead_floor, trail_floor = tol.pos_rel * s_lead, -tol.psd_rel * s_trail
    cutoff = tol.rank_rel * max(w[-1], 0.0)
    domain_floor = tol.rank_rel ** 2 * max(w_lead[-1], 0.0)
    out = types.SimpleNamespace(
        leading_positive=bool(w_lead[0] > lead_floor),
        trailing_psd=bool(w[0] >= trail_floor),
        m=int(np.count_nonzero(w > cutoff)), error=None,
        margins=dict(leading=abs(w_lead[0] - lead_floor) / s_lead,
                     trailing=abs(w[0] - trail_floor) / s_trail,
                     rank=float(np.abs(w - cutoff).min() / np.abs(w).max()),
                     domain=abs(w_lead[0] - domain_floor) / s_lead))
    if (not (out.leading_positive and out.trailing_psd)
            or w[0] < -tol.psd_rel * max(-w[0], w[-1])):
        out.error = NotPSD
    elif (out.m < dn or w_lead[-1] <= 0.0
          or math.sqrt(max(w_lead[0], 0.0))
          <= tol.rank_rel * math.sqrt(w_lead[-1])):
        out.error = DependentDomain
    else:
        try:
            np.linalg.cholesky(lead)
        except np.linalg.LinAlgError:
            out.error = DependentDomain
    return out


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
