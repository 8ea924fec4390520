"""numpy-only linear algebra against the scipy constructions it replaced.

scipy is a test dependency only; these tests skip without it.

Checked here, on seeded full-defect and rank-drop draws with
N in {1, 2, 4, 8} and d in {2, 4, 6}:
- the complement of D(A), the defect bases and the forbidden matrix equal
  what the column-pivoted QR construction (scipy.linalg.qr with pivoting,
  then the pivoted QR of C^H for the canonical complement) gives,
- pencil_spectral_radius equals the largest finite generalized eigenvalue
  from scipy.linalg.eig(img, dom), for unitary and strict-contraction V.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import pencil_spectral_radius, prepare
from momext.extensions import extension_blocks
from momext.linalg import phase_canonicalize
from momext.sampling import (random_admissible_isometry,
                             random_deficient_instance,
                             random_feasible_instance,
                             random_strict_contraction)
from momext.tolerances import DEFAULT

scipy_linalg = pytest.importorskip("scipy.linalg")

RNG_SEED = 20261018
CLASSES = [(n, d, gen) for n in (1, 2, 4, 8) for d in (2, 4, 6)
           for gen in (random_feasible_instance, random_deficient_instance)]
DRAWS_PER_CLASS = 3


def _pivoted_qr_complement(a, rel_tol):
    """The complement basis as the pivoted-QR construction built it."""
    m, k = a.shape
    q, r, _ = scipy_linalg.qr(a, mode="full", pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > rel_tol * diag[0])) if k and diag[0] > 0 else 0
    comp = q[:, rank:]
    if m - rank > 1:
        canon, _, _ = scipy_linalg.qr(np.conj(comp.T), mode="economic",
                                      pivoting=True)
        comp = comp @ canon
    return phase_canonicalize(comp)


def _draws():
    rng = np.random.default_rng(RNG_SEED)
    for n, d, gen in CLASSES:
        for _ in range(DRAWS_PER_CLASS):
            seq, _ = gen(rng, n, d)
            yield rng, prepare(seq)


def test_operator_stage_matches_the_pivoted_qr_construction():
    worst = 0.0
    for _, ws in _draws():
        dom, img = ws.shift.dom_matrix, ws.shift.shift_matrix
        perp = _pivoted_qr_complement(dom, DEFAULT.rank_rel)
        plus = _pivoted_qr_complement(img - 1j * dom, DEFAULT.rank_rel)
        minus = _pivoted_qr_complement(img + 1j * dom, DEFAULT.rank_rel)
        assert perp.shape == ws.shift.complement.shape
        assert plus.shape == ws.pair.basis_plus.shape
        assert minus.shape == ws.pair.basis_minus.shape
        if ws.defect == 0:
            continue
        forbidden = ((np.conj(minus.T) @ perp)
                     @ np.linalg.inv(np.conj(plus.T) @ perp))
        for got, ref in ((ws.shift.complement, perp),
                         (ws.pair.basis_plus, plus),
                         (ws.pair.basis_minus, minus),
                         (ws.forbidden.matrix, forbidden)):
            worst = max(worst, float(np.abs(got - ref).max()))
    assert worst <= 1e-12


def test_pencil_radius_matches_the_generalized_eigenproblem():
    worst = 0.0
    for rng, ws in _draws():
        q = ws.defect
        unitary = random_admissible_isometry(rng, ws.shift, ws.pair,
                                             min_margin=0.1).matrix
        for vmat in (unitary, random_strict_contraction(rng, q)):
            dom, img = extension_blocks(ws.shift, ws.pair, vmat)
            eigs = scipy_linalg.eig(img, dom, right=False)
            ref = float(np.max(np.abs(eigs[np.isfinite(eigs)])))
            got = pencil_spectral_radius(ws.shift, ws.pair, vmat)
            worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-12
