"""numpy-only linear algebra against scipy's triangular constructions.

scipy is a test dependency only; these tests skip without it.

Checked here, on seeded full-defect and rank-drop draws with
N in {1, 2, 4, 8} and d in {2, 4, 6}:
- the block Cholesky frame (L, Y and the shift's matrix M = img L^{-T})
  equals what scipy.linalg.cholesky and solve_triangular give,
- pencil_spectral_radius equals the largest eigenvalue modulus from
  scipy.linalg.eigvals of the quasi-extension G, for unitary and
  strict-contraction V.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import ExtensionParameter, pencil_spectral_radius, prepare
from momext.extensions import _generator

from sampling import (random_admissible_isometry, random_deficient_instance,
                      random_feasible_instance, random_strict_contraction)

scipy_linalg = pytest.importorskip("scipy.linalg")

RNG_SEED = 20261018
CLASSES = [(n, d, gen) for n in (1, 2, 4, 8) for d in (2, 4, 6)
           for gen in (random_feasible_instance, random_deficient_instance)]
DRAWS_PER_CLASS = 3


def _draws():
    rng = np.random.default_rng(RNG_SEED)
    for n, d, gen in CLASSES:
        for _ in range(DRAWS_PER_CLASS):
            seq, _ = gen(rng, n, d)
            yield rng, prepare(seq)


def test_frame_matches_scipy_cholesky_and_triangular_solves():
    worst = 0.0
    for _, ws in _draws():
        n, dn = ws.shift.block_dim, ws.shift.dom_dim
        h = ws.space.coords @ np.conj(ws.space.coords.T)
        lower = scipy_linalg.cholesky(h[:dn, :dn], lower=True)
        y = np.conj(scipy_linalg.solve_triangular(
            lower, h[:dn, dn:], lower=True).T)
        coords = ws.space.coords
        action = scipy_linalg.solve_triangular(
            lower, coords[n:dn + n], lower=True).T
        for got, ref in ((coords[:dn, :dn], lower), (coords[dn:, :dn], y),
                         (ws.shift.action, action)):
            scale = max(1.0, float(np.abs(ref).max()))
            worst = max(worst, float(np.abs(got - ref).max()) / scale)
    assert worst <= 1e-10


def test_pencil_radius_matches_the_generalized_eigenproblem():
    worst = 0.0
    for rng, ws in _draws():
        q = ws.defect
        unitary = random_admissible_isometry(rng, ws.shift, ws.pair,
                                             min_margin=0.1)
        contraction = ExtensionParameter.contraction(
            random_strict_contraction(rng, q))
        for parameter in (unitary, contraction):
            g = _generator(ws.shift, ws.pair, parameter.matrix)
            ref = float(np.max(np.abs(scipy_linalg.eigvals(g))))
            got = pencil_spectral_radius(ws.shift, ws.pair, parameter.matrix)
            worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-12
