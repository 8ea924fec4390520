"""The Gram-space model of the trailing Hankel section.

Checked here:
- the factor reproduces the section: coords @ coords^H equals H_d,
- representing-vector inner products return the prescribed moments,
- the hand-checked rank-1 example (1, 1, 1) with eigenvalues {2, 0},
- the block Cholesky frame coords = [[L, 0], [Y, F]]: L lower triangular
  with a real positive diagonal, the leading entry of each column of F
  real positive, byte-stable across repeated factorizations, and
  phase_canonicalize against a per-column loop (zero columns, ties),
- the rank decided on the scale of H_d, not on that of the Schur
  complement,
- indefinite input is rejected with the trailing-section error.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import (MomentSequence, NotPSD, build_block_hankel, factor_psd)
from momext.linalg import phase_canonicalize
from momext.sampling import random_feasible_instance

RNG_SEED = 20260802
N_RANDOM_INSTANCES = 30


def _space_for(seq):
    return factor_psd(build_block_hankel(seq, (len(seq) - 1) // 2))


def test_identity_section_gives_identity_coordinates(seq_101):
    space = _space_for(seq_101)
    assert space.ambient_dim == 2
    assert space.coords.shape == (2, 2)
    assert np.allclose(space.coords, np.eye(2), atol=1e-14)
    assert np.allclose(space.eigenvalues, [1.0, 1.0], atol=1e-14)


def test_rank_one_example_drops_the_null_direction():
    # (1, 1, 1) is delta_1: H_1 = ones(2, 2), eigenvalues {2, 0}, rank 1.
    seq = MomentSequence.scalar([1.0, 1.0, 1.0])
    space = _space_for(seq)
    assert np.allclose(sorted(space.eigenvalues), [0.0, 2.0], atol=1e-14)
    assert space.ambient_dim == 1
    # Both representing vectors collapse onto the same unit-mass direction.
    assert np.allclose(space.coords[0], space.coords[1], atol=1e-14)
    assert np.vdot(space.coords[0], space.coords[0]) == pytest.approx(1.0)


def test_factor_reproduces_the_section():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(N_RANDOM_INSTANCES):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        h = build_block_hankel(seq, d)
        space = factor_psd(h)
        assert np.allclose(space.coords @ np.conj(space.coords.T), h.matrix,
                           atol=1e-10 * max(1.0, np.abs(h.matrix).max()))


def test_inner_products_return_moments():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        space = _space_for(seq)
        scale = max(1.0, max(float(np.abs(s).max()) for s in seq.moments))
        # (x_a, x_b) = H[a, b] = S-entry: check a random sample of pairs.
        # with (u, v) = v^H u, linear in its first argument
        for _ in range(8):
            a = int(rng.integers(0, len(space.coords)))
            b = int(rng.integers(0, len(space.coords)))
            expected = build_block_hankel(seq, d).matrix[a, b]
            got = np.vdot(space.coords[b], space.coords[a])
            assert abs(got - expected) <= 1e-10 * scale


def _reference_phase_canonicalize(q):
    q = np.array(q, dtype=complex)
    for j in range(q.shape[1]):
        col = q[:, j]
        mags = np.abs(col)
        top = float(mags.max()) if mags.size else 0.0
        if top <= 0.0:
            continue
        piv = col[int(np.argmax(mags >= (1.0 - 1e-9) * top))]
        q[:, j] = col * (np.conj(piv) / abs(piv))
    return q


def test_phase_canonicalize_matches_the_column_loop():
    rng = np.random.default_rng(RNG_SEED + 3)
    for trial in range(200):
        m, k = (int(x) for x in rng.integers(0, 7, size=2))
        q = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
        if trial % 3 == 0 and m and k:
            q[:, 0] = 0.0                        # left as it is
        if trial % 4 == 0 and m > 1:
            q[1] = q[0] * 1j                     # ties go to the lower index
        expected = _reference_phase_canonicalize(q)
        got = phase_canonicalize(q)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max(initial=0.0) <= 1e-15 * max(
            1.0, np.abs(q).max(initial=0.0))


def test_cholesky_frame_has_a_real_positive_diagonal():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        space = _space_for(seq)
        dn = d * n
        lower = space.coords[:dn, :dn]
        assert np.array_equal(lower, np.tril(lower))
        assert np.all(np.diag(lower).real > 0.0)
        assert not np.any(np.diag(lower).imag)
        assert not np.any(space.coords[:dn, dn:])
        # F's columns: eigenvectors of the Schur complement, scaled.
        for i in range(dn, space.ambient_dim):
            col = space.coords[dn:, i]
            mags = np.abs(col)
            lead = int(np.argmax(mags >= (1.0 - 1e-9) * mags.max()))
            assert col[lead].imag == pytest.approx(0.0, abs=1e-12 * mags.max())
            assert col[lead].real > 0.0


def test_rank_is_decided_on_the_scale_of_the_section():
    # One atom, 2 delta_{0.7}: the Schur complement of H_0 in H_1 is
    # zero, but comes out positive (3.3e-16) in float64.  On its own scale
    # it would be kept (q = 1); against rank_rel * lambda_max(H_1) it is
    # dropped, and the space has the one dimension of the atom.
    one = _space_for(MomentSequence.scalar([2.0, 1.4, 0.98]))
    y = one.coords[1, 0]
    assert 0.98 - (y * np.conj(y)).real > 0.0
    assert one.ambient_dim == 1
    assert one.eigenvalues[1] <= one.rank_cutoff
    # A second atom of weight 1e-9 is tiny, but far above the cutoff.
    two = _space_for(MomentSequence.scalar([1.0 + 1e-9, 1e-9, 1e-9]))
    assert two.ambient_dim == 2


def test_factorization_is_deterministic():
    rng = np.random.default_rng(RNG_SEED + 3)
    seq, _ = random_feasible_instance(rng, 3, 3)
    h = build_block_hankel(seq, 3)
    a = factor_psd(h)
    b = factor_psd(h)
    assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_eigenvalues_are_descending():
    rng = np.random.default_rng(RNG_SEED + 4)
    seq, _ = random_feasible_instance(rng, 2, 3)
    space = _space_for(seq)
    assert np.all(np.diff(space.eigenvalues) <= 1e-12)


def test_indefinite_section_is_rejected():
    seq = MomentSequence.scalar([1.0, 0.0, -1.0])
    with pytest.raises(NotPSD) as exc_info:
        _space_for(seq)
    assert exc_info.value.section == "trailing"
