"""Moment sequences and the two nested block Hankel conditions.

Checked here:
- block Hankel assembly places S_{r+t} at block (r, t) (asserted entrywise),
- the solvability report: strict positivity of the order d-1 section and
  semidefiniteness of the order d section, with hand-checked eigenvalues,
- moments of genuine atomic measures always pass, and targeted corruptions
  fail on the correct section,
- input validation (Hermitian moments, odd count, shape agreement), each
  error naming the first offending moment, and the stored moments being
  exactly the symmetrized inputs, whether they come as a list or as one
  ready (count, N, N) array (which is left as it was), and kept stacked
  as one read-only array.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from momext import (InsufficientMoments, MomentSequence, build_block_hankel,
                    check_truncated_conditions)
from momext.sampling import random_feasible_instance

RNG_SEED = 20260801
N_RANDOM_INSTANCES = 25


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def test_sequence_requires_square_matching_shapes():
    with pytest.raises(ValueError):
        MomentSequence.from_arrays([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        MomentSequence.from_arrays([np.ones((2, 3))])


def test_sequence_rejects_clearly_non_hermitian_moments():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        MomentSequence.from_arrays([np.eye(2), bad, np.eye(2)])


def test_sequence_symmetrizes_roundoff_level_defects():
    almost = np.eye(2) + np.array([[0.0, 1e-14], [0.0, 0.0]])
    seq = MomentSequence.from_arrays([np.eye(2), almost, np.eye(2)])
    s1 = seq[1]
    assert np.allclose(s1, s1.conj().T, atol=0, rtol=0)


SKEW = [[1, 1], [0, 1]]


@pytest.mark.parametrize("arrays, message", [
    ([], "a moment sequence needs at least S_0"),
    ([1, 0, 1], "moment S_0: expected a 2-d array, got ndim 0"),
    ([np.eye(2), np.ones(2)], "moment S_1: expected a 2-d array, got ndim 1"),
    ([np.ones((2, 3))], r"moment S_0 has shape \(2, 3\), expected \(2, 2\)"),
    ([np.eye(2), np.eye(2), np.eye(3)],
     r"moment S_2 has shape \(3, 3\), expected \(2, 2\)"),
    ([np.eye(2), SKEW, SKEW], "moment S_1 is not Hermitian: defect "
                              r"1.000e\+00 exceeds 1.0e-10 \* scale 1.000e\+00"),
    # a moment that is not Hermitian comes before a later one of the wrong
    # shape
    ([SKEW, np.eye(3)], "moment S_0 is not Hermitian"),
])
def test_sequence_errors_name_the_first_offending_moment(arrays, message):
    with pytest.raises((ValueError, InsufficientMoments), match=message):
        MomentSequence.from_arrays(arrays)


def test_sequence_stores_each_moment_symmetrized():
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in (1, 2, 5):
        mats = []
        for _ in range(5):
            a = _random_hermitian(rng, n)
            mats.append(a + 1e-13 * rng.standard_normal((n, n)))
        stack = np.array(mats)
        for seq in (MomentSequence.from_arrays(m.tolist() for m in mats),
                    MomentSequence.from_arrays(stack)):
            assert seq.dim == n and len(seq) == len(mats)
            for stored, m in zip(seq.moments, mats):
                assert np.array_equal(stored, 0.5 * (m + np.conj(m.T)))
                assert not stored.flags.writeable
            # the one stack the Hankel sections and verifications read, also
            # on a sequence cut short by dataclasses.replace
            short = dataclasses.replace(seq, moments=seq.moments[:3])
            for s in (seq, short):
                assert np.array_equal(s._stack, np.array(s.moments))
                assert not s._stack.flags.writeable
        assert np.array_equal(stack, mats) and stack.flags.writeable


def test_scalar_constructor_wraps_values():
    seq = MomentSequence.scalar([2.0, -1.0, 3.0])
    assert seq.dim == 1
    assert seq[1][0, 0] == -1.0
    one_by_one = MomentSequence.from_arrays([[[2.0]], [[-1.0]], [[3.0]]])
    assert all(np.array_equal(a, b) and a.dtype == b.dtype
               for a, b in zip(seq.moments, one_by_one.moments))


def test_block_hankel_entries_are_shifted_moments():
    rng = np.random.default_rng(RNG_SEED)
    n, d = 2, 2
    mats = [_random_hermitian(rng, n) for _ in range(2 * d + 1)]
    seq = MomentSequence.from_arrays(mats)
    h = build_block_hankel(seq, d)
    assert h.matrix.shape == ((d + 1) * n, (d + 1) * n)
    for r in range(d + 1):
        for t in range(d + 1):
            block = h.matrix[r * n:(r + 1) * n, t * n:(t + 1) * n]
            assert np.allclose(block, mats[r + t], atol=1e-15)


def test_block_hankel_needs_enough_moments():
    seq = MomentSequence.scalar([1.0, 0.0, 1.0])
    with pytest.raises(InsufficientMoments):
        build_block_hankel(seq, 2)


def test_conditions_on_two_atom_instance(seq_101):
    report = check_truncated_conditions(seq_101)
    assert report.block_dim == 1
    assert report.order == 1
    assert report.leading_positive and report.trailing_psd and report.solvable
    # H_0 = [1], H_1 = I_2: both minimal eigenvalues are exactly 1.
    assert report.min_eig_leading == pytest.approx(1.0, abs=1e-14)
    assert report.min_eig_trailing == pytest.approx(1.0, abs=1e-14)


def test_conditions_need_an_odd_moment_count():
    with pytest.raises(InsufficientMoments):
        check_truncated_conditions(MomentSequence.scalar([1.0, 0.0]))
    with pytest.raises(InsufficientMoments):
        check_truncated_conditions(MomentSequence.scalar([1.0]))


def test_leading_failure_detected():
    report = check_truncated_conditions(MomentSequence.scalar([-1.0, 0.0, 1.0]))
    assert not report.leading_positive
    assert not report.solvable
    assert report.min_eig_leading == pytest.approx(-1.0, abs=1e-14)


def test_trailing_failure_detected():
    # H_1 = [[1, 0], [0, -1]] has eigenvalue -1; H_0 = [1] is fine.
    report = check_truncated_conditions(MomentSequence.scalar([1.0, 0.0, -1.0]))
    assert report.leading_positive
    assert not report.trailing_psd
    assert report.min_eig_trailing == pytest.approx(-1.0, abs=1e-14)


def test_rank_deficient_trailing_section_still_solvable():
    # delta_1: moments all 1; H_1 = ones(2, 2) is PSD with eigenvalue 0.
    report = check_truncated_conditions(MomentSequence.scalar([1.0, 1.0, 1.0]))
    assert report.solvable
    assert report.min_eig_trailing == pytest.approx(0.0, abs=1e-12)


def test_moments_of_atomic_measures_always_pass():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(N_RANDOM_INSTANCES):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        report = check_truncated_conditions(seq)
        assert report.solvable, (n, d)


def test_corrupted_top_moment_fails_trailing_only():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        mats = [seq[k] for k in range(len(seq))]
        # Dropping the top diagonal well below its Cauchy-Schwarz floor
        # breaks H_d but never touches H_{d-1}.
        mats[-1] = mats[-1] - 10.0 * np.trace(mats[-1]).real * np.eye(n)
        report = check_truncated_conditions(MomentSequence.from_arrays(mats))
        assert report.leading_positive
        assert not report.trailing_psd

