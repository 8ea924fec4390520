"""The even-length scalar variant and its four-way classification.

Worked cases frozen here (each checked by hand):
- (1, 0, 1, 0): all sections positive definite; the augmentation is
  s_4 = b^T H_1^{-1} b + lambda_min(H_1) = 2, and the witness measure is
  {(-sqrt(2), 1/4), (0, 1/2), (sqrt(2), 1/4)},
- (1, 1, 1, 1): positivity stops at r = 0; unique solution delta_1,
- (1, 0, 1, 0, 1, 0): stops at r = 1 < d = 2 with kernel polynomial
  t^2 - 1; unique solution (delta_{-1} + delta_{+1}) / 2,
- (1, 0.3): d = 0 augments to s_2 = 1.09 and any two-atom witness with
  mass 1 and mean 0.3 passes,
- (0, 1, 0, 0): zero mass with nonzero higher moments is infeasible,
- (1, 0, 1, 0, 0.5, 0): an indefinite section is infeasible,
- (0, 0, 0, 0): the zero measure, unique.

Also: the rank scan, witnesses for clustered atoms, the rank-cutoff
boundary between rank_rel and pos_rel, a randomized round-trip fuzz over
genuine atomic measures and their degenerate truncations, the witness's
max_deviation read off the solve's own verification, and non-finite
moments refused on entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import (InsufficientMoments, MomentSequence, compute_rank_r,
                    solve_scalar_even, verify_moments)
from momext.scalar import (VERDICT_DEGENERATE, VERDICT_INFEASIBLE,
                           VERDICT_NONDEGENERATE, VERDICT_ZERO, _prefix)

RNG_SEED = 20260806
N_FUZZ = 200
ORACLE_ATOL = 1e-10


def _scalar_moments(locations, weights, count):
    locations = np.asarray(locations, dtype=float)
    weights = np.asarray(weights, dtype=float)
    return np.array([np.sum(weights * locations ** n) for n in range(count)])


def _assert_measure_matches(result, values, atol=1e-8):
    got = _scalar_moments(result.roots, result.atom_weights, len(values))
    assert np.allclose(got, values, atol=atol * max(1.0, np.abs(values).max()))


# ------------------------------------------------------------- worked cases

def test_nondegenerate_case_with_known_augmentation():
    values = np.array([1.0, 0.0, 1.0, 0.0])
    result = solve_scalar_even(values)
    assert result.verdict == VERDICT_NONDEGENERATE
    assert result.rank_index == 1
    assert result.augmented_moment == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(result.roots, [-np.sqrt(2.0), 0.0, np.sqrt(2.0)],
                       atol=ORACLE_ATOL)
    assert np.allclose(result.atom_weights, [0.25, 0.5, 0.25],
                       atol=ORACLE_ATOL)
    _assert_measure_matches(result, values)


def test_degenerate_at_order_zero_is_a_single_atom():
    result = solve_scalar_even(np.array([1.0, 1.0, 1.0, 1.0]))
    assert result.verdict == VERDICT_DEGENERATE
    assert result.rank_index == 0
    assert np.allclose(result.roots, [1.0], atol=ORACLE_ATOL)
    assert np.allclose(result.atom_weights, [1.0], atol=ORACLE_ATOL)


def test_degenerate_two_atom_case():
    values = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    result = solve_scalar_even(values)
    assert result.verdict == VERDICT_DEGENERATE
    assert result.rank_index == 1
    # Kernel polynomial is monic t^2 - 1.
    assert np.allclose(result.null_coeffs, [-1.0, 0.0, 1.0], atol=ORACLE_ATOL)
    assert np.allclose(result.roots, [-1.0, 1.0], atol=ORACLE_ATOL)
    assert np.allclose(result.atom_weights, [0.5, 0.5], atol=ORACLE_ATOL)
    _assert_measure_matches(result, values)


def test_order_zero_augmentation():
    result = solve_scalar_even(np.array([1.0, 0.3]))
    assert result.verdict == VERDICT_NONDEGENERATE
    assert result.augmented_moment == pytest.approx(1.09, abs=1e-12)
    assert result.atom_weights.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.dot(result.roots, result.atom_weights) == pytest.approx(
        0.3, abs=1e-10)


def test_zero_mass_with_nonzero_moments_is_infeasible():
    result = solve_scalar_even(np.array([0.0, 1.0, 0.0, 0.0]))
    assert result.verdict == VERDICT_INFEASIBLE
    assert "mass" in result.certificate


def test_indefinite_section_is_infeasible():
    result = solve_scalar_even(np.array([1.0, 0.0, 1.0, 0.0, 0.5, 0.0]))
    assert result.verdict == VERDICT_INFEASIBLE
    assert "negative eigenvalue" in result.certificate


def test_all_zero_sequence_is_the_zero_measure():
    result = solve_scalar_even(np.zeros(4))
    assert result.verdict == VERDICT_ZERO
    assert result.roots.size == 0


def test_odd_or_empty_input_is_rejected():
    with pytest.raises(InsufficientMoments):
        solve_scalar_even(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(InsufficientMoments):
        solve_scalar_even(np.zeros(0))


# --------------------------------------------------------------- components

def test_rank_scan_stops_at_first_failure():
    assert compute_rank_r(np.array([1.0, 0.0, 1.0, 0.0]), 1) == 1
    assert compute_rank_r(np.array([1.0, 1.0, 1.0, 1.0]), 1) == 0
    assert compute_rank_r(np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), 2) == 1
    assert compute_rank_r(np.array([-1.0, 0.0, 1.0, 0.0]), 1) == -1


def test_clustered_atoms_get_a_verified_witness():
    # Clustered atoms make H_d ill-conditioned (det H_d is tiny), so the
    # augmented moment must come from a margin on the scale of H_d: one
    # that grows like 1 / det H_d leaves a witness that misses the data
    # (atoms 0.3, 0.5, 0.7) or a Gram domain that collapses (four atoms).
    for locs in (np.array([0.3, 0.5, 0.7]), np.linspace(0.4, 0.6, 4)):
        values = _scalar_moments(locs, np.ones(len(locs)), 2 * len(locs))
        result = solve_scalar_even(values)
        assert result.verdict == VERDICT_NONDEGENERATE
        assert result.rank_index == len(locs) - 1
        assert result.max_deviation <= 1e-12
        _assert_measure_matches(result, values, atol=1e-12)


def test_rank_cutoff_boundary_stays_degenerate():
    # lambda_min(H_4) / lambda_max sits near 6e-11, between rank_rel and
    # pos_rel: the scan calls H_4 singular, and the solve must agree (the
    # Gram space keeps dimension 4, so the defect is zero).
    values = _scalar_moments(np.linspace(-0.1, 0.1, 5), np.ones(5), 12)
    h4 = np.array([[values[i + j] for j in range(5)] for i in range(5)])
    w = np.linalg.eigvalsh(h4)
    assert 1e-12 < w[0] / w[-1] < 1e-10
    result = solve_scalar_even(values)
    assert result.verdict == VERDICT_DEGENERATE
    assert result.rank_index == 3
    assert result.measure.n_atoms == 4
    assert len(result.null_coeffs) == 5 and result.null_coeffs[-1] == 1.0


# --------------------------------------------------------------------- fuzz

def test_fuzz_roundtrip_over_random_atomic_measures():
    rng = np.random.default_rng(RNG_SEED + 1)
    verdicts = {VERDICT_NONDEGENERATE: 0, VERDICT_DEGENERATE: 0,
                VERDICT_INFEASIBLE: 0}
    for _ in range(N_FUZZ):
        d = int(rng.integers(0, 4))
        kind = rng.random()
        if kind < 0.45:
            # d + 1 well-separated atoms: every section positive definite.
            k = d + 1
            expect = VERDICT_NONDEGENERATE
        elif kind < 0.8:
            # Fewer atoms than d + 1: positivity degenerates, unique case.
            k = int(rng.integers(1, d + 1)) if d > 0 else 1
            expect = VERDICT_DEGENERATE if k <= d else VERDICT_NONDEGENERATE
        else:
            k = d + 1
            expect = VERDICT_INFEASIBLE
        base = np.linspace(-2.0, 2.0, k) if k > 1 else np.zeros(1)
        gap = 4.0 / max(k - 1, 1)
        locs = base + rng.uniform(-0.3, 0.3, k) * gap
        weights = rng.uniform(0.2, 1.5, k)
        values = _scalar_moments(locs, weights, 2 * d + 2)
        if expect == VERDICT_INFEASIBLE:
            # Push the top even moment below its feasibility floor.
            values[2 * d] -= 10.0 * (1.0 + abs(values[2 * d]))
        result = solve_scalar_even(values)
        assert result.verdict == expect, (d, k, values)
        verdicts[result.verdict] += 1
        if expect == VERDICT_DEGENERATE:
            order = np.argsort(locs)
            assert np.allclose(result.roots, locs[order], atol=1e-6)
            assert np.allclose(result.atom_weights, weights[order], atol=1e-6)
        if result.verdict != VERDICT_INFEASIBLE:
            _assert_measure_matches(result, values)
    # All three populations were actually exercised.
    assert min(verdicts.values()) > 10


def test_witness_deviation_is_read_off_the_solve_verification():
    # The nondegenerate witness is verified once, by the solve of the
    # 2d+3 augmented moments; its max_deviation is the largest of the
    # first 2d+2 deviations of that report, bit for bit what
    # verify_moments gives on the data prefix of the augmented sequence.
    rng = np.random.default_rng(RNG_SEED + 5)
    seen = 0
    for _ in range(120):
        d = int(rng.integers(0, 7))
        k = d + 1 + int(rng.integers(1, 4))
        locs = rng.uniform(-3.0, 3.0, k)
        values = _scalar_moments(locs, rng.uniform(0.1, 2.0, k), 2 * d + 2)
        result = solve_scalar_even(values)
        if result.verdict != VERDICT_NONDEGENERATE:
            continue
        seen += 1
        augmented = MomentSequence.scalar(
            np.append(values, result.augmented_moment))
        report = verify_moments(result.measure,
                                _prefix(augmented, len(values)), 1e-8)
        assert result.max_deviation == report.max_deviation, (d, values)
        assert type(result.max_deviation) is float
    assert seen > 60


def test_degenerate_verdict_is_unique_to_machine_precision():
    # Two separated atoms, d = 2: the solver has no freedom left, so
    # re-running on re-encoded moments must return the same measure.
    locs = np.array([-1.3, 0.7])
    weights = np.array([0.6, 0.4])
    values = _scalar_moments(locs, weights, 6)
    first = solve_scalar_even(values)
    second = solve_scalar_even(_scalar_moments(first.roots,
                                               first.atom_weights, 6))
    assert first.verdict == VERDICT_DEGENERATE
    assert np.allclose(first.roots, second.roots, atol=1e-6)
    assert np.allclose(first.atom_weights, second.atom_weights, atol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_moments_are_refused_on_entry(bad):
    # Let through, a NaN moment died in the Hankel eigenvalues.
    with pytest.raises(ValueError, match="finite"):
        solve_scalar_even([1.0, bad, 1.0, 0.0])
