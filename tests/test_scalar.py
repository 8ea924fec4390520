"""The even-length scalar variant and its four-way classification.

Worked cases frozen here (each checked by hand):
- (1, 0, 1, 0): all sections positive definite; the witness is the
  canonical solution through s_3, {(-1, 1/2), (1, 1/2)}, whose own s_4 is
  b^T H_1^{-1} b = 1,
- (1, 1, 1, 1): positivity stops at r = 0; unique solution delta_1,
- (1, 0, 1, 0, 1, 0): stops at r = 1 < d = 2 with kernel polynomial
  t^2 - 1; unique solution (delta_{-1} + delta_{+1}) / 2,
- (1, 0.3): d = 0, and the witness is the single atom 0.3 with mass 1,
  whose own s_2 is 0.09,
- (0, 1, 0, 0): zero mass with nonzero higher moments is infeasible,
- (1, 0, 1, 0, 0.5, 0): an indefinite section is infeasible,
- (0, 0, 0, 0): the zero measure, unique.

Also: the rank scan, witnesses for clustered atoms, the rank-cutoff
boundary between rank_rel and pos_rel, a randomized round-trip fuzz over
genuine atomic measures and their degenerate truncations, the Gauss
oracle (d+1 atoms are their own witness), a verdict for every sequence
with a large last odd moment, the witness's max_deviation read off its
verification, a witness that misses named in its certificate, no SVD on
the scalar route, and non-finite moments refused on entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import (DEFAULT, DependentDomain, InsufficientMoments,
                    MomentSequence, solve_scalar_even, verify_moments)
from momext.measures import ATOMIC_REL_TOL
from momext.scalar import (VERDICT_DEGENERATE, VERDICT_INFEASIBLE,
                           VERDICT_NONDEGENERATE, VERDICT_ZERO, _rank_scan)

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
    assert result.augmented_moment == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(result.roots, [-1.0, 1.0], atol=ORACLE_ATOL)
    assert np.allclose(result.atom_weights, [0.5, 0.5], atol=ORACLE_ATOL)
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
    # d = 0: the canonical solution through s_1 is one atom at the mean
    result = solve_scalar_even(np.array([1.0, 0.3]))
    assert result.verdict == VERDICT_NONDEGENERATE
    assert result.augmented_moment == pytest.approx(0.09, abs=1e-15)
    assert result.roots.tolist() == [0.3]
    assert result.atom_weights.tolist() == [1.0]
    assert result.max_deviation == 0.0


def test_zero_mass_with_nonzero_moments_is_infeasible():
    result = solve_scalar_even(np.array([0.0, 1.0, 0.0, 0.0]))
    assert result.verdict == VERDICT_INFEASIBLE
    assert "mass" in result.certificate
    # a mass under the cutoff names itself and the bound it fell under
    result = solve_scalar_even(np.array([1e-12, 0.0, 1e3, 0.0]))
    assert result.verdict == VERDICT_INFEASIBLE
    assert result.certificate.startswith(
        "total mass s_0 = 1e-12 is at most pos_rel * max|s_n| = 1e-07")


def test_indefinite_section_is_infeasible():
    result = solve_scalar_even(np.array([1.0, 0.0, 1.0, 0.0, 0.5, 0.0]))
    assert result.verdict == VERDICT_INFEASIBLE
    assert "negative eigenvalue" in result.certificate


def test_all_zero_sequence_is_the_zero_measure():
    result = solve_scalar_even(np.zeros(4))
    assert result.verdict == VERDICT_ZERO
    assert result.roots.size == 0


def test_a_rank_cutoff_above_the_scan_leaves_no_defect_to_close():
    # at rank_rel = 0.5, H_1 = diag(1, 1e-3) has rank 1, although the scan
    # (at pos_rel) calls it positive definite: the prefix s_0..s_2 has
    # defect 0, and the refusal says so instead of an IndexError
    with pytest.raises(DependentDomain, match="order-1 section has rank 1"):
        solve_scalar_even([1.0, 0.0, 1e-3, 0.0], DEFAULT.replace(rank_rel=0.5))


def test_odd_or_empty_input_is_rejected():
    with pytest.raises(InsufficientMoments):
        solve_scalar_even(np.array([1.0, 0.0, 1.0]))
    with pytest.raises(InsufficientMoments):
        solve_scalar_even(np.zeros(0))


# --------------------------------------------------------------- components

def _rank_r(values, order_d):
    return _rank_scan(np.array(values), order_d, DEFAULT)


def test_rank_scan_stops_at_first_failure():
    assert _rank_r([1.0, 0.0, 1.0, 0.0], 1) == 1
    assert _rank_r([1.0, 1.0, 1.0, 1.0], 1) == 0
    assert _rank_r([1.0, 0.0, 1.0, 0.0, 1.0, 0.0], 2) == 1
    assert _rank_r([-1.0, 0.0, 1.0, 0.0], 1) == -1


def _rank_scan_upward(values, d, tol):
    """The scan in order from H_0, stopping at the first failure."""
    h = np.array([[values[i + j] for j in range(d + 1)] for i in range(d + 1)])
    reach = np.maximum.accumulate(np.abs(values))
    r = -1
    for k in range(d + 1):
        emin = float(np.linalg.eigvalsh(h[:k + 1, :k + 1])[0])
        if emin <= tol.pos_rel * reach[2 * k]:
            break
        r = k
    return r


def test_rank_scan_from_the_top_finds_the_first_failure(monkeypatch):
    # The passing orders form a prefix, so the largest passing order is
    # where the upward scan stops: on atomic data with every atom count,
    # clustered atoms, pushed-down even moments and plain noise.
    rng = np.random.default_rng(RNG_SEED + 2)
    seen = set()
    for _ in range(600):
        d = int(rng.integers(0, 6))
        k = int(rng.integers(1, d + 3))
        spread = 10.0 ** rng.uniform(-2.0, 1.0)
        locs = rng.uniform(-spread, spread, k)
        values = _scalar_moments(locs, rng.uniform(0.1, 2.0, k), 2 * d + 1)
        kind = rng.integers(0, 3)
        if kind == 1:
            j = int(rng.integers(0, d + 1))
            values[2 * j] -= rng.uniform(0.0, 2.0) * abs(values[2 * j])
        elif kind == 2:
            values = rng.standard_normal(2 * d + 1)
        r = _rank_scan(values, d, DEFAULT)
        assert r == _rank_scan_upward(values, d, DEFAULT), values
        seen.add((r == d, r == -1))
    assert seen == {(True, False), (False, False), (False, True)}
    # nondegenerate data takes one eigvalsh, that of H_d
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append(a.shape) or real(a))
    assert _rank_r([1.0, 0.0, 1.0, 0.0, 3.0], 2) == 2
    assert calls == [(3, 3)]


def test_clustered_atoms_get_a_verified_witness():
    # Clustered atoms make H_d ill-conditioned (det H_d is tiny); a
    # witness solved one order up from an invented s_{2d+2} that grows
    # like 1 / det H_d missed the data (atoms 0.3, 0.5, 0.7) or met a Gram
    # domain that collapses (four atoms).  The canonical solution closes
    # the prefix's own frame and needs no extra moment.
    for locs in (np.array([0.3, 0.5, 0.7]), np.linspace(0.4, 0.6, 4)):
        values = _scalar_moments(locs, np.ones(len(locs)), 2 * len(locs))
        result = solve_scalar_even(values)
        assert result.verdict == VERDICT_NONDEGENERATE
        assert result.rank_index == len(locs) - 1
        assert result.max_deviation <= 1e-12
        _assert_measure_matches(result, values, atol=1e-12)


def test_rank_cutoff_boundary_stays_degenerate():
    # lambda_min(H_4) / lambda_max sits near 6e-11, between rank_rel and
    # pos_rel: the scan calls H_4 singular, and the forced candidate is
    # the canonical solution through s_7, with four atoms; no Gram space
    # is built for H_4.
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


def test_witness_deviation_is_read_off_its_verification():
    # The nondegenerate witness is verified once, on the 2d+2 data
    # moments; its max_deviation is that report's, bit for bit, and the
    # witness has d+1 atoms, whose own s_{2d+2} is augmented_moment.
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
        report = verify_moments(result.measure, MomentSequence.scalar(values),
                                1e-8)
        assert result.max_deviation == report.max_deviation, (d, values)
        assert type(result.max_deviation) is float
        assert result.measure.n_atoms == d + 1
        own = _scalar_moments(result.roots, result.atom_weights, 2 * d + 3)
        assert result.augmented_moment == pytest.approx(own[-1], rel=1e-9)
    assert seen > 60


def test_gauss_oracle_d_plus_one_atoms_are_their_own_witness():
    # s_0..s_{2d+1} of d+1 separated atoms: the canonical solution through
    # s_{2d+1} is that measure itself (Gauss quadrature is exact there).
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(100):
        d = int(rng.integers(0, 6))
        base = np.linspace(-2.0, 2.0, d + 1) if d else np.zeros(1)
        locs = base + rng.uniform(-0.25, 0.25, d + 1) * 4.0 / max(d, 1)
        weights = rng.uniform(0.2, 1.5, d + 1)
        result = solve_scalar_even(_scalar_moments(locs, weights, 2 * d + 2))
        assert result.verdict == VERDICT_NONDEGENERATE
        assert result.measure.n_atoms == d + 1
        np.testing.assert_allclose(result.roots, locs, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(result.atom_weights, weights, rtol=1e-8)


#: s_0..s_11 of a measure with a last odd moment 200 times its own: the
#: witness solved one order up lost Gram rank and raised DependentDomain
LARGE_LAST_ODD = [5.4610575262137155, -8.563758631892282, 26.606623671429666,
                  -55.562564248115265, 182.99654709804756, -431.37931679092725,
                  1366.028755332899, -3445.600226217211, 10517.391115807455,
                  -27703.804952538892, 82496.286238896, -5445463.903753885]


def test_large_last_odd_moment_gets_a_witness():
    result = solve_scalar_even(LARGE_LAST_ODD)
    assert result.verdict == VERDICT_NONDEGENERATE
    assert result.rank_index == 5 and result.measure.n_atoms == 6
    assert result.max_deviation <= 1e-14 * max(map(abs, LARGE_LAST_ODD))


def test_every_scaled_last_odd_moment_gets_a_verdict():
    # d+1 to d+3 atoms on [-3, 3] with s_{2d+1} scaled by +-10^U(0, 3):
    # the sections through order d keep their positivity, and no
    # construction error may take the place of the verdict.  A witness
    # solved one order up raised DependentDomain on 36 of these draws.
    rng = np.random.default_rng(RNG_SEED + 7)
    worst, verdicts = 0.0, []
    for _ in range(200):
        d = int(rng.integers(0, 6))
        k = d + 1 + int(rng.integers(0, 3))
        values = _scalar_moments(rng.uniform(-3.0, 3.0, k),
                                 rng.uniform(0.1, 2.0, k), 2 * d + 2)
        values[-1] *= rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 3.0)
        result = solve_scalar_even(values)
        verdicts.append(result.verdict)
        if result.verdict == VERDICT_NONDEGENERATE:
            assert result.measure.n_atoms == d + 1
            worst = max(worst, result.max_deviation / np.abs(values).max())
    assert verdicts.count(VERDICT_NONDEGENERATE) > 180
    assert worst <= 1e-8


#: s_0..s_11 whose sections through order 5 are positive definite, but
#: whose canonical witness (an atom near 1e11 of weight ~1e-114) misses the
#: data by 0.886, 3.3e-8 of their scale 2.7e7
WITNESS_MISSES = [8.580070651372884, 5.6691084217287, 16.85074465584889,
                  45.088210586157864, 131.91164137991873, 387.586103554102,
                  1144.3059449511322, 3380.5093475081185, 9989.686499076839,
                  29522.074407671334, 87247.09428229602, 27171000.581983496]


def test_a_witness_that_misses_the_data_says_so():
    # the verdict stands (H_5 is positive definite), and the certificate
    # names the miss in the words of the infeasible candidate's
    result = solve_scalar_even(WITNESS_MISSES)
    assert result.verdict == VERDICT_NONDEGENERATE
    assert result.rank_index == 5 and result.measure.n_atoms == 6
    scale = max(map(abs, WITNESS_MISSES))
    assert result.max_deviation > ATOMIC_REL_TOL * scale
    assert result.certificate.endswith(
        f"; the witness is the canonical solution through s_11, with s_12 = "
        f"{result.augmented_moment:.12g}, and it misses the data by "
        f"{result.max_deviation:.3e} (beyond 1.0e-08 * {scale:.3g})")


def test_the_certificate_names_a_miss_iff_the_witness_misses():
    # d = 5, d+1 to d+3 atoms on [-1, 3], s_11 scaled by 10^U(0, 3): a few
    # witnesses miss the 1e-8 verification, and only those say so
    rng = np.random.default_rng(RNG_SEED + 11)
    counts = [0, 0]
    for _ in range(300):
        k = 6 + int(rng.integers(0, 3))
        values = _scalar_moments(rng.uniform(-1.0, 3.0, k),
                                 rng.uniform(0.1, 2.0, k), 12)
        values[-1] *= 10.0 ** rng.uniform(0.0, 3.0)
        result = solve_scalar_even(values)
        if result.verdict != VERDICT_NONDEGENERATE:
            continue
        scale = max(1.0, np.abs(values).max())
        missed = result.max_deviation > ATOMIC_REL_TOL * scale
        assert ("misses the data" in result.certificate) == missed, values
        counts[int(missed)] += 1
    assert counts[0] > 200 and counts[1] >= 1, counts


def test_the_canonical_solution_takes_no_singular_value_call(monkeypatch):
    # the prefix's frame and shift are all it reads: the defect stage,
    # which would take one SVD for its unitary U, is never built
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    assert solve_scalar_even([1, 0, 1, 0]).verdict == VERDICT_NONDEGENERATE
    assert solve_scalar_even([1, 0, 1, 0, 1, 0]).verdict == VERDICT_DEGENERATE
    assert calls == []


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
