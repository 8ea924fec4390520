"""Solution measures, Stieltjes transforms, and the two recovery routes.

Checked here:
- atomic-measure bookkeeping (sorting, merging, moments, mass), with the
  assembly's merge gap relative to max(1, |t|) and its drop judged in the
  highest moment,
- the spectral measure of the worked instance (1, 0, 1): atoms -1 and +1
  with weights 1/2, and its N = 2 block analogue with weights I/2,
- measures next to an eigen-angle of the forbidden operator (one atom far
  out, with a tiny weight) reproducing every moment, solved alone and in a
  sweep,
- transform oracles: T(2i) = 0.4 i for theta = 0; for the zero contraction
  the solution density is 2 / (pi (1 + u^2)^2), hence T(i) = 0.75 i,
  T(2i) = (4/9) i, and mass 0.9596 on [-2, 2),
- structural transform properties: Herglotz positivity, mirror symmetry,
  agreement with sum of W_j / (t_j - lam) on atomic solutions, and the
  batch evaluator matching pointwise calls,
- closed-form moment recovery: S_n = (x_l, G^n x_k) against the data, and
  the rejection of forbidden parameters,
- exact cell masses, one pole-residue route for every parameter: against
  an adaptive real-axis quadrature of the direct solve, the defective
  (double-pole) zero contraction against its closed-form CDF, atoms binned
  whole inside cells and split exactly in half on edges, contractions with
  a unit singular value (poles on the real axis) binned as atoms,
  isometric parameters (real poles only) against their binned spectral
  measure, poles lifted just above the axis by a singular value over 1
  binned as atoms, SingularSystem when the residues miss the mass S_0,
  and that miss guarding the cells on the way to a triple pole,
- the batched atom assembly against merged, dropped and untouched rows
  computed in the test, exactly, and its first non-PSD weight,
- the Cholesky PSD screen against the eigvalsh rule at smallest
  eigenvalues of +-10 floor for N in {1, 2, 4, 8}: the same decisions,
  eigvalsh only on a failed screen, and the rule's error text for the
  first offender in both from_atoms and the batched assembly,
- measure verification against a plain einsum, its moment sums bit for
  bit the complex einsum on zero-padded stacks, and its reports, built
  from arrays, equal to the rule decided row by row,
- a sweep whose tolerances merge or drop atoms in some rows: it takes the
  NaN-padded stack and still matches verify_moments and measure_distance
  on its measures; non-finite atoms refused,
- the distance used by the parameter sweep, exactly the plain loop over
  sites and atoms, one pair at a time and for all pairs of a padded
  stack at once (the sweep's kernel): for lone locations, clusters of two
  close atoms from the two measures or from one, clusters of three or
  more, exact duplicates, site_tol = 0, clusters next to the NaN padding
  and a whole N = 1, d = 6 sweep, whose clusters of two never reach the
  per-cluster loop; a negative or non-finite site_tol is rejected, and so
  are measures of different block sizes,
- the defect bases, spectral measures, verifications and solves against
  a copy of the old per-call glue kept in the test, byte for byte.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import momext.measures
from momext.extensions import _generator, _hermitize
from momext import (AtomicMatrixMeasure, ExtensionParameter, MomentSequence,
                    NotAdmissible, SingularSystem, StieltjesTransform,
                    build_block_hankel, build_shift, default_parameter,
                    deficiency_subspaces, factor_psd, measure_distance,
                    moments_from_transform, perron_inversion, prepare,
                    selfadjoint_extension, solve_truncated, spectral_measure,
                    theta_sweep, verify_moments, verify_recovered_moments)
from momext.measures import VerificationReport
from momext.pipeline import SWEEP_SITE_TOL
from momext.tolerances import DEFAULT
from momext.sampling import (random_admissible_isometry,
                             random_deficient_instance,
                             random_feasible_instance,
                             random_strict_contraction)

from conftest import moments_of_atoms

RNG_SEED = 20260805
ORACLE_ATOL = 1e-12
DENSITY_ATOL = 5e-3
EXACT_CELL_ATOL = 1e-10


def _operator_stage(seq):
    space = factor_psd(build_block_hankel(seq, (len(seq) - 1) // 2))
    shift = build_shift(space)
    pair = deficiency_subspaces(shift)
    return space, shift, pair


def _atomic_solution(seq, theta=0.0):
    _, shift, pair = _operator_stage(seq)
    parameter = ExtensionParameter.unimodular(theta, defect=pair.defect)
    ext = selfadjoint_extension(shift, pair, parameter)
    return shift, pair, spectral_measure(ext, shift)


def _transform(seq, parameter):
    _, shift, pair = _operator_stage(seq)
    return StieltjesTransform(shift, pair, parameter)


# ------------------------------------------------------- atomic bookkeeping

def _assemble_one(locations, weights, merge_tol=0.0, drop_tol=0.0,
                  degree=0):
    """The measure _assemble makes of one row of sorted atoms."""
    return momext.measures._assemble(
        np.array([locations], dtype=float), np.array([weights], dtype=complex),
        merge_tol, drop_tol, 1e-8, degree)[0]


def test_atoms_are_sorted_and_merged():
    # from_atoms sorts and merges atoms at one location; the assembly
    # merges near-coincident ones at its merge_tol
    m = AtomicMatrixMeasure.from_atoms(
        [2.0, -1.0, 2.0], [[[1.0]], [[2.0]], [[3.0]]])
    assert np.array_equal(m.locations, [-1.0, 2.0])
    assert m.weights[1][0, 0] == 4.0
    m = _assemble_one([-1.0, 2.0, 2.0 + 1e-12], [[[2.0]], [[1.0]], [[3.0]]],
                      merge_tol=1e-9)
    assert np.allclose(m.locations, [-1.0, 2.0])
    assert m.weights[1][0, 0] == pytest.approx(4.0)


def test_measure_moments_match_direct_sums():
    rng = np.random.default_rng(RNG_SEED)
    locs = np.array([-2.0, 0.5, 1.5])
    weights = np.array([np.diag([1.0, 2.0]), np.eye(2), np.diag([0.5, 3.0])],
                       dtype=complex)
    m = AtomicMatrixMeasure.from_atoms(locs, weights)
    for n, expected in enumerate(moments_of_atoms(locs, weights, 5)):
        assert np.allclose(m.moment(n), expected, atol=1e-12)
    del rng


def test_merge_gap_is_relative_and_drop_is_judged_in_the_highest_moment():
    # gaps count relative to max(1, |t|): 1e-4 apart merges at 1e6 but not
    # at 1; a weight of 1e-15 at t = 1e3 is 1e-3 of the 2nd moment and kept
    # at degree 2, dropped at degree 0
    far = _assemble_one([1e6, 1e6 + 1e-4], [[[1.0]], [[1.0]]], merge_tol=1e-9)
    assert far.n_atoms == 1 and far.weights[0, 0, 0] == 2.0
    near = _assemble_one([1.0, 1.0 + 1e-4], [[[1.0]], [[1.0]]],
                         merge_tol=1e-9)
    assert near.n_atoms == 2
    atoms = ([0.0, 1e3], [[[1.0]], [[1e-15]]])
    for degree, count in ((0, 1), (2, 2)):
        m = _assemble_one(*atoms, drop_tol=1e-12, degree=degree)
        assert m.n_atoms == count


def test_negative_weight_is_rejected():
    with pytest.raises(ValueError):
        AtomicMatrixMeasure.from_atoms([0.0], [[[-1.0]]])


def _assembly_rows(rng, n, k=6, j=5):
    """k rows of j sorted locations and rank-one weights, with a cluster in
    row 1 and a negligible atom in row 3; the merge tolerance and each
    row's drop tolerance (row 4 drops nothing)."""
    locs = np.sort(rng.uniform(-2.0, 2.0, (k, j)), axis=1)
    locs[1, 3] = locs[1, 2] + 1e-12
    c = rng.standard_normal((k, j, n)) + 1j * rng.standard_normal((k, j, n))
    weights = c[..., :, None] * np.conj(c[..., None, :])
    weights[3, 0] *= 1e-15
    merge_tol = 1e-9
    drop_tol = np.full(k, 1e-12)
    drop_tol[4] = 0.0
    return locs, weights, merge_tol, drop_tol


def test_batched_assembly_merges_drops_and_keeps_rows():
    # Row 1's close pair becomes one atom at the mean of the two locations
    # with the Hermitian part of their summed weight, row 3 loses its
    # negligible atom, and every other row keeps its locations and the
    # Hermitian parts of its weights, bit for bit.
    rng = np.random.default_rng(RNG_SEED + 20)
    for n in (1, 2, 3):
        locs, weights, merge_tol, drop_tol = _assembly_rows(rng, n)
        batched = momext.measures._assemble(locs, weights, merge_tol,
                                            drop_tol, 1e-10)
        herm = 0.5 * (weights + np.conj(np.swapaxes(weights, -1, -2)))
        pair = weights[1, 2] + weights[1, 3]
        want = {1: (np.r_[locs[1, :2], (locs[1, 2] + locs[1, 3]) / 2,
                          locs[1, 4:]],
                    np.concatenate([herm[1, :2],
                                    [0.5 * (pair + np.conj(pair.T))],
                                    herm[1, 4:]])),
                3: (locs[3, 1:], herm[3, 1:])}
        assert [m.n_atoms for m in batched] == [5, 4, 5, 4, 5, 5]
        for k, got in enumerate(batched):
            want_locs, want_weights = want.get(k, (locs[k], herm[k]))
            assert np.array_equal(got.locations, want_locs)
            assert np.array_equal(got.weights, want_weights)
            assert not got.locations.flags.writeable
            assert not got.weights.flags.writeable


def test_batched_assembly_names_the_first_non_psd_weight():
    # A planted negative weight raises the error its row gets alone; with
    # one in the clustered row 1 and one in the plain row 2, row 1 is named.
    rng = np.random.default_rng(RNG_SEED + 21)
    for n in (1, 2, 4, 8):
        for bad_rows in ((2,), (4, 0), (1, 2)):
            locs, weights, merge_tol, drop_tol = _assembly_rows(rng, n)
            for row in bad_rows:
                weights[row, 0] = -weights[row, 0]
            first = min(bad_rows)
            with pytest.raises(ValueError, match="is not PSD") as single:
                momext.measures._assemble(locs[first][None],
                                          weights[first][None], merge_tol,
                                          drop_tol[first], 1e-10)
            with pytest.raises(ValueError) as batched:
                momext.measures._assemble(locs, weights, merge_tol, drop_tol,
                                          1e-10)
            assert str(batched.value) == str(single.value)


def _weights_with_min_eigenvalue(rng, n, emins):
    """Hermitian N x N weights U diag(lam) U^H, one per entry of emins,
    whose smallest eigenvalue is that entry and whose others lie in
    [0.1, 1]."""
    z = (rng.standard_normal((len(emins), n, n))
         + 1j * rng.standard_normal((len(emins), n, n)))
    u = np.linalg.qr(z)[0]
    lam = rng.uniform(0.1, 1.0, (len(emins), n))
    lam[:, 0] = emins
    w = (u * lam[:, None, :]) @ np.conj(np.swapaxes(u, -1, -2))
    return 0.5 * (w + np.conj(np.swapaxes(w, -1, -2)))


def _eigvalsh_rule(locs, weights, floor):
    """The error the eigvalsh PSD rule raises for the first weight whose
    smallest eigenvalue is below -floor, or None."""
    emin = np.linalg.eigvalsh(weights)[:, 0]
    for t, e in zip(locs, emin):
        if e < -floor:
            return f"weight at t = {t:.6g} is not PSD: min eigenvalue {e:.3e}"
    return None


def test_psd_screen_decides_as_the_eigvalsh_rule(monkeypatch):
    # Smallest eigenvalues of +-10 floor: the Cholesky screen passes the
    # same weights as eigvalsh, and on a failed screen names the first
    # offender with the eigvalsh rule's text.  eigvalsh runs only when the
    # screen fails, and neither runs at N = 1.
    calls = []
    for name in ("cholesky", "eigvalsh"):
        def counting(*args, _real=getattr(np.linalg, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(momext.measures.np.linalg, name, counting)
    rng = np.random.default_rng(RNG_SEED + 23)
    psd_rel = 1e-10
    for n in (1, 2, 4, 8):
        signs = rng.choice([-1.0, 1.0], 16)
        signs[:3] = 1.0
        w = _weights_with_min_eigenvalue(rng, n, 10.0 * psd_rel * signs)
        locs = np.sort(rng.uniform(-2.0, 2.0, len(w)))
        for i in range(len(w)):
            failure = momext.measures._first_non_psd(locs[i:i + 1],
                                                     w[i:i + 1], psd_rel)
            assert (failure is None) == (signs[i] > 0.0), (n, i)
        for stack in (w[:3], w):
            want = _eigvalsh_rule(locs, stack, psd_rel)
            calls.clear()
            failure = momext.measures._first_non_psd(locs, stack, psd_rel)
            assert (None if failure is None else str(failure[1])) == want
            screens = [] if n == 1 else ["cholesky"]
            assert calls == screens + (["eigvalsh"] if want and n > 1 else [])


def test_non_psd_weights_raise_the_eigvalsh_rule_text():
    # from_atoms names the first offender in location order, _assemble the
    # first in row order, each with the text of the eigvalsh rule; the
    # floor is from_atoms's fixed 1e-8.
    rng = np.random.default_rng(RNG_SEED + 24)
    psd_rel = 1e-8
    for n in (1, 2, 4, 8):
        emins = np.full(12, 10.0 * psd_rel)
        emins[[10, 3, 6]] = -10.0 * psd_rel
        w = _weights_with_min_eigenvalue(rng, n, emins)
        locs = np.sort(rng.uniform(-2.0, 2.0, len(w)))
        want = _eigvalsh_rule(locs, w, psd_rel)
        assert f"{locs[3]:.6g}" in want
        order = rng.permutation(len(w))
        with pytest.raises(ValueError) as single:
            AtomicMatrixMeasure.from_atoms(locs[order], w[order], block_dim=n)
        assert str(single.value) == want
        # rows of 4: the offenders sit in row 0 (column 3), row 1 and row 2
        rows = locs.reshape(3, 4), w.reshape(3, 4, n, n)
        with pytest.raises(ValueError) as batched:
            momext.measures._assemble(*rows, 0.0, np.zeros(3), psd_rel)
        assert str(batched.value) == want


# -------------------------------------------------------- spectral measures

def test_two_atom_instance_measure(seq_101):
    _, _, measure = _atomic_solution(seq_101, theta=0.0)
    assert np.allclose(measure.locations, [-1.0, 1.0], atol=ORACLE_ATOL)
    assert np.allclose([w[0, 0] for w in measure.weights], [0.5, 0.5],
                       atol=ORACLE_ATOL)


def test_block_identity_instance_measure(seq_identity_2):
    _, _, measure = _atomic_solution(seq_identity_2, theta=0.0)
    assert np.allclose(measure.locations, [-1.0, 1.0], atol=ORACLE_ATOL)
    for w in measure.weights:
        assert np.allclose(w, 0.5 * np.eye(2), atol=ORACLE_ATOL)


@pytest.mark.parametrize("offset", [1e-4, 1e-6])
def test_measures_next_to_a_forbidden_angle_reproduce_the_moments(offset):
    # At an eigen-angle of the forbidden operator plus a small offset, A_V
    # has an atom near 1/offset whose weight is tiny but carries
    # t^{2d} W of S_{2d}: it must be read to full relative accuracy, kept,
    # and not merged with the others.
    rng = np.random.default_rng(RNG_SEED + 30)
    for n in (1, 2, 4):
        for d in (2, 3, 4):
            seq, _ = random_feasible_instance(rng, n, d)
            ws = prepare(seq)
            theta = offset + float(
                np.angle(np.linalg.eigvals(ws.forbidden)[0]))
            entry, = theta_sweep(seq, thetas=[theta]).entries
            alone = solve_truncated(seq, ExtensionParameter.unimodular(
                theta, ws.defect))
            for result in (alone, entry):
                assert result.verification.passed, (
                    n, d, result.verification.max_deviation)
            assert np.abs(alone.measure.locations).max() > 1e3
            assert alone.measure.n_atoms == entry.measure.n_atoms


def test_spectral_measures_reproduce_all_moments():
    # The default parameter -X keeps the extension spectrum moderate (its
    # last block is Re Omega), so the 2d-th moment check is numerically
    # meaningful.
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        ws = prepare(seq)
        parameter, _, _ = default_parameter(ws)
        ext = selfadjoint_extension(ws.shift, ws.pair, parameter)
        measure = spectral_measure(ext, ws.shift)
        report = verify_moments(measure, seq, rel_tol=1e-8)
        assert report.passed, (n, d, report.max_deviation)


def test_every_admissible_isometry_solves_within_conditioning():
    # Any admissible isometry yields a solution in exact arithmetic.  In
    # floating point the observable deviation of the order-2d moment grows
    # like eps rho(A_V)^{2d+1}: a parameter close to the forbidden operator
    # sends one extension eigenvalue far out, and t^{2d} amplifies the
    # roundoff in its (tiny) weight.  The bound below is that model with a
    # comfortable constant; for generic parameters it is far from active.
    rng = np.random.default_rng(RNG_SEED + 11)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        ws = prepare(seq)
        parameter = random_admissible_isometry(rng, ws.shift, ws.pair,
                                               ws.forbidden)
        ext = selfadjoint_extension(ws.shift, ws.pair, parameter)
        measure = spectral_measure(ext, ws.shift)
        report = verify_moments(measure, seq)
        rho = max(1.0, float(np.abs(np.linalg.eigvalsh(ext.matrix)).max()))
        allowed = max(1e-8, 1e-13 * rho ** (2 * d + 1)) * report.scale
        assert report.max_deviation <= allowed, (n, d, report.max_deviation)


# ------------------------------------------------------------- the transform

def test_transform_hand_value(seq_101):
    t = _transform(seq_101, ExtensionParameter.unimodular(0.0, defect=1))
    assert np.allclose(t(2j), [[0.4j]], atol=ORACLE_ATOL)


def test_zero_contraction_hand_values(seq_101):
    # F = 0 solves (1, 0, 1) with density 2 / (pi (1 + u^2)^2); closing the
    # Stieltjes integral in the upper half-plane gives T(i) = 3i/4 and
    # T(2i) = 4i/9.
    t = _transform(seq_101, ExtensionParameter.contraction(np.zeros((1, 1))))
    assert np.allclose(t(1j), [[0.75j]], atol=1e-10)
    assert np.allclose(t(2j), [[(4.0 / 9.0) * 1j]], atol=1e-10)


def test_transform_equals_atomic_sum():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        seq, _ = random_feasible_instance(rng, n, d)
        shift, pair, measure = _atomic_solution(seq, theta=0.0)
        t = StieltjesTransform(shift, pair,
                               ExtensionParameter.unimodular(0.0, pair.defect))
        for _ in range(5):
            lam = complex(2.0 * rng.standard_normal(), 0.4 + rng.random())
            expected = sum(w / (loc - lam) for loc, w
                           in zip(measure.locations, measure.weights))
            assert np.allclose(t(lam), expected, atol=1e-8)


def test_transform_is_herglotz_and_mirror_symmetric():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(8):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        seq, _ = random_feasible_instance(rng, n, d)
        _, shift, pair = _operator_stage(seq)
        f = rng.standard_normal((pair.defect, pair.defect)) \
            + 1j * rng.standard_normal((pair.defect, pair.defect))
        f *= 0.7 / max(1.0, np.linalg.norm(f, 2))
        t = StieltjesTransform(shift, pair, ExtensionParameter.contraction(f))
        for _ in range(4):
            lam = complex(rng.standard_normal(), 0.2 + rng.random())
            tv = t(lam)
            imt = (tv - tv.conj().T) / 2j
            assert np.linalg.eigvalsh(imt).min() >= -1e-9
            assert np.allclose(t(np.conj(lam)), tv.conj().T, atol=1e-9)


def test_batch_evaluator_matches_pointwise(seq_101):
    t = _transform(seq_101, ExtensionParameter.contraction(0.3 * np.eye(1)))
    lams = np.array([1j, 2j, -1.0 + 0.5j, 3.0 + 0.25j, 0.1 + 2.0j])
    batch = t.eval_upper_many(lams)
    for k, lam in enumerate(lams):
        assert np.allclose(batch[k], t(complex(lam)), atol=1e-11)


# ------------------------------------------------------------ moment recovery

def _random_contraction_transforms(rng):
    """One strict-contraction transform per N in {1, 2, 4}, d in {1, 2, 3}."""
    for n in (1, 2, 4):
        for d in (1, 2, 3):
            seq, _ = random_feasible_instance(rng, n, d)
            _, shift, pair = _operator_stage(seq)
            f = random_strict_contraction(rng, pair.defect)
            yield seq, StieltjesTransform(shift, pair,
                                          ExtensionParameter.contraction(f))


def test_power_moments_match_the_data():
    rng = np.random.default_rng(RNG_SEED + 4)
    for seq, t in _random_contraction_transforms(rng):
        rec = moments_from_transform(t, len(seq) - 1)
        scale = max(1.0, max(float(np.abs(s).max()) for s in seq.moments))
        worst = max(float(np.abs(rec.moments[k] - seq[k]).max())
                    for k in range(len(seq)))
        assert worst <= 1e-10 * scale, (seq.dim, len(seq), worst)


def test_a_grid_of_too_many_cells_is_refused_before_allocating(seq_101):
    # The cell count is checked against MAX_CELLS before any edge exists:
    # a width of 1e-12 on [0, 1) would ask for about 7 TiB of edges, and
    # one of 1e-300 (or a subnormal) for more than numpy can index.
    _, _, measure = _atomic_solution(seq_101)
    t = _transform(seq_101, ExtensionParameter.contraction(0.5 * np.eye(1)))
    for width in (1e-12, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="more than the 100000 allowed"):
            momext.measures.bin_measure(measure, 0.0, 1.0, width)
        with pytest.raises(ValueError, match="more than the 100000 allowed"):
            perron_inversion(t, 0.0, 1.0, width)
    cells = momext.measures.MAX_CELLS
    res = momext.measures.bin_measure(measure, -1.5, cells - 1.5, 1.0)
    assert res.edges.shape == (cells + 1,)
    assert np.allclose(res.increments[[0, 2], 0, 0], 0.5, atol=ORACLE_ATOL)
    with pytest.raises(ValueError, match="more than"):
        momext.measures.bin_measure(measure, 0.0, cells + 1.0, 1.0)


def test_forbidden_parameter_is_rejected_on_the_transform_route():
    # theta = pi is the forbidden angle of (1, 0, 1/4), as of every
    # scalar problem with d = 1: its margin is 0, and B(V) has no value
    # there.
    seq = MomentSequence.scalar([1.0, 0.0, 0.25])
    t = _transform(seq, ExtensionParameter.unimodular(np.pi, defect=1))
    with pytest.raises(NotAdmissible) as exc_info:
        perron_inversion(t, -1.0, 1.0, 1.0)
    assert exc_info.value.margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(NotAdmissible) as exc_info:
        moments_from_transform(t, 2)
    assert exc_info.value.margin == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------- density recovery

def test_density_mass_of_zero_contraction(seq_101):
    t = _transform(seq_101, ExtensionParameter.contraction(np.zeros((1, 1))))
    res = perron_inversion(t, -2.0, 2.0, 0.25)
    # Antiderivative of 2 / (pi (1 + u^2)^2) is
    # (1/pi) (u / (1 + u^2) + arctan u); mass on [-2, 2) follows.
    exact = (2.0 / np.pi) * (2.0 / 5.0 + np.arctan(2.0))
    total = res.increments.sum(axis=0)[0, 0].real
    assert total == pytest.approx(exact, abs=DENSITY_ATOL)
    # Every increment is PSD.
    for w in res.increments:
        assert np.linalg.eigvalsh((w + w.conj().T) / 2).min() >= -1e-12


def test_density_profile_of_zero_contraction(seq_101):
    t = _transform(seq_101, ExtensionParameter.contraction(np.zeros((1, 1))))
    res = perron_inversion(t, -1.0, 1.0, 0.5)

    def cdf(u):
        return (1.0 / np.pi) * (u / (1.0 + u * u) + np.arctan(u))

    for i, (a, b) in enumerate(zip(res.edges[:-1], res.edges[1:])):
        assert res.increments[i][0, 0].real == pytest.approx(
            cdf(b) - cdf(a), abs=DENSITY_ATOL)


def test_atoms_on_cell_boundaries_split_between_windows(seq_101):
    # theta = 0 puts atoms of mass 1/2 exactly at -1 and +1.  With cells
    # [-2,-1), [-1,0), [0,1), [1,2) each atom straddles a boundary and
    # leaves about a quarter of its mass on each side, so single cells see
    # ~1/4 while two-cell windows around each atom see the full 1/2.
    t = _transform(seq_101, ExtensionParameter.unimodular(0.0, defect=1))
    res = perron_inversion(t, -2.0, 2.0, 1.0)
    cells = np.array([w[0, 0].real for w in res.increments])
    assert np.allclose(cells, 0.25, atol=5e-3)
    assert cells[0] + cells[1] == pytest.approx(0.5, abs=5e-3)
    assert cells[2] + cells[3] == pytest.approx(0.5, abs=5e-3)


def test_interior_atoms_are_captured_whole():
    # theta = 0 puts atoms at -0.5 and +0.5, interior to [-1, 0) and [0, 1).
    seq = MomentSequence.scalar([1.0, 0.0, 0.25])
    t = _transform(seq, ExtensionParameter.unimodular(0.0, defect=1))
    res = perron_inversion(t, -1.0, 1.0, 1.0)
    cells = np.array([w[0, 0].real for w in res.increments])
    assert np.allclose(cells, 0.5, atol=5e-3)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _real_axis_masses(t, edges, tol=1e-13, max_depth=40):
    """(1/pi) int Im T(u) du per cell by adaptive Gauss-Legendre on the axis.

    T is evaluated by the direct batched solve.  An interval is accepted
    once its rule and the sum of the rules on its halves agree within tol.
    """
    def rule(lo, hi):
        half = 0.5 * (hi - lo)
        u = 0.5 * (lo + hi) + half * _GL_NODES
        tv = t.eval_upper_many(u)
        imt = (tv - np.conj(np.swapaxes(tv, -1, -2))) / 2j
        return half * np.einsum("s,skl->kl", _GL_WEIGHTS, imt) / np.pi

    def integrate(lo, hi, whole, depth):
        mid = 0.5 * (lo + hi)
        left, right = rule(lo, mid), rule(mid, hi)
        if np.abs(left + right - whole).max() <= tol:
            return left + right
        assert depth < max_depth, "reference quadrature did not converge"
        return (integrate(lo, mid, left, depth + 1)
                + integrate(mid, hi, right, depth + 1))

    return np.array([integrate(a, b, rule(a, b), 0)
                     for a, b in zip(edges[:-1], edges[1:])])


def test_residue_cells_match_real_axis_quadrature():
    rng = np.random.default_rng(RNG_SEED + 5)
    for seq, t in _random_contraction_transforms(rng):
        res = perron_inversion(t, -3.0, 3.0, 0.5)
        assert res.method == "residue"
        err = np.abs(res.increments - _real_axis_masses(t, res.edges)).max()
        assert err <= EXACT_CELL_ATOL, (seq.dim, len(seq), err)


def test_defective_zero_contraction_matches_its_cdf(seq_101):
    # F = 0 on (1, 0, 1) has density 2 / (pi (1 + u^2)^2): a double pole
    # at -i, so the eigenvector matrix Z of G has cond(Z) ~ 2e8 and the
    # residue sum cancels terms of size cond(Z), which costs about
    # eps cond(Z) ~ 1e-8 of absolute accuracy.
    t = _transform(seq_101, ExtensionParameter.contraction(np.zeros((1, 1))))
    res = perron_inversion(t, -2.0, 2.0, 0.25)
    assert res.method == "residue"

    def cdf(u):
        return (1.0 / np.pi) * (u / (1.0 + u * u) + np.arctan(u))

    exact = cdf(res.edges[1:]) - cdf(res.edges[:-1])
    assert np.abs(res.increments[:, 0, 0] - exact).max() <= 1e-8


def test_boundary_atoms_split_exactly_in_half(seq_101, seq_identity_2):
    # theta = 0 puts half the mass at each of -1 and +1, both on edges; the
    # outer edge -1 of [-1, 1) keeps only the inner half of its atom.
    for seq in (seq_101, seq_identity_2):
        eye = np.eye(seq.dim)
        t = _transform(seq, ExtensionParameter.unimodular(0.0, seq.dim))
        res = perron_inversion(t, -2.0, 2.0, 1.0)
        assert res.method == "atoms"
        for w in res.increments:
            assert np.abs(w - 0.25 * eye).max() <= 1e-12
        res = perron_inversion(t, -1.0, 1.0, 1.0)
        for w in res.increments:
            assert np.abs(w - 0.25 * eye).max() <= 1e-12


def test_unit_singular_values_give_exact_atoms(seq_101, seq_identity_2):
    # A contraction with a unit singular value has poles on the real axis.
    # V = [[1]] on (1, 0, 1) gives atoms 1/2 at -1 and +1, both on edges
    # of the grid, so the four cells next to them hold 1/4 each and the
    # others nothing.  The N = 2 data s_n I with V = diag(1, 0.5) decouple:
    # the unit block carries the same atoms, the other block the density
    # of V = [[0.5]] on (1, 0, 1).
    expected = np.array([0.0, 0.25, 0.25, 0.0, 0.0, 0.25, 0.25, 0.0])
    for seq, v in ((seq_101, [[1.0]]),
                   (seq_identity_2, np.diag([1.0, 0.5]))):
        t = _transform(seq, ExtensionParameter.contraction(v))
        res = perron_inversion(t, -2.0, 2.0, 0.5)
        assert res.method in ("residue", "atoms")
        assert np.abs(res.increments[:, 0, 0] - expected).max() <= 1e-12
    half = perron_inversion(
        _transform(seq_101, ExtensionParameter.contraction([[0.5]])),
        -2.0, 2.0, 0.5)
    assert np.abs(res.increments[:, 1, 1]
                  - half.increments[:, 0, 0]).max() <= 1e-12
    assert np.abs(res.increments[:, 0, 1]).max() <= 1e-12


def test_transform_at_a_pole_raises(seq_101):
    # theta = 0 puts an atom at 1: G - 1 = [[-1, 1], [1, -1]] is exactly
    # singular in floating point, and the error names the point.
    t = _transform(seq_101, ExtensionParameter.unimodular(0.0, defect=1))
    with pytest.raises(SingularSystem, match=r"at \(1\+0j\)"):
        t.eval_upper_many([2j, 1.0, 1.0 + 1j])


def test_isometric_cells_are_the_binned_spectral_measure():
    # An isometric G is Hermitian: every pole is real, and the residues
    # are the weights of the spectral measure.  Both are eigen-
    # decompositions of G, so they agree to roundoff of the spectral
    # radius: near the forbidden operator an atom moves far out, and with
    # one at 1.45e4 (margin 4e-4, N = 4, d = 1) the cells differ by
    # 4.2e-13 of the scale, while a 40-digit eigh puts the residues 2.2e-13
    # from the truth and the spectral measure 5.1e-13.  Away from there
    # they agree to 3e-14 where the spectral radius is below 1e2.
    rng = np.random.default_rng(RNG_SEED + 12)
    for n, d, draw, _ in itertools.product(
            (1, 2, 3), (1, 2, 3, 4),
            (random_feasible_instance, random_deficient_instance), range(3)):
        seq, _ = draw(rng, n, d)
        ws = prepare(seq)
        if not ws.defect:
            continue
        v = random_admissible_isometry(rng, ws.shift, ws.pair, ws.forbidden)
        t = StieltjesTransform(ws.shift, ws.pair, v)
        res = perron_inversion(t, -4.0, 4.0, 0.5)
        assert res.method == "atoms"
        ext = selfadjoint_extension(ws.shift, ws.pair, v)
        binned = momext.measures.bin_measure(spectral_measure(ext, ws.shift),
                                             -4.0, 4.0, 0.5)
        scale = float(np.abs(seq[0]).max())
        err = np.abs(res.increments - binned.increments).max()
        mu = np.linalg.eigvals(t._g)
        radius = float(np.abs(mu).max())
        assert err <= max(1e-13, np.finfo(float).eps * radius) * scale, (
            n, d, err / scale)
        assert (np.abs(mu.imag)
                <= DEFAULT.cluster_rel * max(1.0, radius)).all()


def test_residues_off_the_mass_raise(seq_101, monkeypatch):
    # The double pole of the zero contraction leaves the residues' sum
    # about 2e-9 off S_0, far above a zero allowance; there is no fallback
    # route, and the message names the deviation.
    t = _transform(seq_101, ExtensionParameter.contraction(np.zeros((1, 1))))
    assert perron_inversion(t, -2.0, 2.0, 0.5).method == "residue"
    monkeypatch.setattr(momext.measures, "TRANSFORM_REL_TOL", 0.0)
    with pytest.raises(SingularSystem,
                       match=r"miss the mass S_0 by \d\.\d{3}e-\d+ > 0e\+00"):
        perron_inversion(t, -2.0, 2.0, 0.5)


def test_poles_just_above_the_axis_are_atoms(seq_101):
    # A singular value 1 + 5e-9, inside the norm_abs slack, lifts the
    # poles of V = i on (1, 0, 1) above the axis, the farther one (-2.41)
    # by 8.5e-9, more than cluster_rel of the spectral radius.  It is
    # still an atom: read as an off-axis pole it would give its cell -w.
    unit = perron_inversion(
        _transform(seq_101, ExtensionParameter.isometric([[1j]])),
        -4.0, 4.0, 0.5)
    assert (unit.increments.real >= 0.0).all()
    ws = prepare(seq_101)
    v = [[1j * (1.0 + 5e-9)]]
    binned = momext.measures.bin_measure(
        spectral_measure(selfadjoint_extension(
            ws.shift, ws.pair, ExtensionParameter.isometric(v)), ws.shift),
        -4.0, 4.0, 0.5)
    for parameter in (ExtensionParameter.isometric(v),
                      ExtensionParameter.contraction(v)):
        res = perron_inversion(_transform(seq_101, parameter), -4.0, 4.0, 0.5)
        assert np.abs(res.increments - binned.increments).max() <= 1e-8
        assert np.abs(res.increments - unit.increments).max() <= 1e-8


# F = f on (1, 0, a, 0, b) puts a triple pole of T near -0.735i, found by
# minimizing the spread of the eigenvalues of G over a, b and f: cond(Z)
# grows from 4e2 to 6e10 as f nears it.
_TRIPLE = (1.0, 0.0, 0.18003998584013936, 0.0, 0.29172956850530896)
_TRIPLE_F = (-0.014, -0.0139, -0.013895, -0.01389466, -0.013894658,
             -0.013894658002123994)


def test_the_mass_check_guards_a_triple_pole(monkeypatch):
    # The residues sum to S_0 whatever the poles, so the check measures
    # only the rounding of their cancellation, eps cond(Z) |S_0|; the
    # cells, sums of the same residues, carry about that error.  Whatever
    # perron_inversion returns is right to TRANSFORM_REL_TOL, and a
    # smaller constant refuses the near-defective G while it still
    # accepts the well-conditioned one.
    seq = MomentSequence.scalar(_TRIPLE)
    transforms = [_transform(seq, ExtensionParameter.contraction([[f]]))
                  for f in _TRIPLE_F]
    for t in transforms:
        try:
            res = perron_inversion(t, -2.0, 2.0, 0.25)
        except SingularSystem:
            continue
        err = np.abs(res.increments - _real_axis_masses(t, res.edges)).max()
        assert err <= momext.measures.TRANSFORM_REL_TOL, err
    monkeypatch.setattr(momext.measures, "TRANSFORM_REL_TOL", 1e-10)
    perron_inversion(transforms[0], -2.0, 2.0, 0.25)
    with pytest.raises(SingularSystem, match="miss the mass S_0"):
        perron_inversion(transforms[4], -2.0, 2.0, 0.25)


# ------------------------------------------------------------- verification

def test_verification_catches_a_corrupted_moment(seq_101):
    _, _, measure = _atomic_solution(seq_101)
    good = verify_moments(measure, seq_101)
    assert good.passed and good.max_deviation <= 1e-12
    bad_seq = MomentSequence.scalar([1.0, 0.1, 1.0])
    bad = verify_moments(measure, bad_seq)
    assert not bad.passed
    assert bad.max_deviation == pytest.approx(0.1, abs=1e-12)


def _running_powers(locs, count):
    """t^n for n < count as the running products 1, t, t t, ..., along a
    new axis before the last of locs."""
    factors = [np.ones_like(locs)] + [locs] * (count - 1)
    return np.multiply.accumulate(np.stack(factors, axis=-2), axis=-2)


def test_running_powers_are_within_n_minus_one_ulp_of_power():
    # t^n by n - 1 products is off by at most n - 1 roundings; n = 0 and
    # 1 are exact.
    rng = np.random.default_rng(RNG_SEED + 26)
    locs = np.concatenate([rng.normal(scale=3.0, size=200),
                           -np.abs(rng.normal(size=50)), [0.0, -1.0, 1.0]])
    count = 13
    got = _running_powers(locs, count)
    want = locs[None, :] ** np.arange(count)[:, None]
    allowed = np.maximum(np.arange(count) - 1, 0)[:, None]
    assert np.all(np.abs(got - want) <= allowed * np.spacing(np.abs(want)))
    assert np.array_equal(got[:2], want[:2])


def _reference_verification(measure, seq):
    """verify_moments as one einsum over the measure's own atoms."""
    powers = _running_powers(measure.locations, len(seq))
    recovered = np.einsum("nj,jkl->nkl", powers, measure.weights)
    return verify_recovered_moments(recovered, seq, rel_tol=1e-8)


def _padded(measures, fill):
    """The atoms of K >= 1 measures as the left-aligned stack the sweep
    builds: locations padded with fill, weights with 0."""
    return momext.measures._stack(
        [m.n_atoms for m in measures],
        np.concatenate([m.locations for m in measures]),
        np.concatenate([m.weights for m in measures]), fill)


def test_moment_sums_are_the_complex_einsum_bit_for_bit():
    # On zero-padded stacks the moment sums equal the complex einsum over
    # the same stack, and each row equals that of its measure alone, in
    # every bit; verify_moments is the plain einsum's report.
    rng = np.random.default_rng(RNG_SEED + 25)
    for k in (1, 32):
        for n in (1, 2, 4, 8):
            measures = [_random_measure(rng, n, int(j))
                        for j in rng.integers(0, 9, k)]
            if k > 1:
                measures[0] = _random_measure(rng, n, 0)
            locs, weights = _padded(measures, 0.0)
            got = momext.measures._moment_sums(locs, weights, 9)
            powers = _running_powers(locs, 9)
            want = np.einsum("knj,kjab->knab", powers, weights)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for row, measure in zip(got, measures):
                alone = momext.measures._moment_sums(
                    measure.locations[None], measure.weights[None], 9)[0]
                assert np.array_equal(row.view(np.uint64),
                                      alone.view(np.uint64))
    for n in (1, 2, 3):
        seq, truth = random_feasible_instance(rng, n, 3)
        for measure in [truth] + [_random_measure(rng, n, j)
                                  for j in (3, 0, 1, 7)]:
            report = verify_moments(measure, seq)
            assert report == _reference_verification(measure, seq)
            assert report.passed == (measure is truth)


def test_measure_distance_separates_different_solutions(seq_101):
    _, _, m0 = _atomic_solution(seq_101, theta=0.0)
    _, _, m1 = _atomic_solution(seq_101, theta=np.pi / 2)
    assert measure_distance(m0, m0) == 0.0
    assert measure_distance(m0, m1) > 1e-3


def test_measure_distance_merges_close_sites():
    a = AtomicMatrixMeasure.from_atoms([0.0], [[[1.0]]])
    b = AtomicMatrixMeasure.from_atoms([1e-9], [[[1.0]]])
    assert measure_distance(a, b, site_tol=1e-6) == pytest.approx(0.0,
                                                                  abs=1e-12)
    assert measure_distance(a, b, site_tol=1e-12) == pytest.approx(1.0)


def _reference_distance(m1, m2, site_tol=1e-6):
    """measure_distance as a plain loop over merged sites and atoms."""
    sites = np.concatenate([m1.locations, m2.locations])
    if sites.size == 0:
        return 0.0
    sites = np.sort(sites)
    merged = [sites[0]]
    for s in sites[1:]:
        if s - merged[-1] > site_tol:
            merged.append(s)
    n = max(m1.block_dim, m2.block_dim)

    def site_weight(measure, s):
        total = np.zeros((n, n), dtype=complex)
        for j in range(measure.n_atoms):
            if abs(measure.locations[j] - s) <= site_tol:
                total += measure.weights[j]
        return total

    return max(np.abs(site_weight(m1, s) - site_weight(m2, s)).max()
               for s in merged)


def _random_measure(rng, n, n_atoms, locations=None):
    if locations is None:
        locations = np.sort(rng.uniform(-2.0, 2.0, n_atoms))
    c = (rng.standard_normal((n_atoms, n, n))
         + 1j * rng.standard_normal((n_atoms, n, n)))
    weights = c @ np.conj(np.swapaxes(c, -1, -2))
    return AtomicMatrixMeasure.from_atoms(locations, weights, block_dim=n)


def test_measure_distance_matches_the_reference_loop():
    rng = np.random.default_rng(RNG_SEED + 10)
    site_tol = 1e-3
    for trial in range(200):
        n = 1 + trial % 2
        if trial % 4 < 2:
            # well-separated sites: the result is the largest |entry|, bit
            # for bit
            a = _random_measure(rng, n, int(rng.integers(1, 6)))
            b = _random_measure(rng, n, int(rng.integers(1, 6)))
            expected = _reference_distance(a, b, site_tol)
            assert measure_distance(a, b, site_tol) == expected
            continue
        # sites on a coarse grid with sub-site_tol jitter: shared and
        # near-shared sites, windows holding several atoms, atoms inside
        # two merged windows
        grid = 0.8e-3 * rng.integers(-6, 6, size=(2, 5))
        jitter = rng.uniform(-0.3e-3, 0.3e-3, size=(2, 5))
        a, b = (_random_measure(rng, n, 5, np.unique(g + j))
                for g, j in zip(grid, jitter))
        # windows are summed in atom order, as the loop sums them
        assert measure_distance(a, b, site_tol) == \
            _reference_distance(a, b, site_tol)
        assert measure_distance(a, a, site_tol) == 0.0


def _clustered_measures(rng, n, count, site_tol):
    """count measures on a grid of step 0.8 site_tol with sub-site_tol
    jitter, some of them empty, so windows hold several atoms."""
    measures = []
    for _ in range(count):
        atoms = int(rng.integers(0, 8))
        locs = np.unique(0.8 * site_tol * rng.integers(-6, 6, size=atoms)
                         + rng.uniform(-0.3, 0.3, size=atoms) * site_tol)
        measures.append(_random_measure(rng, n, len(locs), locs))
    return measures


def _pairwise(measures, site_tol):
    """The sweep's all-pairs distance kernel on the NaN-padded stack of
    the measures."""
    return momext.measures._distances(*_padded(measures, np.nan), site_tol)


def test_pairwise_distances_are_the_one_pair_distances():
    # The sweep's all-pairs kernel pads every measure to the largest atom
    # count; padding must not move a bit, so each entry equals
    # measure_distance on its pair, which equals the plain loop.
    rng = np.random.default_rng(RNG_SEED + 11)
    site_tol = 1e-3
    for trial in range(60):
        n = 1 + trial % 3
        measures = _clustered_measures(rng, n, int(rng.integers(2, 7)),
                                       site_tol)
        if trial % 3 == 0:          # a far-off measure: separated pairs
            measures.append(_random_measure(rng, n, 3,
                                            np.array([10.0, 20.0, 30.0])))
        dist = _pairwise(measures, site_tol)
        k = len(measures)
        assert dist.shape == (k, k)
        assert np.array_equal(np.diag(dist), np.zeros(k))
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                expected = _reference_distance(measures[i], measures[j],
                                               site_tol)
                assert dist[i, j] == expected
                assert measure_distance(measures[i], measures[j],
                                        site_tol) == expected
    assert np.array_equal(_pairwise(measures[:1], site_tol), [[0.0]])
    # measures of different block sizes are not compared, whatever their
    # atoms
    for sizes in ((1, 2), (2, 1), (3, 2)):
        for atoms in ((2, 0), (0, 2)):
            a, b = (_random_measure(rng, n, j) for n, j in zip(sizes, atoms))
            with pytest.raises(ValueError, match="different block sizes"):
                measure_distance(a, b, site_tol)


#: locations of each measure and site_tol, chosen so that the pairs meet
#: one kind of cluster of pooled locations within site_tol of each other
_CLUSTER_CASES = {
    "isolated": ([[0.0, 1.0, 2.0], [0.5, 1.5], [3.0]], 0.1),
    "two across": ([[0.0, 1.0], [1.05, 3.0]], 0.1),
    "two within": ([[0.0, 0.05], [1.0]], 0.1),
    # a chain of five, atoms counted at two sites, clusters of 3 and 4
    "three or more": ([[0.0, 0.08, 0.16, 1.0], [0.04, 0.12, 1.02, 1.1],
                       [0.2]], 0.1),
    "duplicates": ([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0]], 0.1),
    # only exact duplicates cluster, not 1 and the next float above it
    "site_tol 0": ([[0.0, 1.0], [0.0, np.nextafter(1.0, 2.0)], [1.0]], 0.0),
    # clusters of two and three as the last locations before the padding
    "next to padding": ([[5.0], [0.0, 1.0, 2.0, 3.0, 4.98], [4.95, 5.04]],
                        0.1),
}


@pytest.mark.parametrize("case", list(_CLUSTER_CASES))
def test_pairwise_distances_match_the_reference_per_cluster_kind(
        case, monkeypatch):
    # the per-cluster loop runs exactly on the cases with a cluster of
    # three or more, where the reference is its oracle
    calls = []
    loop = momext.measures._cluster_distance
    monkeypatch.setattr(momext.measures, "_cluster_distance",
                        lambda *args: calls.append(args) or loop(*args))
    locations, site_tol = _CLUSTER_CASES[case]
    rng = np.random.default_rng(RNG_SEED + 13)
    for n in (1, 2):
        measures = [_random_measure(rng, n, len(locs), np.array(locs))
                    for locs in locations]
        dist = _pairwise(measures, site_tol)
        for i, j in itertools.permutations(range(len(measures)), 2):
            expected = _reference_distance(measures[i], measures[j],
                                           site_tol)
            assert dist[i, j] == expected
            assert measure_distance(measures[i], measures[j],
                                    site_tol) == expected
    assert bool(calls) == (case in ("three or more", "next to padding"))


@pytest.mark.parametrize("site_tol", [-1.0, np.nan, np.inf])
def test_distances_reject_a_negative_or_non_finite_site_tol(site_tol):
    # at -1 or nan every window |t - s| <= site_tol of the definition is
    # empty and the loop gives 0, while each of these measures has a site
    a = AtomicMatrixMeasure.from_atoms([0.0, 1.0], [[[1.0]], [[2.0]]])
    b = AtomicMatrixMeasure.from_atoms([0.5], [[[3.0]]])
    with pytest.raises(ValueError, match="site_tol"):
        measure_distance(a, b, site_tol)


def _seven_atom_sweep():
    """theta_sweep on 32 angles of the N = 1, d = 6 moments of unit atoms
    at -3..3, and its measures."""
    seq = MomentSequence.from_arrays(
        moments_of_atoms(np.arange(-3.0, 4.0), np.ones((7, 1, 1)), 13))
    res = theta_sweep(seq, n_thetas=32)
    return res, {i: e.measure for i, e in enumerate(res.entries)
                 if e.measure is not None}


def _cluster_sizes(m1, m2, site_tol):
    """The sizes of the runs of pooled locations within site_tol of their
    neighbours, as a plain loop."""
    pooled = sorted(np.concatenate([m1.locations, m2.locations]).tolist())
    sizes = [1]
    for left, right in zip(pooled, pooled[1:]):
        if right - left <= site_tol:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return [s for s in sizes if s > 1]


def test_sweep_distance_matrix_is_the_reference_loop():
    res, measures = _seven_atom_sweep()
    assert len(measures) == 31
    for i, j in itertools.combinations(measures, 2):
        expected = _reference_distance(measures[i], measures[j],
                                       SWEEP_SITE_TOL)
        assert res.distance_matrix[i, j] == res.distance_matrix[j, i] \
            == expected


def test_two_atom_clusters_skip_the_window_pass(monkeypatch):
    # the sweep's clusters are all pairs, settled in closed form: the
    # per-cluster loop never runs
    calls = []
    window_pass = momext.measures._cluster_distance

    def counted(*args):
        calls.append(args)
        return window_pass(*args)

    monkeypatch.setattr(momext.measures, "_cluster_distance", counted)
    _, measures = _seven_atom_sweep()
    sizes = [s for i, j in itertools.combinations(measures, 2)
             for s in _cluster_sizes(measures[i], measures[j],
                                     SWEEP_SITE_TOL)]
    assert len(sizes) > 100 and set(sizes) == {2}
    assert not calls


def test_measure_distance_window_cases():
    one = [[1.0]]
    # 0.9 joins the site opened at 0 and also lies in the window of the
    # site opened at 1.5, so it counts at both.
    a = AtomicMatrixMeasure.from_atoms([0.0, 1.5], [one, [[4.0]]])
    b = AtomicMatrixMeasure.from_atoms([0.9], [[[2.0]]])
    assert measure_distance(a, b, site_tol=1.0) == \
        _reference_distance(a, b, site_tol=1.0) == 2.0
    # sites closer than site_tol on both sides
    a = AtomicMatrixMeasure.from_atoms([0.0, 0.4, 3.0], [one, one, one])
    b = AtomicMatrixMeasure.from_atoms([0.2, 3.5], [[[2.0]], [[3.0]]])
    assert measure_distance(a, b, site_tol=1.0) == \
        _reference_distance(a, b, site_tol=1.0) == 2.0
    empty = AtomicMatrixMeasure.from_atoms([], np.zeros((0, 2, 2)),
                                           block_dim=2)
    m = AtomicMatrixMeasure.from_atoms([0.0, 1.0],
                                       [np.eye(2), np.diag([1.0, 5.0])])
    assert measure_distance(empty, empty) == 0.0
    assert measure_distance(empty, m) == measure_distance(m, empty) == 5.0
    assert measure_distance(m, m) == 0.0


def _row_by_row_verifications(recovered, seq, rel_tol):
    """_verifications decided one row at a time: its oracle."""
    data = seq.moments
    gaps = np.abs(recovered[:, :len(data)] - data)
    scale = max(1.0, float(np.abs(data).max()))
    reports = []
    for devs in gaps.max(axis=(2, 3)).tolist():
        worst = max(devs)
        reports.append(VerificationReport(
            deviations=tuple(devs), max_deviation=worst, scale=scale,
            rel_tol=rel_tol, passed=bool(worst <= rel_tol * scale)))
    return tuple(reports)


def test_array_built_verifications_are_the_row_by_row_reports():
    # The maxima, the worst deviation and the pass flag are taken over the
    # whole stack; each report equals the one its row gets alone, flags and
    # types included (repr).  A NaN deviation fails.
    rng = np.random.default_rng(RNG_SEED + 26)
    for n in (1, 2):
        seq, _ = random_feasible_instance(rng, n, 3)
        data = seq.moments
        for k in (0, 1, 32):
            noise = np.abs(data).max() * 10.0 ** rng.uniform(
                -14, -4, (k, 1, 1, 1))
            recovered = data + noise * rng.standard_normal(
                (k,) + data.shape)
            for rel_tol in (1e-8, 1e-6):
                got = momext.measures._verifications(recovered, seq, rel_tol)
                want = _row_by_row_verifications(recovered, seq, rel_tol)
                assert repr(got) == repr(want) and len(got) == k
                if k == 32:
                    assert {r.passed for r in got} == {False, True}
        recovered[0, 1, 0, 0] = np.nan
        report = momext.measures._verifications(recovered, seq, 1e-8)[0]
        assert np.isnan(report.max_deviation) and not report.passed


def test_a_sweep_with_merged_or_dropped_atoms_takes_the_padded_stack(
        monkeypatch):
    # When every atom is kept, the assembly hands the sweep its rows as
    # their own stack.  Tolerances that merge the closest atoms of some
    # angles, or drop the lightest, leave rows of different lengths: the
    # sweep then verifies and measures on the NaN-padded _stack, and its
    # reports and distances are still verify_moments and measure_distance
    # of its measures, bit for bit.
    stacked = []
    stack = momext.measures._stack
    monkeypatch.setattr(momext.measures, "_stack",
                        lambda *args: stacked.append(1) or stack(*args))
    rng = np.random.default_rng(RNG_SEED + 27)
    seq, _ = random_feasible_instance(rng, 1, 4)
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, 16)
    plain = theta_sweep(seq, thetas=thetas)
    assert not stacked
    measures = [e.measure for e in plain.entries]
    assert len({m.n_atoms for m in measures}) == 1
    reach = [np.maximum(np.abs(m.locations), 1.0) for m in measures]
    gaps = [(np.diff(m.locations) / np.maximum(r[1:], r[:-1])).min()
            for m, r in zip(measures, reach)]
    mass = np.abs(seq.moments[0]).max()
    lightest = [(np.abs(m.weights).max(axis=(1, 2))
                 * np.maximum(np.abs(m.locations), 1.0) ** 8).min() / mass
                for m in measures]
    for name, scores in (("cluster_rel", gaps), ("weight_rel", lightest)):
        low, high = sorted(scores)[7:9]
        assert high > 1.01 * low
        stacked.clear()
        res = theta_sweep(seq, thetas=thetas,
                          tol=DEFAULT.replace(**{name: (low + high) / 2}))
        found = [e.measure for e in res.entries]
        assert stacked == [1]
        counts = {m.n_atoms for m in found}
        assert len(counts) > 1 and max(counts) == measures[0].n_atoms
        for measure, entry in zip(found, res.entries):
            assert entry.verification == verify_moments(measure, seq)
        want = np.zeros((len(found),) * 2)
        for i, j in itertools.combinations(range(len(found)), 2):
            want[i, j] = want[j, i] = measure_distance(
                found[i], found[j], site_tol=SWEEP_SITE_TOL)
        assert np.array_equal(res.distance_matrix.view(np.uint64),
                              want.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_atoms_are_refused_on_entry(bad):
    # Let through, a NaN location went into the sort and the assembly.
    with pytest.raises(ValueError, match="finite"):
        AtomicMatrixMeasure.from_atoms([0.0, bad], [[[1.0]], [[1.0]]])
    with pytest.raises(ValueError, match="finite"):
        AtomicMatrixMeasure.from_atoms([0.0, 1.0], [[[1.0]], [[bad]]])


# ------------------------------------------ the solve's kernels, pinned bits

def _glued_spectral_atoms(mats, shift, tol):
    """spectral_measure's eigen-atoms as the batched glue once took them
    (a copy of the old kernel, the oracle of the leaner one)."""
    n, d = shift.block_dim, shift.order
    vals, vecs = np.linalg.eigh(mats.real if not mats.imag.any() else mats)
    coords = shift.space.coords
    vecs = np.conj(vecs)

    def products(rows):
        return np.swapaxes(rows @ vecs, -1, -2)
    c = products(coords[:n])
    far = np.abs(vals) > 1.0
    if far.any():
        c = np.where(far[..., None], products(coords[d * n:(d + 1) * n])
                     / (np.where(far, vals, 1.0) ** d)[..., None], c)
    cc = np.conj(c)
    mass = np.swapaxes(c, -1, -2) @ cc
    weights = c[..., :, None] * cc[..., None, :]
    return (vals, weights, tol.cluster_rel,
            tol.weight_rel * np.abs(mass).max(axis=(1, 2)), 2 * d)


def _glued_assemble(locs, weights, merge_tol, drop_tol, degree):
    """The old assembly's merge, Hermitization and drop: the kept
    locations and weights of each row."""
    k, j = locs.shape
    drop_tol = np.reshape(drop_tol, (-1, 1))
    reach = np.maximum(np.abs(locs), 1.0)
    opens = np.ones((k, j), dtype=bool)
    opens[:, 1:] = ~(locs[:, 1:] - locs[:, :-1]
                     <= merge_tol * np.maximum(reach[:, 1:], reach[:, :-1]))
    if not opens.all():
        starts = np.flatnonzero(opens)
        locs, weights = locs.copy(), weights.copy()
        flat = locs.reshape(k * j)
        flat[starts] = (np.add.reduceat(flat, starts)
                        / np.diff(np.append(starts, k * j)))
        flat = weights.reshape((k * j,) + weights.shape[2:])
        flat[starts] = np.add.reduceat(flat, starts, axis=0)
    w = 0.5 * (weights + np.conj(np.swapaxes(weights, -1, -2)))
    peaks = np.abs(w).max(axis=(2, 3))
    keep = opens & ((peaks * np.maximum(np.abs(locs), 1.0) ** degree
                     > drop_tol) | ~(drop_tol > 0.0))
    return [(locs[i][keep[i]], w[i][keep[i]]) for i in range(k)]


def _glued_verification(measure, seq, rel_tol=1e-8):
    """The old verify_moments: its own stack of the data and its own pass
    for their scale."""
    recovered = momext.measures._moment_sums(
        measure.locations[None], measure.weights[None], len(seq))
    data = np.array(seq.moments)
    devs = np.abs(recovered[:, :len(data)] - data).max(axis=(2, 3))
    worst = devs.max(axis=1)
    scale = max(1.0, float(np.abs(data).max()))
    return VerificationReport(tuple(devs.tolist()[0]), worst.tolist()[0],
                              scale, rel_tol,
                              (worst <= rel_tol * scale).tolist()[0])


def _glued_defect_bases(shift):
    """deficiency_subspaces's bases, Omega and X as the old glue took
    them: K by its own product of the first block rows with G^{-1/2}."""
    q, n, dn = shift.defect, shift.block_dim, shift.dom_dim
    e = shift.action[dn:]
    corner = shift.jacobi[dn - n:, dn - n:]
    z0 = complex(np.trace(corner).real / n,
                 np.sqrt(np.vdot(shift.tail, shift.tail).real / q))
    points = np.array([np.conj(z0), z0])[:, None, None]
    cols = np.linalg.solve(shift.jacobi - points * np.eye(dn), np.conj(e.T))
    eye = np.eye(q)
    omega = z0 * eye + e @ cols[1]
    gram = eye + np.conj(cols[1].T) @ cols[1]
    if q == 1:
        root_inv = 1.0 / np.sqrt(gram.real)
    else:
        w, u = np.linalg.eigh(gram)
        root_inv = (u / np.sqrt(w)) @ np.conj(u.T)
    k = cols[:, :n] @ root_inv
    left, _, right = np.linalg.svd(np.conj(k[1].T) @ k[0])
    bases = np.empty((2, dn + q, q), dtype=complex)
    bases[:, :dn] = -cols
    bases[:, dn:] = eye
    bases = bases @ root_inv
    return (bases[0], bases[1] @ left @ right, omega,
            np.conj((left @ right).T))


def _same_bytes(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def test_solve_kernels_are_the_glued_reference_bit_for_bit():
    # The defect bases, spectral_measure, verify_moments and
    # solve_truncated(...).measure give the bytes of the old glue over
    # N in {1, 2, 4, 8}, d in 1..6, full-defect and rank-drop data, at the
    # default tolerances and at ones that merge and drop atoms; the default
    # extension, built without Hermitizing, is byte for byte G Hermitized,
    # with its residual.  Far atoms (|t| > 1) are read off block row d.
    # One sweep's entries match the reference too.
    rng = np.random.default_rng(RNG_SEED + 60)
    loose = DEFAULT.replace(cluster_rel=0.05, weight_rel=0.2)
    seen = {"far": 0, "merged": 0, "dropped": 0}
    for n in (1, 2, 4, 8):
        for d in range(1, 7):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                ws = prepare(seq)
                parameter = default_parameter(ws)[0]
                staged = selfadjoint_extension(ws.shift, ws.pair, parameter)
                if ws.defect:
                    pair = ws.pair
                    for got, want in zip(
                            (pair.basis_plus, pair.basis_minus, pair.omega,
                             pair.forbidden), _glued_defect_bases(ws.shift)):
                        assert _same_bytes(got, want)
                glued = _generator(ws.shift, ws.pair, parameter.matrix)
                residual = float(_hermitize(ws.shift, glued))
                result = solve_truncated(seq)
                for ext in (staged, result.extension):
                    assert _same_bytes(ext.matrix, glued)
                    assert ext.herm_residual == residual
                for tol in (DEFAULT, loose):
                    atoms = _glued_spectral_atoms(staged.matrix[None],
                                                  ws.shift, tol)
                    (want_locs, want_w), = _glued_assemble(*atoms)
                    got = spectral_measure(staged, ws.shift, tol)
                    assert _same_bytes(got.locations, want_locs)
                    assert _same_bytes(got.weights, want_w)
                    assert repr(verify_moments(got, seq)) == \
                        repr(_glued_verification(got, seq))
                    seen["far"] += int((np.abs(atoms[0]) > 1.0).any())
                    lost = len(atoms[0][0]) - got.n_atoms
                    gaps = np.diff(atoms[0][0]) <= tol.cluster_rel * \
                        np.maximum(np.abs(atoms[0][0][1:]), 1.0)
                    seen["merged"] += int(gaps.any())
                    seen["dropped"] += int(lost > gaps.sum())
                    if tol is DEFAULT:
                        assert _same_bytes(result.measure.locations,
                                           want_locs)
                        assert _same_bytes(result.measure.weights, want_w)
                        assert repr(result.verification) == \
                            repr(_glued_verification(result.measure, seq))
    assert min(seen.values()) > 5, seen
    seq, _ = random_feasible_instance(rng, 2, 3)
    ws = prepare(seq)
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, 12)
    for entry in theta_sweep(seq, thetas=thetas).entries:
        ext = selfadjoint_extension(
            ws.shift, ws.pair,
            ExtensionParameter.unimodular(entry.theta, ws.defect))
        (want_locs, want_w), = _glued_assemble(
            *_glued_spectral_atoms(ext.matrix[None], ws.shift, DEFAULT))
        assert _same_bytes(entry.measure.locations, want_locs)
        assert _same_bytes(entry.measure.weights, want_w)
        assert repr(entry.verification) == \
            repr(_glued_verification(entry.measure, seq))
