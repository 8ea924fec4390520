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
- indefinite input is rejected with the trailing-section error, and
  factor_psd refuses a section exactly when the check finds its data
  unsolvable, with prepare's error,
- the three domain refusals of the eigvalsh fallback, from factor_psd
  and prepare alike: a rank below dN, a leading block whose singular
  values spread beyond 1 / rank_rel, and one that has no Cholesky
  factor in float64,
- the screens of the frame decide as the eigvalsh rules of
  tests/eigen_frame.py (the two tests, the rank m, the defect q and the
  exception prepare raises) on full-defect, rank-drop, rescaled and
  clustered draws at N in {1, 2, 4, 8}, d <= 8, and on near-threshold
  files on both sides of each screen; they may differ only within
  roundoff of a threshold, unscaled draws never fall back to eigvalsh,
  and the spectra read later are those of a fresh eigvalsh.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import (DEFAULT, AtomicMatrixMeasure, DependentDomain,
                    MomentProblemError, MomentSequence, NotPSD,
                    build_block_hankel,
                    check_truncated_conditions, factor_psd, prepare,
                    solve_truncated)
from momext.linalg import phase_canonicalize

import eigen_frame
from sampling import (random_deficient_instance, random_feasible_instance,
                      random_psd)

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
    assert one.eigenvalues[1] <= one.section.rank_cutoff(DEFAULT.rank_rel)
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


#: relative distance from a threshold within which a screen and the
#: eigvalsh rule may decide differently: roundoff of either computation
ROUNDOFF_REL = 1e-13

#: N = 1 files on both sides of each screen, with what the eigvalsh rules
#: decide, and whether the screens decide them (False: eigvalsh does)
NEAR_THRESHOLD = (
    ([1, 0, 2e-10, 0, 1], True),        # H_1 - tI > 0 just above pos_rel
    ([1, 0, 5e-11, 0, 1], False),       # leading refused
    ([1, 0, 1, 0, 0.99999999985], False),   # Sigma < -tau, H_2 accepted
    ([1, 0, 1, 0, 0.9999999997], False),    # trailing refused
    ([1, 0, 1, 0, 1], True),            # Sigma = 0: m = 2, defect 0
    ([1, 0, -5e-11], True),             # 2 x 2: -tau < Sigma < 0, m = 1
    ([1, 0, -2e-10], False),            # 2 x 2: trailing refused
    ([2, 1.4, 0.98], True),             # 2 x 2: Sigma roundoff, m = 1
)


def _draws(rng):
    """(kind, sequence) pairs: full-defect and rank-drop draws, each also
    under x -> 10^k x for k = -3..3, and clusters of d + 1 atoms 1e-2 or
    1e-3 apart."""
    for n in (1, 2, 4, 8):
        for d in range(1, 9):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                yield "plain", seq
                for k in range(-3, 4):
                    yield "scaled", MomentSequence.from_arrays(
                        [10.0 ** (k * i) * s for i, s in enumerate(seq.moments)])
            for gap in (1e-2, 1e-3):
                locs = 0.5 + gap * np.arange(d + 1)
                truth = AtomicMatrixMeasure.from_atoms(
                    locs, np.array([random_psd(rng, n) for _ in locs]))
                yield "cluster", MomentSequence.from_arrays(
                    [np.einsum("j,jkl->kl", truth.locations ** k,
                               truth.weights) for k in range(2 * d + 1)])


def test_screens_decide_as_the_eigvalsh_rules():
    def decide(seq):
        """What the two stages decide, and whether the screens did: a
        section whose spectrum was never computed took no eigvalsh."""
        report = check_truncated_conditions(seq)
        try:
            ws = prepare(seq)
            outcome = (ws.space.ambient_dim, ws.defect, None)
        except MomentProblemError as exc:
            outcome = (None, None, type(exc))
        return report, outcome, "eigenvalues" not in vars(report.section)

    def agrees(seq):
        want = eigen_frame.eigvalsh_rules(seq)
        report, (m, q, error), screened = decide(seq)
        near = {k for k, v in want.margins.items() if v < ROUNDOFF_REL}
        dn = (len(seq) - 1) // 2 * seq.dim
        same = ((report.leading_positive == want.leading_positive
                 or "leading" in near)
                and (report.trailing_psd == want.trailing_psd
                     or "trailing" in near)
                and (error is want.error or bool(near))
                and (error is not None or (m == want.m and q == m - dn)
                     or "rank" in near))
        return same, screened

    rng = np.random.default_rng(RNG_SEED + 5)
    screened = {"plain": [], "scaled": [], "cluster": []}
    for kind, seq in _draws(rng):
        same, by_screens = agrees(seq)
        assert same, kind
        screened[kind].append(by_screens)
    # the well-conditioned draws are all decided without eigvalsh; the
    # rescaled and clustered ones fall back when ill-conditioned
    assert all(screened["plain"])
    for kind in ("scaled", "cluster"):
        assert any(screened[kind]) and not all(screened[kind]), kind
    for values, by_screens in NEAR_THRESHOLD:
        same, screened_here = agrees(MomentSequence.scalar(values))
        assert same and screened_here == by_screens, values


def test_factor_psd_refuses_as_prepare_does():
    # One rule for each test: factor_psd of the section raises NotPSD
    # exactly when the check finds the data unsolvable, naming the first
    # section that fails, with prepare's error.  [1, 0, 1, 0, 0.9999999997]
    # has -psd_rel * max|w| <= lambda_min < -psd_rel * max|entry|.
    for values, _ in NEAR_THRESHOLD:
        seq = MomentSequence.scalar(values)
        report = check_truncated_conditions(seq)
        section = build_block_hankel(seq, report.order)
        if report.solvable:
            assert factor_psd(section).ambient_dim == prepare(
                seq).space.ambient_dim
            continue
        with pytest.raises(NotPSD) as from_factor:
            factor_psd(section)
        with pytest.raises(NotPSD) as from_prepare:
            prepare(seq)
        got, want = from_factor.value, from_prepare.value
        assert got.section == ("trailing" if report.leading_positive
                               else "leading"), values
        assert (str(got), got.section, got.min_eigenvalue) == (
            str(want), want.section, want.min_eigenvalue)


def _domain_refusal(seq, tol):
    """The messages of the DependentDomain that factor_psd and prepare
    raise."""
    section = build_block_hankel(seq, (len(seq) - 1) // 2)
    with pytest.raises(DependentDomain) as from_factor:
        factor_psd(section, tol)
    with pytest.raises(DependentDomain) as from_prepare:
        prepare(seq, tol)
    return str(from_factor.value), str(from_prepare.value)


def test_the_fallback_refuses_a_dependent_domain():
    # Three refusals that no screen makes, each reached when the first
    # screen fails and eigvalsh admits both sections.  [1, 0, 1e-9, 0,
    # 1e14]: H_1 = diag(1, 1e-9) passes the leading test, but on the
    # scale of H_2 the rank cutoff 1e2 leaves m = 1 < dN = 2.
    # [1, 0, 1e-8, 0, 1] at rank_rel = 1e-3: the singular values 1e-4
    # and 1 of the domain vectors spread beyond 1 / rank_rel.
    rank = ("domain needs 2 independent vectors but the space has "
            "dimension 1")
    assert _domain_refusal(MomentSequence.scalar([1, 0, 1e-9, 0, 1e14]),
                           DEFAULT) == (rank, rank)
    spread = _domain_refusal(MomentSequence.scalar([1, 0, 1e-8, 0, 1]),
                             DEFAULT.replace(rank_rel=1e-3))
    assert spread[0] == spread[1] and spread[0].startswith(
        "domain vectors are numerically dependent: smallest singular "
        "value 1.000e-04 vs largest 1.000e+00")
    # S_0 = [[1, b], [b, b^2]] (S_1 = 0, S_2 = I) at pos_rel = rank_rel =
    # 0: the Cholesky pivot b^2 - b^2 is exactly 0, so no factor exists,
    # while eigvalsh puts the null eigenvalue within roundoff of 0, on
    # either side (above it for about one in seven of these b).  Each b
    # whose eigvalsh lands above 0 passes every eigvalsh rule and meets
    # the last refusal.
    tol = DEFAULT.replace(pos_rel=0.0, rank_rel=0.0)
    reached = 0
    for b in np.linspace(0.1, 2.0, 400):
        seq = MomentSequence.from_arrays(
            [[[1.0, b], [b, b * b]], np.zeros((2, 2)), np.eye(2)])
        section = build_block_hankel(seq, 1)
        if section.leading_eigenvalues[0] <= 0.0:
            continue
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(section.matrix[:2, :2])
        message = "the leading section has no Cholesky factor in float64"
        assert _domain_refusal(seq, tol) == (message, message)
        reached += 1
    assert reached


def test_spectra_are_read_on_demand_from_one_eigvalsh(monkeypatch):
    # an N = 8 solve runs with eigvalsh unavailable; the reports read
    # afterwards are a fresh eigvalsh of each section, bit for bit
    rng = np.random.default_rng(RNG_SEED + 6)
    seq, _ = random_deficient_instance(rng, 8, 3)
    real = np.linalg.eigvalsh

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    result = solve_truncated(seq)
    assert result.verification.passed
    monkeypatch.setattr(np.linalg, "eigvalsh", real)
    h = build_block_hankel(seq, 3).matrix
    w, w_lead = real(h), real(h[:24, :24])
    assert result.condition.min_eig_leading == float(w_lead[0])
    assert result.condition.min_eig_trailing == float(w[0])
    assert np.array_equal(result.gram_eigenvalues, w[::-1])
    assert result.workspace.space.section.rank_cutoff(
        DEFAULT.rank_rel) == float(DEFAULT.rank_rel * max(w[-1], 0.0))
