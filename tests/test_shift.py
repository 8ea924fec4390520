"""The block shift, its defect subspaces, and parameter admissibility.

Checked here:
- the shift sends representing vector x_a to x_{a+N} (Gram-exact),
- symmetry (A u, v) = (u, A v) on the domain, for random instances, and
  the block Jacobi structure of its matrix: J_0 Hermitian and block
  tridiagonal, E zero but for its last block B_d,
- an order-0 space refused by build_shift with DimensionMismatch,
- hand-derived defect data for (1, 0, 1) (reference point z0 = i): defect
  1, defect vectors (i, 1)/sqrt(2) and (i, -1)/sqrt(2), Omega = 2i,
  forbidden matrix [[-1]],
- the admissibility margin |1 + e^{i theta}| / sqrt(2) for that instance,
  vanishing exactly at theta = pi,
- defect bounds 0 <= q <= N with equal dimensions on both sides, and the
  engineered rank-drop family with q = N - 1,
- norm validation of parameters,
- the complement of D(A): orthonormal, orthogonal to the domain, and
  giving the same margins as a from-scratch SVD reference,
- a parameter screened once per solve and once per transform, and still
  refused by both transform recoveries when it is inadmissible,
- the forbidden operator X = U^H, held by the defect pair, within 1e-12
  of the solve C_minus^{-1} C_plus and unitary to 1e-13,
- the rotation U = X^H itself on rank-drop data (q < N): no small unitary
  perturbation raises Re tr(U^H K_minus^H K_plus), and on a hand-derived
  N = 2, q = 1 instance with K_minus^H K_plus = i/3, U = i,
- the admissibility reports built from arrays: the rule decided row by
  row, with margins exactly at adm_abs and 1e3 adm_abs, for K = 0, 1 and
  32, and is_admissible given no X measuring the gap to the pair's.
"""

from __future__ import annotations

import decimal

import numpy as np
import pytest

from momext import (DimensionMismatch, ExtensionParameter, MomentSequence,
                    NormViolation, NotAdmissible, StieltjesTransform,
                    build_block_hankel, build_shift, deficiency_subspaces,
                    factor_psd, forbidden_operator, is_admissible,
                    moments_from_transform, perron_inversion, prepare,
                    solve_truncated, theta_sweep)
import momext.extensions
from momext.extensions import KIND_CONTRACTION, AdmissibilityReport, _screen
from momext.linalg import singular_values
from momext.shift import DeficiencyPair
from momext.tolerances import DEFAULT

from sampling import (haar_unitary, random_admissible_isometry,
                      random_deficient_instance, random_feasible_instance,
                      random_strict_contraction)

RNG_SEED = 20260803
N_RANDOM_INSTANCES = 30
ORACLE_ATOL = 1e-12


def _operator_stage(seq, with_forbidden=False):
    space = factor_psd(build_block_hankel(seq, (len(seq) - 1) // 2))
    shift = build_shift(space)
    pair = deficiency_subspaces(shift)
    if not with_forbidden:
        return space, shift, pair
    return space, shift, pair, forbidden_operator(shift, pair)


def test_shift_moves_representing_vectors_one_block(seq_101):
    space, shift, _ = _operator_stage(seq_101)
    # x_0 = e_0, x_1 = e_1 here, and A x_0 = x_1.
    x0, x1 = space.coords[:2]
    assert np.allclose(shift.action @ x0[:shift.dom_dim], x1,
                       atol=ORACLE_ATOL)


def test_an_order_0_space_has_no_shift(seq_101):
    # H_0 = S_0 factors (m = 1), but its domain is empty: the shift is
    # refused before the defect spaces could fail on it.
    space = factor_psd(build_block_hankel(seq_101, 0))
    assert space.order == 0
    with pytest.raises(DimensionMismatch, match="order >= 1"):
        build_shift(space)


def test_shift_is_symmetric_on_its_domain():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(N_RANDOM_INSTANCES):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        space, shift, _ = _operator_stage(seq)
        dn = shift.dom_dim
        cu = rng.standard_normal(dn) + 1j * rng.standard_normal(dn)
        cv = rng.standard_normal(dn) + 1j * rng.standard_normal(dn)
        # u and v are combinations of x_0..x_{dN-1}, and (u, v) = v^H u
        u = space.coords[:dn].T @ cu
        v = space.coords[:dn].T @ cv
        au, av = shift.action @ u[:dn], shift.action @ v[:dn]
        scale = max(1.0, float(np.linalg.norm(u) * np.linalg.norm(v)))
        assert abs(np.vdot(v, au) - np.vdot(av, u)) <= 1e-9 * scale


def test_defect_data_of_two_atom_instance(seq_101):
    _, shift, pair, forbidden = _operator_stage(seq_101, with_forbidden=True)
    assert pair.defect == 1
    root_half = np.sqrt(0.5)
    assert np.allclose(pair.basis_plus.ravel(),
                       [1j * root_half, root_half], atol=ORACLE_ATOL)
    assert np.allclose(pair.basis_minus.ravel(),
                       [1j * root_half, -root_half], atol=ORACLE_ATOL)
    assert np.allclose(pair.omega, [[2j]], atol=ORACLE_ATOL)
    assert np.allclose(forbidden, [[-1.0]], atol=ORACLE_ATOL)


def test_shift_is_a_block_jacobi_matrix():
    # J_0 = M[:dN] is Hermitian and block tridiagonal, and E = M[dN:] is
    # zero but for its last N columns, B_d, of rank q.
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        draw = (random_feasible_instance, random_deficient_instance)[
            int(rng.integers(0, 2))]
        seq, _ = draw(rng, n, d)
        _, shift, pair = _operator_stage(seq)
        dn = shift.dom_dim
        scale = max(1.0, float(np.abs(shift.action).max()))
        assert np.array_equal(shift.jacobi, shift.jacobi.conj().T)
        assert shift.herm_residual <= 1e-12
        assert np.abs(shift.jacobi - shift.action[:dn]).max() <= 1e-12 * scale
        blocks = np.abs(shift.jacobi).reshape(d, n, d, n).max(axis=(1, 3))
        far = np.abs(np.subtract.outer(np.arange(d), np.arange(d))) > 1
        assert blocks[far].max(initial=0.0) <= 1e-10 * scale
        assert not np.any(shift.action[dn:, :dn - n])
        assert shift.tail.shape == (pair.defect, n)
        if pair.defect:
            sv = np.linalg.svd(shift.tail, compute_uv=False)
            assert sv[-1] > 1e-8 * sv[0]


def test_defect_vectors_solve_the_eigenvalue_equations():
    # psi in N_plus is orthogonal to (A - z0) D(A), and psi in N_minus to
    # (A - conj z0) D(A): (A f, psi) = (f, conj(z0) psi) and
    # (A f, psi) = (f, z0 psi) for every f in the domain.
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        space, shift, pair = _operator_stage(seq)
        # z0 = beta + i kappa: the mean diagonal entry of the last block
        # of J_0, and the root-mean-square singular value of B_d
        corner = shift.jacobi[-n:, -n:]
        sv = np.linalg.svd(shift.tail, compute_uv=False)
        z0 = complex(np.trace(corner).real / n, np.sqrt(np.mean(sv ** 2)))
        for point, basis in ((np.conj(z0), pair.basis_plus),
                             (z0, pair.basis_minus)):
            for k in range(pair.defect):
                psi = basis[:, k]
                for f in space.coords[:shift.dom_dim]:
                    lhs = np.vdot(psi, shift.action @ f[:shift.dom_dim])
                    rhs = np.vdot(point * psi, f)
                    assert abs(lhs - rhs) <= 1e-9


def test_defect_dimensions_are_equal_and_bounded():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(N_RANDOM_INSTANCES):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        _, shift, pair = _operator_stage(seq)
        assert pair.basis_plus.shape[1] == pair.basis_minus.shape[1]
        assert 0 <= pair.defect <= n
        # Full-rank atomic data (d + 1 separated atoms, positive definite
        # weights) always realizes the maximal defect.
        assert pair.defect == n


def test_rank_dropped_weight_lowers_the_defect_by_one():
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in (1, 2, 3):
        for d in (1, 2):
            seq, _ = random_deficient_instance(rng, n, d)
            _, _, pair = _operator_stage(seq)
            assert pair.defect == n - 1, (n, d)


def test_admissibility_margin_matches_hand_formula(seq_101):
    _, shift, pair, forbidden = _operator_stage(seq_101, with_forbidden=True)
    for theta in np.linspace(0.0, 2.0 * np.pi, 9):
        v = np.exp(1j * theta) * np.eye(1)
        report = is_admissible(v, shift, pair, forbidden)
        expected = abs(1.0 + np.exp(1j * theta)) / np.sqrt(2.0)
        assert report.margin == pytest.approx(expected, abs=1e-10)
        assert report.admissible == (expected > 1e-8)


def test_forbidden_parameter_is_flagged(seq_101):
    _, shift, pair, forbidden = _operator_stage(seq_101, with_forbidden=True)
    report = is_admissible(forbidden, shift, pair, forbidden)
    assert not report.admissible
    assert report.coincides_with_forbidden
    assert report.forbidden_gap == pytest.approx(0.0, abs=1e-12)


def test_overnorm_parameters_are_rejected(seq_101):
    _, shift, pair = _operator_stage(seq_101)
    with pytest.raises(NormViolation):
        is_admissible(1.5 * np.eye(1), shift, pair)


def test_one_by_one_singular_values_are_moduli(monkeypatch, seq_101):
    # A stack of 1 x 1 matrices takes moduli, with no SVD call: within 1 ulp
    # of the exact modulus, where the SVD is within 2 ulp, and a screen at
    # q = 1 decides every angle of a 64-angle grid (pi, the forbidden angle
    # of (1, 0, 1), among them) as the SVD kernel does.
    rng = np.random.default_rng(RNG_SEED + 13)
    a = ((rng.normal(size=(500, 1, 1)) + 1j * rng.normal(size=(500, 1, 1)))
         * 10.0 ** rng.integers(-12, 12, size=(500, 1, 1)))
    got = singular_values(a)
    svd = np.linalg.svd(a, compute_uv=False)
    assert got.shape == svd.shape == (500, 1)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = np.array([[float((decimal.Decimal(z.real) ** 2
                                  + decimal.Decimal(z.imag) ** 2).sqrt())]
                          for z in a.ravel()])
    for values, ulps in ((got, 1), (svd, 2)):
        assert np.all(np.abs(values - exact) <= ulps * np.spacing(exact))
    assert singular_values(a[0]).shape == (1,)

    thetas = 2.0 * np.pi * np.arange(64) / 64
    instances = [seq_101] + [random_feasible_instance(rng, 1, d)[0]
                             for d in (2, 4, 6)]
    stage = [_operator_stage(seq, with_forbidden=True)[1:]
             for seq in instances]
    stack = np.exp(1j * thetas)[:, None, None]
    moduli = [_screen(KIND_CONTRACTION, stack, pair, forbidden, DEFAULT)[1]
              for _, pair, forbidden in stage]
    monkeypatch.setattr(momext.extensions, "singular_values",
                        lambda m: np.linalg.svd(np.asarray(m, dtype=complex),
                                                compute_uv=False))
    by_svd = [_screen(KIND_CONTRACTION, stack, pair, forbidden, DEFAULT)[1]
              for _, pair, forbidden in stage]
    assert moduli[0][32].coincides_with_forbidden
    for ours, theirs in zip(moduli, by_svd):
        for r, s in zip(ours, theirs):
            assert ((r.admissible, r.coincides_with_forbidden, r.borderline)
                    == (s.admissible, s.coincides_with_forbidden,
                        s.borderline))
            for x, y in ((r.margin, s.margin),
                         (r.parameter_norm, s.parameter_norm),
                         (r.forbidden_gap, s.forbidden_gap)):
                assert abs(x - y) <= 4 * np.spacing(max(x, y))


def test_strict_contractions_are_always_admissible():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        seq, _ = random_feasible_instance(rng, n, int(rng.integers(1, 3)))
        _, shift, pair, forbidden = _operator_stage(seq, with_forbidden=True)
        q = pair.defect
        f = rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))
        f *= 0.8 / max(1.0, np.linalg.norm(f, 2))
        report = is_admissible(f, shift, pair, forbidden)
        assert report.admissible
        # The forbidden operator is an isometry on its domain, so a strict
        # contraction keeps a positive gap from it.
        assert report.forbidden_gap is None or report.forbidden_gap > 0.0


# ------------------------------------------------------- the D(A) complement

def _reference_margin(v, shift, pair):
    """sigma_min(P_perp^H (B_minus V - B_plus)) with P_perp from a fresh SVD."""
    u, _, _ = np.linalg.svd(shift.space.coords[:shift.dom_dim].T)
    perp = u[:, shift.dom_dim:]
    adm = np.conj(perp.T) @ (pair.basis_minus @ v - pair.basis_plus)
    return float(np.linalg.svd(adm, compute_uv=False)[-1])


def test_complement_is_an_orthonormal_basis_of_the_domain_complement():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(N_RANDOM_INSTANCES):
        n = int(rng.integers(1, 5))
        seq, _ = random_feasible_instance(rng, n, int(rng.integers(1, 4)))
        space, shift, pair = _operator_stage(seq)
        # the last q coordinates, and x_0..x_{dN-1} as columns
        c = np.eye(shift.ambient_dim, pair.defect, k=-shift.dom_dim)
        assert np.abs(np.conj(c.T) @ c - np.eye(pair.defect)).max() <= 1e-12
        dom = space.coords[:shift.dom_dim].T
        assert np.abs(np.conj(c.T) @ dom).max() <= 1e-12 * max(
            1.0, np.abs(dom).max())


def test_admissibility_margins_match_a_from_scratch_reference():
    rng = np.random.default_rng(RNG_SEED + 6)
    for n in (1, 2, 4):
        for _ in range(5):
            seq, _ = random_feasible_instance(rng, n, int(rng.integers(1, 4)))
            _, shift, pair, forbidden = _operator_stage(seq,
                                                        with_forbidden=True)
            q = pair.defect
            unitary = haar_unitary(rng, q)
            contraction = random_strict_contraction(rng, q)
            for v in (unitary, contraction, forbidden):
                report = is_admissible(v, shift, pair, forbidden)
                assert report.margin == pytest.approx(
                    _reference_margin(v, shift, pair), abs=1e-12)


def _count_factorizations(monkeypatch):
    """Make np.linalg's dense factorizations record their names; returns
    a function running fn(*args) and giving how often each was called."""
    calls = []
    for name in ("svd", "eigh", "inv"):
        def counting(*args, _real=getattr(np.linalg, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)

    def factorizations(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return {name: calls.count(name) for name in ("svd", "eigh", "inv")}
    return factorizations


def _minus(counts, before):
    return {name: counts[name] - before[name] for name in counts}


def test_sweep_factorizations_do_not_grow_with_the_angles(monkeypatch):
    # After prepare, theta_sweep runs one stacked screen of the parameters
    # (the singular values for norm and isometry, the margins and the
    # forbidden gaps: one SVD call, not repeated by the extension, and none
    # at q = 1, where they are moduli), one batched extension with no
    # inverse and one batched eigh, whatever the number of angles; count
    # the dense factorizations it asks numpy for.
    factorizations = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(RNG_SEED + 8)
    for n in (1, 2):
        seq, _ = random_feasible_instance(rng, n, 3)
        q = prepare(seq).defect
        in_prepare = factorizations(prepare, seq)
        per_sweep = [_minus(factorizations(
            theta_sweep, seq, thetas=np.linspace(1.0, 2.0 * np.pi - 1.0, k)),
            in_prepare) for k in (8, 32)]
        assert per_sweep[0] == per_sweep[1] == {"svd": int(q > 1), "eigh": 1,
                                                "inv": 0}


def test_a_solve_screens_its_parameter_once(monkeypatch):
    # The solve's admissibility check and its extension share one screen:
    # one SVD call after prepare for a supplied parameter (none at q = 1,
    # where the singular values are moduli), none for the default -X,
    # whose report is read off the defect stage, and no inverse.
    factorizations = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(RNG_SEED + 9)
    for n in (1, 2):
        seq, _ = random_feasible_instance(rng, n, 3)
        in_prepare = factorizations(prepare, seq)
        ws = prepare(seq)
        parameters = [None, random_admissible_isometry(
            rng, ws.shift, ws.pair, ws.forbidden, min_margin=0.1)]
        for parameter in parameters:
            per_solve = _minus(factorizations(solve_truncated, seq, parameter),
                               in_prepare)
            screened = parameter is not None and ws.defect > 1
            assert per_solve == {"svd": int(screened), "eigh": 1, "inv": 0}


def test_a_transform_screens_its_parameter_once(monkeypatch):
    # The transform route keeps its report and G: an explicit
    # contraction solve makes the one SVD call of its screen after
    # prepare, and so does Perron inversion on a fresh transform, however
    # often the transform is evaluated.
    factorizations = _count_factorizations(monkeypatch)
    rng = np.random.default_rng(RNG_SEED + 10)
    seq, _ = random_feasible_instance(rng, 2, 3)
    in_prepare = factorizations(prepare, seq)
    ws = prepare(seq)
    assert ws.defect == 2
    half = ExtensionParameter.contraction(0.5 * np.eye(2))
    per_solve = _minus(factorizations(solve_truncated, seq, half), in_prepare)
    assert per_solve["svd"] == 1
    transform = StieltjesTransform(ws.shift, ws.pair, half)
    assert factorizations(perron_inversion, transform, -3.0, 3.0, 0.5)[
        "svd"] == 1
    assert factorizations(moments_from_transform, transform, 6)["svd"] == 0
    assert factorizations(transform.eval_upper_many, [1j, 2j])["svd"] == 0
    # a parameter on the forbidden operator is still refused by both
    # recoveries, each time it is asked
    for kind in (ExtensionParameter.contraction, ExtensionParameter.isometric):
        transform = StieltjesTransform(ws.shift, ws.pair,
                                       kind(ws.forbidden))
        for _ in range(2):
            with pytest.raises(NotAdmissible):
                moments_from_transform(transform, 6)
            with pytest.raises(NotAdmissible):
                perron_inversion(transform, -3.0, 3.0, 0.5)


# ------------------------------------ the forbidden operator and the rotation

def test_forbidden_operator_is_the_adjoint_of_the_rotation():
    # C_plus = G^{-1/2} and C_minus = G^{-1/2} U, so X = C_minus^{-1} C_plus
    # is U^H; check it against the solve it replaces.
    rng = np.random.default_rng(RNG_SEED + 11)
    for n in (1, 2, 4):
        for d in (1, 3):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                _, _, pair, forbidden = _operator_stage(seq,
                                                        with_forbidden=True)
                x = forbidden
                assert x is pair.forbidden
                q = pair.defect
                if not q:
                    continue
                plus, minus = pair.complement_rows
                assert np.abs(x - np.linalg.solve(minus, plus)).max() <= 1e-12
                assert np.linalg.norm(np.conj(x.T) @ x - np.eye(q), 2) <= 1e-13


def _unrotated_minus_rows(shift):
    """K_minus: the first block rows of [-(J_0 - z0)^{-1} E^H; I] made
    orthonormal by G^{-1/2}, with z0 = beta + i kappa from its definition."""
    n, dn = shift.block_dim, shift.dom_dim
    sv = np.linalg.svd(shift.tail, compute_uv=False)
    z0 = complex(np.trace(shift.jacobi[-n:, -n:]).real / n,
                 np.sqrt(np.mean(sv ** 2)))
    r = np.linalg.solve(shift.jacobi - z0 * np.eye(dn),
                        np.conj(shift.action[dn:].T))
    w, u = np.linalg.eigh(np.eye(r.shape[1]) + np.conj(r.T) @ r)
    return (-r @ (u / np.sqrt(w)) @ np.conj(u.T))[:n]


def _unitary_exp(h):
    """exp(i h) for a Hermitian h."""
    w, u = np.linalg.eigh(h)
    return (u * np.exp(1j * w)) @ np.conj(u.T)


def test_rotation_maximizes_the_match_of_the_first_block_rows():
    # U is the polar factor of M = K_minus^H K_plus, the unitary W that
    # maximizes Re tr(W^H M) (a Procrustes fit of the N x q first block
    # rows); on rank-drop data (q < N) no nearby unitary does better.
    rng = np.random.default_rng(RNG_SEED + 12)
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            seq, _ = random_deficient_instance(rng, n, d)
            _, shift, pair = _operator_stage(seq)
            q = pair.defect
            assert 0 < q < n
            k_minus = _unrotated_minus_rows(shift)
            u = np.conj(pair.forbidden.T)
            assert np.abs(pair.basis_minus[:n]
                          - k_minus @ u).max() <= 1e-12
            m = np.conj(k_minus.T) @ pair.basis_plus[:n]
            best = np.trace(np.conj(u.T) @ m).real
            for eps in (1e-4, 1e-2, 0.3):
                for _ in range(8):
                    h = rng.standard_normal((q, q)) \
                        + 1j * rng.standard_normal((q, q))
                    h = (h + np.conj(h.T)) / np.linalg.norm(h + np.conj(h.T))
                    w = u @ _unitary_exp(eps * h)
                    assert np.trace(np.conj(w.T) @ m).real \
                        <= best + 1e-14 * np.abs(m).sum()


def test_rotation_is_the_phase_of_a_hand_derived_match():
    # S_0 = I, S_1 = diag(0, 2), S_2 = diag(1, 4): the Schur complement
    # diag(1, 0) drops rank, so m = 3 and q = 1.  L = I, J_0 = diag(0, 2),
    # E = [1, 0], z0 = 1 + i; then R = (J_0 - z0)^{-1} E^H = (1/(-1-i), 0),
    # G = 3/2, K_plus = -(1/(-1+i), 0) sqrt(2/3) and
    # K_minus = -(1/(-1-i), 0) sqrt(2/3), so
    # K_minus^H K_plus = (2/3) / (-1+i)^2 = i/3, whose phase is i.
    seq = MomentSequence.from_arrays([np.eye(2), np.diag([0.0, 2.0]),
                                      np.diag([1.0, 4.0])])
    _, shift, pair, forbidden = _operator_stage(seq, with_forbidden=True)
    assert (shift.ambient_dim, pair.defect) == (3, 1)
    k_minus = _unrotated_minus_rows(shift)
    assert np.allclose(np.conj(k_minus.T) @ pair.basis_plus[:2], [[1j / 3]],
                       atol=ORACLE_ATOL)
    assert np.allclose(np.conj(forbidden.T), [[1j]], atol=ORACLE_ATOL)
    assert np.allclose(forbidden, [[-1j]], atol=ORACLE_ATOL)


def _row_by_row_reports(stack, pair, forbidden, tol):
    """The admissibility rule decided one row at a time: the oracle of the
    array-built reports."""
    k = len(stack)
    plus, minus = pair.complement_rows
    sv = singular_values(np.concatenate(
        [stack, minus @ stack - plus, stack - forbidden]))
    return tuple(AdmissibilityReport(
        admissible=margin > tol.adm_abs, margin=margin,
        parameter_norm=float(norm), forbidden_gap=gap,
        coincides_with_forbidden=gap <= tol.adm_abs,
        borderline=tol.adm_abs < margin <= 1e3 * tol.adm_abs)
        for norm, margin, gap in zip(sv[:k, 0], sv[k:2 * k, -1].tolist(),
                                     sv[2 * k:, -1].tolist()))


def test_array_built_reports_are_the_row_by_row_rule():
    # On a pair with C_plus = 0 and C_minus = 1 the margin of v is |v|, and
    # with X = 0 so is the gap, so the margins land exactly on adm_abs and
    # on 1e3 adm_abs and one ulp either side.  Random stacks of K = 0, 1
    # and 32 unitaries and near-forbidden rows on prepared data at q = 1
    # and q = 2 add the rest.  repr compares the flags' types as well.
    # is_admissible given no X measures the gap to the pair's.
    tol = DEFAULT
    edges = []
    for x in (tol.adm_abs, 1e3 * tol.adm_abs):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
    values = np.array([0.0, 0.5 * tol.adm_abs, 0.5, 1.0] + edges)
    unit = np.ones((1, 1), dtype=complex)
    pair = DeficiencyPair(basis_plus=0.0 * unit, basis_minus=unit, defect=1,
                          omega=unit, forbidden=0.0 * unit)
    stack = values.astype(complex)[:, None, None]
    got = _screen(KIND_CONTRACTION, stack, pair, pair.forbidden, tol)
    want = _row_by_row_reports(stack, pair, pair.forbidden, tol)
    assert repr(got[1]) == repr(want)
    assert np.array_equal(got[0], [r.admissible for r in want])
    flags = [(r.admissible, r.borderline) for r in got[1]]
    assert flags[4:10] == [(False, False), (False, False), (True, True),
                           (True, True), (True, True), (True, False)]
    assert [r.coincides_with_forbidden for r in got[1]][:6] == \
        [True, True, False, False, True, True]
    rng = np.random.default_rng(RNG_SEED + 41)
    for n in (1, 2):
        for draw in (random_feasible_instance, random_deficient_instance):
            seq, _ = draw(rng, n, 3)
            ws = prepare(seq)
            q = ws.defect
            if not q:
                continue
            x = ws.forbidden
            for k in (0, 1, 32):
                stack = np.array([haar_unitary(rng, q) for _ in range(k)],
                                 dtype=complex).reshape(k, q, q)
                stack[:k // 4] = x + 1e-9 * rng.standard_normal()
                stack[k // 4:k // 2] = x
                got = _screen(KIND_CONTRACTION, stack, ws.pair, x, tol)
                want = _row_by_row_reports(stack, ws.pair, x, tol)
                assert repr(got[1]) == repr(want) and len(want) == k
                assert np.array_equal(got[0], [r.admissible for r in want])
                for v in stack:
                    assert is_admissible(v, ws.shift, ws.pair) == \
                        is_admissible(v, ws.shift, ws.pair, x)
