"""End-to-end orchestration: prepare, solve, and the parameter sweep.

Checked here:
- the worked instance (1, 0, 1): preparation report, the default
  parameter -X = 1 with margin sqrt(2), the frozen two-atom measure,
- prepare as one pass: its Workspace is bit for bit the public chain of
  stages, from one Hankel build, one eigvalsh of H_d and one of H_{d-1},
  one Cholesky, two solves with its factor L, one N x N eigh (a closed
  form at N = 1), one batched solve with J_0 -/+ z and the small
  defect-space factorizations (the q x q eigh a closed form at q = 1)
  (no QR, no inverse, no solve for X), a default solve adding the screen
  of one parameter, one m x m eigh and, for N >= 2, one batched Cholesky
  of the atom weights (eigvalsh only when it fails), and no solve, since
  B(-X) = Re Omega; the reported trailing minimum eigenvalue is the
  smallest Gram eigenvalue,
- both solution routes (atomic for isometric parameters, transform plus
  closed-form moment recovery for contractions),
- the admissibility gate on supplied parameters,
- the unique-extension case (defect 0) and the sweep refusing it, and
  the sweep refusing an empty, non-finite or misshapen angle grid before
  it prepares anything,
- the 1 x 1 closed forms of prepare (F at N = 1, G^{-1/2} at q = 1),
  byte for byte the eigh route,
- the theta sweep on (1, 0, 1): seven admissible angles, pi flagged
  forbidden, pairwise distinct measures; on random instances its distance
  matrix is exactly the pairwise measure_distance, and each entry (report,
  measure, verification) is exactly that of its angle solved alone, from
  one atom assembly (one batched Cholesky PSD screen for N >= 2, no
  eigvalsh) and one verification pass whatever the number of angles,
- determinism of repeated solves,
- unitary invariance: conjugating the data by a unitary U conjugates the
  solution weights by U, once the parameter is transported through the
  canonical intertwiner between the two Gram spaces.
"""

from __future__ import annotations

import numpy as np
import pytest

import momext.hankel
from momext import (AtomicMatrixMeasure, ExtensionParameter, MomentSequence,
                    NotAdmissible, build_block_hankel, build_shift,
                    check_truncated_conditions, default_parameter,
                    deficiency_subspaces, factor_psd, forbidden_operator,
                    is_admissible, measure_distance, prepare,
                    selfadjoint_extension, solve_truncated, spectral_measure,
                    theta_sweep, verify_moments)
import momext.pipeline
from momext.linalg import phase_canonicalize
from momext.pipeline import SWEEP_SITE_TOL
from momext.sampling import (haar_unitary, random_admissible_isometry,
                             random_deficient_instance,
                             random_feasible_instance)

RNG_SEED = 20260807
ORACLE_ATOL = 1e-12


def test_prepare_reports_the_worked_instance(seq_101):
    ws = prepare(seq_101)
    assert ws.condition.solvable
    assert ws.space.ambient_dim == 2
    assert ws.defect == 1


def _public_chain(seq):
    report = check_truncated_conditions(seq)
    space = factor_psd(build_block_hankel(seq, report.order))
    shift = build_shift(space)
    pair = deficiency_subspaces(shift)
    return report, space, shift, pair, forbidden_operator(shift, pair)


def test_prepare_is_the_public_chain_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED + 6)
    for n in (1, 2, 4):
        for d in (1, 2, 3, 4):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                ws = prepare(seq)
                report, space, shift, pair, forbidden = _public_chain(seq)
                assert ws.condition == report
                assert ws.defect == pair.defect
                for got, want in (
                        (ws.space.coords, space.coords),
                        (ws.space.eigenvalues, space.eigenvalues),
                        (ws.shift.action, shift.action),
                        (ws.shift.jacobi, shift.jacobi),
                        (ws.shift.herm_residual, shift.herm_residual),
                        (ws.pair.basis_plus, pair.basis_plus),
                        (ws.pair.basis_minus, pair.basis_minus),
                        (ws.pair.omega, pair.omega),
                        (ws.forbidden, forbidden)):
                    assert np.array_equal(got, want), (n, d, draw.__name__)


def test_prepare_builds_and_factors_each_section_once(monkeypatch):
    # One H_d build, one eigvalsh of H_d and one of its leading dN x dN
    # block (the two tests, the rank and the domain check), one Cholesky
    # of that block, a solve with its factor L for the Schur complement
    # and one eigh of that N x N complement (none at N = 1, where it is
    # its own eigenvalue), then a second solve with L for the shift; the
    # defect spaces add one batched solve with J_0 - conj z0 and
    # J_0 - z0, an eigh of their q x q Gram matrix (none at q = 1) and
    # an SVD for the rotation of B_minus, whose adjoint is X.  No QR, no
    # inverse and no solve for X.  A default solve then screens one
    # parameter (its norm, its margin and its forbidden gap, from one SVD
    # call of a (3, q, q) stack, or from moduli and no SVD at q = 1),
    # takes one m x m eigh and screens the
    # atom weights with one batched Cholesky (none at N = 1, where a
    # weight is its own eigenvalue); eigvalsh runs only when that screen
    # fails, and there is no solve, since B(-X) = Re Omega.
    calls = []

    def count(module, name, shape_of):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append((name, shape_of(args)))
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    count(momext.hankel, "build_block_hankel", lambda args: args[1])
    for name in ("eigh", "eigvalsh", "cholesky", "svd", "qr", "inv",
                 "solve"):
        count(np.linalg, name, lambda args: np.shape(args[0]))
    rng = np.random.default_rng(RNG_SEED + 7)
    for n in (1, 2, 4):
        for d in (1, 3):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                calls.clear()
                ws = prepare(seq)
                size, dn = (d + 1) * n, d * n
                m, q = ws.space.ambient_dim, ws.defect
                defect = ([("solve", (2, dn, dn))]
                          + [("eigh", (q, q))] * (q > 1)
                          + [("svd", (q, q))]) if q else []
                assert calls == [("build_block_hankel", d),
                                 ("eigvalsh", (size, size)),
                                 ("eigvalsh", (dn, dn)),
                                 ("cholesky", (dn, dn)),
                                 ("solve", (dn, dn))] + [
                                 ("eigh", (n, n))] * (n > 1) + [
                                 ("solve", (dn, dn))] + defect
                in_prepare = list(calls)
                calls.clear()
                result = solve_truncated(seq)
                screen = [("svd", (3, q, q))] if q > 1 else []
                psd = ([("cholesky", (result.measure.n_atoms, n, n))]
                       if n > 1 else [])
                assert calls[:len(in_prepare)] == in_prepare
                assert calls[len(in_prepare):] == screen + [
                    ("eigh", (1, m, m))] + psd


def test_trailing_minimum_is_the_smallest_gram_eigenvalue():
    rng = np.random.default_rng(RNG_SEED + 8)
    for n in (1, 2, 4):
        for draw in (random_feasible_instance, random_deficient_instance):
            seq, _ = draw(rng, n, 2)
            result = solve_truncated(seq)
            assert (result.condition.min_eig_trailing
                    == result.gram_eigenvalues[-1])


def test_default_parameter_is_opposite_the_forbidden_operator(seq_101):
    ws = prepare(seq_101)
    parameter, report, theta = default_parameter(ws)
    assert theta is None
    assert np.array_equal(parameter.matrix, -ws.forbidden)
    assert report.margin == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert np.allclose(parameter.constant_matrix(1), np.eye(1))


def test_solve_default_returns_the_frozen_measure(seq_101):
    result = solve_truncated(seq_101)
    assert result.kind == "atomic"
    assert result.defect == 1
    assert result.gram_rank == 2
    assert np.allclose(result.measure.locations, [-1.0, 1.0],
                       atol=ORACLE_ATOL)
    assert np.allclose([w[0, 0] for w in result.measure.weights], [0.5, 0.5],
                       atol=ORACLE_ATOL)
    assert result.verification.passed
    assert result.verification.max_deviation <= 1e-12


def test_solve_rejects_an_inadmissible_parameter(seq_101):
    with pytest.raises(NotAdmissible):
        solve_truncated(seq_101,
                        parameter=ExtensionParameter.unimodular(np.pi, 1))


def test_contraction_route_recovers_the_moments(seq_101):
    parameter = ExtensionParameter.contraction(np.zeros((1, 1)))
    result = solve_truncated(seq_101, parameter=parameter)
    assert result.kind == "transform"
    assert result.measure is None
    assert result.recovery is not None
    assert result.verification.passed
    assert result.verification.max_deviation <= 1e-10
    assert len(result.transform_samples) == 3


def test_unique_extension_when_the_defect_vanishes():
    rng = np.random.default_rng(RNG_SEED)
    seq, truth = random_deficient_instance(rng, 1, 2)
    result = solve_truncated(seq)
    assert result.defect == 0
    assert result.kind == "atomic"
    assert result.verification.passed
    # The unique solution is the generating measure itself.
    assert measure_distance(result.measure, truth, site_tol=1e-6) <= 1e-7
    with pytest.raises(ValueError):
        theta_sweep(seq)


@pytest.mark.parametrize("grid", [{"n_thetas": 0}, {"n_thetas": -3},
                                  {"thetas": []}])
def test_sweep_refuses_an_empty_angle_grid(seq_101, grid):
    with pytest.raises(ValueError, match="angle grid is empty"):
        theta_sweep(seq_101, **grid)


@pytest.mark.parametrize("thetas,match", [
    ([1.0, np.nan, np.inf, 2.0], "non-finite"), ([[1.0, 2.0]], "one-dim"),
    (1.0, "one-dim")])
def test_sweep_refuses_a_misshapen_or_non_finite_grid(monkeypatch, thetas,
                                                      match):
    # Let through, NaN and inf came back as forbidden angles, a false
    # verdict about the data, and a 2-D grid died in the sweep.  The grid
    # is refused before anything is prepared.
    def no_prepare(*args):
        raise AssertionError("prepared before the grid was checked")
    monkeypatch.setattr(momext.pipeline, "prepare", no_prepare)
    with pytest.raises(ValueError, match=match):
        theta_sweep(MomentSequence.scalar([1, 0, 1, 0, 3]), thetas=thetas)


def test_one_by_one_closed_forms_in_prepare_are_the_eigh_route():
    # At N = 1 the Schur complement Sigma is 1 x 1, and at q = 1 so is the
    # Gram matrix G of the defect bases; prepare takes
    # F = sqrt(max(Re Sigma, 0)) and G^{-1/2} = 1 / sqrt(Re G) for them.
    # LAPACK's eigh returns (Re a, [1]) at n = 1, so the eigh route of
    # N >= 2 and q >= 2 gives the same bytes.
    rng = np.random.default_rng(RNG_SEED + 11)
    seen = set()
    for n, d in ((1, 1), (1, 3), (1, 6), (2, 2), (2, 4), (3, 3)):
        for draw in (random_feasible_instance, random_deficient_instance):
            seq, _ = draw(rng, n, d)
            ws = prepare(seq)
            dn, m, q = d * n, ws.space.ambient_dim, ws.defect
            if n == 1:
                h = build_block_hankel(seq, d).matrix
                y = ws.space.coords[dn:, :dn]
                schur = h[dn:, dn:] - y @ np.conj(y.T)
                sw, su = np.linalg.eigh(0.5 * (schur + np.conj(schur.T)))
                top = slice(dn + n - m, n)
                f = (phase_canonicalize(su[:, top])
                     * np.sqrt(np.maximum(sw[top], 0.0))[None, :])
                assert ws.space.coords[dn:, dn:].tobytes() == \
                    f.astype(complex).tobytes()
                seen.add("N = 1")
            if q == 1:
                shift = ws.shift
                e = shift.action[dn:]
                corner = shift.jacobi[dn - n:, dn - n:]
                z0 = complex(np.trace(corner).real / n,
                             np.sqrt(np.vdot(shift.tail, shift.tail).real))
                points = np.array([np.conj(z0), z0])[:, None, None]
                cols = np.linalg.solve(shift.jacobi - points * np.eye(dn),
                                       np.conj(e.T))
                w, u = np.linalg.eigh(1.0 + np.conj(cols[1].T) @ cols[1])
                root_inv = (u / np.sqrt(w)) @ np.conj(u.T)
                bases = np.empty((2, dn + 1, 1), dtype=complex)
                bases[:, :dn] = -cols
                bases[:, dn:] = 1.0
                bases = bases @ root_inv
                k = cols[:, :n] @ root_inv
                left, _, right = np.linalg.svd(np.conj(k[1].T) @ k[0])
                assert ws.pair.basis_plus.tobytes() == bases[0].tobytes()
                assert ws.pair.basis_minus.tobytes() == \
                    (bases[1] @ left @ right).tobytes()
                seen.add(f"q = 1, N = {n}")
    assert {"N = 1", "q = 1, N = 1", "q = 1, N = 2"} <= seen


def test_sweep_flags_the_forbidden_angle(seq_101):
    res = theta_sweep(seq_101, n_thetas=8)
    assert res.thetas.shape == (8,)
    assert np.allclose(res.forbidden_thetas, [np.pi], atol=1e-12)
    admissible = [e for e in res.entries if e.admissibility.admissible]
    assert len(admissible) == 7
    for entry in admissible:
        assert entry.verification.passed
    # All admissible angles give genuinely different measures.
    dm = res.distance_matrix
    for i in range(8):
        for j in range(8):
            if i == j:
                continue
            if res.entries[i].measure is None or res.entries[j].measure is None:
                assert np.isnan(dm[i, j])
            else:
                assert dm[i, j] > 1e-3
                assert dm[i, j] == pytest.approx(dm[j, i], rel=1e-12)


def test_sweep_distances_are_the_pairwise_measure_distances():
    rng = np.random.default_rng(RNG_SEED + 3)
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, 12)
    for n in (1, 2):
        seq, _ = random_feasible_instance(rng, n, 4)
        res = theta_sweep(seq, thetas=np.append(thetas, np.pi))
        k = len(res.entries)
        expected = np.full((k, k), np.nan)
        for i, ei in enumerate(res.entries):
            for j, ej in enumerate(res.entries):
                if ei.measure is not None and ej.measure is not None:
                    expected[i, j] = (0.0 if i == j else measure_distance(
                        ei.measure, ej.measure, site_tol=1e-3))
        assert np.array_equal(res.distance_matrix, expected, equal_nan=True)


def test_sweep_reads_its_verifications_and_distances_off_one_stack():
    # The sweep verifies its measures and measures their distances on the
    # one padded stack of atoms its assembly hands over, and still every
    # report is verify_moments of its entry's measure and every distance
    # is measure_distance of its two measures, bit for bit, with an
    # inadmissible angle left out of the stack.
    rng = np.random.default_rng(RNG_SEED + 9)
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, 16)
    for n, d in ((1, 2), (1, 6), (2, 3), (4, 2)):
        seq, _ = random_feasible_instance(rng, n, d)
        ws = prepare(seq)
        eigen_angle = np.angle(np.linalg.eigvals(ws.forbidden)[0])
        res = theta_sweep(seq, thetas=np.insert(thetas, 5, eigen_angle))
        admitted = [i for i, e in enumerate(res.entries)
                    if e.measure is not None]
        assert len(admitted) == len(thetas)
        for entry in res.entries:
            if entry.measure is None:
                assert entry.verification is None
            else:
                assert entry.verification == verify_moments(entry.measure,
                                                            seq)
        want = np.zeros((len(admitted),) * 2)
        for a, i in enumerate(admitted):
            for b, j in enumerate(admitted[:a]):
                want[a, b] = want[b, a] = measure_distance(
                    res.entries[i].measure, res.entries[j].measure,
                    site_tol=SWEEP_SITE_TOL)
        got = res.distance_matrix[np.ix_(admitted, admitted)]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_sweep_entries_are_the_single_angle_solves():
    # The sweep runs all angles in one array pass; each entry must still be
    # exactly what its angle gives alone, including an angle at an
    # eigen-angle of the forbidden operator, which must be flagged.
    rng = np.random.default_rng(RNG_SEED + 4)
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, 12)
    for n in (1, 2, 4):
        for _ in range(2):
            seq, _ = random_feasible_instance(rng, n, 3)
            ws = prepare(seq)
            eigen_angle = np.angle(np.linalg.eigvals(ws.forbidden)[0])
            res = theta_sweep(seq, thetas=np.append(thetas, eigen_angle))
            assert not res.entries[-1].admissibility.admissible
            assert res.entries[-1].measure is None
            for entry in res.entries:
                parameter = ExtensionParameter.unimodular(entry.theta,
                                                          ws.defect)
                assert entry.admissibility == is_admissible(
                    parameter.matrix, ws.shift, ws.pair, ws.forbidden)
                if entry.measure is None:
                    continue
                alone = solve_truncated(seq, parameter)
                assert np.array_equal(entry.measure.locations,
                                      alone.measure.locations)
                assert np.array_equal(entry.measure.weights,
                                      alone.measure.weights)
                assert entry.verification == alone.verification


def test_sweep_assembly_and_verification_do_not_grow_with_the_angles(
        monkeypatch):
    # On an unclustered sweep the atoms of every angle are assembled with
    # one batched PSD Cholesky (none at N = 1), no eigvalsh and no
    # from_atoms call, and verified with one einsum, whatever the number of
    # angles.
    calls = []
    for name in ("eigvalsh", "cholesky", "einsum"):
        module = np if name == "einsum" else np.linalg

        def counting(*args, _real=getattr(module, name), _name=name,
                     **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    from_atoms = AtomicMatrixMeasure.from_atoms.__func__

    def counting_from_atoms(cls, *args, **kwargs):
        calls.append("from_atoms")
        return from_atoms(cls, *args, **kwargs)
    monkeypatch.setattr(AtomicMatrixMeasure, "from_atoms",
                        classmethod(counting_from_atoms))

    def counted(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return {name: calls.count(name)
                for name in ("eigvalsh", "cholesky", "einsum", "from_atoms")}

    rng = np.random.default_rng(RNG_SEED + 5)
    for n in (1, 2, 4):
        seq, _ = random_feasible_instance(rng, n, 3)
        in_prepare = counted(prepare, seq)
        for k in (8, 32):
            in_sweep = counted(theta_sweep, seq,
                               thetas=np.linspace(1.0, 2.0 * np.pi - 1.0, k))
            assert {name: in_sweep[name] - in_prepare[name]
                    for name in in_sweep} == {"eigvalsh": 0,
                                              "cholesky": int(n > 1),
                                              "einsum": 1, "from_atoms": 0}


def test_repeated_solves_are_bitwise_identical():
    rng = np.random.default_rng(RNG_SEED + 1)
    seq, _ = random_feasible_instance(rng, 2, 2)
    a = solve_truncated(seq)
    b = solve_truncated(seq)
    assert np.array_equal(a.measure.locations, b.measure.locations)
    assert np.array_equal(a.measure.weights, b.measure.weights)
    assert np.array_equal(a.gram_eigenvalues, b.gram_eigenvalues)
    assert a.admissibility == b.admissibility


def test_random_instances_solve_to_tight_tolerance():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        seq, _ = random_feasible_instance(rng, n, d)
        result = solve_truncated(seq)
        assert result.verification.passed, (n, d)
        assert result.verification.max_deviation \
            <= 1e-7 * result.verification.scale


def _intertwiner(ws_src, ws_dst, u):
    """Coordinates of the unitary intertwining the two Gram models.

    The destination vectors y_{r, l} = sum_k conj(u[k, l]) x'_{r, k} have
    the same Gram matrix as the source vectors x_{r, l}, so x_{r, l} -> y
    extends to a unitary that carries the source shift onto the destination
    shift.
    """
    n = ws_src.condition.block_dim
    d = ws_src.condition.order
    coords_dst = ws_dst.space.coords
    y = np.zeros_like(coords_dst)
    for r in range(d + 1):
        for l in range(n):
            for k in range(n):
                y[r * n + l] += np.conj(u[k, l]) * coords_dst[r * n + k]
    t_map, *_ = np.linalg.lstsq(ws_src.space.coords, y, rcond=None)
    return t_map.T


def test_unitary_invariance_of_the_whole_construction():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(5):
        n, d = 2, 2
        seq, _ = random_feasible_instance(rng, n, d)
        u = haar_unitary(rng, n)
        seq_u = MomentSequence.from_arrays(
            [u @ seq[k] @ u.conj().T for k in range(len(seq))])

        ws = prepare(seq)
        ws_u = prepare(seq_u)
        assert ws.defect == ws_u.defect

        t_map = _intertwiner(ws, ws_u, u)
        assert np.allclose(t_map.conj().T @ t_map,
                           np.eye(ws.space.ambient_dim), atol=1e-9)

        # Transport a random admissible parameter through the intertwiner.
        parameter = random_admissible_isometry(rng, ws.shift, ws.pair,
                                               ws.forbidden)
        v = parameter.constant_matrix(ws.defect)
        c_plus = ws_u.pair.basis_plus.conj().T @ (t_map @ ws.pair.basis_plus)
        c_minus = ws_u.pair.basis_minus.conj().T @ (t_map @ ws.pair.basis_minus)
        v_u = c_minus @ v @ c_plus.conj().T

        ext = selfadjoint_extension(ws.shift, ws.pair, parameter)
        measure = spectral_measure(ext, ws.shift)
        ext_u = selfadjoint_extension(ws_u.shift, ws_u.pair,
                                      ExtensionParameter.isometric(v_u))
        measure_u = spectral_measure(ext_u, ws_u.shift)

        assert measure.n_atoms == measure_u.n_atoms
        assert np.allclose(measure.locations, measure_u.locations, atol=1e-8)
        for w, w_u in zip(measure.weights, measure_u.weights):
            assert np.allclose(u @ w @ u.conj().T, w_u, atol=1e-8)
