"""Self-adjoint extensions, their transforms, and parameter validation.

Checked here:
- the hand-derived one-parameter family for (1, 0, 1):
  A(theta) = [[0, 1], [1, -2 tan(theta/2)]] on the admissible angles,
- extensions restrict the shift on its domain and are Hermitian,
- the hand value T(i) = ((A(0) - i)^{-1} e_0, e_0) = i/2,
- the mirror branch T(conj lam) = T(lam)^H: for isometric parameters it is
  the rational upper branch continued below the axis, and real lam is
  rejected,
- pencil geometry: singularities of the (1, 0, 1) family sit at the atom
  positions +-1,
- parameter validation (shape, norm, isometry defect),
- stacked parameters: each slice of a batched extension is its parameter's
  own, and the gate names an inadmissible member,
- the default V = -X in closed form: its last block B = Re Omega is
  Hermitian bit for bit and within 1e-12 * scale of the q x q solve
  B(-X); solve_truncated, selfadjoint_extension(default_parameter(ws))
  and a stack holding -X as one row give the same G,
- the Hermitization of B(V) alone: bit for bit 0.5 (G + G^H) and the
  whole-matrix residual, on random stacks at N = 1, 2, 3,
- non-finite parameter matrices refused where they are made.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import (DimensionMismatch, ExtensionParameter, NormViolation,
                    NotAdmissible, StieltjesTransform, build_block_hankel,
                    build_shift, default_parameter, deficiency_subspaces,
                    factor_psd, is_admissible, pencil_spectral_radius,
                    prepare, selfadjoint_extension, solve_truncated)
from momext.extensions import (KIND_ISOMETRIC, _generator, _hermitize,
                               quasi_extension)
from momext.sampling import (random_admissible_isometry,
                             random_deficient_instance,
                             random_feasible_instance,
                             random_strict_contraction)

RNG_SEED = 20260804
ORACLE_ATOL = 1e-12


def _operator_stage(seq):
    space = factor_psd(build_block_hankel(seq, seq.max_hankel_order))
    shift = build_shift(space)
    pair = deficiency_subspaces(shift)
    return space, shift, pair


def _family_member(seq, theta):
    _, shift, pair = _operator_stage(seq)
    parameter = ExtensionParameter.unimodular(theta, defect=pair.defect)
    return shift, pair, selfadjoint_extension(shift, pair, parameter)


def test_parameter_shape_validation(seq_101):
    _, shift, pair = _operator_stage(seq_101)
    wrong = ExtensionParameter.isometric(np.eye(2))
    with pytest.raises(DimensionMismatch):
        wrong.constant_matrix(pair.defect)


def test_parameter_norm_validation():
    with pytest.raises(NormViolation):
        ExtensionParameter.contraction(1.01 * np.eye(1)).constant_matrix(1)
    with pytest.raises(NormViolation):
        # Not an isometry: singular value 0.5.
        ExtensionParameter.isometric(0.5 * np.eye(1)).constant_matrix(1)


def test_forbidden_angle_raises(seq_101):
    _, shift, pair = _operator_stage(seq_101)
    parameter = ExtensionParameter.unimodular(np.pi, defect=1)
    with pytest.raises(NotAdmissible):
        selfadjoint_extension(shift, pair, parameter)


def test_stacked_parameters_are_the_single_ones(seq_101):
    # A (K, q, q) stack runs as one batch; each slice is what its parameter
    # gives alone, and an inadmissible member is named by its margin.
    _, shift, pair = _operator_stage(seq_101)
    thetas = np.array([0.0, np.pi / 2, 2.0 * np.pi / 3])
    stack = selfadjoint_extension(shift, pair, ExtensionParameter.unimodular(
        thetas, defect=1))
    assert stack.matrix.shape == (3, 2, 2) and stack.herm_residual.shape == (3,)
    for k, theta in enumerate(thetas):
        _, _, alone = _family_member(seq_101, theta)
        assert np.array_equal(stack.matrix[k], alone.matrix)
        assert stack.herm_residual[k] == alone.herm_residual
    with pytest.raises(NotAdmissible) as info:
        selfadjoint_extension(shift, pair, ExtensionParameter.unimodular(
            np.append(thetas, np.pi), defect=1))
    assert info.value.margin <= 1e-12


def test_hand_derived_extension_family(seq_101):
    for theta in (0.0, np.pi / 2, -np.pi / 2, 2.0 * np.pi / 3):
        _, _, ext = _family_member(seq_101, theta)
        expected = np.array([[0.0, 1.0],
                             [1.0, -2.0 * np.tan(theta / 2.0)]])
        assert np.allclose(ext.matrix, expected, atol=1e-10), theta
        assert ext.herm_residual <= 1e-12


def test_extensions_are_hermitian_and_extend_the_shift():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        seq, _ = random_feasible_instance(rng, n, d)
        _, shift, pair = _operator_stage(seq)
        parameter = random_admissible_isometry(rng, shift, pair)
        ext = selfadjoint_extension(shift, pair, parameter)
        assert np.allclose(ext.matrix, ext.matrix.conj().T, atol=0)
        scale = max(1.0, float(np.abs(ext.matrix).max()))
        assert np.allclose(ext.matrix @ shift.dom_matrix, shift.shift_matrix,
                           atol=1e-8 * scale)


def test_scalar_extension_stacks_are_real():
    # At N = 1 the moments, the frame, J_0 and E are real, and B(V) is
    # 1 x 1, so hermitizing leaves it real: every extension, a stack of
    # them and the default one alike, has exactly zero imaginary parts,
    # and spectral_measure runs the real eigh on it.
    rng = np.random.default_rng(RNG_SEED + 4)
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, 16)
    for d in (1, 2, 3, 4, 6):
        for _ in range(4):
            seq, _ = random_feasible_instance(rng, 1, d)
            _, shift, pair = _operator_stage(seq)
            assert pair.defect == 1
            stack = ExtensionParameter.unimodular(thetas, 1)
            reports = is_admissible(stack.matrix, shift, pair)
            admitted = thetas[[r.admissible for r in reports]]
            ext = selfadjoint_extension(
                shift, pair, ExtensionParameter.unimodular(admitted, 1))
            assert ext.matrix.shape == (len(admitted), d + 1, d + 1)
            assert not ext.matrix.imag.any()
            assert not solve_truncated(seq).extension.matrix.imag.any()


def test_hand_resolvent_value(seq_101):
    # (A(0) - i)^{-1} e_0 = (i/2, 1/2), so T(i) = i/2.
    shift, pair, _ = _family_member(seq_101, 0.0)
    parameter = ExtensionParameter.unimodular(0.0, defect=1)
    t = StieltjesTransform(shift, pair, parameter)
    assert np.allclose(t(1j), [[0.5j]], atol=ORACLE_ATOL)


def test_mirror_branch_is_the_adjoint():
    # For an isometric parameter T is rational with real poles, so the
    # mirror branch must equal the upper branch continued below the axis;
    # for a strict contraction it is the adjoint by construction.
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        seq, _ = random_feasible_instance(rng, n, d)
        _, shift, pair = _operator_stage(seq)
        lam = complex(rng.standard_normal(), 0.3 + rng.random())
        t = StieltjesTransform(shift, pair,
                               random_admissible_isometry(rng, shift, pair))
        continued = t.eval_upper_many([np.conj(lam)])[0]
        assert np.allclose(t(np.conj(lam)), continued, atol=1e-8)
        t = StieltjesTransform(shift, pair, ExtensionParameter.contraction(
            random_strict_contraction(rng, pair.defect)))
        assert np.allclose(t(np.conj(lam)), t(lam).conj().T, atol=1e-8)


def test_real_lambda_is_rejected(seq_101):
    _, shift, pair = _operator_stage(seq_101)
    parameter = ExtensionParameter.unimodular(0.0, defect=1)
    with pytest.raises(ValueError):
        StieltjesTransform(shift, pair, parameter)(0.5)


def test_singularities_sit_at_the_atoms(seq_101):
    _, shift, pair = _operator_stage(seq_101)
    vmat = np.eye(1, dtype=complex)
    # A(0) has eigenvalues -1 and +1, so the outermost singularity has
    # modulus 1.
    assert pencil_spectral_radius(shift, pair, vmat) == pytest.approx(
        1.0, abs=1e-10)


def test_default_parameter_closes_the_jacobi_matrix_with_re_omega():
    # V = -X gives B = Re Omega without the q x q solve: G is exactly
    # Hermitian, its last block agrees with the solve it skips, and the
    # solve, the staged chain and a stacked row all give the same G.
    rng = np.random.default_rng(RNG_SEED + 3)
    for n in (1, 2, 4):
        for d in (1, 3):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                ws = prepare(seq)
                q, dn = ws.defect, ws.shift.dom_dim
                if not q:
                    continue
                parameter, _, _ = default_parameter(ws)
                g = quasi_extension(ws.shift, ws.pair, parameter)
                assert np.array_equal(g, np.conj(g.T))
                plus, minus = ws.pair.complement_rows
                omega = ws.pair.omega
                v = parameter.matrix
                solved = np.linalg.solve(
                    (minus @ v - plus).T,
                    (omega @ minus @ v - np.conj(omega.T) @ plus).T).T
                scale = max(1.0, float(np.abs(omega).max()))
                assert np.abs(g[dn:, dn:] - solved).max() <= 1e-12 * scale
                staged = selfadjoint_extension(ws.shift, ws.pair, parameter)
                assert np.array_equal(staged.matrix, g)
                assert np.array_equal(solve_truncated(seq).extension.matrix,
                                      g)
                others = [random_admissible_isometry(
                    rng, ws.shift, ws.pair, ws.forbidden,
                    min_margin=0.1).matrix for _ in range(2)]
                stack = ExtensionParameter(
                    kind=KIND_ISOMETRIC,
                    matrix=np.stack([others[0], v, others[1]]))
                rows = selfadjoint_extension(ws.shift, ws.pair, stack)
                assert np.array_equal(rows.matrix[1], g)
                assert rows.herm_residual[1] == staged.herm_residual
                for k, other in ((0, others[0]), (2, others[1])):
                    alone = selfadjoint_extension(
                        ws.shift, ws.pair, ExtensionParameter.isometric(other))
                    assert np.array_equal(rows.matrix[k], alone.matrix)


def test_only_the_last_block_is_hermitized():
    # The frame of G is Hermitian as written (J_0 by build_shift, E^H as
    # the exact adjoint of E), so _hermitize makes B(V) alone Hermitian.
    # The matrix is still 0.5 (G + G^H), and the residual the defect of the
    # whole matrix over its scale, bit for bit.
    rng = np.random.default_rng(RNG_SEED + 21)
    for n in (1, 2, 3):
        for draw in (random_feasible_instance, random_deficient_instance):
            seq, _ = draw(rng, n, 3)
            ws = prepare(seq)
            if not ws.defect:
                continue
            vmat = np.array([random_admissible_isometry(
                rng, ws.shift, ws.pair).matrix for _ in range(8)])
            g = _generator(ws.shift, ws.pair, vmat)
            gh = np.conj(np.swapaxes(g, -1, -2))
            want = 0.5 * (g + gh)
            scale = np.maximum(np.abs(g).max(axis=(-2, -1), initial=0.0), 1.0)
            want_residual = np.maximum(
                np.abs(g - gh).max(axis=(-2, -1), initial=0.0) / scale,
                ws.shift.herm_residual)
            residual = _hermitize(ws.shift, g)
            assert np.array_equal(g, want)
            assert residual.tobytes() == want_residual.tobytes()
            ext = selfadjoint_extension(
                ws.shift, ws.pair, ExtensionParameter.isometric(vmat[1]))
            assert np.array_equal(ext.matrix, want[1])
            assert ext.herm_residual == want_residual[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_are_refused_on_entry(bad):
    # Let through, a NaN entry passed the norm and isometry checks and was
    # then refused as "margin nan".
    for make in (ExtensionParameter.isometric, ExtensionParameter.contraction):
        with pytest.raises(ValueError, match="non-finite"):
            make([[bad]])
    with pytest.raises(ValueError, match="non-finite"):
        ExtensionParameter(kind=KIND_ISOMETRIC,
                           matrix=np.full((2, 1, 1), bad, dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        ExtensionParameter.unimodular([0.0, np.nan])
