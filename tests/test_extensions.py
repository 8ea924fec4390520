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
- the default V = -X in closed form: its last block B = Re Omega is
  Hermitian bit for bit and within 1e-12 * scale of the q x q solve
  B(-X); solve_truncated, selfadjoint_extension(default_parameter(ws))
  and the sweep's batched kernel on a stack holding -X as one row give
  the same G,
- the Hermitization of B(V) alone: bit for bit 0.5 (G + G^H) and the
  whole-matrix residual, on random stacks at N = 1, 2, 3,
- non-finite parameter matrices refused where they are made, and so is
  a stack of parameters, before it reaches any public entry point,
- the forbidden operator refused by every route at one gate, with one
  NotAdmissible message and the margin of the screen,
- one report per parameter on every route: screen_parameter, a
  transform's admissibility and solve_truncated's give the same report,
  gap to X included, for isometric and contraction parameters.
"""

from __future__ import annotations

import numpy as np
import pytest

from momext import (DEFAULT, DimensionMismatch, ExtensionParameter,
                    NormViolation, NotAdmissible, StieltjesTransform,
                    build_block_hankel, build_shift, default_parameter,
                    deficiency_subspaces, factor_psd, is_admissible,
                    moments_from_transform, pencil_spectral_radius,
                    perron_inversion, prepare, selfadjoint_extension,
                    solve_truncated)
from momext.extensions import (KIND_ISOMETRIC, _generator, _hermitize,
                               screen_parameter)
from momext.sampling import (random_admissible_isometry,
                             random_deficient_instance,
                             random_feasible_instance,
                             random_strict_contraction)

RNG_SEED = 20260804
ORACLE_ATOL = 1e-12


def _operator_stage(seq):
    space = factor_psd(build_block_hankel(seq, (len(seq) - 1) // 2))
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
        space, shift, pair = _operator_stage(seq)
        parameter = random_admissible_isometry(rng, shift, pair)
        ext = selfadjoint_extension(shift, pair, parameter)
        assert np.allclose(ext.matrix, ext.matrix.conj().T, atol=0)
        scale = max(1.0, float(np.abs(ext.matrix).max()))
        # x_0..x_{dN-1} go to x_N..x_{dN+N-1}
        dn = shift.dom_dim
        assert np.allclose(ext.matrix @ space.coords[:dn].T,
                           space.coords[n:dn + n].T, atol=1e-8 * scale)


def test_scalar_extension_stacks_are_real():
    # At N = 1 the moments, the frame, J_0 and E are real, and B(V) is
    # 1 x 1, so hermitizing leaves it real: every extension of the
    # unimodular family and the default one alike has exactly zero
    # imaginary parts, and spectral_measure runs the real eigh on it.
    rng = np.random.default_rng(RNG_SEED + 4)
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, 16)
    for d in (1, 2, 3, 4, 6):
        for _ in range(4):
            seq, _ = random_feasible_instance(rng, 1, d)
            _, shift, pair = _operator_stage(seq)
            assert pair.defect == 1
            for theta in thetas:
                parameter = ExtensionParameter.unimodular(theta, 1)
                if not is_admissible(parameter.matrix, shift,
                                     pair).admissible:
                    continue
                ext = selfadjoint_extension(shift, pair, parameter)
                assert ext.matrix.shape == (d + 1, d + 1)
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
    # solve, the staged chain and a row of the sweep's batched kernel
    # (_generator, then _hermitize) all give the same G.
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
                g = _generator(ws.shift, ws.pair, parameter.matrix)
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
                rows = _generator(ws.shift, ws.pair,
                                  np.stack([others[0], v, others[1]]))
                residuals = _hermitize(ws.shift, rows)
                assert np.array_equal(rows[1], g)
                assert residuals[1] == staged.herm_residual
                for k, other in ((0, others[0]), (2, others[1])):
                    alone = selfadjoint_extension(
                        ws.shift, ws.pair, ExtensionParameter.isometric(other))
                    assert np.array_equal(rows[k], alone.matrix)
                    assert residuals[k] == alone.herm_residual


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
                           matrix=np.full((2, 2), bad, dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        ExtensionParameter.unimodular(np.nan, 2)


def _entry_points(seq, ws):
    """Each public call that takes a parameter, as a function of it."""
    def transform(parameter):
        return StieltjesTransform(ws.shift, ws.pair, parameter)
    return {
        "solve_truncated": lambda p: solve_truncated(seq, p),
        "selfadjoint_extension":
            lambda p: selfadjoint_extension(ws.shift, ws.pair, p),
        "StieltjesTransform": lambda p: transform(p)(1j),
        "moments_from_transform":
            lambda p: moments_from_transform(transform(p), 4),
        "perron_inversion":
            lambda p: perron_inversion(transform(p), -2.0, 2.0, 0.5),
    }


@pytest.mark.parametrize("entry", ["solve_truncated", "selfadjoint_extension",
                                   "StieltjesTransform",
                                   "moments_from_transform",
                                   "perron_inversion", "is_admissible",
                                   "pencil_spectral_radius"])
def test_a_stack_of_parameters_is_refused_on_entry(seq_101, entry):
    # Every public stage takes one q x q parameter.  A (K, q, q) stack is
    # refused with ValueError where it enters: when the parameter is made,
    # or by the calls that take a bare matrix.  Let through, it crashed
    # solve_truncated (AttributeError on a tuple of reports), the
    # transform at 1j (a numpy broadcast error) and perron_inversion
    # (AttributeError on a tuple of measures).
    ws = prepare(seq_101)
    stack = np.exp(1j * np.array([0.1, 0.2]))[:, None, None]
    if entry == "is_admissible":
        with pytest.raises(ValueError, match=r"1 x 1, got \(2, 1, 1\)"):
            is_admissible(stack, ws.shift, ws.pair, ws.forbidden)
        return
    if entry == "pencil_spectral_radius":
        with pytest.raises(ValueError, match="2-d"):
            pencil_spectral_radius(ws.shift, ws.pair, stack)
        return
    call = _entry_points(seq_101, ws)[entry]
    for make in (lambda: ExtensionParameter.unimodular(np.array([0.1, 0.2])),
                 lambda: ExtensionParameter.isometric(stack),
                 lambda: ExtensionParameter.contraction(0.5 * stack),
                 lambda: ExtensionParameter(kind=KIND_ISOMETRIC,
                                            matrix=stack)):
        with pytest.raises(ValueError, match="2-d"):
            call(make())
    # the single parameter passes every entry point
    call(ExtensionParameter.unimodular(0.1))


@pytest.mark.parametrize("entry", ["solve_truncated", "selfadjoint_extension",
                                   "StieltjesTransform",
                                   "moments_from_transform",
                                   "perron_inversion"])
def test_every_route_refuses_the_forbidden_operator_at_one_gate(seq_101,
                                                                entry):
    # X itself is never admissible.  Every route that takes a parameter
    # refuses it, as an isometry and as a contraction, at one gate: the
    # same NotAdmissible message and the margin the screen measures.  With
    # a gate of its own, solve_truncated worded the refusal another way.
    rng = np.random.default_rng(RNG_SEED + 31)
    for seq in (seq_101, random_feasible_instance(rng, 2, 2)[0]):
        ws = prepare(seq)
        x = ws.forbidden
        margin = is_admissible(x, ws.shift, ws.pair).margin
        kinds = [ExtensionParameter.isometric]
        if entry != "selfadjoint_extension":
            kinds.append(ExtensionParameter.contraction)
        for kind in kinds:
            with pytest.raises(NotAdmissible) as refused:
                _entry_points(seq, ws)[entry](kind(x))
            assert refused.value.margin == margin
            assert str(refused.value) == (
                f"parameter is not admissible (margin {margin:.3e}, floor "
                f"{DEFAULT.adm_abs:.1e})")


def test_every_route_gives_one_report_per_parameter(seq_101):
    # The screen, a transform's admissibility and a solve report the same
    # numbers, field for field, and each measures the gap to X.  Before,
    # a transform kept no report and its screen measured no gap.
    rng = np.random.default_rng(RNG_SEED + 32)
    for seq in (seq_101, random_feasible_instance(rng, 2, 2)[0]):
        ws = prepare(seq)
        q = ws.defect
        assert q
        isometry = random_admissible_isometry(rng, ws.shift, ws.pair,
                                              ws.forbidden, min_margin=0.1)
        contraction = ExtensionParameter.contraction(
            random_strict_contraction(rng, q))
        for parameter in (isometry, contraction):
            report = screen_parameter(ws.pair, parameter)
            assert isinstance(report.forbidden_gap, float)
            transform = StieltjesTransform(ws.shift, ws.pair, parameter)
            assert transform.admissibility == report
            assert solve_truncated(seq, parameter).admissibility == report
