"""Covariance of the solutions under the symmetries of the moment problem.

Checked here, on seeded full-defect and rank-drop draws with N in
{1, 2, 3} and d in {1..4}:
- affine maps x -> a x + b (a in [0.3, 3], b in [-2, 2]): the moments of
  the image measure give the default solution, and the solution of a
  fixed admissible V, mapped atom by atom t -> a t + b with equal
  weights,
- unitary conjugation S_n -> U S_n U^H: the default solution and those of
  e^{i theta} I keep their atoms, and their weights are conjugated by U,
- scaling S_n -> c S_n (c in {1e-6, 1e6}): the Perron cell masses of a
  strict contraction scale by c, to 1e-12 on random draws, and on the
  double pole of the zero contraction on (c, 0, c) to its accuracy, that
  of c times the closed-form CDF,
- the worked instance: (1, 1, 5), the image of (1, 0, 1) under
  x -> 2x + 1, solves to atoms -1 and 3 with weights 1/2.
"""

from __future__ import annotations

from math import comb

import numpy as np
import pytest

from momext import (ExtensionParameter, MomentSequence, perron_inversion,
                    prepare, solve_truncated)
from momext.sampling import (haar_unitary, random_admissible_isometry,
                             random_deficient_instance,
                             random_feasible_instance,
                             random_strict_contraction)

RNG_SEED = 20261101
AFFINE_REL = 1e-8
UNITARY_ATOL = 1e-9
SCALE_REL = 1e-12


def _draws(rng):
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            for draw in (random_feasible_instance, random_deficient_instance):
                seq, _ = draw(rng, n, d)
                yield n, d, seq


def _affine_image(seq, a, b):
    """The moments of the image measure under x -> a x + b."""
    return MomentSequence.from_arrays([
        sum(comb(k, j) * a ** j * b ** (k - j) * seq[j] for j in range(k + 1))
        for k in range(len(seq))])


def _mismatch(measure, image, a, b):
    """How far image is from measure mapped by t -> a t + b: the largest
    location error relative to max(1, |t|) and the largest weight error
    relative to max(1, largest weight entry)."""
    assert measure.n_atoms == image.n_atoms
    reach = np.maximum(np.abs(image.locations), 1.0)
    scale = max(1.0, float(np.abs(measure.weights).max()))
    return np.array([
        np.max(np.abs(a * measure.locations + b - image.locations) / reach),
        np.abs(measure.weights - image.weights).max() / scale])


def test_solutions_follow_affine_maps_of_the_line():
    # The bound is AFFINE_REL, or ten times the rounding spread of the
    # image solve where that is larger: the image data rounded a second
    # way (x -> x + b/a, then x -> a x) is the same problem in exact
    # arithmetic, and where close atoms make its weights ill-conditioned
    # the two roundings already disagree beyond AFFINE_REL.  No draw of
    # this seed needs it; with seed 11 an N = 2, d = 4 default solution
    # maps with weights off by 5.5e-8, where the two roundings differ by
    # 3.5e-8.
    rng = np.random.default_rng(RNG_SEED)
    for n, d, seq in _draws(rng):
        a, b = rng.uniform(0.3, 3.0), rng.uniform(-2.0, 2.0)
        image = _affine_image(seq, a, b)
        rounded = _affine_image(_affine_image(seq, 1.0, b / a), a, 0.0)
        ws = prepare(seq)
        parameters = [None]
        if ws.defect:
            parameters.append(random_admissible_isometry(
                rng, ws.shift, ws.pair, ws.forbidden, min_margin=0.25))
        for parameter in parameters:
            target = solve_truncated(image, parameter).measure
            spread = _mismatch(target,
                               solve_truncated(rounded, parameter).measure,
                               1.0, 0.0)
            error = _mismatch(solve_truncated(seq, parameter).measure,
                              target, a, b)
            assert np.all(error <= np.maximum(AFFINE_REL, 10.0 * spread)), (
                n, d, a, b, parameter is None, error, spread)


def test_solutions_follow_unitary_conjugation_of_the_data():
    rng = np.random.default_rng(RNG_SEED + 1)
    for n, d, seq in _draws(rng):
        u = haar_unitary(rng, n)
        rotated = MomentSequence.from_arrays(
            [u @ seq[k] @ u.conj().T for k in range(len(seq))])
        q = prepare(seq).defect
        parameters = [None] + [ExtensionParameter.unimodular(theta, q)
                               for theta in (1.0, 2.5) if q]
        for parameter in parameters:
            measure = solve_truncated(seq, parameter).measure
            image = solve_truncated(rotated, parameter).measure
            label = (n, d, parameter is None)
            assert measure.n_atoms == image.n_atoms, label
            assert np.abs(measure.locations - image.locations).max() <= \
                UNITARY_ATOL * max(1.0, np.abs(measure.locations).max()), label
            conjugated = u @ measure.weights @ u.conj().T
            assert np.abs(conjugated - image.weights).max() <= \
                UNITARY_ATOL, label


def test_the_image_of_the_worked_instance_under_2x_plus_1():
    result = solve_truncated(MomentSequence.scalar([1.0, 1.0, 5.0]))
    assert result.verification.passed
    assert np.allclose(result.measure.locations, [-1.0, 3.0], atol=1e-12)
    assert np.allclose(result.measure.weights[:, 0, 0], [0.5, 0.5],
                       atol=1e-12)


def _cells(seq, parameter, start=-4.0, stop=4.0, width=0.5):
    return perron_inversion(solve_truncated(seq, parameter).transform,
                            start, stop, width)


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_contraction_cells_scale_with_the_data(c):
    # G does not change under S_n -> c S_n and X scales by sqrt(c), so
    # every residue and cell mass scales by c; no check of the route may
    # hold an absolute threshold.
    rng = np.random.default_rng(RNG_SEED + 2)
    for n, d, seq in _draws(rng):
        parameter = ExtensionParameter.contraction(
            random_strict_contraction(rng, prepare(seq).defect))
        scaled = MomentSequence.from_arrays(
            [c * seq[k] for k in range(len(seq))])
        base = _cells(seq, parameter).increments
        got = _cells(scaled, parameter).increments
        scale = c * float(np.abs(seq[0]).max())
        assert np.abs(got - c * base).max() <= SCALE_REL * scale, (n, d)


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_zero_contraction_cells_scale_with_the_data(c):
    # F = 0 on (c, 0, c) has density 2c / (pi (1 + u^2)^2): a double pole
    # at -i, so cond(Z) ~ 9e7 and the residue sum cancels terms of that
    # size.  G is the same at every c, but X = sqrt(c) e_0 is rounded
    # differently, and the cancellation leaves the cells right only to
    # about eps cond(Z) ~ 4e-9 of c (8e-10 apart between c = 1 and 1e6):
    # their scaled bound is the CDF's, not SCALE_REL.
    zero = ExtensionParameter.contraction(np.zeros((1, 1)))
    base = _cells(MomentSequence.scalar([1.0, 0.0, 1.0]), zero, -2.0, 2.0,
                  0.25)
    res = _cells(MomentSequence.scalar([c, 0.0, c]), zero, -2.0, 2.0, 0.25)

    def cdf(u):
        return (c / np.pi) * (u / (1.0 + u * u) + np.arctan(u))

    exact = cdf(res.edges[1:]) - cdf(res.edges[:-1])
    assert np.abs(res.increments[:, 0, 0] - exact).max() <= 1e-8 * c
    assert np.abs(res.increments - c * base.increments).max() <= 1e-8 * c
