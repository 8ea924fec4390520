"""Scalar moment problems with an even number of prescribed moments.

Given real s_0, ..., s_{2d+1}, decide whether some nonnegative measure on
the line has exactly these power moments, and produce evidence:

  unique-zero             all moments vanish; the zero measure, uniquely.
  solvable-nondegenerate  every Hankel section up to order d is positive
                          definite; solutions form a genuine family.  The
                          witness is the canonical solution through
                          s_{2d+1}, and augmented_moment its own s_{2d+2} =
                          b^T H_d^{-1} b, the boundary of the family; the
                          certificate names a miss of its verification.
  unique-degenerate       positivity stops at order r < d: H_r is positive
                          definite and H_{r+1} singular.  The canonical
                          solution through s_{2r+1} (r+1 atoms, the roots
                          of the kernel polynomial) is the only candidate,
                          which is verified on all data.
  infeasible              a certificate explains which positivity or
                          reproduction requirement failed.

The canonical solution (Akhiezer's; the recursive extension of Curto and
Fialkow) closes the Jacobi matrix of the positive definite prefix
s_0..s_{2r} with the one real last entry that reproduces s_{2r+1}.  One
block Cholesky chain gives its frame and decides H_{r+1} (momext.hankel's
_rank_scan and _factor_prefix); rank_rel is not read.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import InsufficientMoments, NotPSD
from .extensions import _closure
from .hankel import GramSpace, MomentSequence, _factor_prefix, _rank_scan
from .measures import (ATOMIC_REL_TOL, AtomicMatrixMeasure, _assemble,
                       _spectral_atoms, verify_moments)
from .shift import build_shift
from .tolerances import DEFAULT, Tolerances

VERDICT_ZERO = "unique-zero"
VERDICT_NONDEGENERATE = "solvable-nondegenerate"
VERDICT_DEGENERATE = "unique-degenerate"
VERDICT_INFEASIBLE = "infeasible"


@dataclasses.dataclass(frozen=True, eq=False, kw_only=True)
class ScalarEvenResult:
    """Decision, evidence, and diagnostics for one even-length sequence;
    what the verdict does not give is None."""

    verdict: str
    rank_index: int | None = None           # r, when it was computed
    null_coeffs: np.ndarray | None = None   # monic polynomial, forced atoms
    measure: AtomicMatrixMeasure | None = None
    certificate: str
    max_deviation: float | None = None      # worst reproduction error
    augmented_moment: float | None = None   # the witness's own s_{2d+2}

    @property
    def roots(self) -> np.ndarray | None:
        """Atom locations of the evidence measure."""
        return None if self.measure is None else self.measure.locations

    @property
    def atom_weights(self) -> np.ndarray | None:
        return (None if self.measure is None
                else self.measure.weights[:, 0, 0].real)


_infeasible = functools.partial(ScalarEvenResult, verdict=VERDICT_INFEASIBLE)


def _canonical(space: GramSpace | None, s: np.ndarray, tol: Tolerances):
    """The canonical solution through s_{2r+1} of the positive definite
    prefix s_0..s_{2r}, whose Gram space (defect 1) is space (None at d = 0),
    and its own s_{2r+2}.  With x_r = [y, f], the shift's extension [[J_0,
    E^T], [E, B]] has (x_r, A x_r) = y^T J_0 y + 2 f E y + f^2 B, which the
    one real B makes s_{2r+1}; its r+1 atoms come off one eigh, s_{2r+2} =
    |A x_r|^2.  At r = 0 it is the atom s_1/s_0, mass s_0."""
    r = space.order if space else 0
    if r == 0:
        return (AtomicMatrixMeasure.from_atoms([s[1] / s[0]], [s[0]]),
                float(s[1] * s[1] / s[0]))
    shift, x = build_shift(space), space.coords[r].real
    y, f = x[:r], x[r]
    within = y @ shift.jacobi.real @ y + 2.0 * f * (shift.action[r].real @ y)
    g = _closure(shift, (), np.array([[(s[2 * r + 1] - within) / (f * f)]]))
    return (_assemble(*_spectral_atoms(g[None], shift, tol))[0],
            float(np.square(g.real @ x).sum()))


def solve_scalar_even(values, tol: Tolerances = DEFAULT) -> ScalarEvenResult:
    """Classify s_0..s_{2d+1} and return evidence for the verdict.  A
    non-finite moment raises ValueError."""
    values = np.asarray(values, dtype=float).reshape(-1)
    if len(values) < 2 or len(values) % 2 != 0:
        raise InsufficientMoments(
            f"need an even number (>= 2) of scalar moments, got {len(values)}")
    d, data = len(values) // 2 - 1, MomentSequence.scalar(values)
    scale = data._reach[-1]

    if scale == 0.0:
        return ScalarEvenResult(
            verdict=VERDICT_ZERO, max_deviation=0.0,
            measure=AtomicMatrixMeasure.from_atoms(np.zeros(0), np.zeros(0)),
            certificate="all moments vanish; the zero measure is the unique "
                        "solution")
    if values[0] < 0.0:
        return _infeasible(certificate=f"s_0 = {values[0]:.6g} is negative; "
                           f"no nonnegative measure has negative mass")
    if values[0] <= tol.pos_rel * scale:
        return _infeasible(certificate=(
            f"total mass s_0 = {values[0]:.6g} is at most pos_rel * max|s_n| "
            f"= {tol.pos_rel * scale:.6g}, so it counts as zero, but higher "
            f"moments are not; only the zero measure has zero mass"))

    r = _rank_scan(values, d, tol)
    try:            # below d, H_{r+1} is singular at pos_rel: is it negative?
        space = _factor_prefix(data, r, tol) if d else None
    except NotPSD as exc:
        return _infeasible(rank_index=r, certificate=f"{exc}; no "
                           f"nonnegative measure matches")
    measure, own = _canonical(space, values, tol)
    report = verify_moments(measure, data, rel_tol=ATOMIC_REL_TOL)
    evidence = dict(rank_index=r, max_deviation=report.max_deviation)
    miss = "" if report.passed else (
        f"misses the data by {report.max_deviation:.3e} (beyond "
        f"{report.rel_tol:.1e} * {report.scale:.3g})")
    if r == d:
        return ScalarEvenResult(
            verdict=VERDICT_NONDEGENERATE, measure=measure,
            augmented_moment=own, **evidence,
            certificate=f"all sections through order d = {d} are positive "
                        f"definite; the witness is the canonical solution "
                        f"through s_{2 * d + 1}, with s_{2 * d + 2} = "
                        f"{own:.12g}" + (miss and f", and it {miss}"))
    evidence["null_coeffs"] = np.poly(measure.locations)[::-1]
    if miss:
        return _infeasible(**evidence, certificate=(
            f"the forced atomic candidate {miss}; no measure matches"))
    return ScalarEvenResult(
        verdict=VERDICT_DEGENERATE, measure=measure, **evidence,
        certificate=f"positivity degenerates at order {r + 1}; the canonical "
                    f"solution through s_{2 * r + 1}, the only candidate, "
                    f"reproduces all {len(values)} moments with "
                    f"{measure.n_atoms} atom(s)")
