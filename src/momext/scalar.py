"""Scalar moment problems with an even number of prescribed moments.

Given real s_0, ..., s_{2d+1}, decide whether some nonnegative measure on
the line has exactly these power moments, and produce evidence:

  unique-zero             all moments vanish; the zero measure, uniquely.
  solvable-nondegenerate  every Hankel section up to order d is positive
                          definite; solutions form a genuine family.  The
                          witness solves s_0..s_{2d+2}, where the extra
                          moment makes H_{d+1} positive definite.
  unique-degenerate       positivity stops at order r < d: H_r is positive
                          definite and H_{r+1} singular.  The shift of
                          s_0..s_{2r+2} then has defect zero, so it has
                          exactly one self-adjoint extension; its r+1 atoms
                          (the kernel-polynomial roots) are the only
                          candidate, which is verified on all data.
  infeasible              a certificate explains which positivity or
                          reproduction requirement failed.

Both constructions run the operator pipeline (solve_truncated) on an
odd-length sequence and verify its measure against all 2d+2 moments.  The
rank index r is the largest k <= d with H_0..H_k all positive definite
(scanned in order, stopping at the first failure), so Sylvester's criterion
applies to everything at or below r.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import InsufficientMoments, NotPSD
from .hankel import MomentSequence
from .linalg import max_abs
from .measures import AtomicMatrixMeasure, verify_moments
from .tolerances import DEFAULT, Tolerances

VERDICT_ZERO = "unique-zero"
VERDICT_NONDEGENERATE = "solvable-nondegenerate"
VERDICT_DEGENERATE = "unique-degenerate"
VERDICT_INFEASIBLE = "infeasible"


@dataclasses.dataclass(frozen=True, eq=False)
class ScalarEvenResult:
    """Decision, evidence, and diagnostics for one even-length sequence."""

    verdict: str
    rank_index: int | None          # r, when it was computed
    null_coeffs: np.ndarray | None  # monic polynomial of the forced atoms
    measure: AtomicMatrixMeasure | None
    certificate: str
    max_deviation: float | None     # worst reproduction error of the evidence
    augmented_moment: float | None  # s_{2d+2} used for the witness, case b

    @property
    def roots(self) -> np.ndarray | None:
        """Atom locations of the evidence measure."""
        return None if self.measure is None else self.measure.locations

    @property
    def atom_weights(self) -> np.ndarray | None:
        if self.measure is None:
            return None
        return self.measure.weights[:, 0, 0].real


def _hankel(values: np.ndarray, order: int) -> np.ndarray:
    idx = np.arange(order + 1)
    return values[idx[:, None] + idx[None, :]]


def _rank_scan(h: np.ndarray, tol: Tolerances) -> tuple[int, float]:
    """r for the section h = H_d, and the last smallest eigenvalue seen."""
    # H_k holds s_0..s_{2k}: the first row and last column of h hold them all
    reach = np.maximum.accumulate(np.abs(np.append(h[0], h[1:, -1])))
    r = -1
    for k in range(h.shape[0]):
        emin = float(np.linalg.eigvalsh(h[:k + 1, :k + 1])[0])
        if emin <= tol.pos_rel * reach[2 * k]:
            break
        r = k
    return r, emin


def compute_rank_r(values, order_d: int, tol: Tolerances = DEFAULT) -> int:
    """Largest r <= d with H_0..H_r all positive definite; -1 if none are.

    Scans upward and stops at the first failure, which keeps the definition
    aligned with Sylvester's criterion on nested Hankel sections.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 2 * order_d + 2:
        raise InsufficientMoments(
            f"rank scan to order {order_d} needs {2 * order_d + 2} moments, "
            f"got {len(values)}")
    return _rank_scan(_hankel(values, order_d), tol)[0]


def _prefix(seq: MomentSequence, count: int) -> MomentSequence:
    return dataclasses.replace(seq, moments=seq.moments[:count])


def _infeasible(certificate: str, rank_index=None, max_dev=None,
                null_coeffs=None) -> ScalarEvenResult:
    return ScalarEvenResult(verdict=VERDICT_INFEASIBLE, rank_index=rank_index,
                            null_coeffs=null_coeffs, measure=None,
                            certificate=certificate, max_deviation=max_dev,
                            augmented_moment=None)


def solve_scalar_even(values, tol: Tolerances = DEFAULT) -> ScalarEvenResult:
    """Classify s_0..s_{2d+1} and return evidence for the verdict.  A
    non-finite moment raises ValueError."""
    from .pipeline import solve_truncated    # local import, no cycle at load
    values = np.asarray(values, dtype=float).reshape(-1)
    if not np.isfinite(values).all():
        raise ValueError("scalar moments must be finite")
    if len(values) < 2 or len(values) % 2 != 0:
        raise InsufficientMoments(
            f"need an even number (>= 2) of scalar moments, got {len(values)}")
    d = len(values) // 2 - 1
    scale = max_abs(values)

    if scale == 0.0:
        return ScalarEvenResult(
            verdict=VERDICT_ZERO, rank_index=None, null_coeffs=None,
            measure=AtomicMatrixMeasure.from_atoms(np.zeros(0), np.zeros(0)),
            certificate="all moments vanish; the zero measure is the unique "
                        "solution", max_deviation=0.0, augmented_moment=None)
    if values[0] < 0.0:
        return _infeasible(f"s_0 = {values[0]:.6g} is negative; no "
                           f"nonnegative measure has negative mass")
    if values[0] <= tol.pos_rel * scale:
        return _infeasible("total mass s_0 is zero but higher moments are "
                           "not; only the zero measure has zero mass")

    h = _hankel(values, d)
    r, emin = _rank_scan(h, tol)
    if r < 0:
        return _infeasible(f"the order-0 section [s_0] = [{values[0]:.6g}] "
                           f"is not positive definite", rank_index=r)

    if r == d:
        # H_{d+1} = [[H_d, b], [b^T, s_{2d+2}]] has Schur complement
        # s_{2d+2} - b^T H_d^{-1} b; setting it to lambda_min(H_d) > 0 makes
        # H_{d+1} positive definite at the scale of H_d itself
        b = values[d + 1:]
        extra = float(b @ np.linalg.solve(h, b)) + emin
        # its own verification covers the data, the first 2d+2 of 2d+3
        augmented = MomentSequence.scalar(np.append(values, extra))
        solved = solve_truncated(augmented, tol=tol)
        return ScalarEvenResult(
            verdict=VERDICT_NONDEGENERATE, rank_index=r, null_coeffs=None,
            measure=solved.measure,
            certificate=f"all sections through order d = {d} are positive "
                        f"definite; witness built from the augmented moment "
                        f"s_{2 * d + 2} = {extra:.12g}",
            max_deviation=float(np.max(solved.verification.deviations[:-1])),
            augmented_moment=extra)

    # Degenerate: the rank scan found H_{r+1} singular at pos_rel.  Factoring
    # at that same cutoff keeps the Gram space at dimension r+1 (defect 0,
    # one extension); at the default rank_rel a tiny positive eigenvalue
    # would survive and the solve would pick one member of a family instead
    # of the forced candidate.
    data = MomentSequence.scalar(values)
    try:
        measure = solve_truncated(_prefix(data, 2 * r + 3),
                                  tol=tol.replace(rank_rel=tol.pos_rel)).measure
    except NotPSD as exc:
        return _infeasible(
            f"the order-{r + 1} section has negative eigenvalue "
            f"{exc.min_eigenvalue:.6e}; no nonnegative measure matches",
            rank_index=r)
    coeffs = np.polynomial.polynomial.polyfromroots(measure.locations)
    report = verify_moments(measure, data, rel_tol=1e-8)
    if not report.passed:
        return _infeasible(
            f"the forced atomic candidate misses the data by "
            f"{report.max_deviation:.3e} (beyond {report.rel_tol:.1e} * "
            f"{report.scale:.3g}); no measure matches", rank_index=r,
            null_coeffs=coeffs, max_dev=report.max_deviation)
    return ScalarEvenResult(
        verdict=VERDICT_DEGENERATE, rank_index=r, null_coeffs=coeffs,
        measure=measure,
        certificate=f"positivity degenerates at order {r + 1}; the unique "
                    f"extension of the defect-zero shift reproduces all "
                    f"{len(values)} moments with {measure.n_atoms} atom(s)",
        max_deviation=report.max_deviation, augmented_moment=None)
