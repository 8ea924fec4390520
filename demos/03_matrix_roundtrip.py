"""Round trip: atomic matrix measure -> moments -> reconstructed measure.

A 2 x 2 measure with three explicit atoms generates moments S_0, ..., S_4;
the solver then rebuilds a representing measure for the unimodular
parameter e^{i theta} I with the widest admissibility margin among eight
angles.  The reconstruction is generally a different measure (the data
does not pin one down), yet it must reproduce every prescribed moment.  A
rank-deficient variant shows the defect dropping below the block
dimension, and a scalar variant with defect zero shows the unique-solution
regime where no parameter is needed.
"""

from __future__ import annotations

import numpy as np

from momext import (AtomicMatrixMeasure, ExtensionParameter, MomentSequence,
                    is_admissible, prepare, solve_truncated, verify_moments)


def instance(locations, weights, order: int):
    """The measure with these atoms and its moments S_0..S_{2 order}."""
    truth = AtomicMatrixMeasure.from_atoms(locations, np.asarray(weights))
    seq = MomentSequence.from_arrays(
        [np.einsum("j,jkl->kl", truth.locations ** n, truth.weights)
         for n in range(2 * order + 1)])
    return seq, truth


def widest_phase(seq) -> ExtensionParameter:
    """e^{i theta} I, theta on an 8-point grid, with the widest margin."""
    ws = prepare(seq)
    best, margin = None, -1.0
    for theta in 2.0 * np.pi * np.arange(8) / 8:
        u = np.exp(1j * theta) * np.eye(ws.defect)
        report = is_admissible(u, ws.shift, ws.pair, ws.forbidden)
        if report.admissible and report.margin > margin:
            best, margin = u, report.margin
    print(f"    parameter e^(i theta) I with admissibility margin "
          f"{margin:.3f} (of at most 2)")
    return ExtensionParameter.isometric(best)


def describe(result) -> None:
    measure = result.measure
    print(f"    defect q = {result.defect}, "
          f"reconstructed measure has {measure.n_atoms} atoms at "
          + ", ".join(f"{t:+.3f}" for t in measure.locations))
    ver = result.verification
    print(f"    verification: max deviation {ver.max_deviation:.2e} on "
          f"moment scale {ver.scale:.3g} -> "
          f"{'PASS' if ver.passed else 'FAIL'}")


def main() -> None:
    locations = [-1.5, 0.25, 1.75]
    full_rank = [[[1.0, 0.3], [0.3, 0.8]],
                 [[0.6, -0.2j], [0.2j, 1.1]],
                 [[0.9, 0.1], [0.1, 0.5]]]

    print("Full-rank instance (N=2, d=2): defect equals the block dimension")
    seq, truth = instance(locations, full_rank, order=2)
    print(f"    ground truth: {truth.n_atoms} atoms at "
          + ", ".join(f"{t:+.3f}" for t in truth.locations))
    describe(solve_truncated(seq, widest_phase(seq)))
    print("    (different atoms, same moments: both measures solve the data)")
    print()

    print("Rank-deficient weight (N=2, d=2): the defect drops to N - 1")
    rank_one = [[[0.5, 0.5], [0.5, 0.5]]] + full_rank[1:]
    seq, truth = instance(locations, rank_one, order=2)
    describe(solve_truncated(seq, widest_phase(seq)))
    print()

    print("Scalar instance with defect zero (N=1): the solution is unique")
    seq, truth = instance([-0.5, 1.2], [0.7, 0.4], order=2)
    result = solve_truncated(seq)          # no parameter to choose
    describe(result)
    recovered = result.measure
    print(f"    unique measure matches the generator: atom gap "
          f"{np.abs(recovered.locations - truth.locations).max():.2e}, "
          f"weight gap "
          f"{np.abs(recovered.weights - truth.weights).max():.2e}")
    print()

    print("Cross check: a ground-truth measure verifies its own moments")
    seq, truth = instance([-1.0, -0.2, 0.6, 1.4],
                          [np.eye(3) * c + 0.1 * np.ones((3, 3))
                           for c in (0.5, 1.0, 0.8, 0.3)], order=3)
    report = verify_moments(truth, seq)
    print(f"    N=3, d=3 generator: max deviation {report.max_deviation:.2e} "
          f"-> {'PASS' if report.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
