"""The even-length scalar problem: all four verdicts on small inputs.

Given an even count of scalar moments s_0, ..., s_{2d+1}, the solver
classifies the data into exactly one of four outcomes:

    unique-zero              all moments vanish; only the zero measure fits
    solvable-nondegenerate   every Hankel section is positive definite;
                             infinitely many solutions, and the witness is
                             the canonical one through s_{2d+1}
    unique-degenerate        positivity stops at order r < d; the canonical
                             solution through s_{2r+1} gives the only
                             possible atoms (the kernel-polynomial roots)
    infeasible               no positive measure reproduces the data

This script runs one worked example per verdict and finishes with a round
trip through the degenerate (unique) case: two explicit atoms generate the
moments, and the solver recovers those atoms.
"""

from __future__ import annotations

import numpy as np

from momext import solve_scalar_even


def show(values) -> None:
    res = solve_scalar_even(values)
    print(f"--- s = {tuple(values)}")
    print(f"    verdict: {res.verdict}")
    if res.rank_index is not None:
        print(f"    positivity holds through section r = {res.rank_index}")
    if res.measure is not None and res.measure.n_atoms:
        atoms = ", ".join(
            f"({t:+.4f}, {w[0, 0].real:.4f})"
            for t, w in zip(res.measure.locations, res.measure.weights))
        print(f"    witness measure: {atoms}")
        print(f"    max reproduction error: {res.max_deviation:.2e}")
    if res.augmented_moment is not None:
        print(f"    (the canonical solution, whose own "
              f"s_{len(values)} = {res.augmented_moment:g} is the least "
              f"of any solution)")
    print(f"    note: {res.certificate}")
    print()


def main() -> None:
    print("Four verdicts of the even-length scalar solver")
    print("=" * 60)
    print()

    show([1.0, 1.0, 1.0, 1.0])      # one atom at 1: unique-degenerate
    show([1.0, 0.0, 1.0, 0.0])      # symmetric, PD: solvable-nondegenerate
    show([1.0, 1.0, 1.0, 2.0])      # forced atom fails s_3: infeasible
    show([0.0, 0.0, 0.0, 0.0])      # the zero measure: unique-zero

    print("Degenerate round trip (unique case):")
    d = 3
    locs = np.array([-1.3, 0.8])                 # 2 atoms <= d: degenerate
    mus = np.array([0.6, 1.1])
    values = [float(np.sum(mus * locs ** n)) for n in range(2 * d + 2)]
    res = solve_scalar_even(values)
    print(f"    generated 2 atoms at {locs[0]:+.6f}, {locs[1]:+.6f} "
          f"with weights {mus[0]:.6f}, {mus[1]:.6f}")
    print(f"    verdict: {res.verdict}")
    rec_locs = res.measure.locations
    rec_mus = res.measure.weights[:, 0, 0].real
    print(f"    recovered atoms at {rec_locs[0]:+.6f}, {rec_locs[1]:+.6f} "
          f"with weights {rec_mus[0]:.6f}, {rec_mus[1]:.6f}")
    print(f"    atom error {np.abs(rec_locs - locs).max():.2e}, "
          f"weight error {np.abs(rec_mus - mus).max():.2e}")


if __name__ == "__main__":
    main()
