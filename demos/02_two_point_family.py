"""Walk the full solution family of the sequence s = (1, 0, 1).

The data (mass 1, mean 0, second moment 1) does not determine a measure:
behind it sits a symmetric operator with defect index 1, and every unit
scalar e^{i theta}, except one forbidden angle, selects a different
self-adjoint extension and hence a different two-atom solution.  This
script locates the forbidden angle, sweeps the admissible ones, and prints
the resulting family.
"""

from __future__ import annotations

import numpy as np

from momext import (ExtensionParameter, MomentSequence, prepare,
                    solve_truncated, theta_sweep)


def main() -> None:
    seq = MomentSequence.scalar([1.0, 0.0, 1.0])
    ws = prepare(seq)

    print("Instance: scalar moments s = (1, 0, 1)")
    print(f"model space dimension: {ws.space.ambient_dim}")
    print(f"defect index q = {ws.defect}")
    forbidden = complex(ws.forbidden[0, 0])
    print(f"forbidden unit parameter: {forbidden:+.6f} "
          f"(angle {abs(np.angle(forbidden)):.6f} = pi)")
    print()

    print("Sweep of theta on an 8-point grid:")
    print(f"{'theta':>10} {'margin':>10} {'atoms':>24} {'weights':>18}")
    sweep = theta_sweep(seq, n_thetas=8)
    for entry in sweep.entries:
        if entry.measure is None:
            print(f"{entry.theta:10.4f} {entry.admissibility.margin:10.2e} "
                  f"{'(forbidden, skipped)':>24}")
            continue
        locs = ", ".join(f"{t:+.4f}" for t in entry.measure.locations)
        wts = ", ".join(f"{w[0, 0].real:.4f}" for w in entry.measure.weights)
        print(f"{entry.theta:10.4f} {entry.admissibility.margin:10.2e} "
              f"{locs:>24} {wts:>18}")
    finite = sweep.distance_matrix[np.isfinite(sweep.distance_matrix)]
    off_diag = finite[finite > 0]
    print()
    print(f"pairwise distance between produced measures: "
          f"min {off_diag.min():.4f}, max {off_diag.max():.4f}")
    print("every admissible angle gives a genuinely different measure.")
    print()

    print("The canonical member (theta = 0) in detail:")
    result = solve_truncated(
        seq, ExtensionParameter.isometric(np.eye(1, dtype=complex)))
    for t, w in zip(result.measure.locations, result.measure.weights):
        print(f"    atom at {t:+.12f} with weight {w[0, 0].real:.12f}")
    ver = result.verification
    print(f"    reproduces s with max deviation {ver.max_deviation:.2e} "
          f"(tolerance {ver.rel_tol:.0e} * scale)")


if __name__ == "__main__":
    main()
