"""Decide solvability for a few small moment sequences.

A truncated sequence S_0, ..., S_2d of Hermitian N x N matrices admits a
positive atomic representing measure exactly when two block Hankel
sections built from it behave: the leading section (orders up to d-1) must
be positive definite, and the trailing section (orders up to d) positive
semidefinite.  This script runs that check on five hand-sized inputs and
prints the evidence behind each verdict, with the refusal that the
construction meets (None when it goes on): the fifth input is solvable
but outside the covered regime.
"""

from __future__ import annotations

import numpy as np

from momext import MomentSequence, check_truncated_conditions


def show(name: str, seq: MomentSequence) -> None:
    report = check_truncated_conditions(seq)
    print(f"--- {name}")
    print(f"    block dim N={seq.dim}, order d={report.order}")
    print(f"    leading section:  min eigenvalue {report.min_eig_leading:+.6f}"
          f" -> {'positive definite' if report.leading_positive else 'NOT positive definite'}")
    print(f"    trailing section: min eigenvalue {report.min_eig_trailing:+.6f}"
          f" -> {'PSD' if report.trailing_psd else 'NOT PSD'}")
    print(f"    solvable: {report.solvable}")
    print(f"    refusal:  {report.refusal!r}")
    print()


def main() -> None:
    print("Solvability of truncated matrix moment problems")
    print("=" * 60)
    print()

    # Two symmetric atoms at -1 and +1 with weight 1/2 each: s = (1, 0, 1).
    show("scalar s = (1, 0, 1): two-atom data",
         MomentSequence.scalar([1.0, 0.0, 1.0]))

    # A single atom at 1: the trailing section is singular but still PSD,
    # so the problem is solvable and the solution is unique.
    show("scalar s = (1, 1, 1): one-atom data (boundary case)",
         MomentSequence.scalar([1.0, 1.0, 1.0]))

    # No positive measure can have a negative fourth moment.
    show("scalar s = (1, 0, 1, 0, -5): corrupted fourth moment",
         MomentSequence.scalar([1.0, 0.0, 1.0, 0.0, -5.0]))

    # A genuine matrix instance: moments of delta_{-1} and delta_{+1} with
    # full 2 x 2 identity weights (scaled by 1/2).
    eye = np.eye(2)
    show("matrix (N=2) moments of (delta_{-1} + delta_{+1})/2 tensor I",
         MomentSequence.from_arrays([eye, 0.0 * eye, eye]))

    # H_1 = diag(1, 1e-9) is positive definite and H_2 is PSD, but on the
    # scale of S_4 = 1e14 the rank of H_2 is 1: the two domain vectors are
    # numerically dependent, and the construction refuses the data.
    show("scalar s = (1, 0, 1e-9, 0, 1e14): solvable, outside the covered "
         "regime", MomentSequence.scalar([1.0, 0.0, 1e-9, 0.0, 1e14]))

    print("The leading condition failing means even the lower-order data is")
    print("inconsistent; the trailing condition failing means the top moment")
    print("cannot be reached by any positive measure.  A refusal on solvable")
    print("data means the data lies outside the regime the construction")
    print("covers in float64.")


if __name__ == "__main__":
    main()
