"""Transforms with a contraction parameter, and density recovery.

Beyond unitary parameters (which give atomic solutions), any strict
contraction F selects a generalized solution whose Stieltjes transform
T(lam) = integral dM(t) / (t - lam) is still analytic off the real axis
and has positive imaginary part in the upper half plane.  For s = (1,0,1)
and F = 0 the transform works out by hand (residue calculus on the
density below) to

    T(lam) = -(lam + 2i) / (lam + i)^2        for Im lam > 0,

so T(i) = 3i/4 and T(2i) = 4i/9; the script checks both values.

The solution behind F = 0 is absolutely continuous with density
w(u) = (2/pi) / (1 + u^2)^2: the script recovers its cell masses from the
transform alone via Stieltjes-Perron inversion and compares with the
closed form, then reconstructs the moments from the transform's rational
realization T(lam) = (x, (G - lam)^{-1} x), as S_n = (x, G^n x).
"""

from __future__ import annotations

import numpy as np

from momext import (ExtensionParameter, MomentSequence, StieltjesTransform,
                    moments_from_transform, perron_inversion, prepare)


def exact_cdf(u: float) -> float:
    """Antiderivative of (2/pi)/(1+u^2)^2, normalized to 0 at -infinity."""
    return (u / (1.0 + u * u) + np.arctan(u)) / np.pi + 0.5


def main() -> None:
    seq = MomentSequence.scalar([1.0, 0.0, 1.0])
    ws = prepare(seq)
    transform = StieltjesTransform(
        ws.shift, ws.pair,
        ExtensionParameter.contraction(np.zeros((1, 1), dtype=complex)))

    print("Zero-contraction transform of s = (1, 0, 1)")
    for lam, expected in ((1j, 0.75j), (2j, (4.0 / 9.0) * 1j)):
        got = complex(transform(lam)[0, 0])
        print(f"    T({lam}) = {got:.12f}   closed form {expected:.12f}   "
          f"gap {abs(got - expected):.1e}")
    print()

    print("Herglotz property on a vertical line:")
    lams = np.linspace(-3.0, 3.0, 7) + 0.5j
    ims = [float(transform(lam)[0, 0].imag) for lam in lams]
    print("    Im T(x + 0.5i) = "
          + ", ".join(f"{v:.4f}" for v in ims)
          + "   (all positive)")
    print()

    print("Stieltjes-Perron inversion on [-2, 2), cells of width 0.5:")
    result = perron_inversion(transform, -2.0, 2.0, 0.5)
    print(f"    method: {result.method}")
    print(f"{'cell':>16} {'recovered':>12} {'exact':>12} {'error':>10}")
    total = 0.0
    for i in range(len(result.edges) - 1):
        a, b = result.edges[i], result.edges[i + 1]
        rec = float(result.increments[i][0, 0].real)
        exact = exact_cdf(b) - exact_cdf(a)
        total += rec
        print(f"    [{a:+.2f},{b:+.2f}) {rec:12.6f} {exact:12.6f} "
              f"{abs(rec - exact):10.2e}")
    exact_total = exact_cdf(2.0) - exact_cdf(-2.0)
    print(f"    total mass on [-2, 2): recovered {total:.6f}, "
          f"exact {exact_total:.6f}")
    print()

    print("Moments recovered from the transform's realization:")
    recovery = moments_from_transform(transform, 2)
    values = [float(m[0, 0].real) for m in recovery.moments]
    print(f"    recovered (s_0, s_1, s_2) = "
          + "(" + ", ".join(f"{v:.12f}" for v in values) + ")")
    print("    prescribed                (1, 0, 1)")


if __name__ == "__main__":
    main()
