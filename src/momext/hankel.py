"""Moment sequences and their block Hankel sections.

A truncated matrix Hamburger problem hands us Hermitian N x N moments
S_0, ..., S_{2d} and asks for a nondecreasing N x N matrix measure M on the
real line with

    integral of x^n dM(x) = S_n,   n = 0..2d.

The data enters every later stage only through the block Hankel sections

    H_k = [ S_{r+t} ]_{r,t = 0..k}     ((k+1)N square),

whose positivity encodes solvability: H_{d-1} positive definite together with
H_d positive semidefinite makes the whole operator construction go through.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import InsufficientMoments
from .linalg import as_complex_matrix, hermitize, max_abs, read_only
from .tolerances import DEFAULT, Tolerances

#: Hermitian-symmetry defect allowed in a moment, relative to its scale
HERM_REL = 1e-10


@dataclasses.dataclass(frozen=True, eq=False)
class MomentSequence:
    """Hermitian matrix moments S_0..S_{count-1}, stored symmetrized."""

    dim: int
    moments: tuple

    @classmethod
    def from_arrays(cls, arrays):
        """Check and symmetrize the moments in one pass over their stack
        (a complex (count, N, N) array is taken as it is); an error names
        the first offending S_i."""
        stack = _stack_moments(arrays if isinstance(arrays, np.ndarray)
                               else list(arrays))
        herm = np.conj(np.swapaxes(stack, 1, 2))
        scale = np.maximum(np.abs(stack).max(axis=(1, 2), initial=0.0), 1.0)
        defect = np.abs(stack - herm).max(axis=(1, 2), initial=0.0)
        bad = np.flatnonzero(defect > HERM_REL * scale)
        if bad.size:
            i = bad[0]
            raise ValueError(f"moment S_{i} is not Hermitian: defect "
                             f"{defect[i]:.3e} exceeds {HERM_REL:.1e} * scale "
                             f"{scale[i]:.3e}")
        fixed = read_only(0.5 * (stack + herm))
        seq = cls(dim=stack.shape[1], moments=tuple(fixed))
        vars(seq)["_stack"] = fixed         # _stack is that stack already
        return seq

    @classmethod
    def scalar(cls, values):
        """Convenience constructor for N = 1 from plain numbers."""
        return cls.from_arrays(
            np.asarray(values, dtype=complex).reshape(-1, 1, 1))

    def __len__(self) -> int:
        return len(self.moments)

    def __getitem__(self, n: int) -> np.ndarray:
        return self.moments[n]

    @property
    def max_hankel_order(self) -> int:
        """Largest k for which H_k can be built from this data."""
        return (len(self.moments) - 1) // 2

    @functools.cached_property
    def _stack(self) -> np.ndarray:
        """The moments as one read-only complex (count, N, N) array, built
        once: the Hankel sections and the verifications read it."""
        return read_only(np.array(self.moments, dtype=complex))

    @property
    def scale(self) -> float:
        return max(max_abs(m) for m in self.moments)


def _stack_moments(arrays) -> np.ndarray:
    """The moments (a list, or an array) as one complex (count, N, N) array.
    Input that does not stack to one goes through the checks of each moment
    in turn, so the error names the first offending S_i."""
    try:
        stack = np.asarray(arrays, dtype=complex)
        if len(stack) and stack.ndim == 3 and stack.shape[1] == stack.shape[2]:
            return stack
    except (TypeError, ValueError):
        pass
    mats = [as_complex_matrix(a, f"moment S_{i}") for i, a in enumerate(arrays)]
    if not mats:
        raise InsufficientMoments("a moment sequence needs at least S_0")
    dim = mats[0].shape[0]
    for i, m in enumerate(mats):
        if m.shape != (dim, dim):
            raise ValueError(f"moment S_{i} has shape {m.shape}, "
                             f"expected ({dim}, {dim})")
        hermitize(m, HERM_REL, f"moment S_{i}")
    return np.array(mats)


@dataclasses.dataclass(frozen=True, eq=False)
class BlockHankel:
    """The section H_k = [S_{r+t}]_{r,t=0..k}; Hermitian by construction."""

    order: int
    block_dim: int
    matrix: np.ndarray

    @property
    def size(self) -> int:
        return (self.order + 1) * self.block_dim


def build_block_hankel(seq: MomentSequence, order: int) -> BlockHankel:
    """Assemble H_order from the sequence; needs moments up to S_{2*order}.

    One index gather: block (r, t) of the section is S_{r+t}."""
    if order < 0:
        raise ValueError(f"Hankel order must be >= 0, got {order}")
    if 2 * order + 1 > len(seq):
        raise InsufficientMoments(
            f"building the order-{order} section needs {2 * order + 1} moments, "
            f"got {len(seq)}")
    n = seq.dim
    size = (order + 1) * n
    index = np.add.outer(np.arange(order + 1), np.arange(order + 1))
    blocks = seq._stack[index]
    g = blocks.transpose(0, 2, 1, 3).reshape(size, size)
    return BlockHankel(order=order, block_dim=n, matrix=read_only(g))


@dataclasses.dataclass(frozen=True)
class ConditionReport:
    """Solvability conditions for the truncated problem of order d."""

    block_dim: int
    order: int
    leading_positive: bool      # H_{d-1} > 0
    trailing_psd: bool          # H_d >= 0
    min_eig_leading: float
    min_eig_trailing: float
    scale_leading: float
    scale_trailing: float

    @property
    def solvable(self) -> bool:
        return self.leading_positive and self.trailing_psd


def check_truncated_conditions(seq: MomentSequence,
                               tol: Tolerances = DEFAULT) -> ConditionReport:
    """Decide solvability of the order-d problem from S_0..S_{2d}.

    The sequence must contain an odd number (>= 3) of moments so both the
    leading section H_{d-1} and the trailing section H_d exist.
    min_eig_trailing is the smallest eigenvalue of the eigvalsh that the
    Gram factor of H_d reads for its rank.
    """
    return _check(seq, tol)[0]


def _check(seq: MomentSequence, tol: Tolerances):
    """check_truncated_conditions, with the H_d it built and the ascending
    eigenvalues of that section and of its leading dN x dN block H_{d-1}:
    H_d is built once, and each section gets one eigvalsh."""
    count = len(seq)
    if count < 3 or count % 2 == 0:
        raise InsufficientMoments(
            f"the truncated problem needs an odd number (>= 3) of moments "
            f"S_0..S_2d, got {count}")
    d = (count - 1) // 2
    trail = build_block_hankel(seq, d)
    dn = d * seq.dim
    w = np.linalg.eigvalsh(trail.matrix)
    w_lead = np.linalg.eigvalsh(trail.matrix[:dn, :dn])
    e_lead = float(w_lead[0])
    e_trail = float(w[0])
    mags = np.abs(trail.matrix)                     # one pass for both scales
    s_lead = float(mags[:dn, :dn].max())
    s_trail = float(mags.max())
    report = ConditionReport(
        block_dim=seq.dim,
        order=d,
        leading_positive=bool(e_lead > tol.pos_rel * s_lead),
        trailing_psd=bool(e_trail >= -tol.psd_rel * s_trail),
        min_eig_leading=e_lead,
        min_eig_trailing=e_trail,
        scale_leading=s_lead,
        scale_trailing=s_trail,
    )
    return report, trail, (w, w_lead)
