"""Solutions as matrix measures, and the transforms that certify them.

A self-adjoint extension A_V yields an atomic N x N matrix measure through
its spectral decomposition: each eigenvalue cluster t_j carries the weight

    W_j[k, l] = sum over cluster members v of (x_k, v) conj((x_l, v)),

and M = sum of W_j delta_{t_j} solves the truncated problem.  Contractive
parameters are certified instead through the transform

    T(lam)[k, l] = (R(lam) x_k, x_l),

a matrix Herglotz function whose boundary behavior carries the measure
through Stieltjes-Perron inversion

    M([a, b)) = limit over eps of (1/pi) integral over [a, b) of
                Im T(u + i eps) du .

With G the quasi-extension of momext.extensions,
T(lam)[k, l] = (x_l, (G - lam)^{-1} x_k) is a rational function, so both
recoveries are closed forms: the moments are S_n[k, l] = (x_l, G^n x_k),
and the cell masses are sums over the poles of T, for every parameter
(an isometric one has only real poles, the atoms of its measure).  G
comes from the one admissibility gate; the direct batched solve of the
transform has no fallback and raises SingularSystem at a pole.  A
transform screens its parameter once and keeps the report and G.

Cells are half-open [x, x+h); an atom sitting exactly on a cell boundary
gives exactly half its weight to each of the two adjacent cells (the
Stieltjes-Perron limit), so checks around atoms should sum windows, not
single cells.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularSystem
from .hankel import MomentSequence
from .linalg import max_abs, read_only
from .tolerances import DEFAULT, Tolerances

if TYPE_CHECKING:    # the transform half imports what it calls when it runs
    from .extensions import (AdmissibilityReport, ExtensionParameter,
                             SelfAdjointExtension)
    from .shift import DeficiencyPair, ShiftOperator

#: points per batched solve in StieltjesTransform.eval_upper_many
_EVAL_CHUNK = 8192

#: most cells a Perron or binning grid may hold; a finer grid raises
#: ValueError before its edges are allocated
MAX_CELLS = 100_000

#: relative tolerance of a spectral measure's moments against the data
ATOMIC_REL_TOL = 1e-8

#: relative tolerance of the transform route's checks: the moments it
#: recovers against the data, and the residues' total mass against S_0
TRANSFORM_REL_TOL = 1e-6


@dataclasses.dataclass(frozen=True, eq=False)
class AtomicMatrixMeasure:
    """Finitely many atoms t_j with Hermitian PSD matrix weights W_j.

    locations is strictly increasing; weights[j] is the N x N weight at
    locations[j].
    """

    locations: np.ndarray       # (J,)
    weights: np.ndarray         # (J, N, N)

    @property
    def n_atoms(self) -> int:
        return self.locations.shape[0]

    @property
    def block_dim(self) -> int:
        return self.weights.shape[1]

    @classmethod
    def from_atoms(cls, locations, weights,
                   block_dim: int | None = None) -> "AtomicMatrixMeasure":
        """Sort atoms, merge coincident ones and check the weights PSD:
        _assemble on the one row of sorted atoms.

        Atoms at the same location become one, holding their summed weight.
        weights is (J,) for scalar atoms or (J, N, N).  A weight whose
        smallest eigenvalue is below -1e-8 times the largest |entry| (at
        least 1) raises ValueError, as do weights of another shape and a
        non-finite location or weight entry.  block_dim sizes the weights
        when there are no atoms.
        """
        locs = np.asarray(locations, dtype=float).reshape(-1)
        w = np.asarray(weights, dtype=complex)
        if w.ndim == 1:                      # scalar weights -> 1 x 1 blocks
            w = w.reshape(-1, 1, 1)
        if w.ndim != 3 or w.shape[1] != w.shape[2]:
            raise ValueError(f"weights must be (J,) or (J, N, N), got "
                             f"shape {w.shape}")
        if w.shape[0] != locs.shape[0]:
            raise ValueError("locations and weights disagree in length")
        if not (np.isfinite(locs).all() and np.isfinite(w).all()):
            raise ValueError("atoms must have finite locations and weights")
        if not len(locs):           # block_dim sizes the weights of no atoms
            w = np.zeros((0, block_dim or 1, block_dim or 1), dtype=complex)
        order = np.argsort(locs, kind="stable")
        return _assemble(locs[order][None], w[order][None], 0.0, 0.0,
                         1e-8)[0]


def _first_non_psd(locs, weights, floor):
    """The first of the Hermitian weights (B, N, N) at locs (B,) whose
    smallest eigenvalue is below -floor (a scalar or (B,)), as its index and
    the ValueError that names it; None when there is none.

    A 1 x 1 weight is its own eigenvalue.  Larger ones are screened by one
    batched Cholesky of W + floor I, which succeeds exactly when every
    smallest eigenvalue exceeds -floor; only when it fails does one eigvalsh
    over the stack find the first offender, so the decision is that of the
    eigvalsh rule except within roundoff of the threshold.
    """
    n = weights.shape[-1]
    if n == 1:
        emin = weights[:, 0, 0].real
    else:
        try:
            np.linalg.cholesky(weights + np.multiply.outer(floor, np.eye(n)))
            return None
        except np.linalg.LinAlgError:
            emin = np.linalg.eigvalsh(weights)[:, 0]
    bad = np.flatnonzero(emin < -floor)
    if not bad.size:
        return None
    j = bad[0]
    return j, ValueError(f"weight at t = {locs[j]:.6g} is not PSD: "
                         f"min eigenvalue {emin[j]:.3e}")


def spectral_measure(extension: SelfAdjointExtension, shift: ShiftOperator,
                     tol: Tolerances = DEFAULT) -> AtomicMatrixMeasure:
    """Atomic solution measure read off the eigendecomposition of A_V.

    Neighbouring eigenvalues t_i, t_j are clustered at gaps up to
    cluster_rel * max(1, |t_i|, |t_j|); each cluster contributes
    W_j = C_j C_j^H with C_j[k, i] = (x_k, v_i), manifestly Hermitian PSD.
    For |t| > 1, (x_k, v) is read off block row d as (x_{dN+k}, v) / t^d
    (A^d x_k = x_{dN+k}), so that the weight keeps its relative accuracy
    however large t is: an atom far out (the parameter near the forbidden
    operator) has a tiny weight that still carries t^{2d} W of S_{2d}.
    Those products are taken only when some |t| > 1.  An atom is dropped
    only when W max(1, |t|)^{2d} is below weight_rel times the total-mass
    scale.  The atoms are merged, dropped and checked PSD by _assemble, the
    one assembler (from_atoms and theta_sweep use it too): one Cholesky
    for N >= 2, an eigvalsh only when that fails.

    The eigh runs on the real part of the matrix when its imaginary parts
    are exact zeros, as they always are at N = 1 (S_n, the frame and the
    1 x 1 hermitized B are real there): the same matrix, reduced by the
    cheaper real kernel.
    """
    return _assemble(*_spectral_atoms(extension.matrix[None], shift, tol))[0]


def _spectral_atoms(mats: np.ndarray, shift: ShiftOperator, tol: Tolerances):
    """The arguments of _assemble for the eigen-atoms of a (K, m, m) stack
    of Hermitian matrices, from one batched eigh: sorted locations (K, m),
    rank-one weights (K, m, N, N) and the tolerances of spectral_measure."""
    n = shift.block_dim
    d = shift.order
    vals, vecs = np.linalg.eigh(mats.real if not mats.imag.any() else mats)
    coords = shift.space.coords
    vecs = np.conj(vecs)

    def products(rows):                              # [., i, k] = (y_k, v_i)
        return np.swapaxes(rows @ vecs, -1, -2)
    # c[., i, k] = (x_k, v_i), read off block row d where |t_i| > 1
    c = products(coords[:n])
    far = np.abs(vals) > 1.0
    if far.any():
        c = np.where(far[..., None], products(coords[d * n:(d + 1) * n])
                     / (np.where(far, vals, 1.0) ** d)[..., None], c)
    cc = np.conj(c)
    mass = np.swapaxes(c, -1, -2) @ cc               # equals S_0
    # one rank-one weight per eigenvector; a cluster sums its members
    weights = c[..., :, None] * cc[..., None, :]
    return (vals, weights, tol.cluster_rel,
            tol.weight_rel * np.abs(mass).max(axis=(1, 2)), tol.psd_rel, 2 * d)


def _assemble(locs, weights, merge_tol, drop_tol, psd_rel: float,
              degree: int = 0, stacked: bool = False):
    """One measure per row of sorted locations (K, J) and weights
    (K, J, N, N), with one merge_tol and the row's drop_tol (a scalar or
    (K,)), in one pass over all rows whose array calls do not grow with K.

    A run of near-coincident neighbours in a row becomes one atom at their
    mean, holding their summed weight, in the slot of its first member
    (np.add.reduceat over the flattened rows, skipped when no row
    clusters).  Then the weights are Hermitized, negligible ones and the
    merged-away slots dropped (when every slot is kept, the rows are their
    own atoms), and every kept weight is checked PSD at once
    (_first_non_psd, with the floor psd_rel times the row's largest kept
    |entry|, at least 1).  A non-PSD weight raises ValueError for the first
    in row order.  The measures are read-only views of the kept atoms.

    stacked also returns the kept atoms of all rows as one left-aligned
    padded stack (_stack with NaN locations), so that a caller holding many
    rows need not re-stack them, and whether it went through _stack.  When
    every slot is kept, the rows are their own stack, with no padding:
    their locations and Hermitized weights come back as they are, with
    False.
    """
    k, j = locs.shape
    reach = np.maximum(np.abs(locs), 1.0)
    close = (locs[:, 1:] - locs[:, :-1]
             <= merge_tol * np.maximum(reach[:, 1:], reach[:, :-1]))
    merged = close.any()
    if merged:
        opens = np.ones((k, j), dtype=bool)
        opens[:, 1:] = ~close
        starts = np.flatnonzero(opens)
        locs, weights = locs.copy(), weights.copy()
        flat = locs.reshape(k * j)
        flat[starts] = (np.add.reduceat(flat, starts)
                        / np.diff(np.append(starts, k * j)))
        flat = weights.reshape((k * j,) + weights.shape[2:])
        flat[starts] = np.add.reduceat(flat, starts, axis=0)
        reach = np.maximum(np.abs(locs), 1.0)
    w = 0.5 * (weights + np.conj(np.swapaxes(weights, -1, -2)))
    peaks = np.abs(w).max(axis=(2, 3))
    drop_tol = np.asarray(drop_tol).reshape(-1, 1)
    keep = (peaks * reach ** degree > drop_tol) | ~(drop_tol > 0.0)
    if merged:
        keep &= opens
    kept = keep.all()                   # then the rows are their own atoms
    kept_locs = read_only(locs.reshape(-1) if kept else locs[keep])
    kept_w = read_only(w.reshape((-1,) + w.shape[2:]) if kept else w[keep])
    if len(kept_w):
        floor = psd_rel * peaks.max(axis=1, where=keep, initial=1.0)
        failure = _first_non_psd(kept_locs, kept_w, floor[0] if k == 1
                                 else floor[np.nonzero(keep)[0]])
        if failure:
            raise failure[1]
    ends = np.cumsum(keep.sum(axis=1)).tolist() if k > 1 else [len(kept_w)]
    measures = tuple(AtomicMatrixMeasure(locations=kept_locs[start:end],
                                         weights=kept_w[start:end])
                     for start, end in zip([0] + ends, ends))
    if not stacked:
        return measures
    if kept:
        return measures, (locs, w), False
    return measures, _stack(np.diff([0] + ends), kept_locs, kept_w,
                            np.nan), True


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Per-order deviations between produced and prescribed moments."""

    deviations: tuple           # max |recovered_n - S_n| for each n
    max_deviation: float
    scale: float                # max(1, largest |S_n| entry)
    rel_tol: float
    passed: bool


def _verifications(recovered, seq: MomentSequence,
                   rel_tol: float) -> tuple[VerificationReport, ...]:
    """One report per row of a (K, >= len(seq), N, N) stack of moments.

    The per-order maxima, the worst deviation and the pass flag are taken
    over the whole stack at once, and each report is built from one
    tolist() per column.  A NaN deviation makes the worst one NaN, which
    fails."""
    data = seq.moments
    devs = np.abs(recovered[:, :len(data)] - data).max(axis=(2, 3))
    worst = devs.max(axis=1)
    scale = max(1.0, float(seq._reach[-1]))
    k = len(devs)
    return tuple(map(VerificationReport, map(tuple, devs.tolist()),
                     worst.tolist(), [scale] * k, [rel_tol] * k,
                     (worst <= rel_tol * scale).tolist()))


def verify_moments(measure: AtomicMatrixMeasure, seq: MomentSequence,
                   rel_tol: float = ATOMIC_REL_TOL) -> VerificationReport:
    """Compare integral x^n dM against S_n for every prescribed n.

    The moments come from _moment_sums on views of the measure's own
    arrays, the kernel theta_sweep runs on its stack of measures."""
    return _verifications(_moment_sums(measure.locations[None],
                                       measure.weights[None], len(seq)),
                          seq, rel_tol)[0]


def _moment_sums(locs, weights, count: int) -> np.ndarray:
    """sum over atoms j of locs[k, j]^n weights[k, j] for n < count, from
    locations (K, J) and weights (K, J, N, N): (K, count, N, N), summed in
    atom order: padding atoms (weight 0 at location 0) add exact zeros,
    and each row is bit for bit that of its measure alone (a matmul would
    sum in another order).

    The powers are running products 1, t, t t, ... (np.multiply.accumulate),
    each within n - 1 ulp of t^n: np.power takes a slow path for negative
    bases, several times the cost of the products.  For N >= 2 the einsum
    runs on the real view of the weights, (K, J, 2 N^2) floats times real
    powers: the products and the order of the complex einsum, bit for bit,
    at a fraction of its cost.  At N = 1 that view is too short to pay, and
    the complex einsum is kept.
    """
    k, j, n = np.shape(weights)[:3]
    powers = np.empty((k, count, j))
    powers[:, :1] = 1.0
    powers[:, 1:] = locs[:, None, :]
    np.multiply.accumulate(powers, axis=1, out=powers)
    if n == 1:
        return np.einsum("knj,kjab->knab", powers, weights)
    flat = np.ascontiguousarray(weights, dtype=complex).view(float)
    sums = np.einsum("knj,kjx->knx", powers, flat.reshape(k, j, 2 * n * n))
    return sums.view(complex).reshape(k, count, n, n)


def verify_recovered_moments(recovered, seq: MomentSequence,
                             rel_tol: float = TRANSFORM_REL_TOL
                             ) -> VerificationReport:
    """Same report for moments recovered by other means (the transform)."""
    if len(recovered) < len(seq):
        raise ValueError("recovered moment list shorter than the sequence")
    return _verifications(np.asarray(recovered)[None], seq, rel_tol)[0]


@dataclasses.dataclass(eq=False)
class StieltjesTransform:
    """T(lam)[k, l] = (R(lam) x_k, x_l) for a fixed parameter.

    Callable on any nonreal lam; the lower half-plane mirrors the upper one,
    T(conj lam) = T(lam)^H.  Im T(lam) is PSD for Im lam > 0.  The
    parameter is screened (screen_parameter) on first use, and its report
    and G are kept.
    """

    shift: ShiftOperator
    pair: DeficiencyPair
    parameter: ExtensionParameter
    tol: Tolerances = DEFAULT

    @property
    def block_dim(self) -> int:
        return self.shift.block_dim

    def _first_coords(self) -> np.ndarray:
        return self.shift.space.coords[:self.shift.block_dim]   # (N, m)

    @functools.cached_property
    def admissibility(self) -> AdmissibilityReport:
        """The report of screen_parameter; an inadmissible parameter raises
        NotAdmissible (on every access: nothing is kept then)."""
        from .extensions import screen_parameter
        return screen_parameter(self.pair, self.parameter, self.tol)

    @functools.cached_property
    def _g(self) -> np.ndarray:
        """G of the screened parameter."""
        from .extensions import _generator
        self.admissibility                  # NotAdmissible when refused
        return _generator(self.shift, self.pair, self.parameter.matrix)

    def __call__(self, lam: complex) -> np.ndarray:
        lam = complex(lam)
        if lam.imag == 0.0:
            raise ValueError("the spectral parameter must have nonzero "
                             "imaginary part")
        if lam.imag > 0.0:
            return self.eval_upper_many([lam])[0]
        return np.conj(self.eval_upper_many([np.conj(lam)])[0].T)

    def eval_upper_many(self, lams: np.ndarray) -> np.ndarray:
        """Vectorized upper-branch evaluation at many points.

        This evaluates the single rational function that continues the
        upper branch, at arbitrary complex points (including the real axis
        away from its poles), by a direct batched solve of G - lam.  A
        point where that system is exactly singular (a pole) raises
        SingularSystem, and an inadmissible parameter NotAdmissible.
        """
        lams = np.asarray(lams, dtype=complex).reshape(-1)
        n = self.shift.block_dim
        xn = self._first_coords()
        out = np.empty((lams.size, n, n), dtype=complex)
        g = self._g
        eye = np.eye(len(g))
        rhs = xn.T.copy()                                  # (m, N)
        for start in range(0, lams.size, _EVAL_CHUNK):
            lb = lams[start:start + _EVAL_CHUNK]
            sys_block = g[None, :, :] - lb[:, None, None] * eye[None, :, :]
            try:
                h = np.linalg.solve(sys_block,
                                    np.broadcast_to(rhs, (lb.size,) + rhs.shape))
            except np.linalg.LinAlgError:
                # det runs the same LU, so it is exactly 0 at the failing point
                lam = lb[np.argmin(np.abs(np.linalg.det(sys_block)))]
                raise SingularSystem(f"transform at {lam}: the resolvent "
                                     f"system is singular") from None
            out[start:start + lb.size] = np.swapaxes(np.conj(xn) @ h, -1, -2)
        return out


@dataclasses.dataclass(frozen=True)
class ContourRecovery:
    """Moments S_hat_n of the transform, n = 0..n_max, as (N, N) arrays."""

    moments: tuple


def moments_from_transform(transform: StieltjesTransform,
                           n_max: int) -> ContourRecovery:
    """S_0..S_{n_max} of a constant parameter's transform, in closed form.

    T(lam) = -sum over n of S_n / lam^{n+1} at large |lam|, so by the
    residue theorem S_n[k, l] = (x_l, G^n x_k), taken by repeated
    multiplication.  An inadmissible parameter is rejected with
    NotAdmissible.
    """
    g = transform._g
    xn = transform._first_coords()
    h = xn.T.copy()                                     # columns G^n x_k
    moments = []
    for _ in range(n_max + 1):
        moments.append(read_only((np.conj(xn) @ h).T))
        h = g @ h
    return ContourRecovery(moments=tuple(moments))


@dataclasses.dataclass(frozen=True, eq=False)
class PerronResult:
    """Cell masses from Stieltjes-Perron inversion.

    increments[i] is M([edges[i], edges[i+1])), an atom on an edge giving
    half its weight to each side.  method is "atoms" (an atomic measure
    binned, or the transform of an isometric parameter) or "residue" (the
    transform of a contraction).  Both are closed forms, so history is
    always empty: it stays only because the benchmark reads it, and goes
    with ROADMAP items 1b and 2.
    """

    edges: np.ndarray           # (K+1,)
    increments: np.ndarray      # (K, N, N)
    method: str
    history: tuple = ()


def _bin_atoms(locations, weights, edges: np.ndarray,
               tol: Tolerances) -> np.ndarray:
    """Masses the atoms give the cells [edges[i], edges[i+1]); an atom within
    cluster_rel (of the grid scale) of an edge goes half to each side, the
    Stieltjes-Perron limit."""
    k = len(edges) - 1
    masses = np.zeros((k,) + np.shape(weights)[1:], dtype=complex)
    near = tol.cluster_rel * max(1.0, max_abs(edges))
    for t, w in zip(locations, weights):
        e = int(np.argmin(np.abs(edges - t)))
        if abs(edges[e] - t) <= near:
            for cell in (e - 1, e):
                if 0 <= cell < k:
                    masses[cell] += 0.5 * w
            continue
        cell = int(np.searchsorted(edges, t, side="right")) - 1
        if 0 <= cell < k:
            masses[cell] += w
    return masses


def bin_measure(measure: AtomicMatrixMeasure, start: float, stop: float,
                cell_width: float, tol: Tolerances = DEFAULT) -> PerronResult:
    """Masses an atomic measure gives the half-open cells [x, x+h) on
    [start, stop), labelled "atoms"."""
    edges = _cell_edges(start, stop, cell_width)
    return PerronResult(edges, read_only(_bin_atoms(
        measure.locations, measure.weights, edges, tol)), "atoms")


def perron_inversion(transform: StieltjesTransform, start: float, stop: float,
                     cell_width: float) -> PerronResult:
    """Masses of half-open cells [x, x+h) on [start, stop), in closed form
    from the poles and residues of the rational transform, for every
    parameter.

    With G = Z diag(mu) Z^{-1}, T(lam) = sum_j r_j / (mu_j - lam) where
    r_j[k, l] = (Z^{-1} X)[j, k] (X^H Z)[l, j].  An admissible G has no
    pole above the real axis, so a pole above it (a singular value of the
    parameter just over 1) or within cluster_rel (of the spectral radius
    of G, at least 1) below it is an atom at Re mu_j with weight Herm r_j,
    binned as bin_measure bins.  Every other pole lies below the axis, and
    there is no eps limit: it gives a cell [a, b) the mass
    (1/pi) Herm-Im r_j (log(mu_j - a) - log(mu_j - b)).  An isometric
    parameter's G is Hermitian, so its poles are all atoms and their
    residues the weights of its spectral measure; method labels the result
    "atoms" then and "residue" for a contraction, by one route.  Those
    weights are accurate to eps rho(G) |S_0|, absolutely: a far atom's
    weight keeps no relative accuracy of its own.

    The residues sum to S_0 = X^H X whatever the poles, so their computed
    sum checks no pole: it misses S_0 only by the rounding left where
    residues of size cond(Z) |S_0| cancel, about eps cond(Z) |S_0|, and
    the cells, weighted sums of the same residues, carry about that error.
    This guards the conditioning of Z: SingularSystem when the miss
    exceeds TRANSFORM_REL_TOL times max |S_0| (no floor of 1, so
    S_n -> c S_n leaves the verdict as it is) or when G has no
    eigenvector basis, and NotAdmissible for an inadmissible parameter.
    Every other threshold comes from transform.tol.
    """
    from .extensions import KIND_ISOMETRIC
    edges = _cell_edges(start, stop, cell_width)
    tol = transform.tol
    g = transform._g
    xn = transform._first_coords()                      # (N, m)
    try:
        mu, z = np.linalg.eig(g)
        right = np.linalg.solve(z, xn.T)                # Z^{-1} X, (m, N)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"pole-residue form unavailable: the "
                             f"eigen-decomposition of G failed ({exc})") from None
    left = np.conj(xn) @ z                              # X^H Z, (N, m)
    s0 = np.conj(xn) @ xn.T                             # S_0 transposed
    miss, scale = max_abs(left @ right - s0), max_abs(s0)
    if not miss <= TRANSFORM_REL_TOL * scale:           # also rejects nan
        raise SingularSystem(
            f"pole-residue form: the residues miss the mass S_0 by "
            f"{miss:.3e} > {TRANSFORM_REL_TOL:.0e} of max|S_0| {scale:.3e}")
    real = mu.imag >= -tol.cluster_rel * max(1.0, max_abs(mu))
    off = mu[~real]
    logs = np.zeros((len(edges) - 1, mu.size), dtype=complex)
    logs[:, ~real] = (np.log(off[None, :] - edges[:-1, None])
                      - np.log(off[None, :] - edges[1:, None]))
    f = np.einsum("jk,bj,lj->bkl", right, logs, left)
    masses = (f - np.conj(np.swapaxes(f, -1, -2))) / (2j * np.pi)
    atoms = right[real][:, :, None] * left.T[real][:, None, :]
    masses += _bin_atoms(mu[real].real,
                         0.5 * (atoms + np.conj(np.swapaxes(atoms, -1, -2))),
                         edges, tol)
    method = ("atoms" if transform.parameter.kind == KIND_ISOMETRIC
              else "residue")
    return PerronResult(edges, read_only(masses), method)


def _cell_count(start: float, stop: float, cell_width: float) -> int:
    """The number of complete cells of width cell_width on [start, stop);
    ValueError when there is none or more than MAX_CELLS."""
    if not (stop > start and cell_width > 0.0):
        raise ValueError("need stop > start and a positive cell width")
    cells = (stop - start) / cell_width + 1e-9
    if not cells < MAX_CELLS + 1:                   # also an infinite count
        raise ValueError(f"grid holds {cells:.4g} cells, more than the "
                         f"{MAX_CELLS} allowed")
    if cells < 1:
        raise ValueError("grid holds no complete cell")
    return math.floor(cells)


def _cell_edges(start: float, stop: float, cell_width: float) -> np.ndarray:
    """The edges of the complete cells of width cell_width on
    [start, stop), checked by _cell_count before anything is allocated."""
    n_cells = _cell_count(start, stop, cell_width)
    return read_only(start + cell_width * np.arange(n_cells + 1))


def _stack(counts, locs, weights, fill: float):
    """Atoms given row after row, counts[i] of them in row i, as the
    left-aligned stack of locations (K, J) padded with fill and weights
    (K, J, N, N) padded with 0, J the largest count."""
    counts = np.asarray(counts)
    present = np.arange(counts.max(initial=0)) < counts[:, None]
    padded_locs = np.full(present.shape, fill)
    padded_weights = np.zeros(present.shape + weights.shape[1:],
                              dtype=complex)
    padded_locs[present] = locs
    padded_weights[present] = weights
    return padded_locs, padded_weights


def measure_distance(m1: AtomicMatrixMeasure, m2: AtomicMatrixMeasure,
                     site_tol: float = 1e-6) -> float:
    """Largest weight discrepancy over the merged atom sites of two measures.

    The atom locations of both measures are pooled and sorted, and merged
    greedily: a location starts a new site when it lies more than site_tol
    above the site currently open, otherwise it joins it.  At each site s,
    each measure contributes the sum of its weights at |t - s| <= site_tol,
    and the distance is the largest |entry| of the difference over all
    sites.  A site carried by one measure only thus contributes the largest
    |entry| of its weight, and the value is positive exactly when the
    measures differ as atom sets (up to site_tol) or in any weight entry.

    The two measures are stacked by _stack (locations padded with NaN) and
    measured by _distances, the kernel theta_sweep runs on the stack its
    atom assembly built.  A negative or non-finite site_tol raises
    ValueError, as do measures of different block sizes.
    """
    if not (math.isfinite(site_tol) and site_tol >= 0.0):
        raise ValueError(f"site_tol must be a finite, non-negative number, "
                         f"got {site_tol!r}")
    if m1.block_dim != m2.block_dim:
        raise ValueError("measures of different block sizes")
    return float(_distances(*_stack(
        [m1.n_atoms, m2.n_atoms], np.concatenate([m1.locations, m2.locations]),
        np.concatenate([m1.weights, m2.weights]), np.nan), site_tol)[0, 1])


def _distances(locs, weights, site_tol: float) -> np.ndarray:
    """measure_distance between every two of K measures, as a symmetric
    K x K matrix with a zero diagonal, in one array pass over all pairs of
    a padded stack: locations (K, J) with NaN past each row's atoms (NaN
    sorts last and lies within site_tol of nothing) and weights
    (K, J, N, N) with 0 there.

    The sorted pooled locations of a pair fall into clusters: maximal runs
    whose neighbours lie within site_tol.  Since fl(t - s) is monotone in
    t and in s, the first location of a cluster opens a site and no window
    reaches past its cluster, so the distance is the largest value of any
    cluster:
    - a lone location is a site holding its own atom alone: that atom's
      largest |entry|.  A pair with no gap within site_tol thus takes the
      larger of the two measures' largest |entry|;
    - two locations make one site whose windows hold both atoms: the
      largest |entry| of W_a - W_b when they come from the two measures,
      of W_a + W_b when one measure holds both;
    - a cluster of three or more goes through _cluster_distance, the
      plain loop of the definition on its own entries.  No such cluster
      arose in the pairs of the benchmark's family sweeps (two atoms of one
      solution would have to lie within 2 site_tol), while clusters of
      two run into the thousands per sweep pool: those take the closed
      form, the rare larger ones a loop.
    Every value is that of a plain loop over sites and atoms, bit for bit.

    The pooled rows of all pairs are gathered by one index and sorted by
    one stable argsort; the sorted locations are one flat gather along
    that order (np.take_along_axis costs more than the sort it replaces),
    and the merged pairs read their entries off the same order."""
    k, width, n = weights.shape[:3]
    out = np.zeros((k, k))
    # atom a of measure i is row i * J + a, its key
    flat = weights.reshape(k * width, n * n)
    peaks = np.abs(flat).max(axis=1, initial=0.0)  # largest |entry| per atom
    pairs = np.array(np.nonzero(np.arange(k)[:, None] < np.arange(k)))
    first, second = pairs
    pooled = locs[pairs.T].reshape(len(first), 2 * width)
    order = np.argsort(pooled, axis=1, kind="stable")
    starts = 2 * width * np.arange(len(first))[:, None]
    ordered = pooled.ravel()[order + starts]
    # gaps next to the padding are nan, which is not <= site_tol
    close = ordered[:, 1:] - ordered[:, :-1] <= site_tol
    merged = np.flatnonzero(close.any(axis=1))
    peak = peaks.reshape(k, width).max(axis=1, initial=0.0)
    dist = np.maximum(peak[first], peak[second])
    if merged.size:
        # every sorted entry of a merged pair, flattened: whether it comes
        # from the second measure, and its key
        order = order[merged]
        side = (order >= width).ravel()
        key = (order + np.where(order < width, first[merged, None] * width,
                                second[merged, None] * width - width)).ravel()
        # joins[e]: entry e lies within site_tol of entry e - 1; the two
        # False entries past the end close the last clusters
        joins = np.zeros(key.size + 2, dtype=bool)
        joins[:key.size].reshape(order.shape)[:, 1:] = close[merged]
        opens, followed = ~joins[:-2], joins[1:-1]
        value = np.where(opens & ~followed, peaks[key], 0.0)    # lone
        a = np.flatnonzero(opens & followed & ~joins[2:])       # two
        wa, wb = flat[key[a]], flat[key[a + 1]]
        value[a] = np.abs(np.where((side[a] != side[a + 1])[:, None],
                                   wa - wb, wa + wb)).max(axis=1)
        big = np.flatnonzero(opens & followed & joins[2:])
        ends = np.flatnonzero(~followed)
        stops = ends[np.searchsorted(ends, big)] + 1
        for start, stop in zip(big.tolist(), stops.tolist()):
            atoms = key[start:stop]
            value[start] = _cluster_distance(locs.ravel()[atoms].tolist(),
                                             side[start:stop].tolist(),
                                             flat[atoms], site_tol)
        dist[merged] = value.reshape(order.shape).max(axis=1)
    out[first, second] = out[second, first] = dist
    return out


def _cluster_distance(locs, second, weights, site_tol: float) -> float:
    """The largest |entry| of the window-sum difference over the sites of
    one cluster of sorted pooled entries: their locations, whether each
    comes from the second measure, and their flattened weights (L, N*N).

    This is the plain loop of the definition on the cluster alone: sites
    open greedily, and each window sums its measure's atoms in atom order
    (a side's entries in a cluster are consecutive atoms of its measure).
    """
    sites = locs[:1]
    for t in locs[1:]:
        if t - sites[-1] > site_tol:
            sites.append(t)
    value = 0.0
    for s in sites:
        totals = np.zeros((2,) + weights.shape[1:], dtype=complex)
        for t, side, w in zip(locs, second, weights):
            if abs(t - s) <= site_tol:
                totals[int(side)] += w
        value = max(value, float(np.abs(totals[0] - totals[1]).max()))
    return value
