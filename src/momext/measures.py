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
and the cell masses are sums over the poles of T (or, for an isometric
parameter, over the atoms of its measure).  G comes from the one
admissibility gate; the direct batched solve of the transform has no
fallback and raises SingularSystem at a pole.  A transform screens its
parameter once and keeps the checked matrix and G.

Cells are half-open [x, x+h); an atom sitting exactly on a cell boundary
gives exactly half its weight to each of the two adjacent cells (the
Stieltjes-Perron limit), so checks around atoms should sum windows, not
single cells.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import SingularSystem
from .hankel import MomentSequence
from .linalg import max_abs, read_only
from .extensions import (KIND_ISOMETRIC, ExtensionParameter,
                         SelfAdjointExtension, _quasi_extension,
                         _selfadjoint_extension, screen_parameter)
from .shift import DeficiencyPair, ShiftOperator
from .tolerances import DEFAULT, Tolerances

#: points per batched solve in StieltjesTransform.eval_upper_many
_EVAL_CHUNK = 8192


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
    def from_atoms(cls, locations, weights, block_dim: int | None = None,
                   merge_tol: float = 0.0, drop_tol: float = 0.0,
                   psd_rel: float = 1e-8,
                   degree: int = 0) -> "AtomicMatrixMeasure":
        """Sort atoms, merge near-coincident ones, drop negligible weights
        and check the rest PSD: _assemble on the one row of sorted atoms.

        Neighbours t_i < t_j are near-coincident when t_j - t_i <= merge_tol
        * max(1, |t_i|, |t_j|), and a run of them becomes one atom at their
        mean.  An atom is dropped when its largest weight entry times
        max(1, |t|)^degree is at most drop_tol: when it is negligible in
        every moment of order up to degree.  A weight whose smallest
        eigenvalue is below -psd_rel times the largest kept |entry| (at
        least 1) raises ValueError.
        """
        locs = np.asarray(locations, dtype=float).reshape(-1)
        w = np.asarray(weights, dtype=complex)
        if w.ndim == 1:                      # scalar weights -> 1 x 1 blocks
            w = w.reshape(-1, 1, 1)
        if w.shape[0] != locs.shape[0]:
            raise ValueError("locations and weights disagree in length")
        if not len(locs):           # block_dim sizes the weights of no atoms
            w = np.zeros((0, block_dim or 1, block_dim or 1), dtype=complex)
        order = np.argsort(locs, kind="stable")
        return _assemble(locs[order][None], w[order][None], merge_tol,
                         drop_tol, psd_rel, degree)[0]

    def moment(self, n: int) -> np.ndarray:
        """integral of x^n dM as an N x N matrix."""
        if self.n_atoms == 0:
            return np.zeros((self.block_dim, self.block_dim), dtype=complex)
        powers = self.locations ** n
        return np.einsum("j,jkl->kl", powers, self.weights)

    def total_mass(self) -> np.ndarray:
        return self.moment(0)


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
                     tol: Tolerances = DEFAULT
                     ) -> AtomicMatrixMeasure | tuple[AtomicMatrixMeasure, ...]:
    """Atomic solution measure read off the eigendecomposition of A_V; for a
    stacked extension, a tuple of measures from one batched eigh.

    Neighbouring eigenvalues t_i, t_j are clustered at gaps up to
    cluster_rel * max(1, |t_i|, |t_j|); each cluster contributes
    W_j = C_j C_j^H with C_j[k, i] = (x_k, v_i), manifestly Hermitian PSD.
    For |t| > 1, (x_k, v) is read off block row d as (x_{dN+k}, v) / t^d
    (A^d x_k = x_{dN+k}), so that the weight keeps its relative accuracy
    however large t is: an atom far out (the parameter near the forbidden
    operator) has a tiny weight that still carries t^{2d} W of S_{2d}.
    An atom is dropped only when W max(1, |t|)^{2d} is below weight_rel
    times the total-mass scale.  The atoms of every row are merged,
    dropped and checked PSD in one pass by _assemble, the one assembler
    (from_atoms is its case of one row): one batched Cholesky for N >= 2,
    an eigvalsh only when that fails.
    """
    n = shift.block_dim
    d = shift.order
    mats = extension.matrix
    if mats.ndim == 2:
        mats = mats[None]
    vals, vecs = np.linalg.eigh(mats)
    coords = shift.space.coords
    far = np.abs(vals) > 1.0

    def products(rows):                              # [., i, k] = (y_k, v_i)
        return np.swapaxes(rows @ np.conj(vecs), -1, -2)
    # c[., i, k] = (x_k, v_i), read off block row d where |t_i| > 1
    c = np.where(far[..., None], products(coords[d * n:(d + 1) * n])
                 / (np.where(far, vals, 1.0) ** d)[..., None],
                 products(coords[:n]))
    mass = np.swapaxes(c, -1, -2) @ np.conj(c)       # equals S_0
    # one rank-one weight per eigenvector; a cluster sums its members
    weights = c[..., :, None] * np.conj(c[..., None, :])
    measures = _assemble(vals, weights, tol.cluster_rel,
                         tol.weight_rel * np.abs(mass).max(axis=(1, 2)),
                         tol.psd_rel, 2 * d)
    return measures if extension.matrix.ndim == 3 else measures[0]


def _assemble(locs, weights, merge_tol, drop_tol, psd_rel: float,
              degree: int = 0) -> tuple[AtomicMatrixMeasure, ...]:
    """One measure per row of sorted locations (K, J) and weights
    (K, J, N, N), with one merge_tol and the row's drop_tol (a scalar or
    (K,)), in one pass over all rows.

    A run of near-coincident neighbours in a row becomes one atom at their
    mean, holding their summed weight, in the slot of its first member
    (np.add.reduceat over the flattened rows, skipped when no row
    clusters).  Then the weights are Hermitized, negligible ones and the
    merged-away slots dropped, and every kept weight is checked PSD at once
    (_first_non_psd, with the floor psd_rel times the row's largest kept
    |entry|, at least 1).  A non-PSD weight raises ValueError for the first
    in row order.  The measures are read-only views of the kept atoms.
    """
    k, j = locs.shape
    drop_tol = np.reshape(drop_tol, (-1, 1))
    reach = np.maximum(np.abs(locs), 1.0)
    opens = np.ones((k, j), dtype=bool)
    opens[:, 1:] = ~(locs[:, 1:] - locs[:, :-1]
                     <= merge_tol * np.maximum(reach[:, 1:], reach[:, :-1]))
    if not opens.all():
        starts = np.flatnonzero(opens)
        locs, weights = locs.copy(), weights.copy()
        flat = locs.reshape(k * j)
        flat[starts] = (np.add.reduceat(flat, starts)
                        / np.diff(np.append(starts, k * j)))
        flat = weights.reshape((k * j,) + weights.shape[2:])
        flat[starts] = np.add.reduceat(flat, starts, axis=0)
    w = 0.5 * (weights + np.conj(np.swapaxes(weights, -1, -2)))
    peaks = np.abs(w).max(axis=(2, 3))
    keep = opens & ((peaks * np.maximum(np.abs(locs), 1.0) ** degree
                     > drop_tol) | ~(drop_tol > 0.0))
    kept_locs, kept_w = read_only(locs[keep]), read_only(w[keep])
    if len(kept_w):
        scale = np.where(keep, peaks, 0.0).max(axis=1, initial=1.0)
        row = np.nonzero(keep)[0]
        failure = _first_non_psd(kept_locs, kept_w, psd_rel * scale[row])
        if failure:
            raise failure[1]
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    return tuple(AtomicMatrixMeasure(locations=kept_locs[start:end],
                                     weights=kept_w[start:end])
                 for start, end in zip([0] + ends, ends))


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
    """One report per row of a (K, >= len(seq), N, N) stack of moments."""
    data = seq._stack
    gaps = np.abs(recovered[:, :len(data)] - data)
    scale = max(1.0, float(np.abs(data).max()))
    reports = []
    for devs in gaps.max(axis=(2, 3)).tolist():
        worst = max(devs)
        reports.append(VerificationReport(
            deviations=tuple(devs), max_deviation=worst, scale=scale,
            rel_tol=rel_tol, passed=bool(worst <= rel_tol * scale)))
    return tuple(reports)


def verify_moments(measure: AtomicMatrixMeasure, seq: MomentSequence,
                   rel_tol: float = 1e-8) -> VerificationReport:
    """Compare integral x^n dM against S_n for every prescribed n.  This is
    verify_measures on the one measure."""
    return verify_measures([measure], seq, rel_tol)[0]


def verify_measures(measures, seq: MomentSequence,
                    rel_tol: float = 1e-8) -> tuple[VerificationReport, ...]:
    """verify_moments for each of K measures, in one array pass.

    Locations are padded with 0 and weights with 0 to the largest atom
    count, which adds exact zeros to every sum; a single measure is used
    through views of its own arrays.  The moments come from one einsum
    (_moment_sums, on the real view of the weights for N >= 2), which sums
    each in atom order whatever the padding, so every report is bit for bit
    that of its measure alone (a matmul would sum in another order).
    """
    if len(measures) == 1:
        locs = measures[0].locations[None]
        weights = measures[0].weights[None]
    elif not measures:
        return ()
    else:
        locs, weights = _padded(measures, 0.0)
    return _verifications(_moment_sums(locs, weights, len(seq)), seq,
                          rel_tol)


def _moment_sums(locs, weights, count: int) -> np.ndarray:
    """sum over atoms j of locs[k, j]^n weights[k, j] for n < count, from
    locations (K, J) and weights (K, J, N, N): (K, count, N, N), summed in
    atom order.

    For N >= 2 the einsum runs on the real view of the weights, (K, J,
    2 N^2) floats times real powers: the products and the order of the
    complex einsum, bit for bit, at a fraction of its cost.  At N = 1 that
    view is too short to pay, and the complex einsum is kept.
    """
    powers = locs[:, None, :] ** np.arange(count)[:, None]
    k, j, n = np.shape(weights)[:3]
    if n == 1:
        return np.einsum("knj,kjab->knab", powers, weights)
    flat = np.ascontiguousarray(weights, dtype=complex).view(float)
    sums = np.einsum("knj,kjx->knx", powers, flat.reshape(k, j, 2 * n * n))
    return sums.view(complex).reshape(k, count, n, n)


def verify_recovered_moments(recovered, seq: MomentSequence,
                             rel_tol: float = 1e-6) -> VerificationReport:
    """Same report for moments recovered by other means (the transform)."""
    if len(recovered) < len(seq):
        raise ValueError("recovered moment list shorter than the sequence")
    return _verifications(np.asarray(recovered)[None], seq, rel_tol)[0]


@dataclasses.dataclass(eq=False)
class StieltjesTransform:
    """T(lam)[k, l] = (R(lam) x_k, x_l) for a fixed parameter.

    Callable on any nonreal lam; the lower half-plane mirrors the upper one,
    T(conj lam) = T(lam)^H.  Im T(lam) is PSD for Im lam > 0.  The
    parameter is screened (screen_parameter, without the forbidden gap) on
    first use, and the checked matrix and G are kept.
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
    def _screened(self):
        """The checked parameter matrix and its admissibility report."""
        return screen_parameter(self.shift, self.pair, self.parameter, None,
                                self.tol)

    @functools.cached_property
    def _generator(self) -> np.ndarray:
        """G; an inadmissible parameter raises NotAdmissible (on every
        access: nothing is kept then)."""
        return _quasi_extension(self.shift, self.pair, *self._screened,
                                self.tol)

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
        away from its poles), by a direct batched solve of G - lam; it is
        the reference the closed-form cell masses are checked against.  A
        point where that system is exactly singular (a pole) raises
        SingularSystem, and an inadmissible parameter NotAdmissible.
        """
        lams = np.asarray(lams, dtype=complex).reshape(-1)
        n = self.shift.block_dim
        xn = self._first_coords()
        out = np.empty((lams.size, n, n), dtype=complex)
        g = self._generator
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


def _screened_transform(shift: ShiftOperator, pair: DeficiencyPair,
                        parameter: ExtensionParameter, vmat: np.ndarray,
                        report, tol: Tolerances) -> StieltjesTransform:
    """The transform of a parameter whose matrix and report screen_parameter
    has already given, so that it is not screened again."""
    transform = StieltjesTransform(shift, pair, parameter, tol)
    transform._screened = vmat, report
    return transform


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
    g = transform._generator
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
    half its weight to each side.  method is "atoms" (an isometric
    parameter's spectral measure, binned) or "residue" (closed form over
    the poles of a contraction's transform).  Both are exact, so history
    is always empty.
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
    [start, stop): perron_inversion's "atoms" result, for a measure that
    is already at hand."""
    return _atom_cells(measure, _cell_edges(start, stop, cell_width), tol)


def _atom_cells(measure: AtomicMatrixMeasure, edges: np.ndarray,
                tol: Tolerances) -> PerronResult:
    masses = _bin_atoms(measure.locations, measure.weights, edges, tol)
    return PerronResult(edges, read_only(masses), "atoms")


def _residue_cells(transform: StieltjesTransform,
                   edges: np.ndarray) -> PerronResult:
    """Cell masses of a contraction's transform from its poles and residues.

    With G = Z diag(mu) Z^{-1}, T(lam) = sum_j r_j / (mu_j - lam) where
    r_j[k, l] = (Z^{-1} X)[j, k] (X^H Z)[l, j].  A pole within cluster_rel
    (of the spectral radius of G) of the real axis is an atom at Re mu_j
    with weight Herm r_j, binned as in _atom_cells.  Every other pole lies
    below the axis, and there is no eps limit: it gives a cell [a, b) the
    mass (1/pi) Herm-Im r_j (log(mu_j - a) - log(mu_j - b)).  Raises
    SingularSystem when G has no eigenvector basis, or when the residue
    form misses the direct solve by more than perron_abs at the cell
    midpoints lifted by one cell width.
    """
    tol = transform.tol
    g = transform._generator
    xn = transform._first_coords()                      # (N, m)
    try:
        mu, z = np.linalg.eig(g)
        right = np.linalg.solve(z, xn.T)                # Z^{-1} X, (m, N)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"pole-residue form unavailable: the "
                             f"eigen-decomposition of G failed ({exc})") from None
    left = np.conj(xn) @ z                              # X^H Z, (N, m)

    def residue_sum(coef):                              # coef: (B, m)
        return np.einsum("jk,bj,lj->bkl", right, coef, left)

    widths = np.diff(edges)
    probes = 0.5 * (edges[:-1] + edges[1:]) + 1j * widths
    direct = transform.eval_upper_many(probes)
    gap = max_abs(residue_sum(1.0 / (mu[None, :] - probes[:, None]))
                  - direct)
    if not gap <= tol.perron_abs:                       # also rejects nan
        raise SingularSystem(
            f"pole-residue form misses the direct solve by {gap:.3e} "
            f"> perron_abs {tol.perron_abs:.1e}")
    real = np.abs(mu.imag) <= tol.cluster_rel * max(1.0, max_abs(mu))
    off = mu[~real]
    logs = np.zeros((len(widths), mu.size), dtype=complex)
    logs[:, ~real] = (np.log(off[None, :] - edges[:-1, None])
                      - np.log(off[None, :] - edges[1:, None]))
    f = residue_sum(logs)
    masses = (f - np.conj(np.swapaxes(f, -1, -2))) / (2j * np.pi)
    atoms = right[real][:, :, None] * left.T[real][:, None, :]
    masses += _bin_atoms(mu[real].real,
                         0.5 * (atoms + np.conj(np.swapaxes(atoms, -1, -2))),
                         edges, tol)
    return PerronResult(edges, read_only(masses), "residue")


def perron_inversion(transform: StieltjesTransform, start: float, stop: float,
                     cell_width: float) -> PerronResult:
    """Masses of half-open cells [x, x+h) on [start, stop), in closed form.

    Isometric parameters bin the atoms of their self-adjoint extension
    (bin_measure); contractions go through the poles and residues of their
    rational transform.  Raises NotAdmissible for an inadmissible parameter
    and SingularSystem when the pole-residue form fails its check.  Every
    threshold comes from transform.tol.
    """
    edges = _cell_edges(start, stop, cell_width)
    if transform.parameter.kind == KIND_ISOMETRIC:
        tol = transform.tol
        ext = _selfadjoint_extension(transform.shift, transform.pair,
                                     transform.parameter,
                                     *transform._screened, tol)
        return _atom_cells(spectral_measure(ext, transform.shift, tol),
                           edges, tol)
    return _residue_cells(transform, edges)


def _cell_edges(start: float, stop: float, cell_width: float) -> np.ndarray:
    """The edges of the complete cells of width cell_width on
    [start, stop)."""
    if not (stop > start and cell_width > 0.0):
        raise ValueError("need stop > start and a positive cell width")
    n_cells = int(np.floor((stop - start) / cell_width + 1e-9))
    if n_cells < 1:
        raise ValueError("grid holds no complete cell")
    return read_only(start + cell_width * np.arange(n_cells + 1))


def _padded(measures, fill: float):
    """The locations (K, J) and weights (K, J, N, N) of K >= 1 measures,
    padded to the largest atom count J with fill and with 0."""
    n = measures[0].block_dim
    if any(m.block_dim != n for m in measures):
        raise ValueError("measures of different block sizes")
    counts = np.array([m.n_atoms for m in measures])
    present = np.arange(counts.max()) < counts[:, None]
    locs = np.full(present.shape, fill)
    weights = np.zeros(present.shape + (n, n), dtype=complex)
    locs[present] = np.concatenate([m.locations for m in measures])
    weights[present] = np.concatenate([m.weights for m in measures])
    return locs, weights


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
    This is pairwise_distances on the one pair.
    """
    return float(pairwise_distances([m1, m2], site_tol)[0, 1])


def pairwise_distances(measures, site_tol: float = 1e-6) -> np.ndarray:
    """measure_distance between every two of K measures, as a symmetric
    K x K matrix with a zero diagonal, in one array pass over all pairs.

    Locations are padded with NaN (which sorts last and lies within
    site_tol of nothing) and weights with 0 to the largest atom count J.
    The sorted pooled locations of a pair fall into clusters: maximal runs
    whose neighbours lie within site_tol.  Since fl(t - s) is monotone in t
    and in s, the first location of a cluster opens a site and no window
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
    A negative or non-finite site_tol raises ValueError.
    """
    if not (math.isfinite(site_tol) and site_tol >= 0.0):
        raise ValueError(f"site_tol must be a finite, non-negative number, "
                         f"got {site_tol!r}")
    k = len(measures)
    out = np.zeros((k, k))
    if k < 2:
        return out
    locs, weights = _padded(measures, np.nan)
    width, n = weights.shape[1:3]
    # atom a of measure i is row i * J + a, its key
    flat = weights.reshape(k * width, n * n)
    peaks = np.abs(flat).max(axis=1, initial=0.0)  # largest |entry| per atom
    first, second = np.nonzero(np.arange(k)[:, None] < np.arange(k))
    pooled = np.concatenate([locs[first], locs[second]], axis=1)
    ordered = np.sort(pooled, axis=1)
    # gaps next to the padding are nan, which is not <= site_tol
    close = ordered[:, 1:] - ordered[:, :-1] <= site_tol
    merged = np.flatnonzero(close.any(axis=1))
    peak = peaks.reshape(k, width).max(axis=1, initial=0.0)
    dist = np.maximum(peak[first], peak[second])
    if merged.size:
        # every sorted entry of a merged pair, flattened: whether it comes
        # from the second measure, and its key
        order = np.argsort(pooled[merged], axis=1, kind="stable")
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
