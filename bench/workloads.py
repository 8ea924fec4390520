"""The four benchmark workloads: one operation each, its checks, its trace.

A workload builds a pool of rounds from the seed; a round is a fixed list
of operations, one per instance class, so every complete round has the same
mix.  For each operation a workload provides

    run(op)           the untraced call a user waits for,
    check(op, res)    independent checks of the result (an ``Outcome``),
    traced(op, sp)    the same work as a chain of public layer calls, each
                      timed by the ``Spans`` recorder ``sp``,
    same(res, tres)   whether the chain reproduced ``run`` bit for bit.

Why each workload exists is in its ``why`` attribute; the numbers behind it
were measured with one BLAS thread on a 2-core x86-64 machine.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import instances as gen
from momext import (ExtensionParameter, MomentSequence,
                    NotAdmissible, NotPSD, StieltjesTransform, Workspace,
                    build_block_hankel, build_shift,
                    check_truncated_conditions, default_parameter,
                    deficiency_subspaces, factor_psd, forbidden_operator,
                    is_admissible, measure_distance, moments_from_transform,
                    pencil_spectral_radius, perron_inversion,
                    selfadjoint_extension, solve_scalar_even, solve_truncated,
                    spectral_measure, theta_sweep, verify_moments,
                    verify_recovered_moments)
from momext.jsonio import (dumps_canonical, parse_problem,
                           parse_scalar_sequence)
from momext.pipeline import TRANSFORM_SAMPLE_POINTS

#: an independently recomputed moment error above this (relative to the
#: largest moment entry) on a result the program reported as verified is a
#: silent wrong answer
SILENT_REL_ERR = 1e-7

#: grid of the density route, as in ``momext solve --grid=-3:3:0.5``
PERRON_GRID = (-3.0, 3.0, 0.5)

SWEEP_ANGLES = 32


@dataclasses.dataclass
class Outcome:
    """What the benchmark concluded about one operation.

    failed: it raised, its own verification failed, or its verdict or exit
    code differs from the one the input was built to give.  silent: it gave
    a wrong answer that it did not flag itself (this makes the run
    incorrect, not just failed).
    """

    failed: bool = False
    silent: bool = False
    reason: str = ""
    rel_err: float = 0.0            # worst max_deviation / scale
    cell_err: float | None = None   # worst |Perron increment - reference|
    errors: list = dataclasses.field(default_factory=list)
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def typical_err(self) -> float:
        """Median error over the results the op returned (one per angle
        for a sweep; the worse of the moment and cell-mass errors on the
        density route); 0 when it returned none."""
        return statistics.median(self.errors) if self.errors else 0.0

    def fail(self, reason: str, silent: bool = False) -> None:
        self.failed = True
        self.silent = self.silent or silent
        self.reason = self.reason or reason


class Spans:
    """Per-operation layer timings recorded around calls into momext.

    Each call is timed on its own; a span opened with ``open`` encloses
    other calls and is reported inclusive.  Times and call counts are kept
    per layer name for the current operation only.
    """

    def __init__(self):
        self.seconds: dict = {}
        self.calls: dict = {}

    def call(self, layer: str, fn, *args, **kwargs):
        with self.open(layer):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def open(self, layer: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(layer, time.perf_counter() - t0)

    def add(self, layer: str, seconds: float) -> None:
        self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds
        self.calls[layer] = self.calls.get(layer, 0) + 1


# ------------------------------------------------------------ shared checks

def moment_rel_err(locations, weights, moments) -> float:
    """max_n max|sum_j t_j^n W_j - S_n| / max(1, largest |S_n| entry)."""
    scale = max(1.0, max(float(np.abs(s).max()) for s in moments))
    if len(locations) == 0:
        got = [np.zeros_like(s) for s in moments]
    else:
        got = gen.atomic_moments(locations, weights, len(moments))
    return max(float(np.abs(g - s).max()) for g, s in zip(got, moments)) / scale


def recovered_rel_err(recovered, moments) -> float:
    scale = max(1.0, max(float(np.abs(s).max()) for s in moments))
    return max(float(np.abs(np.asarray(r) - s).max())
               for r, s in zip(recovered, moments)) / scale


def check_measure(out: Outcome, locations, weights, moments,
                  program_passed: bool, what: str) -> None:
    """Fold one returned measure into ``out``."""
    err = moment_rel_err(locations, weights, moments)
    out.rel_err = max(out.rel_err, err)
    out.errors.append(err)
    if not program_passed:
        out.fail(f"{what}: its own verification failed (rel err {err:.2e})")
    elif err > SILENT_REL_ERR:
        out.fail(f"{what}: reported verified but misses the moments by "
                 f"{err:.2e}", silent=True)


def measures_equal(a, b) -> bool:
    return (np.array_equal(a.locations, b.locations)
            and np.array_equal(a.weights, b.weights))


def staged_prepare(seq: MomentSequence, sp: Spans) -> Workspace:
    """``momext.prepare`` as its five public stages, each timed."""
    with sp.open("pipeline.prepare_s"):
        report = sp.call("hankel.check_s", check_truncated_conditions, seq)
        if not report.solvable:
            raise NotPSD("the staged chain met unsolvable data")
        space = sp.call("gram.factor_s", lambda: factor_psd(
            build_block_hankel(seq, report.order)))
        shift = sp.call("shift.build_s", build_shift, space)
        pair = sp.call("shift.deficiency_s", deficiency_subspaces, shift)
        forb = sp.call("shift.forbidden_s", forbidden_operator, shift, pair)
    return Workspace(sequence=seq, condition=report, space=space, shift=shift,
                     pair=pair, forbidden=forb)


def workspace_counts(ws: Workspace) -> dict:
    return {"gram.rank_m": ws.space.ambient_dim, "shift.defect_q": ws.defect}


@dataclasses.dataclass(frozen=True)
class _Staged:
    """What a staged chain produced, in the shape ``same`` compares."""

    measure: object = None
    measures: tuple = ()
    distance: np.ndarray | None = None
    moments: tuple = ()
    increments: np.ndarray | None = None
    verdict: str | None = None


# --------------------------------------------------------------- solve-grid

class SolveGrid:
    name = "solve-grid"
    why = ("solve_truncated with the default parameter on N in {1,2,4,8} x "
           "d in {2,4,6}, full-defect and rank-drop, plus scalar "
           "sequences of all four verdicts: the main library path. "
           "default_parameter (8 is_admissible calls) is 42-46% of a solve; "
           "Perron and contour code are not used.")
    # the midpoint of the slowest class (N = 8, d = 6: 2 of every 64 ops),
    # so that the tail follows that class rather than its rarest draw
    tail_percentile = 98.5
    memory_rounds = 1
    # d = 8 and 10 are left to the edge probe: over 60 seeds x 8 rounds,
    # 2 of 960 N = 8, d = 8 solves and 13 of 960 at d = 10 failed their own
    # verification, and one N = 2, d = 10 draw was refused as not positive
    # definite; no solve at d <= 6 failed
    sizes = [(n, d) for n in (1, 2, 4, 8) for d in (2, 4, 6)]
    scalar_orders = (1, 2, 3, 4)
    #: (seed, N, d, rank drop, round) of draws that fail on the seed code
    edge_draws = ((8, 8, 10, False, 3), (11, 8, 8, True, 4),
                  (19, 8, 10, True, 2), (20, 2, 10, True, 6))

    def build(self, seed: int, rounds: int = 32) -> list:
        pool = []
        for r in range(rounds):
            ops = [gen.matrix_instance(seed, (1, n, d, drop, r), n, d, drop)
                   for n, d in self.sizes for drop in (False, True)]
            ops += [gen.scalar_instance(seed, (2, d, v, r), d, verdict)
                    for d in self.scalar_orders
                    for v, verdict in enumerate(gen.SCALAR_VERDICTS)]
            pool.append(ops)
        return pool

    def run(self, op):
        if isinstance(op, gen.ScalarInstance):
            return solve_scalar_even(op.values)
        return solve_truncated(MomentSequence.from_arrays(op.moments))

    def edge_cases(self) -> list:
        return [(gen.matrix_instance(seed, (1, n, d, drop, r), n, d, drop),
                 self.run) for seed, n, d, drop, r in self.edge_draws]

    def check(self, op, res) -> Outcome:
        out = Outcome()
        if isinstance(op, gen.ScalarInstance):
            if res.verdict != op.verdict:
                out.fail(f"{op.label}: verdict {res.verdict}", silent=True)
            elif res.measure is not None:
                check_measure(out, res.measure.locations, res.measure.weights,
                              [v.reshape(1, 1) for v in op.values], True,
                              op.label)
            return out
        if res.defect != op.defect:
            out.fail(f"{op.label}: defect {res.defect}, built for "
                     f"{op.defect}", silent=True)
        check_measure(out, res.measure.locations, res.measure.weights,
                      op.moments, res.verification.passed, op.label)
        out.counts = {"gram.rank_m": res.gram_rank,
                      "shift.defect_q": res.defect,
                      "measures.atoms": res.measure.n_atoms}
        return out

    def traced(self, op, sp: Spans):
        if isinstance(op, gen.ScalarInstance):
            res = sp.call("scalar.solve_even_s", solve_scalar_even, op.values)
            return _Staged(measure=res.measure, verdict=res.verdict)
        seq = MomentSequence.from_arrays(op.moments)
        ws = staged_prepare(seq, sp)
        parameter, _report, _theta = sp.call(
            "pipeline.default_parameter_s", default_parameter, ws)
        ext = sp.call("extensions.selfadjoint_s", selfadjoint_extension,
                      ws.shift, ws.pair, parameter)
        measure = sp.call("measures.spectral_s", spectral_measure, ext,
                          ws.shift)
        sp.call("measures.verify_s", verify_moments, measure, seq,
                rel_tol=1e-8)
        return _Staged(measure=measure)

    def same(self, res, staged: _Staged) -> bool:
        if staged.verdict is not None:
            return (staged.verdict == res.verdict
                    and (res.measure is None) == (staged.measure is None)
                    and (res.measure is None
                         or measures_equal(res.measure, staged.measure)))
        return measures_equal(res.measure, staged.measure)


# ------------------------------------------------------------- family-sweep

class FamilySweep:
    name = "family-sweep"
    why = ("theta_sweep over 32 angles in [1, 2pi-1] on N = 1, d in {4,5,6}: "
           "one prepare, then many parameters, so per-Workspace caching "
           "shows here. measure_distance is ~70% of a sweep; no other "
           "workload calls it.")
    tail_percentile = 70.0
    memory_rounds = 1
    # Near an eigen-angle of the forbidden operator (within 0.5 of 0 on
    # these draws) the measures theta_sweep returns miss the moments by up
    # to 4e-2 and fail their own verification: the default grid from
    # theta = 0 failed on 18-19 of every 20 sweeps.  At N >= 2
    # sweeps also failed far from them (near pi at N = 4), on about 1 in 10
    # even with the angles kept in [0.6, 2pi-0.6]; at N = 1, d <= 6 and in
    # [1, 2pi-1], none of 1840 sweeps failed.  The edge probe keeps the
    # failing cases.  Three classes (an odd count) keep the median inside one.
    sizes = [(1, 4), (1, 5), (1, 6)]
    thetas = np.linspace(1.0, 2.0 * np.pi - 1.0, SWEEP_ANGLES)
    #: (seed, N, d, round) swept on the default grid, which fails there
    edge_draws = ((1, 1, 6, 0), (1, 2, 4, 0), (1, 4, 4, 0))

    def build(self, seed: int, rounds: int = 16) -> list:
        return [[gen.matrix_instance(seed, (3, n, d, r), n, d, False)
                 for n, d in self.sizes] for r in range(rounds)]

    def run(self, op):
        return theta_sweep(MomentSequence.from_arrays(op.moments),
                           thetas=self.thetas)

    def edge_cases(self) -> list:
        def default_grid(op):
            return theta_sweep(MomentSequence.from_arrays(op.moments),
                               n_thetas=SWEEP_ANGLES)
        return [(gen.matrix_instance(seed, (3, n, d, r), n, d, False),
                 default_grid) for seed, n, d, r in self.edge_draws]

    def check(self, op, res) -> Outcome:
        out = Outcome()
        if res.workspace.defect != op.defect:
            out.fail(f"{op.label}: defect {res.workspace.defect}, built for "
                     f"{op.defect}", silent=True)
        admissible = [i for i, e in enumerate(res.entries)
                      if e.measure is not None]
        atoms = 0
        for i in admissible:
            e = res.entries[i]
            atoms += e.measure.n_atoms
            check_measure(out, e.measure.locations, e.measure.weights,
                          op.moments, e.verification.passed,
                          f"{op.label} theta={e.theta:.4f}")
        # distinct admissible parameters must give distinct measures
        dist = res.distance_matrix
        for a, i in enumerate(admissible):
            for j in admissible[a + 1:]:
                if not dist[i, j] > 0.0 or dist[i, j] != dist[j, i]:
                    out.fail(f"{op.label}: angles {i} and {j} give distance "
                             f"{dist[i, j]!r}", silent=True)
        k = len(admissible)
        out.counts = {**workspace_counts(res.workspace),
                      "measures.atoms": atoms,
                      "sweep.forbidden_hits": len(res.forbidden_thetas),
                      "measures.distance_pairs": k * (k - 1) // 2}
        return out

    def traced(self, op, sp: Spans):
        seq = MomentSequence.from_arrays(op.moments)
        ws = staged_prepare(seq, sp)
        q = ws.defect
        measures = []
        for theta in self.thetas:
            v = np.exp(1j * theta) * np.eye(q, dtype=complex)
            report = sp.call("shift.admissible_s", is_admissible, v, ws.shift,
                             ws.pair, ws.forbidden)
            if not report.admissible:
                measures.append(None)
                continue
            ext = sp.call("extensions.selfadjoint_s", selfadjoint_extension,
                          ws.shift, ws.pair, ExtensionParameter.isometric(v))
            measure = sp.call("measures.spectral_s", spectral_measure, ext,
                              ws.shift)
            sp.call("measures.verify_s", verify_moments, measure, seq,
                    rel_tol=1e-8)
            measures.append(measure)
        k = len(measures)
        dist = np.full((k, k), np.nan)
        for i in range(k):
            if measures[i] is None:
                continue
            dist[i, i] = 0.0
            for j in range(i + 1, k):
                if measures[j] is not None:
                    dist[i, j] = dist[j, i] = sp.call(
                        "measures.distance_s", measure_distance, measures[i],
                        measures[j], site_tol=1e-3)
        return _Staged(measures=tuple(measures), distance=dist)

    def same(self, res, staged: _Staged) -> bool:
        if len(res.entries) != len(staged.measures):
            return False
        for e, m in zip(res.entries, staged.measures):
            if (e.measure is None) != (m is None):
                return False
            if m is not None and not measures_equal(e.measure, m):
                return False
        return np.array_equal(res.distance_matrix, staged.distance,
                              equal_nan=True)


# -------------------------------------------------------- transform-density

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gl_on(transform, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(1/pi) int_lo^hi Im T(u) du per interval, 10-point Gauss-Legendre."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    tv = transform.eval_upper_many(nodes.reshape(-1))
    n = tv.shape[-1]
    imt = ((tv - np.conj(np.swapaxes(tv, -1, -2))) / 2j).reshape(
        len(lo), len(_GL_NODES), n, n)
    return np.einsum("is,isab->iab", half[:, None] * _GL_WEIGHTS[None, :],
                     imt) / np.pi


def reference_cell_masses(transform, edges, tol: float = 1e-11,
                          max_depth: int = 48) -> np.ndarray:
    """Cell masses (1/pi) int Im T(u) du on the real axis, adaptively.

    For a strict contraction every pole of the rational continuation that
    ``eval_upper_many`` evaluates lies strictly below the axis, so Im T is
    smooth on it and needs no eps limit.  Each interval is halved until
    Gauss-Legendre on it and on its two halves agree within ``tol``.
    """
    k = len(edges) - 1
    n = transform.block_dim
    total = np.zeros((k, n, n), dtype=complex)
    lo, hi = np.asarray(edges[:-1], float), np.asarray(edges[1:], float)
    cell = np.arange(k)
    whole = _gl_on(transform, lo, hi)
    for _ in range(max_depth):
        mid = 0.5 * (lo + hi)
        halves = _gl_on(transform, np.concatenate([lo, mid]),
                        np.concatenate([mid, hi]))
        left, right = halves[:len(lo)], halves[len(lo):]
        refined = left + right
        done = np.abs(refined - whole).max(axis=(1, 2)) <= tol
        np.add.at(total, cell[done], refined[done])
        keep = ~done
        if not keep.any():
            return total
        lo, hi, cell = (np.concatenate([lo[keep], mid[keep]]),
                        np.concatenate([mid[keep], hi[keep]]),
                        np.concatenate([cell[keep], cell[keep]]))
        whole = np.concatenate([left[keep], right[keep]])
    raise RuntimeError("reference quadrature did not converge")


class TransformDensity:
    name = "transform-density"
    why = ("solve_truncated with an explicit strict contraction, then "
           "perron_inversion on [-3,3) in 0.5-wide cells, N in {1,2,4}, "
           "d = 2: the contraction route. Perron is 80-95% of an op and "
           "default_parameter is not called.")
    tail_percentile = 80.0
    # Perron's memory grows with its eps levels, which vary by draw, so the
    # median op's peak needs a few rounds to settle on the common case
    memory_rounds = 8
    # Perron's eps ladder stops after 3 levels on at least 5 of 6 draws at
    # d = 2, but on only about half of them at d = 3 or 4, and each extra
    # level doubles its cost: with d = 4 in the mix a run's throughput
    # depended on the draw (IQR/median 16% over 5 seeds), not the code
    sizes = [(1, 2), (2, 2), (4, 2)]

    def __init__(self):
        self._reference = {}

    def edge_cases(self) -> list:
        return []

    def build(self, seed: int, rounds: int = 64) -> list:
        return [[gen.matrix_instance(seed, (4, n, d, r), n, d, False,
                                     contraction=True)
                 for n, d in self.sizes] for r in range(rounds)]

    def run(self, op):
        res = solve_truncated(MomentSequence.from_arrays(op.moments),
                              ExtensionParameter.contraction(op.contraction))
        ws = res.workspace
        transform = StieltjesTransform(ws.shift, ws.pair, res.parameter)
        return res, transform, perron_inversion(transform, *PERRON_GRID)

    def check(self, op, result) -> Outcome:
        res, transform, perron = result
        out = Outcome()
        if res.kind != "transform" or res.defect != op.defect:
            out.fail(f"{op.label}: kind {res.kind}, defect {res.defect}",
                     silent=True)
        err = recovered_rel_err(res.recovery.moments, op.moments)
        out.rel_err = err
        if not res.verification.passed:
            out.fail(f"{op.label}: contour verification failed ({err:.2e})")
        elif err > SILENT_REL_ERR:
            out.fail(f"{op.label}: contour moments off by {err:.2e}",
                     silent=True)
        key = id(op)
        if key not in self._reference:
            self._reference[key] = reference_cell_masses(transform,
                                                         perron.edges)
        out.cell_err = float(np.abs(perron.increments
                                    - self._reference[key]).max())
        out.errors.append(max(err, out.cell_err))
        out.counts = {**workspace_counts(res.workspace),
                      "perron.eps_levels": len(perron.history) + 2,
                      "perron.cells": len(perron.increments)}
        return out

    def traced(self, op, sp: Spans):
        seq = MomentSequence.from_arrays(op.moments)
        ws = staged_prepare(seq, sp)
        parameter = ExtensionParameter.contraction(op.contraction)
        vmat = parameter.constant_matrix(ws.defect)
        report = sp.call("shift.admissible_s", is_admissible, vmat, ws.shift,
                         ws.pair, ws.forbidden)
        if not report.admissible:
            raise NotAdmissible("the staged chain met an inadmissible "
                                "contraction", margin=report.margin)
        transform = StieltjesTransform(ws.shift, ws.pair, parameter)
        for lam in TRANSFORM_SAMPLE_POINTS:
            transform(lam)
        # moments_from_transform evaluates the pencil radius twice inside
        # measures.contour_s; this extra call times one evaluation alone
        sp.call("extensions.pencil_radius_s", pencil_spectral_radius,
                ws.shift, ws.pair, vmat)
        rec = sp.call("measures.contour_s", moments_from_transform, transform,
                      2 * ws.condition.order)
        sp.call("measures.verify_s", verify_recovered_moments, rec.moments,
                seq, rel_tol=1e-6)
        perron = sp.call("measures.perron_s", perron_inversion, transform,
                         *PERRON_GRID)
        return _Staged(moments=rec.moments, increments=perron.increments)

    def same(self, result, staged: _Staged) -> bool:
        res, _transform, perron = result
        return (all(np.array_equal(a, b) for a, b in
                    zip(res.recovery.moments, staged.moments))
                and np.array_equal(perron.increments, staged.increments))


# -------------------------------------------------------------- cli-oneshot

def _cmatrix(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(m, dtype=complex)]


def _problem(moments, parameter=None) -> dict:
    out = {"version": 1, "N": int(moments[0].shape[0]),
           "moments": [_cmatrix(s) for s in moments]}
    if parameter is not None:
        out["parameter"] = {"kind": "contraction",
                            "matrix": _cmatrix(parameter)}
    return out


def _measure_file(locations, weights) -> dict:
    return {"atoms": [{"t": float(t), "W": _cmatrix(w)}
                      for t, w in zip(locations, weights)]}


def _json_matrix(rows) -> np.ndarray:
    return np.array([[complex(*z) for z in row] for row in rows])


def _json_measure(data):
    atoms = data["atoms"]
    return (np.array([a["t"] for a in atoms], dtype=float),
            np.array([_json_matrix(a["W"]) for a in atoms]))


@dataclasses.dataclass(frozen=True)
class ChildRun:
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int


def spawn(argv, env: dict, cwd: str, timeout: float = 60.0) -> ChildRun:
    """Run one child to completion; reap it with its own resource usage.

    stderr goes to a file so that only stdout is read through a pipe, and
    ``os.wait4`` (instead of ``Popen.wait``) returns the child's peak RSS.
    """
    err_path = os.path.join(cwd, f".stderr-{os.getpid()}")
    t0 = time.perf_counter()
    with open(err_path, "w+", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, text=True,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    os.remove(err_path)
    return ChildRun(code=proc.returncode, stdout=stdout, stderr=stderr,
                    seconds=seconds, maxrss_kb=usage.ru_maxrss)


@dataclasses.dataclass(frozen=True, eq=False)
class CliOp:
    """One momext invocation, its expected exit code, and what it reads."""

    label: str
    kind: str               # the command line without file names
    argv: tuple
    exit_code: int
    cwd: str
    input_text: str         # the file named first on the command line
    moments: tuple = ()     # the data the output is checked against
    verdict: str | None = None


class CliOneshot:
    name = "cli-oneshot"
    why = ("one momext subprocess per op, cycling check, solve, solve "
           "--grid, solve --theta, scalar-even and verify on small files: "
           "importing dominates (scipy.linalg alone is ~0.3 s) and library "
           "compute is under 2%, so compute optimisations should leave it "
           "unchanged.")
    tail_percentile = 66.0
    memory_rounds = 0           # each op is a process: its own peak RSS
    # ``momext sweep`` always starts at theta = 0, next to the forbidden
    # angle, and 64 of 1800 sweeps of these files failed their own
    # verification there; ``solve --theta=pi`` runs the same unimodular
    # route far from it, and the edge probe keeps the failing sweeps.
    edge_draws = ((288, 5), (293, 4))
    theta = "3.141592653589793"

    def __init__(self, env: dict, workdir: str):
        self.env = env
        self.workdir = workdir
        self.child_rss_kb = []      # peak RSS of each momext process

    def build(self, seed: int, rounds: int = 6) -> list:
        """Write each round's input files into its own directory."""
        return [self._round(seed, r, f"r{r}") for r in range(rounds)]

    def edge_cases(self) -> list:
        """``momext sweep`` on the default grid, on files where it fails."""
        cases = []
        for seed, r in self.edge_draws:
            cwd, texts, (base, _, _) = self._files(seed, r,
                                                   f"edge-{seed}-{r}")
            cases.append((CliOp(
                label=f"edge {seed}/{r} sweep problem.json", kind="sweep",
                argv=("sweep", "problem.json"), exit_code=0, cwd=cwd,
                input_text=texts["problem.json"], moments=base.moments),
                self.run))
        return cases

    def _files(self, seed: int, r: int, dirname: str) -> tuple:
        """Write round r's input files; return their directory, their texts
        and the instances behind problem.json, contraction.json and
        scalar.json."""
        base = gen.matrix_instance(seed, (5, r), 1 + r % 2, 2, False)
        contr = gen.matrix_instance(seed, (6, r), 1, 2, False,
                                    contraction=True)
        scalar = gen.scalar_instance(seed, (7, r), 2,
                                     gen.SCALAR_VERDICTS[r % 4])
        # check cycles through exit codes 0 (solvable), 2 (trailing section
        # not PSD: the Schur complement of H_1 in H_2 is at most S_4, so
        # S_4 - (lambda_max(S_4) + 1) I makes it negative definite) and 3
        # (leading section not positive definite: a single atom cannot make
        # H_1 invertible)
        if r % 3 == 0:
            check_moments = base.moments
        elif r % 3 == 1:
            top = base.moments[-1]
            shift = np.linalg.eigvalsh(top)[-1] + 1.0
            check_moments = base.moments[:-1] + (
                top - shift * np.eye(base.block_dim),)
        else:
            check_moments = gen.atomic_moments(
                base.locations[:1], base.weights[:1], 5)
        wrong = r % 2 == 1          # verify a measure with inflated weights
        texts = {
            "problem.json": json.dumps(_problem(base.moments)),
            "check.json": json.dumps(_problem(check_moments)),
            "contraction.json": json.dumps(
                _problem(contr.moments, contr.contraction)),
            "measure.json": json.dumps(_measure_file(
                base.locations, base.weights * (1.5 if wrong else 1.0))),
            "scalar.json": json.dumps([float(v) for v in scalar.values]),
        }
        cwd = os.path.join(self.workdir, dirname)
        os.makedirs(cwd, exist_ok=True)
        for name, text in texts.items():
            with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return cwd, texts, (base, contr, scalar)

    def _round(self, seed: int, r: int, dirname: str) -> list:
        cwd, texts, (base, contr, scalar) = self._files(seed, r, dirname)
        verdict = scalar.verdict
        wrong = r % 2 == 1

        def op(argv, code, **kw):
            kind = " ".join(a for a in argv if not a.endswith(".json"))
            return CliOp(label=f"r{r} {' '.join(argv)}", kind=kind, argv=argv,
                         exit_code=code, cwd=cwd, input_text=texts[argv[1]],
                         **kw)

        return [
            op(("check", "check.json"), (0, 2, 3)[r % 3]),
            op(("solve", "problem.json"), 0, moments=base.moments),
            op(("solve", "contraction.json", "--grid=-3:3:0.5"), 0,
               moments=contr.moments),
            op(("solve", "problem.json", f"--theta={self.theta}"), 0,
               moments=base.moments),
            op(("scalar-even", "scalar.json"),
               2 if verdict == gen.INFEASIBLE else 0, verdict=verdict),
            op(("verify", "problem.json", "measure.json"), 2 if wrong else 0),
        ]

    def run(self, op: CliOp) -> ChildRun:
        child = spawn([sys.executable, "-m", "momext.cli", *op.argv],
                      self.env, op.cwd)
        self.child_rss_kb.append(child.maxrss_kb)
        return child

    def check(self, op: CliOp, run: ChildRun) -> Outcome:
        out = Outcome()
        if run.code != op.exit_code:
            out.fail(f"{op.label}: exit {run.code}, expected {op.exit_code}: "
                     f"{run.stderr.strip()[:200]}", silent=run.code == 0)
            return out
        data = json.loads(run.stdout)
        command = op.argv[0]
        if command == "solve" and data["kind"] == "atomic":
            locs, weights = _json_measure(data["measure"])
            check_measure(out, locs, weights, op.moments,
                          data["verification"]["passed"], op.label)
        elif command == "solve":
            rec = [_json_matrix(m) for m in data["recovery"]["moments"]]
            out.rel_err = recovered_rel_err(rec, op.moments)
            out.errors.append(out.rel_err)
            if not data["verification"]["passed"]:
                out.fail(f"{op.label}: contour verification failed")
            elif out.rel_err > SILENT_REL_ERR:
                out.fail(f"{op.label}: contour moments off by "
                         f"{out.rel_err:.2e}", silent=True)
        elif command == "sweep":
            for entry in data["entries"]:
                if entry["measure"] is not None:
                    locs, weights = _json_measure(entry["measure"])
                    check_measure(out, locs, weights, op.moments,
                                  entry["verification"]["passed"],
                                  f"{op.label} theta={entry['theta']:.4f}")
        elif command == "scalar-even" and data["verdict"] != op.verdict:
            out.fail(f"{op.label}: verdict {data['verdict']}", silent=True)
        return out

    def traced(self, op: CliOp, sp: Spans) -> ChildRun:
        """A subprocess cannot be traced from outside, so the traced run
        adds in-process probes of the layers around it: parsing the input
        file, and serializing the output the CLI printed (which must come
        back byte for byte, since the CLI promises canonical JSON)."""
        run = self.run(op)
        parse = (parse_scalar_sequence if op.argv[0] == "scalar-even"
                 else parse_problem)
        sp.call("jsonio.parse_s", parse, op.input_text)
        if run.stdout.strip():
            text = sp.call("jsonio.dump_s", dumps_canonical,
                           json.loads(run.stdout))
            if text != run.stdout.strip():
                raise ValueError(f"{op.label}: output is not canonical JSON")
        return run

    def same(self, run: ChildRun, traced: ChildRun) -> bool:
        return run.code == traced.code and run.stdout == traced.stdout

    def startup_probe(self, sp: Spans) -> None:
        """Time a bare interpreter start, and importing momext.cli on top."""
        bare = spawn([sys.executable, "-c", "pass"], self.env, self.workdir)
        full = spawn([sys.executable, "-c", "import momext.cli"], self.env,
                     self.workdir)
        sp.add("cli.python_start_s", bare.seconds)
        sp.add("cli.import_s", full.seconds - bare.seconds)


WORKLOADS = {cls.name: cls for cls in
             (SolveGrid, FamilySweep, TransformDensity, CliOneshot)}
