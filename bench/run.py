"""Benchmark of momext, driven from outside through its API and its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one closed-loop, single-caller workload (see ``workloads.py``) for S
seconds of operation time, in whole rounds so that every run sees the same
instance mix, and checks every result against references that do not come
from momext.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` also runs each operation as a chain of
timed public layer calls and reports the per-layer metrics.

Each workload also runs its edge cases once, untimed: inputs left out of
the timed mix because the current code fails them, judged and reported
apart so that the defect stays visible.

Every time is scaled to a reference host speed (see ``hostspeed.py``); the
raw times are in the report.  Output: one line ``{"report": ...}`` with
everything measured (seed, input digest, numeric environment, failure
reasons, raw and scaled times, worst errors, per-layer detail), then the
result object as the last line.  The exit code is 0 whenever a result was
printed, and 2 when momext's sources are not next to the benchmark.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads, here and in every child: with
# OpenBLAS's default of one thread per core, an N=8, d=10 solve on 2 cores
# spreads over 316-424 ms instead of 66-82 ms, and the op times would
# measure the scheduler rather than momext.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 3          # fresh processes timed for setup_s; median kept
WALL_CAP_S = 150.0        # stop early (between ops) past this wall time

TIME_LAYERS = (
    "hankel.check_s", "gram.factor_s", "shift.build_s", "shift.deficiency_s",
    "shift.forbidden_s", "pipeline.prepare_s", "pipeline.default_parameter_s",
    "shift.admissible_s", "extensions.selfadjoint_s", "measures.spectral_s",
    "measures.verify_s", "measures.distance_s", "extensions.pencil_radius_s",
    "measures.contour_s", "measures.perron_s", "scalar.solve_even_s",
    "jsonio.parse_s", "jsonio.dump_s", "cli.import_s", "cli.python_start_s",
)
#: time per call rather than per operation
PER_CALL = ("shift.admissible_s",)
COUNTS = ("gram.rank_m", "shift.defect_q", "measures.atoms",
          "sweep.forbidden_hits", "measures.distance_pairs",
          "perron.eps_levels", "perron.cells")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build(name: str, seed: int, workdir: str):
    """The workload, its pool of rounds, and a digest of every input."""
    import instances
    from workloads import WORKLOADS, CliOneshot
    cls = WORKLOADS[name]
    workload = cls(child_env(), workdir) if cls is CliOneshot else cls()
    pool = workload.build(seed)
    return workload, pool, instances.digest(op for rnd in pool for op in rnd)


def time_setup(args, speed) -> tuple:
    """Seconds from spawning a fresh interpreter to its first timed op.

    Each probe imports momext and builds this workload's inputs exactly as
    the measuring process did, then says "ready"; the time is taken when
    that line arrives, so interpreter teardown is not counted.  Returns the
    raw times and the host-speed factor of each, from the startup reference
    sampled before and after it.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, text=True,
                                stdout=subprocess.PIPE)
        with proc.stdout:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    speed.sample()
    return times, [speed.factor(i) for i in range(SETUP_PROBES)]


@dataclasses.dataclass
class Row:
    """One operation: its untraced latency and checks, and in a traced run
    the latency of the staged chain, its layer spans and whether the chain
    reproduced the untraced result.  ``factor`` scales its times to the
    reference host speed."""

    op: object
    latency: float
    outcome: object
    ref_pos: int
    traced_latency: float = 0.0
    spans: object = None
    same: bool = True
    factor: float = 1.0


def measure(workload, pool, seconds: float, traced: bool, speed):
    """Whole rounds until the summed op time reaches ``seconds``.

    In a traced run every op runs twice, untraced and as the staged chain,
    in alternating order so neither side always finds the caches warm.
    The host-speed reference runs between ops, whenever ``speed.interval_s``
    of op time has passed, and once more at the end so every op lies
    between two of its samples.
    """
    from workloads import Spans
    rows, probes = [], []
    op_time = since_ref = 0.0
    wall0 = time.perf_counter()
    rnd = 0
    while rnd == 0 or op_time < seconds:
        if time.perf_counter() - wall0 > WALL_CAP_S:
            break
        if traced and hasattr(workload, "startup_probe"):
            speed.sample()
            since_ref = 0.0
            probes.append((Spans(), len(speed.samples) - 1))
            workload.startup_probe(probes[-1][0])
        for op in pool[rnd % len(pool)]:
            if not speed.samples or since_ref >= speed.interval_s:
                speed.sample()
                since_ref = 0.0
            sp = Spans()
            chain_first = traced and len(rows) % 2 == 1
            if chain_first:
                t_chain, staged = _timed(workload.traced, op, sp)
            latency, result = _timed(workload.run, op)
            if traced and not chain_first:
                t_chain, staged = _timed(workload.traced, op, sp)
            row = Row(op, latency, _judge(workload, op, result),
                      len(speed.samples) - 1)
            if traced:
                row.traced_latency, row.spans = t_chain, sp
                row.same = _same(workload, result, staged)
            rows.append(row)
            op_time += latency + row.traced_latency
            since_ref += latency + row.traced_latency
        rnd += 1
    speed.sample()
    for row in rows:
        row.factor = speed.factor(row.ref_pos)
    return rows, [(sp, speed.factor(pos)) for sp, pos in probes], rnd


def _timed(fn, *args):
    t0 = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:    # recorded and judged as a failed op
        value = exc
    return time.perf_counter() - t0, value


def _judge(workload, op, result):
    from workloads import Outcome
    out = Outcome()
    if isinstance(result, Exception):
        out.fail(f"{op.label}: raised {type(result).__name__}: {result}")
        return out
    try:
        return workload.check(op, result)
    except Exception as exc:    # output the checks cannot read is wrong
        out.fail(f"{op.label}: unreadable result "
                 f"({type(exc).__name__}: {exc})", silent=True)
        return out


def _same(workload, result, staged) -> bool:
    if isinstance(result, Exception) or isinstance(staged, Exception):
        return False
    return bool(workload.same(result, staged))


def environment(*speeds) -> dict:
    import scipy
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "host_reference_quartiles_s": {
                type(s).__name__: [float(x) for x in
                                   np.percentile(s.samples, [25, 50, 75])]
                for s in speeds}}


def latency_metrics(workload, rows, scaled: bool) -> dict:
    """ops_per_s, op_ms_p50, op_ms_tail (and the tail's sample counts).

    ops_per_s is the throughput of one round of the mix at each class's
    median latency: a round holds every instance class once, so this is
    (classes per round) / (sum of per-class median latencies).  It moves
    with the speed of every class but not with a rare draw that happens to
    be slow, which op_ms_tail reports instead.  op_ms_tail is taken at the
    workload's fixed percentile, chosen so that at least 10 samples lie
    beyond it in a 20-s run; a fixed percentile keeps a faster program
    from being measured at a higher one.
    """
    ms = [r.latency * (r.factor if scaled else 1.0) * 1e3 for r in rows]
    by_class: dict = {}
    for r, x in zip(rows, ms):
        by_class.setdefault(getattr(r.op, "kind", r.op.label), []).append(x)
    tail = float(np.percentile(ms, workload.tail_percentile))
    return {
        "ops_per_s": 1e3 * len(by_class) / sum(
            statistics.median(v) for v in by_class.values()),
        "op_ms_p50": statistics.median(ms),
        "op_ms_tail": tail,
        "tail": {"percentile": workload.tail_percentile,
                 "samples": len(ms), "beyond": sum(x > tail for x in ms)},
    }


def op_peak_mb(workload, ops, base_kb: int) -> float:
    """Memory one operation needs: the median op's peak, in MB.

    For the CLI each op is its own momext process, so this is the median
    peak RSS of those children.  For library calls it is the process's
    resident set before the first op plus the op's own peak allocation,
    traced (after the timed loop, since tracing slows allocation) over the
    workload's first ``memory_rounds`` rounds.  The process's overall peak
    would instead follow the rarest input: one Perron draw that needs two
    extra eps levels lifts it from 142 to 165 MB.
    """
    children = getattr(workload, "child_rss_kb", None)
    if children:
        return statistics.median(children) / 1024.0
    peaks = []
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            _timed(workload.run, op)            # judged in the timed loop
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return base_kb / 1024.0 + statistics.median(peaks) / 2.0 ** 20


def edge_probe(workload) -> dict:
    """Run the workload's edge cases once, untimed, and judge them.

    They are inputs the workload keeps out of its timed mix because the
    current code fails them (see each workload's ``edge_draws``): kept here,
    a known defect still shows in every report, and ``edge.failed_ops`` in
    a traced run falls when a change fixes it.
    """
    outcomes = [_judge(workload, op, _timed(fn, op)[1])
                for op, fn in workload.edge_cases()]
    return {"attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
            "failures": [o.reason for o in outcomes if o.failed]}


def end_to_end(workload, rows, setup, memory_mb):
    """The BENCHMARK.json end-to-end metrics, and the details behind them.

    accuracy_digits is -log10 of the typical relative error (see
    ``Outcome.typical_err``) of the median op among those that return
    results to check (a verdict or an exit code alone has no digits): a
    change that loses digits across the board moves it, while the single
    worst error of a run, which depends on the draw, is reported beside it
    with the failures.
    """
    setup_times, setup_factors = setup
    lat = latency_metrics(workload, rows, scaled=True)
    raw = latency_metrics(workload, rows, scaled=False)
    outcomes = [r.outcome for r in rows]
    cells = [o.cell_err for o in outcomes if o.cell_err is not None]
    returned = [o.typical_err for o in outcomes if o.errors]
    typical = max(statistics.median(returned) if returned else 0.0,
                  sys.float_info.epsilon)
    metrics = {
        "setup_s": (statistics.median(
            t * f for t, f in zip(setup_times, setup_factors)), "s"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "op_ms_p50": (lat["op_ms_p50"], "ms"),
        "op_ms_tail": (lat["op_ms_tail"], "ms"),
        "op_peak_mb": (memory_mb, "MB"),
        "accuracy_digits": (-math.log10(typical), "digits"),
    }
    detail = {
        "fail_ratio": sum(o.failed for o in outcomes) / len(outcomes),
        "moment_rel_err_max": max(o.rel_err for o in outcomes),
        "cell_mass_err_max": max(cells) if cells else None,
        "op_err_median": typical,
        "op_ms_tail": lat["tail"],
        "raw": {"setup_s": statistics.median(setup_times),
                "setup_s_samples": setup_times,
                "ops_per_s": raw["ops_per_s"], "op_ms_p50": raw["op_ms_p50"],
                "op_ms_tail": raw["op_ms_tail"]},
    }
    return metrics, detail


def per_layer(rows, probes):
    """Median per-op self time of each layer, mean counts per op.

    Every metric is printed for every workload, as BENCHMARK.json lists
    them; a layer or count the workload never reaches reads 0, and the
    report names the layers that ran.
    """
    spans = [(r.spans, r.factor) for r in rows] + probes
    metrics = {}
    for layer in TIME_LAYERS:
        values = [sp.seconds[layer] * f / (sp.calls[layer]
                                           if layer in PER_CALL else 1)
                  for sp, f in spans if layer in sp.seconds]
        metrics[layer] = (statistics.median(values) if values else 0.0, "s")
    for name in COUNTS:
        values = [r.outcome.counts[name] for r in rows
                  if name in r.outcome.counts]
        metrics[name] = (statistics.fmean(values) if values else 0.0,
                         "count")
    overhead = [(r.traced_latency - r.latency) * r.factor * 1e3 for r in rows]
    metrics["trace.overhead_ms"] = (statistics.median(overhead), "ms")
    mismatches = sum(not r.same for r in rows)
    metrics["trace.chain_mismatches"] = (mismatches, "count")
    detail = {
        "layers_run": sorted({k for sp, _ in spans for k in sp.seconds}),
        "chain_equal": mismatches == 0,
        "overhead_share": (sum(r.traced_latency for r in rows)
                           / sum(r.latency for r in rows) - 1.0),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "momext" / "__init__.py").is_file():
        print(f"error: momext sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from hostspeed import KernelSpeed, StartupSpeed
    from workloads import WORKLOADS, CliOneshot
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH)
    try:
        workload, pool, digest = build(args.workload, args.seed, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        startup = StartupSpeed(child_env(), workdir)
        setup = time_setup(args, startup)
        speed = (startup if isinstance(workload, CliOneshot)
                 else KernelSpeed())
        base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _timed(workload.run, pool[0][0])                    # warm-up
        rows, probes, rounds = measure(workload, pool, args.seconds,
                                       bool(args.trace), speed)
        memory_mb = op_peak_mb(
            workload, [op for rnd in pool[:workload.memory_rounds]
                       for op in rnd], base_kb)
        edge = edge_probe(workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, detail = end_to_end(workload, rows, setup, memory_mb)
    detail["process_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = e2e
    if args.trace:
        metrics, detail["trace"] = per_layer(rows, probes)
        metrics["edge.failed_ops"] = (edge["failed"], "count")
    outcomes = [r.outcome for r in rows]
    failures = [o.reason for o in outcomes if o.failed]
    report = {
        "workload": args.workload, "why": workload.why, "seed": args.seed,
        "input_digest": digest, "trace": args.trace,
        "seconds": args.seconds, "rounds": rounds, "ops": len(rows),
        "environment": environment(startup, speed),
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in e2e.items()},
        **detail,
        "silent_errors": sum(o.silent for o in outcomes),
        "failures": failures[:10],
        "edge": edge,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not any(o.silent for o in outcomes),
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
