"""Smoke test of the benchmark itself: a tiny run of every workload.

    python3 bench/smoke.py [WORKLOAD ...]

For each workload, in both trace modes, it checks that the last line of
output has exactly the keys correct / attempted / failed / metrics, that
every metric BENCHMARK.json names is there with its unit, that the report
line carries the detail metrics (fail_ratio, moment_rel_err_max,
cell_mass_err_max, the tail's percentile and sample count, the seed and
input digest, the numeric environment), that the traced chain reproduced
the untraced results, and that fail_ratio is 0.  It also checks that the
benchmark refuses to run, without printing a result, when momext's sources
are missing.  Exits 1 if any check fails, naming each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETAIL = ("fail_ratio", "moment_rel_err_max", "cell_mass_err_max",
          "op_ms_tail", "seed", "input_digest", "environment", "why", "edge")
ENVIRONMENT = ("python", "numpy", "scipy", "blas", "blas_threads", "nproc")


def run(workload: str, trace: int, cwd: Path = ROOT):
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload",
            workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check(workload: str, trace: int) -> list:
    problems = []
    proc = run(workload, trace)
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[0])["report"]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True:
        problems.append(f"{tag}: correct is {result['correct']}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            problems.append(f"{tag}: metric {metric['name']} [{metric['unit']}]"
                            f" missing or in other units: {got}")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"{tag}: metrics not in BENCHMARK.json: {extra}")
    for key in DETAIL:
        if key not in report:
            problems.append(f"{tag}: report lacks {key}")
    for key in ENVIRONMENT:
        if key not in report.get("environment", {}):
            problems.append(f"{tag}: environment lacks {key}")
    if workload == "transform-density" and report["cell_mass_err_max"] is None:
        problems.append(f"{tag}: no cell_mass_err_max")
    if trace and not report["trace"]["chain_equal"]:
        problems.append(f"{tag}: the staged chain did not reproduce the "
                        f"untraced results")
    if report["fail_ratio"] != 0:
        problems.append(f"{tag}: fail_ratio {report['fail_ratio']:.3f}; "
                        f"first failures: {report['failures'][:3]}")
    return problems


def check_refuses_without_sources() -> list:
    """Only BENCHMARK.json and bench/: exit non-zero, print no result."""
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".smoke-") as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, tmp / "bench",
                        ignore=shutil.ignore_patterns(".*", "__pycache__"))
        proc = run("solve-grid", 0, cwd=tmp)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout "
                f"{proc.stdout[:200]!r}"]
    return []


def main(argv) -> int:
    names = argv or [w["name"] for w in SPEC["workloads"]]
    problems = check_refuses_without_sources()
    for name in names:
        for trace in (0, 1):
            found = check(name, trace)
            print(f"{name} --trace {trace}: "
                  f"{'ok' if not found else f'{len(found)} problem(s)'}",
                  flush=True)
            problems += found
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
