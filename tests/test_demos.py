"""The demos run the public API end to end: each must exit 0.

Each script demos/0[1-5]_*.py runs in a child interpreter with the momext
under test on its path and RuntimeWarnings made errors, so a demo that
stops with an error or warns fails here, on every numpy the suite runs
on.  The benchmark scripts in bench/ are the other outside caller: every
name they import from momext must resolve.
"""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import momext

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_each_demo_exits_zero(demo):
    src = str(pathlib.Path(momext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # the suite's own warning policy (pyproject's filterwarnings), which
    # a child interpreter does not inherit
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


def _benchmark_imports():
    """(module, name) for each name a bench/ script imports from momext."""
    return [(node.module, alias.name)
            for path in sorted((ROOT / "bench").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "momext"
            for alias in node.names]


def test_every_name_the_benchmark_imports_resolves():
    # the benchmark runs against the momext of its checkout, so a name it
    # imports that the package no longer has stops every workload
    names = _benchmark_imports()
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
