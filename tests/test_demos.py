"""The demos run the public API end to end: each must exit 0.

Each script demos/0[1-5]_*.py runs in a child interpreter with the momext
under test on its path, so a demo that stops with an error fails here, on
every numpy the suite runs on.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import momext

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos")
               .glob("0[1-5]_*.py"))


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_each_demo_exits_zero(demo):
    src = str(pathlib.Path(momext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    child = subprocess.run([sys.executable, str(demo)], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
