"""Host-speed references: cancel the shared machine's drifting speed.

On a machine shared with other tenants the same momext call can take 22 ms
for a while and 35-40 ms the next, with process CPU time tracking wall time
(the core itself slows down, so CPU time does not help).  A fixed reference
of the same kind of work slows down with it: over 150 s of alternating
samples the ratio of a solve's time to an in-process reference kernel's had
an IQR of 5% of its median, against 52% for the raw time.

So the benchmark samples a reference between operations and reports every
time scaled to a host on which the reference takes its ``nominal`` time:

    scaled = raw * nominal / (median of the nearest samples around it).

Two references, matched to the work they scale:

* ``KernelSpeed``: small complex LAPACK calls and interpreted loops over
  tiny arrays, in process, for library calls;
* ``StartupSpeed``: a fresh interpreter importing numpy, for anything that
  starts a process (momext CLI calls, set-up probes).

Raw times stay in the report.  Neither reference touches momext, so no
change to it can move them.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time

import numpy as np


class HostSpeed:
    """Samples of one reference; ``factor`` scales a time to its nominal.

    ``interval_s`` is how much measured time may pass between two samples;
    ops longer than that get a sample of their own before them.
    """

    nominal = 1.0
    interval_s = 0.05

    def __init__(self):
        self.samples: list = []

    def sample(self) -> float:
        seconds = self._measure()
        self.samples.append(seconds)
        return seconds

    #: samples on each side of a measured time that its factor uses; one
    #: sample is noisier than the drift it tracks over a few of them
    window = 3

    def factor(self, position: int) -> float:
        """Scale for a time measured between samples position, position+1:
        nominal over the median of the ``window`` samples on each side."""
        lo = max(0, position + 1 - self.window)
        return self.nominal / statistics.median(
            self.samples[lo:position + 1 + self.window])

    def _measure(self) -> float:
        raise NotImplementedError


class KernelSpeed(HostSpeed):
    """About 1 ms of fixed in-process work on an idle core."""

    nominal = 1.0e-3
    # One run per sample, right after an op, over 8 samples on each side:
    # alternating transform-density ops with this kernel for 120 s, the
    # scaled throughput of 15-s blocks spread (IQR / median) 2.3%, against
    # 8.9% with the least of three back-to-back runs and one sample a side;
    # on solve-grid ops, 1.2% against 1.9%.
    window = 8

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(0)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        self.h = a + np.conj(a.T)
        self.b = rng.standard_normal((32, 24)) + 1j * rng.standard_normal((32, 24))
        self.eye = np.eye(32)
        self.small = [rng.standard_normal((3, 3))
                      + 1j * rng.standard_normal((3, 3)) for _ in range(8)]

    def _measure(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(3):
            acc += float(np.linalg.eigvalsh(self.h)[0])
            acc += float(np.linalg.svd(self.b, compute_uv=False)[0])
            acc += abs(np.linalg.solve(self.h + (k + 50) * self.eye,
                                       self.b)[0, 0])
        # interpreted loops over tiny arrays, as in measure_distance
        for j in range(60):
            total = np.zeros((3, 3), dtype=complex)
            for m in self.small:
                if abs(m[0, 0]) <= 10.0:
                    total += m
            acc += float(np.max(np.abs(total - self.small[j % 8])))
        seconds = time.perf_counter() - t0
        if not np.isfinite(acc):
            raise FloatingPointError("reference kernel produced a non-number")
        return seconds


class StartupSpeed(HostSpeed):
    """A fresh interpreter that imports numpy: about 0.1 s on an idle core."""

    nominal = 0.1

    def __init__(self, env: dict, cwd: str):
        super().__init__()
        self.env, self.cwd = env, cwd

    def _measure(self) -> float:
        # a blocking wait: ``subprocess.run(timeout=...)`` polls the child
        # with sleeps of up to 50 ms, which rounds the time to that step
        argv = [sys.executable, "-c", "import numpy"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=self.cwd)
        timer = threading.Timer(60.0, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        return seconds
