"""Timing that divides out the host CPU's speed swings.

On a shared 2-vCPU host the speed of our vCPU changes by up to 2x within
seconds (other tenants share the physical core; the slowdown is not steal
time, so CPU time swings as much as wall time).  ``ProbedTimer`` therefore
runs a fixed probe kernel every INTERVAL_S of wall time while a region
runs, from a SIGALRM handler, plus once before and once after it.  The
region's time, less the probes' own time, is scaled by REFERENCE_PROBE_S
over the harmonic mean of the probe times: the result is the region's wall
time at the reference CPU speed.

The kernel is half small numpy and LAPACK calls through scipy's wrappers
and half plain interpreter work, the two kinds of work in the program's hot
paths.  Regressing the log of a solve's time on the log of the probe time
gave exponents of 0.93-1.10 for this mix (triangle solves, smooth solves,
lattice search) against 1.02-1.23 for the numpy half alone, which leaves
part of a slowdown uncorrected.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve

INTERVAL_S = 0.05
NUMPY_STEPS = 15
PYTHON_STEPS = 1100
# Nominal probe time: corrected times are at the speed where one probe
# takes 1 ms, about its time on an idle 2-vCPU x86-64 VM.
REFERENCE_PROBE_S = 1.0e-3


class ProbedTimer:
    """Context manager: ``raw_s`` is wall time, ``value_s`` the speed-corrected
    time.  With ``probe=False`` no probe runs and ``value_s`` is ``raw_s``."""

    def __init__(self, probe: bool = True):
        self.probe = probe
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        self._H = A @ A.T + 4.0 * np.eye(4)
        self._z = rng.normal(size=4)
        self.samples = []

    def _probe(self, *_):
        t0 = perf_counter()
        x = np.zeros(4)
        for _ in range(NUMPY_STEPS):
            g = self._H @ (x - self._z)
            x = x - g / 20.0
            float(np.linalg.norm(g))
            cho_solve(cho_factor(self._H, lower=True), g)
        acc, table = 0.0, {}
        for i in range(PYTHON_STEPS):
            table[i & 31] = acc
            acc = acc * 0.5 + (i % 7) * 0.25
            acc += max(acc, 1.0, 2.0)
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        if self.probe:
            self._probe()
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = perf_counter() - self._t0
        self.value_s = self.raw_s
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            net = self.raw_s - sum(self.samples[1:])
            self._probe()
            self.value_s = net * REFERENCE_PROBE_S / statistics.harmonic_mean(self.samples)
        return False
