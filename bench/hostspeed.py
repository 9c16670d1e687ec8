"""A fixed probe of host speed, run next to every measured task.

Small shared hosts change speed by up to 2x in phases of a few seconds,
when other tenants load the same cores. A 40-second run then lands mostly
in fast or mostly in slow phases, and its timings swing by 20-35% from run
to run. The probe is a fixed kernel with dipolekit's instruction mix: small
numpy ufuncs, a small complex solve, one SVD and some Python object work.
It does not call dipolekit, so a change to the program cannot move it.

A task's normalized time is its measured time times REF_MS over the time of
the probe run right after it (smoothed over neighbouring tasks). That is the task's time at the host speed
where the probe takes REF_MS. The phases slow the probe and the task alike,
so the ratio holds steady. The raw times are reported next to it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe time, ms, in the fast phases of the 2-vCPU host (Xeon, 2.0 GHz)
#: the first baseline was recorded on; it only sets the scale
REF_MS = 1.7


class HostProbe:
    """Callable returning the probe's wall time in ms."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._t = np.linspace(-3.0, 3.0, 21 * 16).reshape(21, 16)
        self._a = rng.standard_normal((21, 21)) + 1j * rng.standard_normal((21, 21))
        self._b = np.ones(21, dtype=complex)
        self._m = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self()

    def __call__(self) -> float:
        t0 = time.perf_counter_ns()
        acc = 0.0
        for i in range(24):
            t = np.arcsinh(self._t + 0.01 * i)
            field = np.exp(-1j * np.cosh(t)) * np.sin(0.3 * np.sinh(t))
            acc += float(np.sum(field, axis=1).real[0])
            acc += abs(np.linalg.solve(self._a, self._b)[0])
            acc += len(repr({"i": i, "acc": acc}))
        acc += float(np.linalg.svd(self._m, compute_uv=False)[0])
        if not np.isfinite(acc):
            raise RuntimeError("host probe produced a non-finite value")
        return (time.perf_counter_ns() - t0) / 1e6

    @staticmethod
    def scale(probe_ms) -> float:
        """REF_MS over the median of some probe times."""
        return REF_MS / statistics.median(probe_ms)

    def scales(self, probe_ms: list[float]) -> list[float]:
        """Per-task scale: each probe time smoothed with two neighbours a side.

        One probe can catch a scheduler hiccup; the median of five adjacent
        probes cannot be moved by one.
        """
        return [self.scale(probe_ms[max(0, i - 2):i + 3])
                for i in range(len(probe_ms))]
