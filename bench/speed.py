"""The host's current speed, from a fixed kernel timed between jobs.

The 2-vCPU VM this benchmark was built on runs at one of two speeds that
differ by up to 1.6x, switching over seconds to minutes as other tenants
load the machine (README.md, "Host drift").  Every timing the benchmark
reports is scaled by REFERENCE_KERNEL_S / (the kernel's median time around
it), that is, to the speed at which the kernel takes REFERENCE_KERNEL_S.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's median time between jobs on the reference machine in its fast
#: phase, so that scaled timings read close to raw ones there.
REFERENCE_KERNEL_S = 1.5e-3
#: Time the kernel at most this often between jobs, and after any longer job.
SAMPLE_EVERY_S = 0.05
#: A job's speed is the median of the samples within this margin of it.
WINDOW_S = 0.25


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        sym = rng.normal(size=(8, 8))
        self._sym = sym + sym.T
        self._square = rng.normal(size=(48, 48))
        self._vector = rng.normal(size=100_000)
        self.samples: list[tuple[float, float]] = []  # (end time, kernel seconds)

    def _kernel(self) -> None:
        """Interpreter loops, dict and list building, small linalg, one large array."""
        total = 0
        for i in range(1500):
            total += i * i % 7
        table = {(i, i + 1): i for i in range(300)}
        for _ in range(20):
            np.linalg.eigh(self._sym)
        for _ in range(10):
            self._square @ self._square
        float(np.sum(self._vector * self._vector))
        [float(v) for v in self._vector[:3000]]
        return total, table

    def sample(self) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Slowdown against the reference over [start, end]: 1.0 at reference speed."""
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - end))[1]]
        return statistics.median(near) / REFERENCE_KERNEL_S

    def run_factor(self) -> float:
        """Slowdown against the reference over everything sampled so far."""
        return statistics.median(s for _, s in self.samples) / REFERENCE_KERNEL_S
