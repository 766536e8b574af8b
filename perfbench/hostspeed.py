"""Host-speed probe owned by the benchmark.

The benchmark was written on a 2-vCPU Intel Xeon VM whose CPU speed
switches between two states that each last from a second to minutes. One
flow step takes about 0.6 ms in the fast state and 1.05 ms in the slow
one, and CPU time equals wall time in both, so the spread is host speed,
not preemption. Over 20 s runs this moved the raw throughput by 20-35%
between runs of the same code.

The probe is a fixed loop of the kinds of work the workloads do (small
FFTs, interpreted Python, small-array numpy calls) that uses nothing from
smflow, about 1.2 ms long. It is timed after every unit (30-110 ms of flow
or coupled steps, or one CLI scenario: shorter than the host states), and
each unit's op latencies are scaled by ``REFERENCE_PROBE_MS / probe`` to
the latencies the same ops would have at the reference host speed. A
change to smflow moves the scaled figures by exactly the factor it moves
the raw ones; a change of host state moves the probe and the ops together
and cancels.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median probe time in the fast state of the VM described above
REFERENCE_PROBE_MS = 1.2


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._signal = rng.standard_normal(1024) + 0j
        self._vectors = rng.standard_normal((64, 3))
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _loop_ms(self) -> float:
        t0 = perf_counter()
        for _ in range(10):
            np.fft.ifft(np.fft.fft(self._signal))
        acc = 0.0
        for i in range(2000):
            acc += (i * 0.5) % 7.0
        for _ in range(20):
            z = np.cross(self._vectors, self._vectors[::-1])
            z /= np.linalg.norm(z, axis=-1, keepdims=True)
        return (perf_counter() - t0) * 1e3

    def sample(self) -> float:
        """Probe time in ms (median of three loops); also recorded."""
        t0 = perf_counter()
        ms = statistics.median(self._loop_ms() for _ in range(3))
        self.spent_s += perf_counter() - t0
        self.samples.append(ms)
        return ms

    def scale(self, before: float, after: float) -> float:
        """Factor that takes latencies measured between two probe samples
        to the reference host speed."""
        return REFERENCE_PROBE_MS / (0.5 * (before + after))
