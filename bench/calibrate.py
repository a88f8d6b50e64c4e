"""Machine-speed calibration for timings taken on a shared host.

On a host whose cores are shared with other tenants, the speed available to
one process drifts by tens of percent, both within a second and over
minutes. A fixed stdlib-only kernel, timed at short intervals between the
workload's items, measures that drift; each stretch of work between two
kernel runs is reported in reference seconds: raw seconds times
REFERENCE_S over the mean of the two kernel times. The kernel shares no
code with the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Reported times are scaled to a machine on which the kernel takes 2 ms
# (a 2-vCPU Intel Xeon under Python 3.11.7 measured 1.7 to 3 ms).
REFERENCE_S = 0.002
# Seconds of workload between two kernel runs.
INTERVAL_S = 0.25


def _kernel() -> int:
    bits, total, table = 0, 0, list(range(64))
    for i in range(8_000):
        j = i & 63
        if (bits >> j) & 1:
            bits &= ~(1 << j)
        else:
            bits |= 1 << j
        total += table[j] * 3
    return total


def kernel_seconds(samples: int = 5) -> float:
    """Median time of the kernel over a few back-to-back runs."""
    times = []
    for _ in range(samples):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Meter:
    """Times one pass in reference seconds.

    The workload reports each item's raw latency through ``item``; between
    items, once INTERVAL_S has passed since the kernel last ran, the kernel
    runs again. ``around`` wraps a function that a long call outside any
    item calls often (catalog generation), so that the kernel also runs
    inside that call. Kernel runs are excluded from the pass time.
    """

    def __init__(self) -> None:
        self.kernels = [kernel_seconds()]
        self.stretches: list[list[float]] = [[]]  # raw item latencies per stretch
        self.durations: list[float] = []  # raw seconds per closed stretch
        self._opened = perf_counter()

    def item(self, seconds: float) -> None:
        self.stretches[-1].append(seconds)
        self.tick()

    def tick(self) -> None:
        now = perf_counter()
        if now - self._opened >= INTERVAL_S:
            self._close(now)

    def around(self, fn):
        def ticking(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return ticking

    def _close(self, now: float) -> None:
        self.durations.append(now - self._opened)
        self.kernels.append(kernel_seconds())
        self.stretches.append([])
        self._opened = perf_counter()

    def finish(self) -> None:
        self._close(perf_counter())
        scales = [2 * REFERENCE_S / (a + b) for a, b in zip(self.kernels, self.kernels[1:])]
        self.raw_seconds = sum(self.durations)
        self.seconds = sum(d * s for d, s in zip(self.durations, scales))
        self.latencies = [x * s for stretch, s in zip(self.stretches, scales) for x in stretch]
