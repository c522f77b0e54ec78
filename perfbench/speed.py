"""Host-speed calibration for timing on a shared machine.

On the shared 2-CPU host this benchmark was built on, the same work runs
up to 1.8x slower for stretches of one to tens of seconds, so raw wall
times of one run differ from the next by about 30% (quartile spread over
runs). The benchmark therefore runs a fixed kernel between units of
work, at most every ``EVERY_S`` seconds, and scales each timed interval
by the host speed measured around it::

    ms = wall ms x REFERENCE_KERNEL_MS / kernel ms

that is, the time the interval would take on a host that runs the
kernel in exactly ``REFERENCE_KERNEL_MS``. The kernel is the benchmark's
own code, so no change to the package moves it. It encodes and decodes
a fixed block of JSON lines shaped like the package's session files.
Of the kernels tried it tracked the package's own slowdowns best: over
5-second windows the ratio of an episode, a gradient-check point or a
dataset read-and-decode to the kernel spread by 0.013 to 0.038, while
each alone spread by about 0.19; a pure-Python object, string and dict
kernel gave 0.045 to 0.070. Time spent in the kernel is left out of
every interval.
"""

from __future__ import annotations

import bisect
import json
import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_KERNEL_MS = 1.5
EVERY_S = 0.1
KERNEL_REPEATS = 3

_ROWS = [
    {"index": i, "t_ms": i * 125,
     "payload": {"player_hp": i / 7, "enemy_hp": 0.5, "pos": [i, i + 1], "status": "normal"}}
    for i in range(150)
]
_TEXT = "\n".join(json.dumps(row, sort_keys=True) for row in _ROWS)


def kernel() -> int:
    written = [json.dumps(row, sort_keys=True) for row in _ROWS]
    return sum(len(json.loads(line)) for line in _TEXT.splitlines()) + len(written)


@dataclass(frozen=True)
class Interval:
    start: float
    end: float
    wall_ms: float  # wall time minus time spent calibrating inside it


class Clock:
    """Times intervals and samples host speed between them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_ms: list[float] = []
        self._spent = 0.0
        self._side: list[list] = []  # [period s, function, last run]

    def calibrate(self) -> None:
        t0 = perf_counter()
        runs = []
        for _ in range(KERNEL_REPEATS):
            k0 = perf_counter()
            kernel()
            runs.append((perf_counter() - k0) * 1000.0)
        self.times.append(t0)
        self.kernel_ms.append(statistics.median(runs))
        self._spent += perf_counter() - t0

    def every(self, period_s: float, fn) -> None:
        """Run ``fn`` from ``tick`` once per ``period_s``, outside every interval."""
        self._side.append([period_s, fn, perf_counter()])

    def tick(self) -> None:
        """Called between units of work: calibrate if the last sample is
        older than ``EVERY_S``, and run side tasks that are due."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.calibrate()
        for task in self._side:
            t0 = perf_counter()
            if t0 - task[2] >= task[0]:
                task[1]()
                task[2] = perf_counter()
                self._spent += task[2] - t0

    def begin(self) -> tuple[float, float]:
        return perf_counter(), self._spent

    def end(self, mark: tuple[float, float]) -> Interval:
        t0, spent0 = mark
        t1 = perf_counter()
        return Interval(t0, t1, (t1 - t0 - (self._spent - spent0)) * 1000.0)

    def scaled_ms(self, interval: Interval) -> float:
        """Wall ms scaled by the kernel samples taken around the interval:
        the last one before it, any inside it and the first one after."""
        lo = max(bisect.bisect_right(self.times, interval.start) - 1, 0)
        hi = min(bisect.bisect_left(self.times, interval.end), len(self.times) - 1)
        near = self.kernel_ms[lo : hi + 1]
        return interval.wall_ms * REFERENCE_KERNEL_MS / statistics.fmean(near)
