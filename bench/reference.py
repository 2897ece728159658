"""A fixed pure-Python task that gauges how fast the interpreter runs right now.

A shared machine changes speed by tens of percent from one minute to the next
as its other tenants come and go, and every command of a run slows with it.
The speed changes within seconds too, and a run's task times and command
times then both split into a fast and a slow cluster, whose medians can land
in different clusters.  So the benchmark times this task interleaved through
each run and scales each command's time by ``REFERENCE_MS / median task time``
over the task runs within ``WINDOW_S`` of that command.  A run on a slow spell
and a run on a fast spell of the same machine then report about the same
numbers, while a change to the program still moves them in full: the task
never calls the program.  Commands do not all slow by as much as the task
does, so this narrows the run-to-run spread rather than removing it, and
stalls shorter than a command's own run still land in the tail percentiles.

The task does the kinds of work the CLI spends its time on (loops over lists
of numbers, prefix sums, sorting, comparisons, float formatting, JSON encoding
with indentation and decoding) on inputs fixed here, with the garbage
collector off so that the program's leftover heap cannot slow it.
"""

from __future__ import annotations

import bisect
import gc
import json
import random
import statistics
import time

# Median task time on an Intel Xeon 2-vCPU VM under CPython 3.11 in a quiet
# spell; reported times read as milliseconds and seconds on that machine.
REFERENCE_MS = 2.3
WINDOW_S = 1.0  # task runs this close to a command gauge the speed it ran at
MIN_RUNS = 5  # fewer task runs in the window: use this many nearest in time

_rng = random.Random(20221207)
_ROWS = [[_rng.randint(0, 100) for _ in range(48)] for _ in range(12)]
_FLOATS = [[v + _rng.random() for v in row] for row in _ROWS]


def _work() -> int:
    out = []
    for row, floats in zip(_ROWS, _FLOATS):
        acc, prefix = 0, []
        for v in row:
            acc += v
            prefix.append(acc)
        ranked = sorted(floats, reverse=True)
        below = all(a <= b for a, b in zip(prefix, prefix[1:]))
        out.append({"prefix": prefix, "ranked": ranked, "below": below,
                    "text": ",".join(repr(v) for v in floats)})
    return len(json.loads(json.dumps(out, indent=2)))


def task_seconds() -> float:
    """Wall time of one run of the task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Task runs over a benchmark run, in time order, for scaling the times around them."""

    def __init__(self) -> None:
        self.at: list[float] = []  # perf_counter at the middle of each task run
        self.seconds: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = task_seconds()
        self.at.append(t0 + seconds / 2)
        self.seconds.append(seconds)

    def speed(self, start: float, end: float) -> float:
        """Machine speed from ``start`` to ``end`` relative to the reference: above 1 is faster."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi - lo < MIN_RUNS:
            mid = bisect.bisect_left(self.at, (start + end) / 2)
            lo = max(0, min(mid - MIN_RUNS // 2, len(self.at) - MIN_RUNS))
            hi = lo + MIN_RUNS
        return REFERENCE_MS / 1e3 / statistics.median(self.seconds[lo:hi])

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3
