"""How fast the host runs right now, from a fixed chunk of Python work.

The speed of a shared host drifts by up to 2x over minutes: CPU time
slows with wall time (the host is slower, not merely busy), so no run
length averages the drift away and no CPU-time figure escapes it.  The
benchmark therefore times a fixed chunk of pure-Python work, in thread
CPU time, inside the very process and thread under test, every
:data:`PERIOD_S` through the measured window (between engine rounds,
or as an event-loop callback in the serve front door), and scales the
window figures that thread's compute sets (``harness.SCALED``) to a
host on which one chunk takes :data:`REFERENCE_NS`.  A chunk costs
about 1 % of that thread's time.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: Seconds between chunks.
PERIOD_S = 0.2
#: Loop iterations in one chunk (about 2 ms of CPU on a fast host).
CHUNK = 25_000
#: CPU time of one chunk on the reference host.
REFERENCE_NS = 2_000_000


def _chunk() -> int:
    total = 0
    for index in range(CHUNK):
        total += index * index % 7
    return total


class SpeedProbe:
    """Chunk timings: ``(end_ns, cpu_ns)`` on CLOCK_MONOTONIC."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, int]] = []
        self.next_ns = 0

    def tick(self) -> None:
        """Time one chunk."""
        cpu = time.thread_time_ns()
        _chunk()
        end = time.monotonic_ns()
        self.samples.append((end, time.thread_time_ns() - cpu))
        self.next_ns = end + int(PERIOD_S * 1e9)

    def due(self) -> bool:
        return time.monotonic_ns() >= self.next_ns

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """Median chunk CPU time of chunks that ended in ``[start_ns,
        end_ns)``, over :data:`REFERENCE_NS`: 1.5 means the host ran
        that stretch at two thirds of the reference speed."""
        inside = [cpu for end, cpu in self.samples if start_ns <= end < end_ns]
        if not inside:
            raise RuntimeError("no speed-probe chunk ended in the window")
        return statistics.median(inside) / REFERENCE_NS
