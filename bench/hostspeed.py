"""Host-speed probe: puts timings measured on a shared host on a steady scale.

On a shared virtual machine the same pure-Python code runs 20-40% faster or
slower from one second to the next, and a 30-second run does not average
that out.  A short fixed computation, timed now and then during the run,
slows down with it.  `HostSpeed.scale` converts a measured duration into
reference seconds: the time it would have taken at the speed where the
probe takes `REFERENCE_PROBE_S`.

The probe is an arithmetic loop.  Over three-second windows of a three-minute
run, the log of its time followed the log of a repeated `gen-large` request's
time with correlation 0.93 and slope 1.06, and a repeated `small-mix`
request's with 0.87 and 1.12.  Probes that walk a data structure tracked
worse (slope 0.6-0.75): they slow down more than the program when the
host's caches are contended.  The probe is the benchmark's own code and
touches no memory beyond a few integers, so a change to `pramcheck`, to its
memory use or to the garbage collector's settings does not change it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# about the probe's median time on the 2-vCPU virtual machine where the
# baseline was measured; it only fixes the unit, so it never needs re-measuring
REFERENCE_PROBE_S = 0.0021
WINDOW_S = 0.5  # a request is scaled by the probes within this distance of it


def probe() -> int:
    """Fixed work: a modular sum of squares."""
    x = 0
    for i in range(20_000):
        x = (x + i * i) % 1_000_003
    return x


class HostSpeed:
    """Probe times in time order, and durations scaled by the probes near them."""

    def __init__(self) -> None:
        self.at: list[float] = []  # probe midpoints, perf_counter seconds
        self.took: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = perf_counter()
            probe()
            t1 = perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def factor(self, start: float, end: float) -> float:
        """Median probe time within `WINDOW_S` of [start, end], or the nearest probe's."""
        if not self.at:
            raise ValueError("no probes taken")
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # no probe in the window: take the nearest one
            lo = min(max(lo - 1, 0), len(self.at) - 1)
            if lo + 1 < len(self.at) and self.at[lo + 1] - end < start - self.at[lo]:
                lo += 1
            hi = lo + 1
        return statistics.median(self.took[lo:hi])

    def scale(self, seconds: float, start: float, end: float) -> float:
        """`seconds`, measured over [start, end], in reference seconds."""
        return seconds * REFERENCE_PROBE_S / self.factor(start, end)

    def median(self, since: float = float("-inf"), until: float = float("inf")) -> float:
        """Median probe time between two instants."""
        lo = bisect.bisect_left(self.at, since)
        hi = bisect.bisect_right(self.at, until)
        return statistics.median(self.took[lo:hi])
