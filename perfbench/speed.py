"""The host's speed, measured beside the workload.

On a shared host the same pure-Python work runs at very different
speeds from one second to the next: a fixed loop timed back to back
for 60 s took from 0.47 to 0.83 ms per 5 s window, and CPU time moved
with wall time, so the slow phases are slower execution, not time spent
waiting for a CPU.  The ratio of the workload's time to the loop's time
stayed within a few per cent over the same minute.

So the benchmark reports times at a fixed reference speed: an op that
took t seconds while the reference loop took c seconds is reported as
t * REFERENCE_UNIT_S / c.  The loop runs in a background thread of the
benchmark process, every PROBE_INTERVAL_S, and is timed with the
thread's CPU clock, so waiting for the interpreter lock does not count.
The normalization assumes the program does its work in the calling
thread, as it does with threads=1; the raw times are kept in the detail
line.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

# A fixed scale: reported times are those of a host on which one
# reference_unit takes this long.  On the 2-vCPU host the benchmark was
# defined on (CPython 3.11.7) the loop took 0.25 to 0.45 ms.
REFERENCE_UNIT_S = 0.25e-3
PROBE_INTERVAL_S = 0.05
# probes this far either side of an op also describe its speed
PROBE_WINDOW_S = 0.25


def reference_unit() -> int:
    """Fixed work in the style of the package's hot paths: tuple
    composition, string joins and dict inserts."""
    p = (2, 3, 1, 5, 4)
    q = (1, 3, 2, 5, 4)
    seen = {}
    for k in range(150):
        p = tuple(q[i - 1] for i in p)
        seen[",".join(map(str, p))] = k
    return len(seen)


def time_reference_unit() -> float:
    """CPU seconds of one reference_unit in the calling thread."""
    c0 = time.thread_time()
    reference_unit()
    return time.thread_time() - c0


class SpeedProbe:
    """Context manager that samples the reference loop's time in a
    background thread while the workload runs."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.unit_seconds: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        while True:
            t = time.perf_counter()
            self.unit_seconds.append(time_reference_unit())
            self.stamps.append(t)
            if self._stop.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_UNIT_S over the median reference time of the probes
        around [start, end]; the nearest probe when none falls there."""
        lo = bisect.bisect_left(self.stamps, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + PROBE_WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.stamps) - 1)
            hi = lo + 1
        return REFERENCE_UNIT_S / statistics.median(self.unit_seconds[lo:hi])
