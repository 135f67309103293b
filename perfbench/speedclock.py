"""Timing rescaled to a reference host speed.

The machines this benchmark runs on share their cores with other tenants,
and the speed of a core drifts in steps of up to 1.5× that last seconds.
Raw wall times of identical work then spread by 10–25 % between runs,
which would hide any change smaller than that.

:class:`SpeedClock` samples the drift while the workload runs: every
:data:`PERIOD_S` a ``SIGALRM`` handler times a fixed pure-Python probe
loop that touches nothing of the program.  The probe is timed in thread
CPU time, so waiting for the GIL or for a free core (the program's own
threads and workers) does not count as a slow host; only the speed of
the core itself does.  :meth:`SpeedClock.seconds` integrates wall time
weighted by ``REFERENCE_PROBE_S / probe time``: the seconds the interval
would have taken at the reference speed.  The probe costs about 0.5 % of
the run, the same on every commit.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.05
#: The probe's CPU time at the reference speed.  A fixed constant: results
#: are in seconds at that speed, comparable across runs and commits.
REFERENCE_PROBE_S = 1.0e-4
_PROBE_REPEATS = 3


def _probe() -> float:
    """Thread CPU seconds of a fixed interpreter loop (best of a few)."""
    best = float("inf")
    for _ in range(_PROBE_REPEATS):
        start = time.thread_time()
        table: dict[int, int] = {}
        total = 0
        for i in range(1000):
            total += (i * i) % 7
            table[i & 31] = total
        best = min(best, time.thread_time() - start)
    return best


class SpeedClock:
    """Samples host speed on a timer; converts wall intervals to reference seconds."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._factors: list[float] = []
        self._previous = None

    def __enter__(self) -> SpeedClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None) -> None:
        when = time.perf_counter()
        cpu = _probe()
        self._times.append(when)
        self._factors.append(REFERENCE_PROBE_S / max(cpu, 1e-9))

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds between two ``perf_counter`` readings.

        The speed is taken as constant from one sample to the next; before
        the first sample the first one holds.
        """
        times, factors = self._times, self._factors
        if not times:
            raise RuntimeError("SpeedClock has no samples; use it as a context manager")
        index = max(0, bisect.bisect_right(times, start) - 1)
        total = 0.0
        cursor = start
        while cursor < end:
            upto = times[index + 1] if index + 1 < len(times) else end
            upto = min(upto, end)
            total += (upto - cursor) * factors[index]
            cursor = upto
            index += 1
        return total
