"""Host-speed sampler: a fixed reference kernel timed at a steady interval.

The benchmark host is a shared VM whose speed drifts by up to 1.7x over
seconds to minutes, on interpreted and compiled code alike.  Timing a fixed
reference kernel every ``PERIOD_S`` of wall time, inside the process that
runs the workload (a SIGALRM handler on the main thread), tells how fast the
host was while that very code ran.  ``Pacer.normalised`` scales a measured
interval to the time it would have taken at the kernel's nominal speed:
each sample stands for the slice of wall time since the sample before it,
and the work done in a slice is proportional to the speed
``REF_NOMINAL_S / sample`` in it.  A long compiled call holds the signal
back, so the sample after it stands for the whole call.

The kernel is fixed benchmark code, so a change to the program under test
cannot change it; the time the handler spends is subtracted from every
interval before scaling.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.05            # one sample per 50 ms of wall time
REF_N = 1500               # kernel size: about 1 ms on a 2-vCPU x86-64 VM
REF_NOMINAL_S = 0.0010     # the kernel's time at the speed reported as nominal


def kernel(n: int = REF_N) -> float:
    """Fixed interpreter work: float arithmetic, dict stores, a tuple sort.

    Its tuples go through the allocator as the program's own objects do,
    which makes it feel the host's cache and memory contention; an
    arithmetic-only loop, and one storing floats in place of tuples,
    tracked the drift worse.
    """
    acc = 0.0
    table = {}
    items = []
    for i in range(n):
        x = (i * 0.618) % 1.0
        acc += x * x
        table[i & 31] = acc
        items.append((x, i))
    items.sort()
    return acc + len(table)


class Pacer:
    """Samples the kernel on SIGALRM; keeps (end time, duration) per sample."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0           # total time spent inside the handler

    def _handler(self, signum, frame) -> None:
        # no collection inside the kernel: its cost belongs to the program's
        # objects, and the kernel frees all it allocates before returning.
        # Its tuples still advance the young-generation count, so the
        # program's next young collection comes one sample earlier.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t1, t1 - t0))
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.siginterrupt(signal.SIGALRM, False)   # restart interrupted calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float, int]:
        """Current (time, handler time so far, sample count)."""
        return time.perf_counter(), self.spent, len(self.samples)

    def normalised(self, start: tuple[float, float, int],
                   end: tuple[float, float, int]) -> dict:
        """Interval from ``start`` to ``end``: raw and nominal-speed time.

        ``raw_s`` excludes the handler's own time; ``speed`` is the mean of
        ``REF_NOMINAL_S / sample`` over the interval's samples, each weighted
        by the wall time since the sample before it (1.0 when there are
        none), and ``nominal_s = raw_s * speed``.
        """
        raw = end[0] - start[0] - (end[1] - start[1])
        prev, weight, work = start[0], 0.0, 0.0
        for t, dt in self.samples[start[2]:end[2]]:
            weight += t - prev
            work += (t - prev) * REF_NOMINAL_S / dt
            prev = t
        speed = work / weight if weight > 0 else 1.0
        return {"raw_s": raw, "speed": speed, "nominal_s": raw * speed,
                "samples": end[2] - start[2]}
