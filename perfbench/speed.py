"""Times on a shared machine, rescaled to a fixed machine speed.

On a 2-vCPU virtual machine that shares its host with other tenants, the
same code ran up to twice as slow for spells of seconds to minutes, and CPU
time slowed with wall time, so neither clock alone compares two runs.  `SpeedClock` samples
the machine's current speed while the workload runs.  A timer signal runs
`reference()`, a fixed routine of string, tuple and dict work like the
program's, every `interval` seconds, between the program's bytecodes.  An
interval's wall time, minus the samples inside it, is then rescaled by the
mean speed the samples saw:

    nominal = (wall - sampled) * mean(REF_NOMINAL_S / sample)

The result is the seconds the work would take on a machine where one
`reference()` call takes REF_NOMINAL_S, roughly such a 2-vCPU Intel Xeon
machine when unloaded.  On a loaded machine, identical rounds varied by a coefficient
of variation of 10-16% raw and 1-4% rescaled.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

REF_NOMINAL_S = 150e-6
LETTERS = "abcdABCD"


def reference(n: int = 300) -> int:
    table: dict[tuple[str, int], int] = {}
    for i in range(n):
        word = LETTERS[i & 7] + LETTERS[(i * 3) & 7] + LETTERS[(i >> 3) & 7]
        key = (word, i & 1023)
        table[key] = table.get(key, 0) + 1
    return len(table)


class SpeedClock:
    """Speed samples taken from SIGALRM while the clock is running.

    The queries are valid once the `with` block has ended.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # a collection inside the sample would scan the program's heap and
        # make a large heap look like a slow machine
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference()
        self.samples.append((t0, perf_counter() - t0))
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.sort()
        self.starts = [start for start, _ in self.samples]
        self.seconds = [d for _, d in self.samples]

    def _inside(self, t0: float, t1: float) -> list[float]:
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self.seconds[lo:hi]

    def factor(self, t0: float, t1: float) -> float:
        """Mean machine speed over [t0, t1) relative to the nominal one.

        Uses the samples inside the interval, or the one nearest to it when
        the interval is shorter than the sampling interval.
        """
        inside = self._inside(t0, t1)
        if not inside:
            i = bisect.bisect_left(self.starts, t0)
            inside = self.seconds[max(0, i - 1) : i + 1]
        return sum(REF_NOMINAL_S / d for d in inside) / len(inside)

    def work(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1) that were not spent sampling."""
        return (t1 - t0) - sum(self._inside(t0, t1))

    def nominal(self, t0: float, t1: float, factor: float | None = None) -> float:
        """Seconds [t0, t1) would have taken at nominal speed."""
        if factor is None:
            factor = self.factor(t0, t1)
        return self.work(t0, t1) * factor
