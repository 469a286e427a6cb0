"""Machine speed sampled during a pass, to express its time in reference units.

The benchmark runs on shared hosts whose speed drifts by tens of percent over
seconds and minutes while a process keeps its CPU: the process is not
descheduled, its instructions just run slower, so CPU time drifts with wall
time.  Raw pass times therefore spread more between runs of the same code than
any useful regression bound.

SpeedProbe samples the speed at which this very thread runs, all through a
pass: every INTERVAL_S a SIGALRM handler runs one fixed chunk of pure-Python
work (integer arithmetic, tuples, a dict, the stuff of the library's
``Group.mul`` and ``Mat`` loops) and times it.  The pass's own time is its wall
time minus the time spent in the samples; divided by the samples' mean time
it gives the pass in reference units (``wall_ref``), which a slower or faster
phase of the host scales out of.  The handler runs between bytecodes of the
main thread, so a long numpy call defers a sample until it returns.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04  # one sample per 40 ms: about 3% of a pass
_STEPS = (1, 2, 3, 4, 5)


def reference_chunk() -> int:
    """Fixed pure-Python work, about 1.2 ms on a 2.1 GHz Xeon vCPU."""
    s = 0
    for i in range(6000):
        s += i * i % 7
    acc = (0,) * 5
    seen = {}
    for i in range(300):
        acc = tuple((a + i * b) % 7 for a, b in zip(acc, _STEPS))
        seen[acc] = i
    return s + len(seen)


class SpeedProbe:
    """Context manager: times reference_chunk every INTERVAL_S while open."""

    def __init__(self, clock=time.perf_counter, interval: float = INTERVAL_S):
        self.clock = clock
        self.interval = interval
        self.samples = []
        self._previous = None

    def _sample(self, _signum, _frame):
        t0 = self.clock()
        reference_chunk()
        self.samples.append(self.clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def in_reference_units(self, wall_s: float) -> float:
        """wall_s, less the time the samples took, over their mean time.

        Needs at least one sample: a pass shorter than one interval has none.
        """
        spent = sum(self.samples)
        return (wall_s - spent) / (spent / len(self.samples))
