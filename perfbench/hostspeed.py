"""
Host-speed normalisation of the untraced passes' times.

On a shared 2-CPU host the speed of one CPU changed by up to 70% within a
second and by 20-25% between quarter hours, and process CPU time followed
wall time through it to within 2%: the slow spells are a slower CPU, not
time spent descheduled, so CPU time does not remove them.  A fixed
reference snippet timed in the same thread, finely interleaved with the
work, slows down with it: over ten-second windows the ratio of
``build_graph`` time to snippet time stayed within 1% while either time
alone moved by 10% and more.

So an untraced pass runs the snippet every SAMPLE_EVERY_S of process CPU
time (a SIGVTALRM handler, which Python runs between the bytecodes of
whatever job is running) and once between jobs.  A job's normalised time
is its own time, with the snippets run inside it taken out, times the
mean of REFERENCE_S / d over the snippet timings d taken inside it and
NEIGHBOURS on each side: the time the job would take on a host that runs
the snippet in REFERENCE_S.
"""
from __future__ import annotations

import bisect
import signal
from math import gcd
from time import perf_counter

# Roughly the snippet's time on the 2-CPU host the bounds were set on
# (Python 3.11.7); it fixes only the scale of the normalised times.
REFERENCE_S = 0.0004
SAMPLE_EVERY_S = 0.05
NEIGHBOURS = 2


def reference_snippet() -> int:
    """A fixed mix of the operations qbg spends its time on: tuple
    hashing, dict and frozenset work, and rational arithmetic on growing
    integers.  It imports nothing, so set-up timings are not changed by it."""
    counts: dict[tuple[int, int], int] = {}
    for i in range(1200):
        key = (i % 7, i % 11)
        counts[key] = counts.get(key, 0) + 1
    num, den = 0, 1
    for i in range(1, 120):
        p, q = i % 5 + 1, i % 29 + 1
        num, den = num * q + p * den, den * q
        g = gcd(num, den)
        num, den = num // g, den // g
    common = 0
    for i in range(40):
        common += len(frozenset(range(i, 60 + i, 2)) & frozenset(range(0, 60, 3)))
    return len(counts) + common + den % 7


class Sampler:
    """Snippet timings of one pass, in time order."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        try:  # the job time limit's exception can arrive in here
            t0 = perf_counter()
            reference_snippet()
            self.durations.append(perf_counter() - t0)
            self.starts.append(t0)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def normalise(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, normalised) seconds of the span [t0, t1].  Raw is the span
        minus the snippets run inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        raw = (t1 - t0) - sum(self.durations[lo:hi])
        near = self.durations[max(lo - NEIGHBOURS, 0):hi + NEIGHBOURS]
        return raw, raw * sum(REFERENCE_S / d for d in near) / len(near)
