"""Machine-speed sampling, to report times at a fixed reference speed.

On a small shared virtual machine the same computation takes up to 1.7
times longer from one minute to the next, with the load of neighbouring
machines.  A fixed reference kernel slows down with it.  In five-run tests
on 2 vCPUs, scaling by the kernel's time measured around each operation
cut the run-to-run spread of the median pass time from about 30 % to 2 %
on fig7-continuation, from 15 % to 1.3 % on cold-solve, and from 28-45 %
to about 8 % on design-tables.

Sampler runs the kernel from a SIGALRM handler every INTERVAL seconds,
in the measured process itself and with no thread.  An operation's time
at the reference speed is its wall time, less the kernel time spent inside
it, times NOMINAL over the mean kernel time sampled around it.
"""

import math
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL = 0.02
# kernel seconds at the reference speed (a typical reading on the machine
# the benchmark was written on)
NOMINAL = 200e-6


def kernel():
    """Fixed interpreter arithmetic and math calls; imports nothing, so the
    set-up probes can sample while arcstab is being imported."""
    s = 0.0
    for i in range(900):
        s += math.sin(i * 0.01) * (i % 7)
        if i % 8 == 0:
            s += math.sqrt(i + 1.0) * math.atan2(i, 3.0)
    return s


class Sampler:
    """Kernel timings taken on a timer while the sampler is entered."""

    def __init__(self):
        self.at = array("d")
        self.took = array("d")

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.at.append(t0)
        self.took.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _span(self, t0, t1):
        return bisect_left(self.at, t0), bisect_right(self.at, t1)

    def at_reference(self, t0, t1):
        """Seconds the interval [t0, t1] would take at the reference speed.

        Kernel runs inside the interval are taken out of it.  The speed is
        the mean kernel time over the interval widened by one sampling
        interval on each side, and further if a short interval still sees
        no sample.  The mean follows short bursts of slowness, which slow
        the measured work as much; kernel runs over twice the median are
        left out, since a single stalled run would otherwise scale a short
        interval by half.
        """
        i, j = self._span(t0, t1)
        busy = sum(self.took[i:j])
        pad = INTERVAL
        i, j = self._span(t0 - pad, t1 + pad)
        while i == j:
            if pad > 100.0 * INTERVAL:
                raise RuntimeError("no speed sample around [%g, %g]" % (t0, t1))
            pad *= 2.0
            i, j = self._span(t0 - pad, t1 + pad)
        took = self.took[i:j]
        cap = 2.0 * statistics.median(took)
        speed = NOMINAL / statistics.fmean(t for t in took if t <= cap)
        return (t1 - t0 - busy) * speed
