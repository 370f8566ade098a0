"""Machine speed, sampled before, during and after every timed stretch.

On a shared host the same code runs at different speeds from one moment to
the next: on a 2-vCPU cloud VM a fixed Python loop ran up to 1.6 times
slower, in stretches from a fraction of a second to many minutes.  Process
CPU time slows down with wall time there, so timing CPU time instead does
not remove it.  The runner therefore times a small fixed pure-Python
reference kernel before and after each timed stretch, and also from a
signal handler every `INTERVAL_S` of CPU time during it, and scales the
stretch by

    NOMINAL_S / (median of the kernel's times)

so that every time reads as it would on a machine where the kernel takes
NOMINAL_S.  The time spent in the handler is taken off the stretch.  The
kernel does not touch the package, so a change to the package moves only
the stretch, never the scale.  Results files keep the raw times and the
factors too.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_S = 0.0007  # the kernel's time on the 2-vCPU VM when it ran fast
INTERVAL_S = 0.02  # CPU time between samples inside a stretch
EDGE_SAMPLES = 3  # samples before and after a stretch


def kernel_s() -> float:
    'Time one run of the reference kernel: integer arithmetic and a small dict.'
    t0 = time.perf_counter()
    s = 0
    d = {}
    for i in range(6000):
        s += i * i % 7
        d[i & 1023] = s
    return time.perf_counter() - t0


class Gauge:
    """Kernel samples for consecutive stretches; the samples after one
    stretch are also the samples before the next."""

    def __init__(self):
        self.edge = [kernel_s() for _ in range(EDGE_SAMPLES)]

    def time(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs); its result (or exception), its time with the
        handler's time taken off, and the scale for that time."""
        samples = list(self.edge)
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            t0 = time.perf_counter()
            samples.append(kernel_s())
            spent += time.perf_counter() - t0

        previous = signal.signal(signal.SIGVTALRM, tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        error = value = None
        t0 = time.perf_counter()
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:  # the caller decides what a failure means
            error = exc
        finally:
            elapsed = time.perf_counter() - t0 - spent
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
        self.edge = [kernel_s() for _ in range(EDGE_SAMPLES)]
        samples += self.edge
        return value, error, elapsed, NOMINAL_S / statistics.median(samples)
