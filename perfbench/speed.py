"""Machine-speed sampling, to put times from a contended host on one scale.

On a shared machine the same single-threaded pass of ckforms can take 1.3 to
1.7 times longer depending on what the neighbours do, and the speed changes
within seconds.  Process CPU time swings as much as wall clock, so it is no
remedy.  ``Sampler`` therefore times a fixed probe every ``PERIOD_S``
seconds while a pass runs: exact ``Fraction`` arithmetic on a NumPy object
array, the kind of work ckforms itself does.  ``Timeline`` maps a
``time.perf_counter`` reading to reference seconds, the time it would have
taken had every probe taken ``P_REF_S``.

The probe touches no ckforms code, but it runs in the measured interpreter,
on its main thread, so the program's state can still slow one probe.  A
garbage collection is kept out of it (collection is paused while it runs);
one slow probe is outvoted because each stretch is scaled by the median of
the ``WINDOW`` nearest probes.  Python threads in the program would contend
with the probe for the GIL and make the scaling meaningless: the workloads
run serially.
"""
from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

import numpy as np

# one probe on this benchmark's reference host when no neighbour contends
P_REF_S = 0.002
PERIOD_S = 0.2
# probes whose median scales one stretch: the sample itself and its
# neighbours on either side
WINDOW = 3

_ARRAY = np.array([Fraction(i, i + 1) for i in range(1, 400)], dtype=object)


def probe() -> float:
    """Seconds taken by the fixed probe work, with collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        (_ARRAY * _ARRAY[::-1] + _ARRAY).sum()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times ``probe`` on a SIGALRM interval timer in the calling (main)
    thread; ``samples`` holds ``(time.perf_counter(), probe seconds)``."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), probe()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


class Timeline:
    """Reference seconds since the first sample, as a function of
    ``time.perf_counter``.

    The stretch from one sample to the next runs at the speed of the later
    sample, read as the median probe time of the ``WINDOW`` samples around
    it; the first sample's speed holds before it and the last sample's after
    it.  The reference seconds in ``[a, b]`` are ``timeline(b) -
    timeline(a)``.
    """

    def __init__(self, samples):
        self.times = [t for t, _ in samples]
        probes = [p for _, p in samples]
        half = WINDOW // 2
        self.rates = [
            P_REF_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))
        ]
        self.at = [0.0]  # reference seconds at each sample
        for i in range(1, len(self.times)):
            self.at.append(self.at[-1] + (self.times[i] - self.times[i - 1])
                           * self.rates[i])

    def __call__(self, t: float) -> float:
        i = bisect_left(self.times, t)
        if i == len(self.times):
            return self.at[-1] + (t - self.times[-1]) * self.rates[-1]
        if i == 0:
            return (t - self.times[0]) * self.rates[0]
        return self.at[i - 1] + (t - self.times[i - 1]) * self.rates[i]
