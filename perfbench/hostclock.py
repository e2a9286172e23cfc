"""Wall time corrected for how fast the shared host ran at the time.

On the shared 2-vCPU virtual machine described in README.md, the same
work runs at one of two speeds about 1.7x apart, switching several times
a second, and the share of slow time drifts over tens of seconds; CPU
time moves with wall time.  Raw wall times of the same workload therefore
spread by 15-45% (IQR/median) from run to run, and the medians of two
sets of runs can differ by 30%.

While a HostClock is active, a timer interrupts the process every PERIOD
seconds and times a fixed numpy kernel shaped like one LSTM step
(probe_kernel).  The kernel's speed relative to its uncontended time REF_S
estimates how fast the host ran at that moment.  An interval's corrected
time is its wall time, less the probes' own time, scaled by the mean speed
of the probes that fired inside it: the time the same work would take on
the uncontended host.  The kernel is the benchmark's own code, so a change
to wordctc moves the measured intervals and not the probes.
"""

import signal
import time

import numpy as np
from scipy.special import expit

PERIOD = 0.05
REF_S = 0.0008  # about the kernel's fastest time inside a sweep on this host
STEPS = 150
WARMUP_STEPS = 10
_W = np.random.default_rng(0).normal(0.0, 0.1, size=(192, 48))


def probe_kernel(steps):
    h = np.zeros(48)
    for _ in range(steps):
        a = _W @ h + 0.1
        h = np.tanh(a[:48]) * expit(a[48:96])
    return h


class HostClock:
    def __init__(self, listener=None):
        """listener(seconds, speed) is called after each probe."""
        self.samples = []  # (start, total time, timed-steps time) of each probe
        self.listener = listener
        self._previous = None
        self._busy = False

    def _probe(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        # untimed warm-up steps reload the kernel's weights into cache, so
        # its timed steps do not depend on what the program touched last
        began = time.perf_counter()
        probe_kernel(WARMUP_STEPS)
        started = time.perf_counter()
        probe_kernel(STEPS)
        ended = time.perf_counter()
        self.samples.append((began, ended - began, ended - started))
        if self.listener is not None:
            self.listener(ended - began, REF_S / (ended - started))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, start, end):
        """Corrected duration of the interval [start, end] of perf_counter."""
        inside = [s for s in self.samples if start <= s[0] < end]
        spent = sum(s[1] for s in inside)
        if not inside and self.samples:
            # shorter than one period: use the probe nearest in time
            inside = [min(self.samples, key=lambda s: abs(s[0] - start))]
        if not inside:
            return end - start
        speed = sum(REF_S / s[2] for s in inside) / len(inside)
        return (end - start - spent) * speed
