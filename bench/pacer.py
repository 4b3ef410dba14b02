"""Host-speed reference for the benchmark's timings.

The benchmark runs on a VM whose cores share a host with other tenants,
and host load changes how fast the same instructions run by up to 2x
over minutes.  Steal time stays near zero while it happens, so process
CPU time follows wall time and cannot tell the two apart.  What can is
a fixed piece of work owned by the benchmark, timed next to the
program: the reference slice below.  It mixes what loopflow's hot paths
do (numpy ufuncs, clip and where on arrays of a few hundred doubles, a
small matrix-vector product, plain Python calls) and never imports
loopflow, so a change to the program cannot change it.

`Pacer` interleaves slices with a workload body: a one-shot SIGALRM
fires after every INTERVAL_S of body time, the handler runs one slice
and re-arms the timer.  The handler's time is kept apart, so the body's
own time is its wall time minus that, and the mean slice time is the
host's speed over the same stretch.  `normalised` rescales a duration
to what it would have been with slices at NOMINAL_SLICE_S.

Signal handlers run between Python bytecodes of the main thread, so a
slice never interrupts the program inside a numpy call, and Python
retries system calls that the signal interrupts.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.25      # body time between two slices
NOMINAL_SLICE_S = 0.015  # about the median slice time on the 2-core Xeon VM the benchmark was written on
SLICE_ROUNDS = 600

_X = np.linspace(-0.5, 1.5, 257)
_M = np.cos(np.outer(np.arange(32), np.arange(32)) * 0.1)


def _step(i, acc):
    return (acc + (i * 0.37) % 5.0) * 0.5


def reference_slice():
    """A fixed amount of work, 11-21 ms on that VM."""
    acc = 0.0
    x = _X
    for i in range(SLICE_ROUNDS):
        u = np.clip(x, 0.0, 1.0)
        s = u ** 3 * (10.0 + u * (-15.0 + 6.0 * u))
        s = np.where((x > 0.0) & (x < 1.0), s, 0.0) + np.sin(x)
        acc = _step(i, acc + float(s.sum()) + float(_M[:, i % 32] @ _M[i % 32]))
    return acc


def time_slices(count):
    """Mean time of `count` slices, after one untimed warm-up slice."""
    reference_slice()
    t0 = time.perf_counter()
    for _ in range(count):
        reference_slice()
    return (time.perf_counter() - t0) / count


def normalised(seconds, slice_s):
    """`seconds` measured while slices took `slice_s`, at nominal speed."""
    return seconds * NOMINAL_SLICE_S / slice_s


class Pacer:
    """Context manager interleaving reference slices with the code it wraps.

    `spent` is the time spent in slices so far, handler overhead
    included; `slices` holds each slice's own time.
    """

    _active = None

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.slices = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        self.slices.append(t1 - t0)
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        reference_slice()   # warm-up, untimed and outside the body
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        Pacer._active = self
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        Pacer._active = None
        return False

    def mean_slice(self):
        return sum(self.slices) / len(self.slices) if self.slices else None


def spent():
    """Slice time so far in the active pacer, 0.0 when none is active.

    Unit latencies subtract the change of this across the unit.
    """
    return Pacer._active.spent if Pacer._active is not None else 0.0
