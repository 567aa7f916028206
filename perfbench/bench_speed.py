"""Host-speed calibration: times scaled to one reference CPU speed.

The benchmark runs on a few cores of a shared host, whose speed swings by
up to 1.8x over tens of seconds (the same op took 4.7 s and 8.8 s minutes
apart on a 2-CPU Xeon VM), and CPU time moves with wall time.  No median
over one run evens that out.  So every timed op is sampled while it runs:
``SpeedSampler`` runs a fixed calibration kernel from ``SIGALRM`` on the
main thread every ``INTERVAL_S``, times each kernel run in thread CPU time,
and scales the op's time to the speed at which one kernel run takes
``REF_KERNEL_S``.  The kernel's own CPU time is taken out of the op first.  A
set-up child samples itself the same way, every ``SETUP_INTERVAL_S``.

The kernel mixes the interpreter's float, dict and str work with small
numpy calls, as the integrator's steps do, so it slows down with the host the way the
ops do.  Per op, the scaled times spread by 1.5-5% where the raw ones
spread by 12-40%.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: seconds of one kernel run at the reference speed; the scaled times are
#: seconds at that speed (about the slow state of a 2-CPU Xeon VM)
REF_KERNEL_S = 1.0e-3
INTERVAL_S = 0.025
#: a set-up start lasts about 0.2 s, so its child samples more often
SETUP_INTERVAL_S = 0.005

_A = np.array([[0.0, 1.0], [-2.0, -0.1]])
_I2 = np.eye(2)


def _field(x, c):
    return np.array([x[1], -c[0] * np.sin(x[0]) - c[1] * x[1]])


def kernel() -> float:
    """Fixed work in three parts, about a third of the time each.

    Float arithmetic with a 2x2 product every 8th pass; implicit steps of a
    damped pendulum with small-array builds, a 2x2 solve and eigenvalues;
    and dict, str and int work.  Each part alone tracks the ops' slowdown
    to within about 3% per op, the mix to within about 2%.
    """
    s, x = 0.0, np.array([1.0, 0.5])
    for i in range(500):
        s += (i * 0.5) % 3.0
        if i % 8 == 0:
            x = _A @ x
            x = x / np.linalg.norm(x)
    c, y = (2.0, 0.1), np.array([0.3, 0.1])
    for _ in range(7):
        jac = np.array([[0.0, 1.0], [-c[0] * np.cos(y[0]), -c[1]]])
        y = y + 0.01 * np.linalg.solve(_I2 - 0.01 * jac, _field(y, c))
        s += float(np.max(np.linalg.eigvals(jac).real))
    d, n = {}, 0
    for i in range(1500):
        d[i & 63] = n
        n = (n + len(str(i))) % 1000
    return s + float(x[0]) + n


def kernel_s() -> float:
    """Thread CPU seconds of one kernel run."""
    t0 = time.thread_time()
    kernel()
    return time.thread_time() - t0


def scale_of(samples: list[float]) -> float:
    """Factor from measured to reference seconds: the mean of ref/sample.

    Samples are taken evenly in wall time, so the mean of the speed ratios
    weights each stretch of the op by its length.
    """
    return statistics.fmean(REF_KERNEL_S / k for k in samples)


class SpeedSampler:
    """Samples the kernel every ``interval`` seconds of wall time while entered.

    Only usable on the main thread.  ``spent_s`` is the thread CPU time of
    the samples so far.  It, not their wall time, is what they cost the op:
    the interpreter lock lets no other thread of the op run Python while a
    sample does, but where numpy releases the lock inside a sample, the
    op's threads run on, so the sample's wall time would overstate the cost
    in the threaded ``sweep``.  ``scale`` is the factor of ``scale_of`` over
    the samples, with one more kernel run made on exit when the block was
    too short to be sampled.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(kernel_s())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(kernel_s())
        return False

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    @property
    def scale(self) -> float:
        return scale_of(self.samples)
