"""Contention-corrected clock for timings on a shared host.

On a shared machine the host can halve a process's speed for seconds at a
time, far more than the differences the benchmark has to resolve.  A
:class:`SpeedProbe` runs a fixed calibration loop (Python arithmetic and
small numpy operations, the mix that dominates indmom) about 20 times a
second from a SIGALRM handler, in the workload's own thread.  Its
:meth:`SpeedProbe.clock` maps ``time.perf_counter()`` stamps to *reference
seconds*: wall time scaled by ``REFERENCE_S / loop duration``, the loop
duration smoothed over five samples.  When the host is quiet a reference
second is a wall second; when the host slows the loop and the workload
alike, reference time keeps counting work, not waiting.

``perf_counter`` is CLOCK_MONOTONIC on Linux, so stamps taken in the
parent process (the launch of a worker) map on the worker's clock too.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# duration of calibration_loop(), sampled inside a running workload with the
# host quiet: Python 3.11, numpy 2.4, 2-vCPU "Intel(R) Xeon(R) Processor" VM
REFERENCE_S = 1.6e-4
INTERVAL_S = 0.05
SMOOTH = 5

_A = 1.0 + np.arange(32.0) ** 2


def calibration_loop():
    """A short one-point three-term recurrence, the shape of indmom's hot loop."""
    z = np.array([0.3 + 0.4j])
    P = np.empty((26, 1), dtype=complex)
    P[0] = 1.0
    P[1] = z / _A[0]
    for n in range(1, 25):
        P[n + 1] = (z * P[n] - _A[n - 1] * P[n - 1]) / _A[n]
    return complex(P[-1, 0])


class SpeedProbe:
    def __init__(self):
        self.at = []
        self.took = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.at.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def clock(self):
        """Function mapping perf_counter stamps (scalars or arrays) to reference seconds.

        Each sample sets the rate from halfway to its predecessor to halfway
        to its successor; the first and last rates extend outwards.
        """
        n = len(self.took)   # the handler appends to `at` first
        at = np.asarray(self.at[:n])
        took = np.asarray(self.took[:n])
        half = SMOOTH // 2
        smooth = np.median(sliding_window_view(np.pad(took, half, mode="edge"), SMOOTH),
                           axis=1)
        rate = REFERENCE_S / smooth
        edges = np.concatenate(([at[0] - 1e5], 0.5 * (at[1:] + at[:-1]), [at[-1] + 1e5]))
        cum = np.concatenate(([0.0], np.cumsum(np.diff(edges) * rate)))
        return lambda t: np.interp(t, edges, cum)

    def now(self):
        """Reference seconds at this moment."""
        return float(self.clock()(time.perf_counter()))

    def summary(self):
        took = np.asarray(self.took)
        return {"samples": len(took),
                "loop_p50_s": float(np.median(took)),
                "mean_speed": float(np.mean(REFERENCE_S / took))}
