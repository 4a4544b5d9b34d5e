"""Host-speed calibration: a fixed small kernel timed all through each measurement.

On a shared host the speed a process gets drifts by up to about 2x within
seconds, and differs by more than any allowed bound between two ten-minute
sets of runs.  The benchmark therefore times one pass of ``_kernel`` (about
10 ms) every INTERVAL_S seconds while an ``elwire run`` call runs, from a
SIGALRM handler in the same thread, and once more right after the call.  A
set-up probe and a span-traced run (whose spans would count the passes as
elwire time) are followed by EDGE_PASSES passes instead.  A measurement is
reported rescaled to the host speed at which one pass takes REFERENCE_S
seconds::

    own_s      = wall time - time spent in the passes during it
    reported_s = own_s * REFERENCE_S / mean(pass times)

The kernel mixes the kinds of work elwire consists of: a pure-Python loop
(interpreter overhead, the bulk of set-up and of small-N runs), small numpy
vector operations on an 8192-vector (the matrix-free CG path) and small dense
LU factorisations (the direct elliptic path).  Like elwire's numpy code it
allocates temporaries: a variant working in preallocated arrays tracked the
host's speed worse (``march-flat-n4096`` ``run_s`` spread about 10% over five
seeds, against 4-6% over ten).  It
uses no elwire code, so a change to elwire moves the reported times by what it
moves the wall times.
Over seventeen 12-s runs of ``march-flat-n4096`` the mean pass time and the
run's own time correlated at 0.92.  Over ten seeds with 50-s runs, rescaling
cut the spread of ``run_s`` (quartile distance over median) on
``march-flat-n4096`` from 23% and 13% of the raw wall times to 3.7% and 5.6%
in two sets; on ``march-flat-n1024`` it went from 11% to 8.3% in one set and
from 3.8% to 5.1% in a quieter one.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.linalg

#: seconds one kernel pass takes at the reference host speed (a round figure near
#: its 8-11 ms on a 2.0 GHz Intel Xeon vCPU, numpy 2.4, scipy-openblas, 1 thread)
REFERENCE_S = 0.010
#: wall-clock seconds between kernel passes during a run (about 4% overhead)
INTERVAL_S = 0.25
#: kernel passes timed right after each set-up probe and each traced run
EDGE_PASSES = 20

_rng = np.random.default_rng(12345)
_VECTOR = _rng.standard_normal(8192)
_MATRIX = _rng.standard_normal((128, 128)) + 128.0 * np.eye(128)


def _kernel() -> None:
    total = 0
    for i in range(30_000):
        total += i * i % 7
    x = _VECTOR
    for _ in range(100):
        x = x + 0.01 * (np.roll(x, 1) - x)
        x = x / np.sqrt(np.dot(x, x))
    for _ in range(10):
        scipy.linalg.lu_factor(_MATRIX)


def calibrate() -> float:
    """Wall time (s) of one kernel pass."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def warm_up() -> None:
    """Run the kernel untimed, so first-call costs stay out of the samples."""
    for _ in range(3):
        _kernel()


class Sampler:
    """Context manager timing one kernel pass every INTERVAL_S seconds.

    ``samples`` holds the pass times taken inside the ``with`` block, followed
    by one pass timed right after it (so even a block shorter than INTERVAL_S
    has a sample).  It must be used from the main thread.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(calibrate())

    def __enter__(self) -> "Sampler":
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.samples.append(calibrate())
