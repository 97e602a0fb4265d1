"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the speed of a core moves by a third or more, over
seconds and over minutes, and everything slows together: the set-up of a
worker, which does fixed work, moves as much as its requests do.  The
worker therefore runs this task between requests, outside the timed
region, and bench/run.py rescales each time it reports to the speed at
which one sample of the task takes ``REFERENCE_S``.

The task is made of what eqfield's requests are made of: a zero-padded
FFT convolution of a 3d array, which streams arrays larger than a core's
L2 cache, and pure Python interpretation.  It uses numpy and scipy only;
nothing here imports eqfield, so a change to the program cannot change
the task.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import signal

REFERENCE_S = 0.060      # a sample's time at the speed all reported times are scaled to
SHARE = 0.06             # calibration time as a share of request time (at least one sample each)

_rng = np.random.default_rng(0)
_FIELD = _rng.standard_normal((24, 24, 24))
_KERNEL = _rng.standard_normal((47, 47, 47))


def _task() -> float:
    acc = float(signal.fftconvolve(_FIELD, _KERNEL, mode="same")[12, 12, 12])
    for i in range(300000):
        acc += i * 0.5
    return acc


def sample() -> float:
    """Seconds one run of the reference task takes now."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


class Calibrator:
    """Samples the reference task for about SHARE of the request time."""

    def __init__(self, warm_up: int = 2):
        for _ in range(warm_up):
            sample()
        self.samples: list = []
        self._owed = 0.0

    def after_request(self, request_s: float) -> None:
        self._owed += SHARE * request_s
        while True:
            self.samples.append(sample())
            self._owed -= self.samples[-1]
            if self._owed <= 0.0:
                self._owed = 0.0
                return
