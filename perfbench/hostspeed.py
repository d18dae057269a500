"""Host-speed probe: rescales measured time to a reference host speed.

A shared machine changes speed by itself, in phases of seconds to
minutes: a loop of finetune calls ran between 0.65x and 1x of its own
best within three minutes, in CPU time as well as in wall time, so it is
not descheduling.  No run length the time budget allows averages that
away.  The probe is a fixed kernel that does not touch the library: small
matrix products of the shape of the tiny network's im2col convolutions,
(8 x 72) @ (72 x 1024).  Of the kernels tried (a pure-Python loop, small
elementwise numpy calls, FFTs, memory copies, larger products) it
followed the workloads best: over 10 s windows its log speed tracked
finetune's with a slope of 0.94 (correlation 0.93), reconstruct's with
0.83 (0.80) and train's with 0.95 (0.87).  uq slows down somewhat more
than the probe, and in some phases finetune and train slowed about twice
as much, so there the rescaling removes only part of the drift.

The run takes a probe sample between operations (and, for the two
workloads whose step loop runs inside one library call, between
optimizer steps), at most every ``EVERY_S`` seconds, outside the timed
region.  Each operation's wall time is then multiplied by ``REF_S / p``,
where ``p`` is the median of the samples taken within ``WINDOW_S``
seconds of the operation: the time the operation would have taken had
the host run the probe in ``REF_S``.  A change to the library does not
change the probe, so it moves the rescaled time as it moves the wall
time.  The report keeps the raw wall-time figures and every sample.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's median time on the machine the benchmark was tuned on
# (2-vCPU Intel Xeon); it only fixes the unit of the rescaled metrics
REF_S = 0.007
REPS = 200
EVERY_S = 0.1
WINDOW_S = 0.5

_RNG = np.random.default_rng(7)
_A = _RNG.standard_normal((8, 72))
_B = _RNG.standard_normal((72, 1024))


def kernel_s() -> float:
    t0 = time.perf_counter()
    for _ in range(REPS):
        _A @ _B
    return time.perf_counter() - t0


class SpeedLog:
    """Probe samples, each (start time, seconds)."""

    def __init__(self):
        self.samples = []

    def maybe(self) -> float:
        """Take a sample unless one was taken in the last ``EVERY_S``
        seconds; returns the seconds spent."""
        t0 = time.perf_counter()
        if self.samples and t0 - self.samples[-1][0] < EVERY_S:
            return 0.0
        self.samples.append((t0, kernel_s()))
        return time.perf_counter() - t0

    def scale(self, start: float, end: float) -> float:
        """``REF_S`` over the median sample within ``WINDOW_S`` of
        [start, end], or of the nearest sample if none is."""
        t = np.asarray([s[0] for s in self.samples])
        v = np.asarray([s[1] for s in self.samples])
        near = (t >= start - WINDOW_S) & (t <= end + WINDOW_S)
        if not near.any():
            near = np.abs(t - start) == np.abs(t - start).min()
        return REF_S / float(np.median(v[near]))

    def summary(self) -> dict:
        v = [s[1] for s in self.samples]
        return {"samples": len(v), "ref_s": REF_S,
                "median_s": float(np.median(v)) if v else None,
                "min_s": min(v, default=None), "max_s": max(v, default=None)}
