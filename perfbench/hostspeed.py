"""How fast the host runs right now, measured by a fixed calibration loop.

The machine the benchmark runs on may be shared: over a minute the same
request can take 0.40 s and then 0.58 s, and its CPU time moves with it, so
the process is not waiting but running slower.  A short loop of the same
kind of work (small-matrix numpy calls driven from Python, vector
exp/log, and a pairwise product over a batch of 2x2 complex matrices as in
the slice kernel) slows down with it.  The benchmark times that loop between its
timed steps and scales the run's wall times by REFERENCE_S over the median
loop time of the run: that gives the run's times on a host where the loop
takes REFERENCE_S.  A change of the program moves them in full; a drift of
the host's speed from one run or one set of runs to the next mostly does
not.  One loop alone is a poor gauge of the seconds around it -- over 90 s
of one repeated 2 s request, single loops ranged over 70 % of their median
while the request ranged over 20 % -- so no request is scaled by its own
neighbours, only the whole run by the median of all its loops.  The loop
uses numpy only, never ottospin.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Calibration time that normalized seconds refer to: about what the loop
#: takes on a 2-core Xeon VM with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.05

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((2, 2)) + 1j * _RNG.standard_normal((2, 2))
_X = _RNG.standard_normal(20000)
_BATCH = _RNG.standard_normal((1 << 15, 2, 2)) + 1j * _RNG.standard_normal((1 << 15, 2, 2))
_ANGLES = _RNG.random(1 << 15)


def calibrate() -> float:
    """Wall seconds of one pass of the calibration loop."""
    start = time.perf_counter()
    m = np.eye(2, dtype=complex)
    for _ in range(3000):
        m = m @ _A
        m /= np.abs(m).max()
    for _ in range(30):
        np.exp(-_X * _X).sum() + np.log1p(np.abs(_X)).mean()
    # a pairwise product over a batch of 2x2 matrices a few MB large
    mats = _BATCH * np.exp(1j * _ANGLES)[:, None, None]
    while len(mats) > 1:
        mats = mats[1::2] @ mats[0::2]
        mats /= np.abs(mats).max()
    return time.perf_counter() - start


#: Calibration loops a run takes at least, spread over its ticks, so that
#: even a run of few steps has a median over a few dozen loops.
MIN_LOOPS = 30


class Clock:
    """Calibrations taken between the timed steps of a run; ``scale()``
    turns the run's wall seconds into normalized seconds."""

    def __init__(self, ticks: int) -> None:
        calibrate()  # warm up
        self.loops_per_tick = -(-MIN_LOOPS // ticks)
        self.calibrations: list[float] = []

    def tick(self) -> None:
        self.calibrations.extend(calibrate() for _ in range(self.loops_per_tick))

    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self.calibrations)
