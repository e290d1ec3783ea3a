"""Machine speed, from fixed calibration loops.

The shared machines this runs on change speed by up to 2x within seconds
(another tenant's load on the same core), which would swamp a 10% change
in the library.  The benchmark therefore times a fixed loop before every
unit of work and reports times at reference speed: a wall time is scaled
by the loop's reference time over its measured time, taking the slower of
the two calibrations that bracket the work.  The loops run no library
code and run with the collector off, so nothing the library does can
change them.

Interpreter work is scaled by a pure-Python ``Fraction`` loop.  Decode,
whose time is numpy gathers and XORs, follows a numpy loop of the same
kind instead (see perfbench/README.md, *Noise*).
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from stats import clock, median

REFERENCE_S = 400e-6        # the Fraction loop's time at reference speed
NUMPY_REFERENCE_S = 800e-6  # the numpy loop's time at reference speed
_BITS = np.random.default_rng(0).integers(0, 2, size=1 << 20, dtype=np.uint8)
_GATHER = np.arange(0, 1 << 20, 3)


def _loop() -> Fraction:
    s = Fraction(0)
    for i in range(1, 100):
        s += Fraction(i, i + 1)
    return s


def _numpy_loop() -> None:
    x = _BITS[_GATHER]
    np.bitwise_xor(x, _BITS[:x.size], out=x)


def calibrate(loop=_loop) -> float:
    """Median of three timings of `loop`, with the collector off."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        ts = []
        for _ in range(3):
            t0 = clock()
            loop()
            ts.append(clock() - t0)
    finally:
        if was_on:
            gc.enable()
    return median(ts)


class Speed:
    """Calibrations of one loop over one run, in time order."""

    def __init__(self, loop=_loop, reference: float = REFERENCE_S) -> None:
        self.loop = loop
        self.reference = reference
        self.t: list[float] = []
        self.dt: list[float] = []

    @classmethod
    def numpy(cls) -> "Speed":
        return cls(_numpy_loop, NUMPY_REFERENCE_S)

    def record(self) -> None:
        self.t.append(clock())
        self.dt.append(calibrate(self.loop))

    def factor(self, t: float) -> float:
        """Scale from wall time at `t` to reference time."""
        i = max(bisect_right(self.t, t) - 1, 0)
        j = min(i + 1, len(self.dt) - 1)
        return self.reference / max(self.dt[i], self.dt[j])

    def scale(self, samples) -> list[float]:
        """[(stamp, seconds)] -> reference seconds."""
        return [dt * self.factor(t) for t, dt in samples]

    def timed(self, fn, n: int, *args) -> list[float]:
        """Reference seconds of `n` calls, bracketed by calibrations."""
        self.record()
        samples = []
        for _ in range(n):
            t0 = clock()
            fn(*args)
            samples.append((t0, clock() - t0))
        self.record()
        return self.scale(samples)
