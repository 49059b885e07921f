"""Host speed: a fixed unit of work, timed around each measured interval.

On a shared host the same code runs up to twice as slow, pure-Python loops
and numpy calls alike, in stretches that come and go within a second and
last up to minutes. A run that falls in a slow stretch then reads slow as a
whole, and the median over its passes cannot help. So the benchmark times
this unit, which uses nothing from ``filex``, just before and just after
each measured interval, and scales the interval by

    REFERENCE_S / (mean of the unit's two times)

which is the time the interval would have taken on a host where the unit
takes ``REFERENCE_S``. A slow stretch slows the interval and the unit alike
and cancels; a change to ``filex`` moves the interval and not the unit, so
it moves the scaled time by the same share as the raw one.

The unit mixes what ``filex`` spends its time on: small
``Generator.multinomial`` calls (the fast kernel) and dict and integer work
in the interpreter (the fixed per-run cost and the reference kernel).
"""

from __future__ import annotations

import time

import numpy as np

# The unit's time on this host when it is quiet (2 vCPUs at 2.0 GHz,
# Python 3.11, numpy 2.4): scaled times read close to raw ones there.
REFERENCE_S = 0.018
UNIT_ROUNDS = 6000


def unit_seconds() -> float:
    """Wall time of one calibration unit."""
    rng = np.random.default_rng(12345)
    p = np.full(8, 1.0 / 8)
    acc = 0
    t0 = time.perf_counter()
    for i in range(UNIT_ROUNDS):
        acc += int(rng.multinomial(3, p)[0])
        d = {j: j * i for j in range(8)}
        acc += sum(d.values()) % 7
    elapsed = time.perf_counter() - t0
    if acc < 0:  # consume the result; never true
        raise AssertionError(acc)
    return elapsed


class Scaler:
    """Scale factors for back-to-back intervals, one unit timed between each two.

    Create it just before the first interval (it times a warm-up unit and the
    first "before" unit), then call ``factor()`` just after each interval.
    """

    def __init__(self, unit=unit_seconds):
        self._unit = unit
        self._unit()  # first call pays numpy's and the allocator's warm-up
        self._before = self._unit()
        self.units: list[float] = []  # every unit time, for the stderr summary

    def factor(self) -> float:
        """REFERENCE_S over the mean unit time around the interval that just ended.

        The unit timed here is also the "before" unit of the next interval.
        """
        after = self._unit()
        self.units.append(after)
        before, self._before = self._before, after
        return REFERENCE_S / ((before + after) / 2)
