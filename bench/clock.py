"""Op timing that also tracks how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by 20% and more
within a minute, for every process alike.  Between ops the clock times a
reference task that no engine change can alter, and each op's time
divided by the mean of the reference times measured just before and just
after it is its *normalized* time, in units of "cal".  The host's drift
cancels in the ratio, while a change to the engine's own cost does not.

The reference task should slow down with the host as the ops do.  For ops
that compute inside one process it is `calibration_s`, a fixed loop of
pure-Python `Fraction` arithmetic.  For ops that each start a fresh
interpreter it is the start-up of a bare interpreter (see run.py).
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter
from typing import Callable

CALIBRATION_TERMS = 1500
SEGMENT_S = 0.05      # calibrate again once this much op time has passed


def _calibration_loop() -> Fraction:
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i % 97 + 1)
    return total


def calibration_s() -> float:
    """Seconds one calibration loop takes now (best of two)."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        _calibration_loop()
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Collects op times; `raw` holds seconds, `norm` the normalized times
    in the same order, `cal` every reference time taken.  The reference
    task runs again once `segment_s` of op time has passed since the last
    run (after every op when it is 0)."""

    def __init__(self, reference: Callable[[], float] = calibration_s,
                 segment_s: float = SEGMENT_S):
        self.reference = reference
        self.segment_s = segment_s
        self.raw: list[float] = []
        self.norm: list[float] = []
        self.cal: list[float] = [reference()]
        self._pending: list[float] = []

    def record(self, seconds: float) -> None:
        self._pending.append(seconds)
        if sum(self._pending) >= self.segment_s:
            self.flush()

    def flush(self) -> None:
        """Time the reference task and normalize the ops recorded since it
        last ran."""
        if not self._pending:
            return
        now = self.reference()
        local = (self.cal[-1] + now) / 2
        self.cal.append(now)
        self.raw.extend(self._pending)
        self.norm.extend(s / local for s in self._pending)
        self._pending = []
