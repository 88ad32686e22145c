"""Host-speed scaling of wall-clock spans.

On the host this benchmark was written on, the same Python code runs at
speeds up to 2x apart, in phases that last from seconds to about a minute
(a fixed Fraction loop took 41 ms in one 5-second window and 79 ms in the
next).  No run short enough to repeat twenty times can average over that.
So each timed span is bracketed by a yardstick, a fixed piece of pure-Python
Fraction arithmetic of the kind chenlie itself does, and reported scaled to
the yardstick time REFERENCE_S:

    scaled = wall * REFERENCE_S / mean(yardstick before, yardstick after)

A change to chenlie moves the scaled figure as it moves wall time, while a
host phase moves the yardstick along with the span.  Scaled figures are in
seconds of a host on which the yardstick takes REFERENCE_S.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0005
_TERMS = 170
_TRIES = 3


def yardstick() -> float:
    """Seconds for the fixed piece of arithmetic; the least of a few tries,
    so that a preemption does not count as a slow host."""
    best = float("inf")
    for _ in range(_TRIES):
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, _TERMS):
            s += Fraction(1, i % 97 + 1)
        best = min(best, time.perf_counter() - t0)
    return best


def scale(wall_s: float, before_s: float, after_s: float) -> float:
    return wall_s * 2 * REFERENCE_S / (before_s + after_s)


def timed(fn, *args, **kwargs):
    """(fn(*args, **kwargs), wall seconds, scaled seconds)."""
    before = yardstick()
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    return out, wall, scale(wall, before, yardstick())
