"""Machine-speed gauge: a fixed pure-Python loop, timed next to the measured work.

On the 2-vCPU machine where this benchmark was defined, the CPU speed seen by
one process swings by up to 1.85x, over stretches from seconds to tens of
minutes. Timed work is scaled by REFERENCE_S / (gauge time), so it reads as
the time on a machine where the gauge loop takes REFERENCE_S, which is about
its fastest time there. The gauge never calls crtcount, so a change to the
library moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0006


def gauge() -> float:
    """Seconds taken by the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i % 7
    return time.perf_counter() - start
