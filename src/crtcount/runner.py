"""Exact distant-time search for two runners on the unit circle.

A runner with integer speed v sits at position v*t mod 1 at time t. Two
runners with distinct positive speeds m and n (a stationary observer at the
origin makes a third) always admit a time at which both are at circle
distance at least 1/3 from the observer. On the grid t = x / (3*m*n) the
times keeping a single runner that far away form one cyclic interval of
residues. The earliest common point lies on the slower runner's first arc
and is found by one modular step, in O(1) integer operations whatever the
speeds.
"""

from __future__ import annotations

from fractions import Fraction

from .congruence import _shown, _Value, checked_mul
from .residues import CyclicInterval

DISTANT_THRESHOLD = Fraction(1, 3)


def circle_distance(x: int | Fraction) -> Fraction:
    """Distance from x, an int or a Fraction, to the nearest integer: a Fraction in [0, 1/2]."""
    r = x.numerator % x.denominator
    return Fraction(min(r, x.denominator - r), x.denominator)


def distant_interval(speed: int, denominator: int, runners: int = 2) -> CyclicInterval:
    """Grid times keeping one runner at distance >= 1/(runners+1) from the origin.

    On the time grid t = x / denominator, the runner at speed v (with v's
    full period dividing the grid, i.e. (runners+1)*speed | denominator) is
    at least 1/(runners+1) from the origin exactly when x mod q lies in
    [q/(runners+1), runners*q/(runners+1)] where q = denominator // speed.
    That is a single cyclic interval of (runners-1)*q/(runners+1) + 1
    residues modulo q.
    """
    if speed < 1:
        raise ValueError(f"speed must be positive, got {_shown(speed)}")
    if runners < 2:
        raise ValueError(f"runners must be at least 2, got {_shown(runners)}")
    factor = (runners + 1) * speed
    if denominator % factor != 0:
        raise ValueError(
            f"denominator {_shown(denominator)} is not a multiple of"
            f" (runners+1)*speed = {_shown(factor)}"
        )
    period = denominator // speed
    start = period // (runners + 1)
    length = (runners - 1) * period // (runners + 1) + 1
    return CyclicInterval(modulus=period, start=start, length=length)


class RunnerPair(_Value):
    """Two distinct positive integer speeds."""

    __slots__ = ("speed_m", "speed_n")

    def __init__(self, speed_m: int, speed_n: int) -> None:
        if speed_m < 1 or speed_n < 1:
            raise ValueError(
                f"speeds must be positive, got ({_shown(speed_m)}, {_shown(speed_n)})"
            )
        if speed_m == speed_n:
            raise ValueError(f"speeds must be distinct, got {_shown(speed_m)} twice")
        object.__setattr__(self, "speed_m", speed_m)
        object.__setattr__(self, "speed_n", speed_n)


class DistantWitness(_Value):
    """A time in [0, 1) at which both runners are at least 1/3 from the origin."""

    __slots__ = ("time", "distances")

    def __init__(self, time: Fraction, distances: tuple[Fraction, Fraction]) -> None:
        if not 0 <= time < 1:
            raise ValueError(f"witness time must lie in [0, 1), got {_shown(time)}")
        for d in distances:
            if d < DISTANT_THRESHOLD:
                raise ValueError(f"distance {_shown(d)} is below the 1/3 threshold")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "distances", distances)


def two_runner_witness(pair: RunnerPair) -> DistantWitness:
    """Earliest grid time at which both runners are at least 1/3 from the origin.

    Works on the grid t = x / (3*m*n). Let s < f be the two speeds. The slow
    runner is far exactly when x mod 3f lies in [f, 2f], so no point before
    x = f qualifies. On that first arc, t runs over [1/(3s), 2/(3s)] and the
    fast runner sweeps a closed interval of length f/(3s). If f < 2s, x = f
    itself works, since f*t = 1/3 + (f-s)/(3s) there. If f >= 2s, the sweep
    is at least 2/3 long and must meet the fast runner's far zone. Either
    way the answer is the first x >= f with x mod 3s in [s, 2s], one modular
    step from f and at most 2f, so the cost is O(1) integer operations.
    """
    m, n = pair.speed_m, pair.speed_n
    denominator = checked_mul(3 * m, n)
    slow_arc = distant_interval(min(m, n), denominator)
    fast_arc = distant_interval(max(m, n), denominator)
    first = slow_arc.start
    offset = (first - fast_arc.start) % fast_arc.modulus
    if offset >= fast_arc.length:
        first += fast_arc.modulus - offset
    # The argument above rules this out; refuse rather than return a wrong time.
    if first - slow_arc.start >= slow_arc.length:
        raise RuntimeError(f"no distant time found for speeds ({_shown(m)}, {_shown(n)})")
    time = Fraction(first, denominator)
    distances = (circle_distance(m * time), circle_distance(n * time))
    return DistantWitness(time=time, distances=distances)
