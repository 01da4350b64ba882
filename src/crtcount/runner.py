"""Exact distant-time search for two runners on the unit circle.

A runner with integer speed v sits at position v*t mod 1 at time t. Two
runners with distinct positive speeds m and n (a stationary observer at the
origin makes a third) always admit a time at which both are at circle
distance at least 1/3 from the observer. On the grid t = x / (3*m*n), with
s < f the two speeds, the slow runner sits at x/(3f) and is that far away
exactly when x mod 3f lies in [f, 2f]; the fast runner sits at x/(3s) and is
that far away exactly when x mod 3s lies in [s, 2s]. The earliest common
point is found from x = f by one modular step, in O(1) integer operations
whatever the speeds; a witness then fills three Fractions, reduced on the
integers and built without Fraction's constructor, and does no Fraction
arithmetic. Nothing is looked up per call: the allocator and the witness's
two slot setters are bound once, at import, and the 64-bit guard is called
only when the grid's denominator is past the range.
"""


from fractions import Fraction
from math import gcd

from .congruence import INT64_MAX, _checked_mul, _positive, _shown, _Value
from .residues import CyclicInterval

__all__ = [
    "DistantWitness",
    "RunnerPair",
    "two_runner_witness",
]


_new = object.__new__


def _distant(near: int, q: int) -> bool:
    """near/q >= 1/3 (q > 0), compared on the integers."""
    return 3 * near >= q


def _reduced(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for ints with denominator > 0.

    Built without the constructor: both ints are divided by their gcd and
    stored in Fraction's own two slots, as its constructor stores them.
    """
    g = gcd(numerator, denominator)
    fraction = _new(Fraction)
    fraction._numerator = numerator // g
    fraction._denominator = denominator // g
    return fraction


def distant_interval(speed: int, denominator: int, runners: int = 2) -> CyclicInterval:
    """Grid times keeping one runner at distance >= 1/(runners+1) from the origin.

    On the time grid t = x / denominator, the runner at speed v (with v's
    full period dividing the grid, i.e. (runners+1)*speed | denominator) is
    at least 1/(runners+1) from the origin exactly when x mod q lies in
    [q/(runners+1), runners*q/(runners+1)] where q = denominator // speed.
    That is a single cyclic interval of (runners-1)*q/(runners+1) + 1
    residues modulo q.
    """
    _positive(speed, "speed")
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
        # Compared term by term, which is exact because a Fraction's (or an
        # int's) denominator is positive; a float has no numerator and is refused.
        if not 0 <= time.numerator < time.denominator:
            raise ValueError(f"witness time must lie in [0, 1), got {_shown(time)}")
        for d in distances:
            if not _distant(d.numerator, d.denominator):
                raise ValueError(f"distance {_shown(d)} is below the 1/3 threshold")
        object.__setattr__(self, "time", time)
        object.__setattr__(self, "distances", distances)


_set_time = DistantWitness.time.__set__
_set_distances = DistantWitness.distances.__set__


def two_runner_witness(pair: RunnerPair) -> DistantWitness:
    """Earliest grid time at which both runners are at least 1/3 from the origin.

    Works on the grid t = x / (3*m*n). Let s < f be the two speeds. The slow
    runner is far exactly when x mod 3f lies in [f, 2f], so no point before
    x = f qualifies; the fast runner is far exactly when x mod 3s lies in
    [s, 2s]. For x in [f, 2f], t runs over [1/(3s), 2/(3s)] and the fast
    runner sweeps a closed interval of length f/(3s). If f < 2s, x = f itself
    works, since f*t = 1/3 + (f-s)/(3s) there. If f >= 2s, the sweep is at
    least 2/3 long and must meet the fast runner's far zone. Either way the
    answer is the first x >= f with x mod 3s in [s, 2s], one modular step
    from f and at most 2f. Runner m then sits at x/(3n) and runner n at
    x/(3m), so the distances come from x mod 3n and x mod 3m, and the cost
    is O(1) integer operations.
    """
    m, n = pair.speed_m, pair.speed_n
    denominator = 3 * m * n
    if denominator > INT64_MAX:
        _checked_mul(3 * m, n)  # refuses, naming the product
    slow, fast = (m, n) if m < n else (n, m)
    first = fast
    offset = (first - slow) % (3 * slow)
    if offset > slow:
        first += 3 * slow - offset
    period_m, period_n = 3 * n, 3 * m
    r_m, r_n = first % period_m, first % period_n
    near_m = r_m if 2 * r_m <= period_m else period_m - r_m
    near_n = r_n if 2 * r_n <= period_n else period_n - r_n
    # The argument above rules out each failure; refuse rather than return a wrong
    # witness. These are DistantWitness's own checks, made here on the integers.
    if not (
        first <= 2 * fast
        and 0 <= first < denominator
        and _distant(near_m, period_m)
        and _distant(near_n, period_n)
    ):
        raise RuntimeError(f"no distant time found for speeds ({_shown(m)}, {_shown(n)})")
    witness = _new(DistantWitness)
    _set_time(witness, _reduced(first, denominator))
    _set_distances(witness, (_reduced(near_m, period_m), _reduced(near_n, period_n)))
    return witness
