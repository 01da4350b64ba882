"""Independent arithmetic oracles for checking crtcount's answers.

Nothing here imports crtcount. Each answer is recomputed from its definition
with plain integers and Fraction, so a defect in the library cannot hide in
the check. Collections are plain tuples: ("set", modulus, members) or
("interval", modulus, start, length).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
ENUMERATION_CAP = 10_000_000  # the scan limit the README's `count --enumerate` refuses past
# The reason given for the known defect: a result that leaves the signed
# 64-bit range where the README promises a refusal.
OUT_OF_RANGE = "out_of_range"


def fits_int64(value: int) -> bool:
    return INT64_MIN <= value <= INT64_MAX


# --- residue collections -----------------------------------------------------


def contains(coll: tuple, x: int) -> bool:
    """Whether the integer x lies in a class of the collection."""
    if coll[0] == "set":
        return x % coll[1] in coll[2]
    _, modulus, start, length = coll
    return (x - start) % modulus < length


def class_count(coll: tuple, g: int, c: int) -> int:
    """Members of an interval congruent to c mod g, where g divides its modulus.

    Reducing mod the modulus keeps the class mod g, so the members walk the
    classes start, start+1, ... mod g: length // g full turns plus a partial
    turn of length % g classes beginning at start.
    """
    _, _, start, length = coll
    turns, extra = divmod(length, g)
    return turns + ((c - start) % g < extra)


def tally(coll: tuple, g: int) -> dict[int, int]:
    """Member counts per residue class mod g, as a dict."""
    if coll[0] == "set":
        return Counter(r % g for r in coll[2])
    return {c: n for c in range(g) if (n := class_count(coll, g, c))}


def solution_count(a: tuple, b: tuple) -> int:
    """Classes mod lcm(m, n) in both collections: pairs agreeing mod gcd(m, n)."""
    g = math.gcd(a[1], b[1])
    if a[0] == "set" or b[0] == "set":
        if a[0] != "set":
            a, b = b, a
        counts = tally(a, g)
        if b[0] == "set":
            other = tally(b, g)
            return sum(n * other.get(c, 0) for c, n in counts.items())
        return sum(n * class_count(b, g, c) for c, n in counts.items())
    return sum(class_count(a, g, c) * class_count(b, g, c) for c in range(g))


def solution_span(m: int, n: int) -> int:
    return m // math.gcd(m, n) * n


# --- congruences -------------------------------------------------------------


def solve_scan(pairs: list[tuple[int, int]]) -> tuple[int, int] | None:
    """(residue, lcm) of x ≡ a_i (mod m_i) by scanning one congruence's class."""
    lcm = math.lcm(*(m for _, m in pairs))
    first, m0 = pairs[0]
    for x in range(first % m0, lcm, m0):
        if all((x - a) % m == 0 for a, m in pairs):
            return x, lcm
    return None


# --- runners -----------------------------------------------------------------


def circle_distance(value: Fraction) -> Fraction:
    frac = value - math.floor(value)
    return min(frac, 1 - frac)


def earliest_distant_time(m: int, n: int) -> Fraction:
    """Earliest t = x / (3mn) with both runners at least 1/3 from the origin.

    Runner m sits at m*x/(3mn) = x/(3n), which is at least 1/3 from an
    integer exactly when x mod 3n lies in [n, 2n]; likewise for runner n.
    """
    grid = 3 * m * n
    for x in range(grid):
        if n <= x % (3 * n) <= 2 * n and m <= x % (3 * m) <= 2 * m:
            return Fraction(x, grid)
    raise AssertionError(f"no distant grid time for speeds ({m}, {n})")


# --- size-only bounds --------------------------------------------------------


def profile_runs(size: int, cap: int, length: int) -> list[tuple[int, int, int]] | None:
    """The extremal profile as (lo, hi, value) runs over positions [0, length).

    It is the non-decreasing sequence with entries in [0, cap] summing to size
    that is zero, then one leftover entry, then full caps. None if infeasible.
    """
    if size > cap * length:
        return None
    filled, leftover = divmod(size, cap)
    pivot = length - filled  # positions [pivot, length) hold cap
    runs = [(0, max(pivot - 1, 0), 0)]
    if pivot >= 1:
        runs.append((pivot - 1, pivot, leftover))
    runs.append((pivot, length, cap))
    return [run for run in runs if run[0] < run[1]]


def profile_values(size: int, cap: int, length: int) -> list[int] | None:
    runs = profile_runs(size, cap, length)
    if runs is None:
        return None
    return [value for lo, hi, value in runs for _ in range(hi - lo)]


def extremal(size_a: int, cap_a: int, size_b: int, cap_b: int, length: int):
    """(value, case) of the reversed dot product of two extremal profiles, or None.

    The sum is taken run against run, so it costs O(1) at any length. The case
    names where the nonzero tails meet: "empty" when they miss each other,
    "boundary" when only the two leftover entries meet, "overlap" otherwise.
    """
    runs_a = profile_runs(size_a, cap_a, length)
    runs_b = profile_runs(size_b, cap_b, length)
    if runs_a is None or runs_b is None:
        return None
    total = 0
    for lo_a, hi_a, value_a in runs_a:
        for lo_b, hi_b, value_b in runs_b:
            # b[q] pairs with a[length - 1 - q], so run [lo_b, hi_b) of b
            # meets positions [length - hi_b, length - lo_b) of a.
            width = min(hi_a, length - lo_b) - max(lo_a, length - hi_b)
            if width > 0:
                total += width * value_a * value_b
    span = size_a // cap_a + size_b // cap_b + 1
    case = "empty" if span < length else "boundary" if span == length else "overlap"
    return total, case


def arbitrary_floor(m: int, n: int, size_a: int, size_b: int):
    """(value, case) of the size-only floor for arbitrary collections."""
    g = math.gcd(m, n)
    return extremal(size_a, m // g, size_b, n // g, g)


def interval_floor(m: int, n: int, size_a: int, size_b: int) -> int:
    """Fewest common solutions of two cyclic intervals of the given sizes.

    Each full block of g = gcd(m, n) consecutive classes meets every class
    mod g once, and two leftover arcs of lengths ra, rb on a cycle of g
    overlap in at least max(0, ra + rb - g) classes, which some placement
    attains.
    """
    g = math.gcd(m, n)
    qa, ra = divmod(size_a, g)
    qb, rb = divmod(size_b, g)
    return qa * qb * g + qa * rb + qb * ra + max(0, ra + rb - g)


def interval_floor_scan(m: int, n: int, size_a: int, size_b: int) -> int:
    """interval_floor by trying every relative placement; small moduli only."""
    a = ("interval", m, 0, size_a)
    return min(
        solution_count(a, ("interval", n, shift, size_b))
        for shift in range(math.gcd(m, n))
    )


def density_forces_solution(m: int, n: int, size_a: int, size_b: int) -> bool:
    return m != n and 3 * size_a > m and 3 * size_b > n
