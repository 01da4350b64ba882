"""Brute-force scan oracles shared by the unit tests.

Each one answers by direct search what the library computes in closed form:
the common solutions of two collections, and the earliest distant time of two
runners, once by scanning the time grid and once by pairing the two arcs.
"""

import math
from fractions import Fraction

from crtcount.congruence import CongruenceSystem, solve
from crtcount.runner import DistantWitness, circle_distance, distant_interval


def scan_solutions(a, b):
    """Brute-force oracle: every x in [0, lcm) whose classes lie in both collections."""
    span = a.modulus // math.gcd(a.modulus, b.modulus) * b.modulus
    return [x for x in range(span) if x % a.modulus in a and x % b.modulus in b]


def earliest_grid_time(m, n):
    """Scan x = 0, 1, ... for the first grid point keeping both runners far.

    Runner v is at least 1/3 from the origin at t = x / D exactly when
    (v*x mod D) / D lies in [1/3, 2/3], checked here in integers.
    """
    denominator = 3 * m * n
    for x in range(denominator):
        if all(
            denominator <= 3 * (v * x % denominator) <= 2 * denominator for v in (m, n)
        ):
            return Fraction(x, denominator)
    raise AssertionError(f"no distant grid time for speeds ({m}, {n})")


def crt_pairing_witness(m, n):
    """Reference search: solve every residue pair from the two arcs, keep the least."""
    denominator = 3 * m * n
    interval_m = distant_interval(m, denominator)
    interval_n = distant_interval(n, denominator)
    best = None
    for residue_m in interval_m:
        for residue_n in interval_n:
            merged = solve(
                CongruenceSystem.from_pairs(
                    [(residue_m, interval_m.modulus), (residue_n, interval_n.modulus)]
                )
            )
            if merged is not None and (best is None or merged.residue < best):
                best = merged.residue
    time = Fraction(best, denominator)
    return DistantWitness(time, (circle_distance(m * time), circle_distance(n * time)))
