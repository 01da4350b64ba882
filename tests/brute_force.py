"""Reference oracles shared by the unit and acceptance tests.

Each one answers directly what the library computes in closed form or on the
integers: the common solutions of two collections, by scanning; the
rearrangement inequality's three pairings, as explicit dot products; a
point's distance to the nearest integer and the 1/3 threshold, as Fractions;
and the earliest distant time of two runners, once by scanning the time grid
and once by pairing the two arcs.
"""

import math
from collections.abc import Sequence
from fractions import Fraction

from crtcount.congruence import CongruenceSystem, solve
from crtcount.runner import DistantWitness, distant_interval

DISTANT_THRESHOLD = Fraction(1, 3)


def rearrangement_bounds(
    a: Sequence[float], b: Sequence[float], sigma: Sequence[int]
) -> tuple[float, float, float]:
    """Reversed, permuted, and aligned dot products of two sorted sequences.

    For non-decreasing a and b the reversed pairing sum(a[k]*b[n-1-k]) is
    minimal and the aligned pairing sum(a[k]*b[k]) maximal over all
    permutations, so the returned triple (reversed, permuted, aligned) is
    ordered.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"sigma must be a permutation of 0..{n - 1}")
    for name, seq in (("a", a), ("b", b)):
        if any(seq[i] > seq[i + 1] for i in range(n - 1)):
            raise ValueError(f"sequence {name} is not sorted non-decreasing")
    lower = sum(x * y for x, y in zip(a, reversed(b)))
    permuted = sum(a[k] * b[sigma[k]] for k in range(n))
    upper = sum(x * y for x, y in zip(a, b))
    return lower, permuted, upper


def circle_distance(x: int | Fraction) -> Fraction:
    """Distance from x, an int or a Fraction, to the nearest integer: a Fraction in [0, 1/2]."""
    q = x.denominator
    r = x.numerator % q
    return Fraction(min(r, q - r), q)


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
