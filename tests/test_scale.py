"""Relations between the closed forms at 64-bit scale, where no scan can check them.

Each relation costs O(1) calls at any modulus, so it can be checked far above
the moduli the brute-force oracles reach.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from crtcount.bounds import bound_arbitrary, bound_intervals, density_guarantee, extremal_sum
from crtcount.residues import CyclicInterval, exact_count

MODULUS_TOP = 2**31  # so every floor and count stays below 2**62
STARTS = st.integers(-(2**64), 2**64)


@st.composite
def moduli(draw):
    """Two moduli up to MODULUS_TOP, sharing a drawn factor that is small or large."""
    factor = draw(st.one_of(st.integers(1, 60), st.integers(1, 2**16), st.integers(1, MODULUS_TOP)))
    cofactors = st.integers(1, MODULUS_TOP // factor)
    return factor * draw(cofactors), factor * draw(cofactors)


def sizes(modulus):
    """Any size in [0, modulus], with the edges and the one-third boundary drawn often."""
    edges = [0, 1, modulus // 3, modulus // 3 + 1, modulus - 1, modulus]
    return st.one_of(st.integers(0, modulus), st.sampled_from(edges))


@st.composite
def interval_pairs(draw):
    m, n = draw(moduli())
    a = CyclicInterval(m, draw(STARTS), draw(sizes(m)))
    b = CyclicInterval(n, draw(STARTS), draw(sizes(n)))
    return a, b


@settings(max_examples=1500)
@given(interval_pairs())
def test_floors_hold_on_intervals_at_scale(pair):
    a, b = pair
    m, n, size_a, size_b = a.modulus, b.modulus, a.size, b.size
    g = math.gcd(m, n)  # may be far larger than the drawn shared factor
    arbitrary = bound_arbitrary(m, n, size_a, size_b)
    interval = bound_intervals(m, n, size_a, size_b)
    # knowing both collections are intervals only sharpens the floor, and
    # neither floor exceeds the exact count, whatever the two starts
    assert arbitrary.lower_bound <= interval <= exact_count(a, b)
    # the arbitrary floor is the extremal pairing with caps m/g, n/g and length g
    assert arbitrary == extremal_sum(size_a, m // g, size_b, n // g, g)
    if density_guarantee(m, n, size_a, size_b):
        assert interval >= 1


def complement(arc):
    """The arc's complement: the other modulus - length classes, from where it ends."""
    return CyclicInterval(arc.modulus, arc.start + arc.length, arc.modulus - arc.length)


def shifted(arc, t):
    return CyclicInterval(arc.modulus, arc.start + t, arc.length)


@settings(max_examples=1000)
@given(interval_pairs(), STARTS)
def test_counts_keep_their_relations_on_intervals_at_scale(pair, t):
    a, b = pair
    m, n = a.modulus, b.modulus
    g = math.gcd(m, n)
    count = exact_count(a, b)
    # each member of A meets n/g classes mod n, one per lift, so B and its
    # complement split |A| * n/g solutions between them
    assert count + exact_count(a, complement(b)) == a.size * (n // g)
    assert count + exact_count(complement(a), b) == b.size * (m // g)
    # x -> x + t permutes the classes mod lcm(m, n), and the count reads
    # "x in A and x in B" whichever collection comes first
    assert exact_count(shifted(a, t), shifted(b, t)) == count
    assert exact_count(b, a) == count
