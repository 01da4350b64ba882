"""Relations between the closed forms at 64-bit scale, where no scan can check them.

Each relation costs O(1) calls on intervals, O(|set|) on sets and O(g) for
the g shifts of the conservation relation, at any modulus, so it can be
checked far above the moduli the brute-force oracles reach.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from crtcount.bounds import bound_arbitrary, bound_intervals, density_guarantee, extremal_sum
from crtcount.residues import CyclicInterval, ResidueSet, _solutions, exact_count

MODULUS_TOP = 2**31  # so every floor and count stays below 2**62
STARTS = st.integers(-(2**64), 2**64)
SHIFTS_TOP = 400  # the largest true gcd, so the g shifts stay cheap


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


def shifted(collection, t):
    """The collection moved by t: every member x becomes x + t."""
    modulus = collection.modulus
    if isinstance(collection, CyclicInterval):
        return CyclicInterval(modulus, collection.start + t, collection.length)
    return ResidueSet(modulus, [(r + t) % modulus for r in collection.members])


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


def residue_sets(modulus, members):
    """A set of 1 to members members, modulo modulus."""
    chosen = st.sets(st.integers(0, modulus - 1), min_size=1, max_size=members)
    return chosen.map(lambda residues: ResidueSet(modulus, residues))


def arcs_or_sets(modulus, length, members):
    """An interval of a drawn length or a set of 1 to members members."""
    arc = st.builds(CyclicInterval, st.just(modulus), STARTS, length)
    return st.one_of(arc, residue_sets(modulus, members))


@st.composite
def pairs_with_a_set(draw):
    """A set at scale with an interval or another set, in either order."""
    m, n = draw(moduli())
    a = draw(residue_sets(m, 40))
    b = draw(arcs_or_sets(n, sizes(n), 40))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300)
@given(pairs_with_a_set(), STARTS)
def test_counts_keep_their_relations_with_sets_at_scale(pair, t):
    a, b = pair
    count = exact_count(a, b)
    assert exact_count(shifted(a, t), shifted(b, t)) == count
    assert exact_count(b, a) == count


@st.composite
def few_shift_moduli(draw):
    """Two moduli up to MODULUS_TOP whose true gcd is at most SHIFTS_TOP.

    Each is a drawn factor times a cofactor, and the cofactors are made
    coprime first, since cofactors with a common factor (equal ones, say)
    would multiply the gcd past the factor drawn.
    """
    factor = draw(st.integers(1, SHIFTS_TOP))
    p, q = (draw(st.integers(1, MODULUS_TOP // factor)) for _ in range(2))
    while (common := math.gcd(p, q)) > 1:
        q //= common
    return factor * p, factor * q


@st.composite
def conserving_pairs(draw):
    m, n = draw(few_shift_moduli())
    return draw(arcs_or_sets(m, sizes(m), 20)), draw(arcs_or_sets(n, sizes(n), 20))


@settings(max_examples=200)
@given(conserving_pairs())
def test_shifts_of_one_side_share_out_every_pair(pair):
    a, b = pair
    g = math.gcd(a.modulus, b.modulus)
    assert g <= SHIFTS_TOP
    # each pair (x, y) of A x B agrees mod g after exactly one shift of B, the
    # s with y + s = x mod g, so the g shifted counts add up to every pair
    assert sum(exact_count(a, shifted(b, s)) for s in range(g)) == a.size * b.size


@st.composite
def enumerable_pairs(draw):
    """Two collections whose lcm stays below ENUMERATION_CAP and whose common
    solutions number at most about 26,000.

    Each modulus is a shared factor f up to 100 times a cofactor up to 60, each
    interval at most 16f long and each set at most 60 members. An interval
    takes the window kernel when its partner has at least partner modulus /
    gcd members, at most 60; a smaller partner, and two sets, take the pair
    kernel.
    """
    factor = draw(st.integers(1, 100))
    m, n = (factor * draw(st.integers(1, 60)) for _ in range(2))
    a = draw(arcs_or_sets(m, st.integers(1, min(m, 16 * factor)), 60))
    b = draw(arcs_or_sets(n, st.integers(1, min(n, 16 * factor)), 60))
    return a, b


@settings(max_examples=300)
@given(enumerable_pairs())
def test_enumeration_lists_exactly_the_count(pair):
    a, b = pair
    m, n = a.modulus, b.modulus
    found, span = _solutions(a, b)
    assert span == m * n // math.gcd(m, n)
    assert len(found) == exact_count(a, b)
    # strictly increasing inside [0, lcm), so no class is listed twice
    assert all(x < y for x, y in zip(found, found[1:]))
    assert not found or 0 <= found[0] and found[-1] < span
    assert all(x % m in a and x % n in b for x in found)
