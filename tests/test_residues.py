"""Unit tests for residue-class collections and the exact pair count."""

import bisect
import itertools
import math
import pickle
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crtcount import residues
from crtcount.bounds import bound_intervals
from crtcount.congruence import SolutionClass
from crtcount.residues import (
    ENUMERATION_CAP,
    CyclicInterval,
    EnumerationCapError,
    ResidueSet,
    enumerate_solutions,
    exact_count,
    interval_block_pairs,
    partition_counts,
)

from brute_force import scan_solutions


def test_residue_set_sorts_members():
    s = ResidueSet(10, (7, 1, 4))
    assert s.members == (1, 4, 7)
    assert s.size == 3
    assert list(s) == [1, 4, 7]


def test_residue_set_rejects_bad_members():
    with pytest.raises(ValueError):
        ResidueSet(5, (0, 5))  # out of range
    with pytest.raises(ValueError):
        ResidueSet(5, (-1,))
    with pytest.raises(ValueError):
        ResidueSet(5, (2, 2))  # duplicate
    with pytest.raises(ValueError):
        ResidueSet(0, ())


def test_residue_set_membership():
    s = ResidueSet(9, (0, 3, 8))
    assert 3 in s
    assert 4 not in s


def test_empty_collections_are_legal():
    assert ResidueSet(7, ()).size == 0
    assert CyclicInterval(7, 0, 0).size == 0
    assert exact_count(ResidueSet(7, ()), ResidueSet(7, (1,))) == 0


def test_interval_wraps_past_the_top():
    arc = CyclicInterval(5, 4, 3)
    assert arc.members() == (4, 0, 1)
    assert 0 in arc and 1 in arc and 4 in arc
    assert 2 not in arc and 3 not in arc


def test_interval_start_normalized():
    assert CyclicInterval(5, 7, 2) == CyclicInterval(5, 2, 2)
    assert CyclicInterval(5, -1, 2).start == 4


def test_interval_full_and_empty():
    assert CyclicInterval(4, 1, 4).members() == (1, 2, 3, 0)
    assert CyclicInterval(4, 1, 0).members() == ()
    with pytest.raises(ValueError):
        CyclicInterval(4, 0, 5)
    with pytest.raises(ValueError):
        CyclicInterval(4, 0, -1)


def test_interval_members_cap(monkeypatch):
    monkeypatch.setattr(residues, "ENUMERATION_CAP", 8)
    assert CyclicInterval(16, 12, 8).members() == (12, 13, 14, 15, 0, 1, 2, 3)
    refused = "^interval of 9 members exceeds the enumeration cap 8$"
    with pytest.raises(EnumerationCapError, match=refused):
        CyclicInterval(16, 12, 9).members()


def test_interval_members_refuses_before_building_while_iter_stays_lazy(monkeypatch):
    arc = CyclicInterval(10**12, 0, 10**12)

    def built(self):  # members() must refuse before it asks for a single member
        pytest.fail("members() built the arc")

    with monkeypatch.context() as patch:
        patch.setattr(CyclicInterval, "__iter__", built)
        refused = "^interval of 1000000000000 members exceeds the enumeration cap 10000000$"
        with pytest.raises(EnumerationCapError, match=refused):
            arc.members()
    assert list(itertools.islice(iter(arc), 3)) == [0, 1, 2]


def test_interval_membership_is_by_class():
    arc = CyclicInterval(6, 4, 3)  # {4, 5, 0}
    assert 10 in arc  # 10 ≡ 4 (mod 6)
    assert -2 in arc  # -2 ≡ 4 (mod 6)


def test_partition_counts_example():
    s = ResidueSet(12, (0, 1, 4, 5, 8, 11))
    part = partition_counts(s, 4)
    assert part == (3, 2, 0, 1)
    assert sum(part) == s.size


def test_partition_counts_interval():
    arc = CyclicInterval(12, 10, 5)  # {10, 11, 0, 1, 2}
    part = partition_counts(arc, 3)
    assert part == (1, 2, 2)


def test_partition_requires_dividing_divisor():
    with pytest.raises(ValueError):
        partition_counts(ResidueSet(10, (0,)), 4)
    with pytest.raises(ValueError):
        partition_counts(ResidueSet(10, (0,)), 0)


def test_partition_counts_cap(monkeypatch):
    monkeypatch.setattr(residues, "ENUMERATION_CAP", 8)
    assert partition_counts(ResidueSet(16, (1, 9)), 8) == (0, 2, 0, 0, 0, 0, 0, 0)
    assert partition_counts(CyclicInterval(16, 3, 8), 1) == (8,)
    with pytest.raises(EnumerationCapError):
        partition_counts(ResidueSet(16, (1,)), 16)  # divisor above the cap
    with pytest.raises(EnumerationCapError):
        partition_counts(CyclicInterval(16, 3, 9), 1)  # interval above the cap


def test_exact_count_hand_checked():
    # common classes of {0,1,2} mod 4 and {0,1,2} mod 6 are {0,1,2,6,8} mod 12
    a = ResidueSet(4, (0, 1, 2))
    b = ResidueSet(6, (0, 1, 2))
    assert exact_count(a, b) == 5


def test_exact_count_coprime_is_product_of_sizes():
    a = ResidueSet(4, (0, 3))
    b = ResidueSet(9, (1, 2, 5))
    assert exact_count(a, b) == 6


def test_exact_count_full_collections():
    a = CyclicInterval(6, 0, 6)
    b = CyclicInterval(10, 0, 10)
    assert exact_count(a, b) == 30  # every class mod lcm


def test_exact_count_symmetric():
    a = ResidueSet(6, (1, 3, 4))
    b = CyclicInterval(8, 5, 4)
    assert exact_count(a, b) == exact_count(b, a)


def test_enumerate_matches_membership():
    a = ResidueSet(6, (1, 3, 4))
    b = CyclicInterval(8, 5, 4)
    for cls in enumerate_solutions(a, b):
        assert cls.modulus == 24
        assert cls.residue % 6 in a
        assert cls.residue % 8 in b


def test_enumeration_cap_refusal(monkeypatch):
    # lcm 2**7 * 5**7 is exactly the cap; 11 * 909_091 is one past it
    assert len(enumerate_solutions(ResidueSet(128, (0,)), ResidueSet(78_125, (0,)))) == 1
    with pytest.raises(EnumerationCapError):
        enumerate_solutions(ResidueSet(11, (0,)), ResidueSet(909_091, (0,)))
    a = ResidueSet(10_007, (0,))
    b = ResidueSet(10_009, (0,))
    with pytest.raises(EnumerationCapError):
        enumerate_solutions(a, b)
    monkeypatch.setattr(residues, "ENUMERATION_CAP", 10_007 * 10_009)
    assert len(enumerate_solutions(a, b)) == 1


def test_exact_count_overflow_refused():
    from crtcount.congruence import OverflowLimitError

    a = CyclicInterval(2**32, 0, 1)
    b = CyclicInterval(2**32 - 1, 0, 1)
    with pytest.raises(OverflowLimitError):
        exact_count(a, b)


small_sets = st.integers(2, 24).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.integers(0, m - 1), unique=True, max_size=m).map(tuple),
    )
)


@given(small_sets, small_sets)
def test_count_equals_enumeration(a_parts, b_parts):
    a = ResidueSet(a_parts[0], a_parts[1])
    b = ResidueSet(b_parts[0], b_parts[1])
    assert exact_count(a, b) == len(enumerate_solutions(a, b))


@given(
    st.integers(1, 30),
    st.integers(0, 100),
    st.integers(0, 30),
    st.integers(1, 30),
    st.integers(0, 100),
    st.integers(0, 30),
)
def test_count_equals_enumeration_intervals(m, start_a, len_a, n, start_b, len_b):
    a = CyclicInterval(m, start_a, min(len_a, m))
    b = CyclicInterval(n, start_b, min(len_b, n))
    assert exact_count(a, b) == len(enumerate_solutions(a, b))


def test_count_equals_enumeration_mixed_random():
    rng = random.Random(1159)
    for _ in range(200):
        m = rng.randint(1, 30)
        n = rng.randint(1, 30)
        a = ResidueSet(m, tuple(rng.sample(range(m), rng.randint(0, m))))
        b = CyclicInterval(n, rng.randrange(n), rng.randint(0, n))
        assert exact_count(a, b) == len(enumerate_solutions(a, b))
        g = math.gcd(m, n)
        if g == 1:
            assert exact_count(a, b) == a.size * b.size


@st.composite
def collections(draw):
    """A set or an interval modulo at most 60; intervals often empty, full or wrapping."""
    m = draw(st.integers(1, 60))
    if draw(st.booleans()):
        members = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
        return ResidueSet(m, tuple(members))
    start = draw(st.integers(-2 * m, 2 * m))
    length = draw(st.one_of(st.just(0), st.just(m), st.integers(0, m)))
    return CyclicInterval(m, start, length)


ARC, WRAP = CyclicInterval(12, 3, 5), CyclicInterval(18, 16, 7)
SPARSE, EVENS = ResidueSet(12, (0, 5, 7, 11)), ResidueSet(18, tuple(range(0, 18, 2)))


@given(collections(), collections())
@example(ARC, WRAP)
@example(SPARSE, WRAP)
@example(ARC, EVENS)
@example(SPARSE, EVENS)
@example(ResidueSet(12, (0, 5)), CyclicInterval(6, 1, 4))  # the partner's modulus divides
@example(CyclicInterval(6, 4, 3), EVENS)  # the walked modulus divides the partner's
@example(CyclicInterval(10, 8, 5), ResidueSet(15, (0, 4, 9, 13)))  # a wrapping arc
@example(CyclicInterval(30, 7, 20), ResidueSet(4, (1, 3)))  # windows cross periods of 4
@example(CyclicInterval(12, 5, 0), ResidueSet(18, (1, 2, 3)))  # an empty arc
@example(CyclicInterval(12, 5, 7), ResidueSet(18, ()))  # an empty set
@example(CyclicInterval(6, 5, 4), ResidueSet(18, (0, 7, 11, 16)))  # m | n
@example(CyclicInterval(18, 15, 7), ResidueSet(6, (1, 4)))  # n | m
@example(CyclicInterval(20, 17, 3), CyclicInterval(12, 2, 9))  # windows on the arc of smaller size
def test_closed_forms_match_scan(a, b):
    for first, second in ((a, b), (b, a)):
        expected = scan_solutions(first, second)
        assert exact_count(first, second) == len(expected)
        found = enumerate_solutions(first, second)
        assert [c.residue for c in found] == expected
        for c in found:  # indistinguishable from a constructed SolutionClass
            assert type(c) is SolutionClass
            twin = SolutionClass(c.residue, c.modulus)
            assert c == twin and hash(c) == hash(twin)
            assert pickle.loads(pickle.dumps(c)) == c
            with pytest.raises(AttributeError):
                c.residue = 0


@given(st.integers(1, 40), st.integers(1, 40), st.data())
def test_interval_floor_is_the_worst_relative_shift(m, n, data):
    size_a = data.draw(st.integers(0, m))
    size_b = data.draw(st.integers(0, n))
    g = math.gcd(m, n)
    blocks, rem_a, rem_b = interval_block_pairs(size_a, size_b, g)
    floor = bound_intervals(m, n, size_a, size_b)
    assert floor == blocks + max(0, rem_a + rem_b - g)
    worst = min(
        exact_count(CyclicInterval(m, 0, size_a), CyclicInterval(n, shift, size_b))
        for shift in range(g)
    )
    assert floor == worst


@pytest.fixture
def intervals_not_walked(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("an interval's members were walked")

    monkeypatch.setattr(CyclicInterval, "__iter__", refuse)
    monkeypatch.setattr(CyclicInterval, "members", refuse)


# Moduli 9*g and 10*g with g = 10**8. A covers 3 full turns of Z_g plus the arc
# [1e7, 5e7); B covers 5 full turns plus the arc [9e7, 1e8) ∪ [0, 6e7), which
# wraps past the top of Z_g and contains the whole of A's arc.
G = 10**8
BIG_A = CyclicInterval(9 * G, 8 * G + 10**7, 3 * G + 4 * 10**7)  # wraps past 9*G
BIG_B = CyclicInterval(10 * G, 9 * G + 9 * 10**7, 5 * G + 7 * 10**7)


def test_interval_count_touches_no_members(intervals_not_walked):
    expected = 3 * 5 * G + 3 * 7 * 10**7 + 5 * 4 * 10**7 + 4 * 10**7
    assert exact_count(BIG_A, BIG_B) == expected
    assert exact_count(BIG_B, BIG_A) == expected


def test_set_interval_count_touches_only_the_set(intervals_not_walked):
    # classes mod G: 0, 59_999_999, 5e7 and 99_000_000 lie on B's arc, 6e7 does not
    members = ResidueSet(9 * G, (0, 6 * 10**7 - 1, 6 * 10**7, 850_000_000, 899_000_000))
    assert exact_count(members, BIG_B) == 5 * 5 + 4
    assert exact_count(BIG_B, members) == 5 * 5 + 4


def test_enumeration_walks_only_the_smaller_collection(intervals_not_walked):
    single = ResidueSet(10**6, (123_456,))
    full = CyclicInterval(10**6, 999_999, 10**6)
    assert enumerate_solutions(single, full)[0].residue == 123_456
    assert enumerate_solutions(full, single) == enumerate_solutions(single, full)
    arc = CyclicInterval(2 * 10**6, 10**6, 3)
    assert [c.residue for c in enumerate_solutions(single, arc)] == []
    # lcm 3 * 10**6 makes 3 windows against one member, so the pairs are lifted
    third, top = ResidueSet(3, (1,)), CyclicInterval(10**6, 999_999, 3)
    for a, b in ((third, top), (top, third)):
        assert [c.residue for c in enumerate_solutions(a, b)] == [1, 10**6, 2 * 10**6 - 1]
    # Two disjoint halves of one modulus share no solution, yet lcm 10**12 is
    # past the cap, which must refuse before either half is walked.
    low = CyclicInterval(10**12, 0, 5 * 10**11)
    high = CyclicInterval(10**12, 5 * 10**11, 5 * 10**11)
    assert exact_count(low, high) == 0
    for a, b in ((low, high), (high, low)):
        with pytest.raises(EnumerationCapError):
            enumerate_solutions(a, b)


def test_halves_of_one_modulus_enumerate_without_a_walk(intervals_not_walked):
    low = CyclicInterval(10**7, 0, 5 * 10**6)
    high = CyclicInterval(10**7, 5 * 10**6, 5 * 10**6)
    assert enumerate_solutions(low, high) == []
    assert enumerate_solutions(high, low) == []


def test_window_rule_boundary(monkeypatch):
    """Windows run when lcm // (the arc's modulus) <= the other side's size."""
    arcs = []
    window_solutions = residues._window_solutions

    def recorded(arc, other, span):
        arcs.append(arc)
        return window_solutions(arc, other, span)

    monkeypatch.setattr(residues, "_window_solutions", recorded)
    arc = CyclicInterval(10, 3, 4)  # lcm with 15 is 30, and 30 // 10 == 3
    for members, windows in (((1, 7, 12), 1), ((1, 7), 0)):
        for a, b in ((arc, ResidueSet(15, members)), (ResidueSet(15, members), arc)):
            arcs.clear()
            assert [c.residue for c in enumerate_solutions(a, b)] == scan_solutions(a, b)
            assert arcs == [arc] * windows
    # Of two arcs the larger modulus makes the windows: 24 // 12 == 2 <= 2,
    # while the mod-8 arc's 24 // 8 == 3 would exceed the other's size 2.
    wide, narrow = CyclicInterval(12, 11, 2), CyclicInterval(8, 6, 2)
    for a, b in ((wide, narrow), (narrow, wide)):
        arcs.clear()
        assert [c.residue for c in enumerate_solutions(a, b)] == scan_solutions(a, b)
        assert arcs == [wide]


def test_window_bisections_are_bounded_by_the_output(monkeypatch):
    calls = []

    def counted(members, value):
        calls.append(value)
        return bisect.bisect_left(members, value)

    monkeypatch.setattr(residues, "bisect_left", counted)
    rng = random.Random(2417)
    tried = 0
    while tried < 500:
        m, n = rng.randint(1, 60), rng.randint(1, 60)
        span = m // math.gcd(m, n) * n
        other = ResidueSet(n, rng.sample(range(n), rng.randint(1, n)))
        if span // m > other.size:
            continue
        arc = CyclicInterval(m, rng.randrange(m), rng.randint(0, m))
        tried += 1
        calls.clear()
        solutions = enumerate_solutions(arc, other)
        wraps = arc.start + arc.length > m
        firsts = range(arc.start - m if wraps else arc.start, span, m)
        crossed = 0
        for first in firsts:
            low, high = max(first, 0), min(first + arc.length, span)
            crossed += max(0, (high - 1) // n - low // n)
        assert 2 <= len(calls) or arc.length == 0  # the windows ran
        assert len(calls) <= 2 * (len(firsts) + crossed)
        assert len(calls) <= 2 * (span // m + 1 + len(solutions))
