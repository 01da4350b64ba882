"""Unit tests for the size-only lower bounds and the extremal machinery."""

import math
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crtcount import bounds, residues
from crtcount.bounds import (
    CASE_BOUNDARY,
    CASE_EMPTY,
    CASE_OVERLAP,
    InfeasibleError,
    _check_profile,
    _check_sizes,
    bound_arbitrary,
    bound_intervals,
    density_guarantee,
    extremal_profile,
    extremal_sum,
    tightness_instance,
)
from crtcount.congruence import INT64_MAX, OverflowLimitError
from crtcount.residues import (
    CyclicInterval,
    EnumerationCapError,
    ResidueSet,
    exact_count,
    partition_counts,
)

from brute_force import rearrangement_bounds
from opcodes import opcodes_run


def test_extremal_profile_pinned():
    assert extremal_profile(7, 3, 4).values == (0, 1, 3, 3)
    assert extremal_profile(0, 3, 4).values == (0, 0, 0, 0)
    assert extremal_profile(12, 3, 4).values == (3, 3, 3, 3)
    assert extremal_profile(3, 3, 4).values == (0, 0, 0, 3)


def test_extremal_profile_validation():
    with pytest.raises(InfeasibleError):
        extremal_profile(13, 3, 4)
    with pytest.raises(ValueError):
        extremal_profile(1, 0, 4)
    with pytest.raises(ValueError):
        extremal_profile(1, 3, 0)
    with pytest.raises(ValueError):
        extremal_profile(-1, 3, 4)
    assert extremal_profile(0, INT64_MAX, 1).values == (0,)
    with pytest.raises(OverflowLimitError, match="cap 9223372036854775808 exceeds the 64-bit"):
        extremal_profile(0, 2**63, 1)


def test_extremal_profile_length_cap(monkeypatch):
    # a small cap stands in for the real one, so nothing large is built
    monkeypatch.setattr(residues, "ENUMERATION_CAP", 8)
    assert extremal_profile(3, 1, 8).values == (0, 0, 0, 0, 0, 1, 1, 1)
    with pytest.raises(EnumerationCapError, match="length 9 exceeds the enumeration cap 8"):
        extremal_profile(0, 1, 9)
    with pytest.raises(InfeasibleError):  # sizes are still checked first
        extremal_profile(10, 1, 9)


@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_extremal_profile_shape(cap, length, data):
    size = data.draw(st.integers(0, cap * length))
    profile = extremal_profile(size, cap, length)
    values = profile.values
    assert len(values) == length
    assert sum(values) == size
    assert all(0 <= v <= cap for v in values)
    assert all(values[i] <= values[i + 1] for i in range(length - 1))


def test_extremal_sum_pinned_cases():
    assert extremal_sum(1, 5, 1, 5, 3) == (0, CASE_EMPTY)
    assert extremal_sum(5, 2, 5, 3, 4) == (2, CASE_BOUNDARY)
    assert extremal_sum(6, 2, 9, 3, 3) == (18, CASE_OVERLAP)


def test_extremal_sum_validation():
    with pytest.raises(InfeasibleError):
        extremal_sum(9, 2, 0, 1, 4)
    with pytest.raises(ValueError):
        extremal_sum(1, 2, 1, 2, 0)
    # length is checked before feasibility, as extremal_profile does
    with pytest.raises(ValueError, match="length must be positive") as refused:
        extremal_sum(1, 1, 1, 1, 0)
    assert not isinstance(refused.value, InfeasibleError)
    # either side refuses with the profile's own error and message
    for size, cap, length in ((1, 0, 4), (1, 3, 0), (-1, 3, 4), (13, 3, 4)):
        with pytest.raises(ValueError) as by_profile:
            extremal_profile(size, cap, length)
        error, message = type(by_profile.value), re.escape(str(by_profile.value))
        with pytest.raises(error, match=message):
            extremal_sum(size, cap, 0, 1, length)
        with pytest.raises(error, match=message):
            extremal_sum(0, 1, size, cap, length)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.data())
def test_extremal_sum_matches_profile_dot(cap_a, cap_b, length, data):
    size_a = data.draw(st.integers(0, cap_a * length))
    size_b = data.draw(st.integers(0, cap_b * length))
    profile_a = extremal_profile(size_a, cap_a, length).values
    profile_b = extremal_profile(size_b, cap_b, length).values
    expected = sum(x * y for x, y in zip(profile_a, reversed(profile_b)))
    assert extremal_sum(size_a, cap_a, size_b, cap_b, length).lower_bound == expected


def test_extremal_profiles_minimize_reversed_pairing():
    # any admissible sorted pair pairs off at least as much as the two step profiles
    rng = random.Random(75)
    for _ in range(300):
        length = rng.randint(1, 6)
        cap_a, cap_b = rng.randint(1, 5), rng.randint(1, 5)
        counts_a = sorted(rng.randint(0, cap_a) for _ in range(length))
        counts_b = sorted(rng.randint(0, cap_b) for _ in range(length))
        reversed_dot = sum(x * y for x, y in zip(counts_a, reversed(counts_b)))
        result = extremal_sum(sum(counts_a), cap_a, sum(counts_b), cap_b, length)
        assert result.lower_bound <= reversed_dot


@given(st.integers(1, 120), st.integers(1, 120), st.data())
def test_bound_arbitrary_matches_extremal_route(m, n, data):
    size_a = data.draw(st.integers(0, m))
    size_b = data.draw(st.integers(0, n))
    g = math.gcd(m, n)
    assert bound_arbitrary(m, n, size_a, size_b) == extremal_sum(
        size_a, m // g, size_b, n // g, g
    )


def test_bound_arbitrary_pinned():
    assert bound_arbitrary(4, 6, 3, 3) == (3, CASE_OVERLAP)
    assert bound_arbitrary(6, 10, 1, 1) == (0, CASE_EMPTY)
    # full collections force every class modulo the lcm
    assert bound_arbitrary(6, 10, 6, 10).lower_bound == 30
    # coprime moduli force the product of sizes
    assert bound_arbitrary(4, 9, 3, 5).lower_bound == 15


def test_bound_arbitrary_validation():
    with pytest.raises(ValueError):
        bound_arbitrary(0, 6, 0, 0)
    with pytest.raises(ValueError):
        bound_arbitrary(4, 6, 5, 0)
    with pytest.raises(ValueError):
        bound_arbitrary(4, 6, 0, -1)


def test_bound_arbitrary_never_exceeds_exact_count():
    rng = random.Random(73)
    for _ in range(300):
        m, n = rng.randint(1, 60), rng.randint(1, 60)
        a = ResidueSet(m, tuple(rng.sample(range(m), rng.randint(0, m))))
        b = ResidueSet(n, tuple(rng.sample(range(n), rng.randint(0, n))))
        assert bound_arbitrary(m, n, a.size, b.size).lower_bound <= exact_count(a, b)


def extremal_pair(m, n, size_a, size_b):
    """Sets of the given sizes laid out by the two extremal profiles, paired in reverse.

    Class i mod g = gcd(m, n) holds P_a[i] members of A and P_b[g-1-i] of B,
    each profile ascending, so the count is the reversed pairing of the two.
    """
    g = math.gcd(m, n)
    profile_a = extremal_profile(size_a, m // g, g).values
    profile_b = extremal_profile(size_b, n // g, g).values
    a = ResidueSet(m, tuple(i + g * j for i in range(g) for j in range(profile_a[i])))
    b = ResidueSet(n, tuple(i + g * j for i in range(g) for j in range(profile_b[g - 1 - i])))
    return a, b


def test_bound_arbitrary_is_attained_on_a_grid():
    # the floor is the minimum, not just a lower bound: the extremal layout reaches it
    for m in range(1, 17):
        for n in range(1, 17):
            for size_a in range(m + 1):
                for size_b in range(n + 1):
                    a, b = extremal_pair(m, n, size_a, size_b)
                    assert (a.size, b.size) == (size_a, size_b)
                    floor = bound_arbitrary(m, n, size_a, size_b).lower_bound
                    assert exact_count(a, b) == floor, (m, n, size_a, size_b)


@given(st.integers(1, 200), st.integers(1, 200), st.data())
def test_bound_arbitrary_is_attained(m, n, data):
    size_a = data.draw(st.integers(0, m))
    size_b = data.draw(st.integers(0, n))
    a, b = extremal_pair(m, n, size_a, size_b)
    assert (a.size, b.size) == (size_a, size_b)
    assert exact_count(a, b) == bound_arbitrary(m, n, size_a, size_b).lower_bound


def test_count_between_rearrangement_bounds():
    # the exact count pairs the two per-class count vectors in some order,
    # so it sits between their reversed and aligned pairings
    rng = random.Random(74)
    for _ in range(200):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        g = math.gcd(m, n)
        a = ResidueSet(m, tuple(rng.sample(range(m), rng.randint(0, m))))
        b = ResidueSet(n, tuple(rng.sample(range(n), rng.randint(0, n))))
        counts_a = sorted(partition_counts(a, g))
        counts_b = sorted(partition_counts(b, g))
        lower, _, upper = rearrangement_bounds(counts_a, counts_b, range(g))
        assert lower <= exact_count(a, b) <= upper


def test_bound_intervals_pinned():
    assert bound_intervals(4, 6, 3, 3) == 4
    assert bound_intervals(6, 10, 6, 10) == 30
    assert bound_intervals(4, 9, 3, 5) == 15  # coprime: product of sizes
    assert bound_intervals(4, 6, 0, 6) == 0


def test_bound_intervals_validation():
    with pytest.raises(ValueError):
        bound_intervals(4, 0, 0, 0)
    with pytest.raises(ValueError):
        bound_intervals(4, 6, 0, 7)


def test_bound_intervals_never_exceeds_exact_count():
    rng = random.Random(76)
    for _ in range(300):
        m, n = rng.randint(1, 60), rng.randint(1, 60)
        a = CyclicInterval(m, rng.randrange(m), rng.randint(0, m))
        b = CyclicInterval(n, rng.randrange(n), rng.randint(0, n))
        assert bound_intervals(m, n, a.size, b.size) <= exact_count(a, b)


def test_bound_intervals_beats_arbitrary_bound():
    # knowing the collections are intervals can only sharpen the floor
    for m in range(1, 25):
        for n in range(1, 25):
            for size_a in range(m + 1):
                for size_b in range(n + 1):
                    assert (
                        bound_intervals(m, n, size_a, size_b)
                        >= bound_arbitrary(m, n, size_a, size_b).lower_bound
                    )


def test_aligned_interval_gap_law():
    # for zero-start intervals the count exceeds the interval floor by exactly
    # min(r_a, r_b) - max(0, r_a + r_b - g), the two leftover arcs' forced meet
    for m in range(1, 19):
        for n in range(1, 19):
            g = math.gcd(m, n)
            for size_a in range(m + 1):
                for size_b in range(n + 1):
                    a = CyclicInterval(m, 0, size_a)
                    b = CyclicInterval(n, 0, size_b)
                    r_a, r_b = size_a % g, size_b % g
                    gap = min(r_a, r_b) - max(0, r_a + r_b - g)
                    actual = exact_count(a, b) - bound_intervals(m, n, size_a, size_b)
                    assert actual == gap, (m, n, size_a, size_b)


def test_density_guarantee_truth_table():
    assert density_guarantee(4, 6, 2, 3)
    assert not density_guarantee(6, 6, 3, 3)  # equal moduli excluded
    assert not density_guarantee(3, 6, 1, 3)  # 3*1 is not > 3
    assert not density_guarantee(3, 6, 2, 2)
    assert density_guarantee(3, 6, 2, 3)


def test_density_guarantee_validation():
    with pytest.raises(ValueError):
        density_guarantee(0, 6, 1, 1)
    with pytest.raises(ValueError):
        density_guarantee(3, 6, -1, 1)
    # sizes above their modulus are refused, as bound_intervals refuses them
    with pytest.raises(ValueError):
        density_guarantee(4, 6, 5, 1)
    with pytest.raises(ValueError):
        density_guarantee(4, 6, 100, 100)


def test_guarantee_implies_positive_interval_bound():
    for m in range(1, 25):
        for n in range(1, 25):
            if m == n:
                continue
            for size_a in range(m // 3 + 1, m + 1):
                for size_b in range(n // 3 + 1, n + 1):
                    assert density_guarantee(m, n, size_a, size_b)
                    assert bound_intervals(m, n, size_a, size_b) >= 1


def test_tightness_instance_structure():
    first, second = tightness_instance(1)
    assert (first.modulus, first.start, first.length) == (3, 0, 1)
    assert (second.modulus, second.start, second.length) == (6, 1, 2)


def test_tightness_instance_sits_on_the_boundary():
    for scale in range(1, 21):
        first, second = tightness_instance(scale)
        # densities exactly one third on distinct moduli, yet no common class
        assert 3 * first.size == first.modulus
        assert 3 * second.size == second.modulus
        assert first.modulus != second.modulus
        assert not density_guarantee(
            first.modulus, second.modulus, first.size, second.size
        )
        assert exact_count(first, second) == 0
        assert bound_intervals(first.modulus, second.modulus, first.size, second.size) == 0


def test_tightness_instance_validation():
    with pytest.raises(ValueError):
        tightness_instance(0)
    largest = (2**63 - 1) // 6  # the larger modulus 6*scale must fit 64 bits
    first, second = tightness_instance(largest)
    assert second.modulus == 6 * largest
    assert exact_count(first, second) == 0
    with pytest.raises(OverflowLimitError):
        tightness_instance(largest + 1)


def test_floors_outside_64_bits_are_refused():
    m, n = 2**40, 2**40 + 1
    with pytest.raises(OverflowLimitError):
        bound_intervals(m, n, m // 2, n // 2)
    with pytest.raises(OverflowLimitError):
        bound_arbitrary(m, n, m // 2, n // 2)
    with pytest.raises(OverflowLimitError):
        extremal_sum(2**41, 2**40, 2**41, 2**40, 2)  # two full products 2**80
    # floors up to the top of the range are returned unchanged
    m, n = 49 * 73 * 127 * 337, 92737 * 649657  # coprime, m * n == 2**63 - 1
    assert bound_intervals(m, n, m, n) == 2**63 - 1
    assert bound_arbitrary(m, n, m, n).lower_bound == 2**63 - 1
    assert extremal_sum(2**62, 2**62, 1, 1, 1) == (2**62, CASE_OVERLAP)


def refusal(function, *args):
    """The ValueError a call raises, as (type, message), or None when it raises none."""
    try:
        function(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    except OverflowLimitError:  # a floor past 64 bits, refused after validation
        pass
    return None


# mostly small values, so the passing path is taken too, and some up to 2**70
WIDE = st.one_of(st.integers(-2, 40), st.integers(-(2**70), 2**70))


@given(WIDE, WIDE, WIDE, WIDE)
def test_size_guards_refuse_exactly_as_check_sizes(m, n, size_a, size_b):
    # the passing path is a chained comparison; its refusals must be _check_sizes'
    expected = refusal(_check_sizes, m, n, size_a, size_b)
    for function in (bound_arbitrary, bound_intervals, density_guarantee):
        assert refusal(function, m, n, size_a, size_b) == expected, function.__name__


@given(WIDE, WIDE, WIDE, WIDE, WIDE)
def test_extremal_sum_refuses_exactly_as_check_profile(size_a, cap_a, size_b, cap_b, length):
    expected = refusal(_check_profile, size_a, cap_a, length) or refusal(
        _check_profile, size_b, cap_b, length
    )
    assert refusal(extremal_sum, size_a, cap_a, size_b, cap_b, length) == expected


def test_valid_arguments_never_reach_the_refusal_checks(monkeypatch):
    # The checks are for refusing; a call they would pass skips them entirely.
    # Every size-only entry tests its passing case inline, from small values up
    # to 2**62 and INT64_MAX, at a size equal to cap * length and at a profile
    # length equal to ENUMERATION_CAP (lowered here so nothing large is built).
    monkeypatch.setattr(residues, "ENUMERATION_CAP", 8)
    size_only = (bound_arbitrary, bound_intervals, density_guarantee)
    calls = []
    for m in range(1, 13):
        for n in range(1, 13):
            for size_a in range(m + 1):
                for size_b in range(n + 1):
                    calls += [(function, m, n, size_a, size_b) for function in size_only]
                    calls.append((extremal_sum, size_a, m, size_b, n, 1))
    tops = (2, 3, 10**6, 2**31, 2**62, INT64_MAX)
    for m in tops:
        for n in tops:
            for sizes in {(1, 0), (m // 3 + 1, n // 3 + 1), (m // 2, n), (m, n)}:
                calls += [(function, m, n, *sizes) for function in size_only]
    for cap in (1,) + tops:
        for length in (1, 2, 8):
            full = cap * length
            for size in {0, 1, cap, full - 1, full}:
                calls.append((extremal_profile, size, cap, length))
                calls.append((extremal_sum, size, cap, full - size, cap, length))
                calls.append((extremal_sum, 1, 1, size, cap, length))
    expected = {}
    for call in calls:
        try:
            expected[call] = call[0](*call[1:])
        except OverflowLimitError:  # a floor past 64 bits: validated, then refused
            pass
    assert sum(INT64_MAX in call for call in expected) > 50

    def unexpected(*args):
        raise AssertionError(f"refusal check called on {args}")

    for name in ("_check_sizes", "_check_profile", "_within_cap", "_checked_bound"):
        monkeypatch.setattr(bounds, name, unexpected)
    for (function, *args), result in expected.items():
        assert function(*args) == result, (function.__name__, args)


def test_floors_run_a_constant_number_of_opcodes():
    # O(1) in the moduli: with the case held fixed, each floor runs the same
    # work from moduli near 10**2 to 2**62. math.gcd, divmod, the integer
    # arithmetic and the profile's tuple repetition run in C, so their cost on
    # larger ints is not counted. A ratio, not a count, since the counts
    # differ between Python versions.
    scales = [10**k for k in range(2, 19)] + [2**62]
    cases = {
        ("bound_arbitrary", CASE_EMPTY): lambda m: bound_arbitrary(m, m, 1, 1),
        ("bound_arbitrary", CASE_BOUNDARY): lambda m: bound_arbitrary(m, m, m // 2, m - 1 - m // 2),
        ("bound_arbitrary", CASE_OVERLAP): lambda m: bound_arbitrary(m, m, m, m),
        ("extremal_sum", CASE_EMPTY): lambda m: extremal_sum(1, m, 1, m, 3),
        ("extremal_sum", CASE_BOUNDARY): lambda m: extremal_sum(m + 1, m, 1, m, 2),
        ("extremal_sum", CASE_OVERLAP): lambda m: extremal_sum(1, 1, m, m, 1),
        # the interval floor's case: whether the leftover arcs must overlap
        ("bound_intervals", "apart"): lambda m: bound_intervals(m, m, 1, 1),
        ("bound_intervals", "overlap"): lambda m: bound_intervals(m, m, m - 1, m - 1),
        # the profile's case: whether a leftover entry has a slot
        ("extremal_profile", "partial"): lambda m: extremal_profile(3 * m + 1, m, 4),
        ("extremal_profile", "full"): lambda m: extremal_profile(4 * m, m, 4),
    }
    for (name, tag), call in cases.items():
        for m in scales:
            result = call(m)
            if name in ("bound_arbitrary", "extremal_sum"):
                assert result.case_tag == tag, (name, tag, m)
        counts = [opcodes_run(lambda: call(m)) for m in scales]
        assert min(counts) > 0
        assert max(counts) <= 1.1 * min(counts), (name, tag, counts)
