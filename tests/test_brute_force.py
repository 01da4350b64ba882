"""Unit tests for the reference oracles in tests/brute_force.py."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brute_force import circle_distance, rearrangement_bounds


def test_rearrangement_pinned():
    lower, permuted, upper = rearrangement_bounds([1, 2, 3], [4, 5, 6], [1, 0, 2])
    assert lower == 1 * 6 + 2 * 5 + 3 * 4
    assert permuted == 1 * 5 + 2 * 4 + 3 * 6
    assert upper == 1 * 4 + 2 * 5 + 3 * 6


def test_rearrangement_validation():
    with pytest.raises(ValueError):
        rearrangement_bounds([1, 2], [1, 2, 3], [0, 1])
    with pytest.raises(ValueError):
        rearrangement_bounds([1, 2], [1, 2], [0, 0])
    with pytest.raises(ValueError):
        rearrangement_bounds([2, 1], [1, 2], [0, 1])
    with pytest.raises(ValueError):
        rearrangement_bounds([1, 2], [2, 1], [0, 1])


@given(st.data())
def test_rearrangement_ordering_integers(data):
    n = data.draw(st.integers(1, 6))
    a = sorted(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    b = sorted(data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)))
    sigma = data.draw(st.permutations(range(n)))
    lower, permuted, upper = rearrangement_bounds(a, b, sigma)
    assert lower <= permuted <= upper


@given(st.data())
def test_rearrangement_ordering_floats(data):
    n = data.draw(st.integers(1, 6))
    values = st.floats(-50, 50)
    a = sorted(data.draw(st.lists(values, min_size=n, max_size=n)))
    b = sorted(data.draw(st.lists(values, min_size=n, max_size=n)))
    sigma = data.draw(st.permutations(range(n)))
    lower, permuted, upper = rearrangement_bounds(a, b, sigma)
    assert lower <= permuted + 1e-9
    assert permuted <= upper + 1e-9


def test_circle_distance_values():
    assert circle_distance(Fraction(0)) == 0
    assert circle_distance(Fraction(7)) == 0
    assert circle_distance(Fraction(1, 2)) == Fraction(1, 2)
    assert circle_distance(Fraction(1, 3)) == Fraction(1, 3)
    assert circle_distance(Fraction(2, 3)) == Fraction(1, 3)
    assert circle_distance(Fraction(5, 6)) == Fraction(1, 6)
    assert circle_distance(Fraction(-1, 3)) == Fraction(1, 3)


def test_circle_distance_matches_fractional_part_on_every_small_denominator():
    # the former rational expression, kept here as the reference
    def reference(x):
        frac = Fraction(x) % 1
        return min(frac, 1 - frac)

    for q in range(1, 400):
        for p in range(-q, q + 1):
            x = Fraction(p, q)
            assert circle_distance(x) == reference(x), x


@given(st.fractions(max_denominator=1000))
def test_circle_distance_period_and_reflection(x):
    d = circle_distance(x)
    assert 0 <= d <= Fraction(1, 2)
    assert circle_distance(x + 1) == d
    assert circle_distance(-x) == d
