"""Unit tests for the congruence solver and its integer guards."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crtcount.congruence import (
    INT64_MAX,
    Congruence,
    CongruenceSystem,
    OverflowLimitError,
    SolutionClass,
    checked_mul,
    solve,
)


def test_checked_mul_small_products():
    assert checked_mul(6, 7) == 42
    assert checked_mul(-6, 7) == -42
    assert checked_mul(0, INT64_MAX) == 0


def test_checked_mul_boundaries():
    assert checked_mul(INT64_MAX, 1) == INT64_MAX
    # the negative end of the signed range is one wider
    assert checked_mul(-(2**62), 2) == -(2**63)


def test_checked_mul_overflow():
    with pytest.raises(OverflowLimitError):
        checked_mul(INT64_MAX, 2)
    with pytest.raises(OverflowLimitError):
        checked_mul(2**32, 2**32)
    with pytest.raises(OverflowLimitError):
        checked_mul(-(2**62), -3)


def test_congruence_normalizes_residue():
    assert Congruence(7, 5) == Congruence(2, 5)
    assert Congruence(-1, 5).residue == 4
    assert Congruence(10, 5).residue == 0


def test_congruence_rejects_bad_modulus():
    with pytest.raises(ValueError):
        Congruence(0, 0)
    with pytest.raises(ValueError):
        Congruence(3, -2)


def test_system_rejects_empty():
    with pytest.raises(ValueError):
        CongruenceSystem(())


def test_system_from_pairs():
    system = CongruenceSystem.from_pairs([(2, 3), (3, 5)])
    assert len(system.congruences) == 2
    assert [c.modulus for c in system.congruences] == [3, 5]


def test_solution_class_validates_range():
    SolutionClass(0, 1)
    with pytest.raises(ValueError):
        SolutionClass(5, 5)
    with pytest.raises(ValueError):
        SolutionClass(-1, 5)
    with pytest.raises(ValueError):
        SolutionClass(0, 0)


def test_solve_coprime_pair():
    found = solve(CongruenceSystem.from_pairs([(2, 3), (3, 5)]))
    assert found == SolutionClass(8, 15)


def test_solve_single_congruence():
    assert solve(CongruenceSystem.from_pairs([(9, 4)])) == SolutionClass(1, 4)


def test_solve_incompatible_pair():
    assert solve(CongruenceSystem.from_pairs([(0, 2), (1, 4)])) is None


def test_solve_redundant_congruences():
    found = solve(CongruenceSystem.from_pairs([(1, 4), (1, 2)]))
    assert found == SolutionClass(1, 4)


def test_solve_overflow_refused():
    # coprime moduli whose lcm exceeds the 64-bit range
    big = CongruenceSystem.from_pairs([(0, 2**32 - 1), (1, 2**32)])
    with pytest.raises(OverflowLimitError):
        solve(big)


systems = st.lists(
    st.tuples(st.integers(-50, 50), st.integers(1, 12)),
    min_size=1,
    max_size=4,
)


@given(systems)
def test_solve_agrees_with_scan(pairs):
    system = CongruenceSystem.from_pairs(pairs)
    congruences = system.congruences
    span = math.lcm(*(c.modulus for c in congruences))
    expected = [x for x in range(span) if all(x % c.modulus == c.residue for c in congruences)]
    found = solve(system)
    if found is None:
        assert expected == []
    else:
        assert expected == [found.residue]
        assert found.modulus == span


@given(systems)
def test_solve_none_iff_incompatible(pairs):
    system = CongruenceSystem.from_pairs(pairs)
    compatible = all(
        (c.residue - d.residue) % math.gcd(c.modulus, d.modulus) == 0
        for c, d in itertools.combinations(system.congruences, 2)
    )
    assert (solve(system) is None) == (not compatible)


@given(systems)
def test_solution_satisfies_every_congruence(pairs):
    system = CongruenceSystem.from_pairs(pairs)
    found = solve(system)
    if found is not None:
        congruences = system.congruences
        assert all(found.residue % c.modulus == c.residue for c in congruences)
        assert all((found.residue + found.modulus) % c.modulus == c.residue for c in congruences)


def test_solve_random_large_moduli():
    # solvable by construction: congruences sampled off one hidden value
    rng = random.Random(20240811)
    for _ in range(200):
        hidden = rng.randrange(10**6)
        moduli = [rng.randint(1, 1000) for _ in range(rng.randint(1, 4))]
        system = CongruenceSystem.from_pairs([(hidden % m, m) for m in moduli])
        found = solve(system)
        assert found is not None
        assert found.modulus == math.lcm(*moduli)
        assert hidden % found.modulus == found.residue
