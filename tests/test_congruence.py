"""Unit tests for the congruence solver and its integer guards."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crtcount.bounds import (
    InfeasibleError,
    bound_arbitrary,
    bound_intervals,
    density_guarantee,
    extremal_profile,
    extremal_sum,
    tightness_instance,
)
from crtcount.cli import parse_collection
from crtcount.congruence import (
    INT64_MAX,
    CongruenceSystem,
    OverflowLimitError,
    SolutionClass,
    _checked_mul,
    _lift,
    solve,
)
from crtcount.residues import CyclicInterval, EnumerationCapError, ResidueSet, partition_counts
from crtcount.runner import DistantWitness, RunnerPair, distant_interval, two_runner_witness


def test_checked_mul_small_products():
    assert _checked_mul(6, 7) == 42
    assert _checked_mul(-6, 7) == -42
    assert _checked_mul(0, INT64_MAX) == 0


def test_checked_mul_boundaries():
    assert _checked_mul(INT64_MAX, 1) == INT64_MAX
    # the negative end of the signed range is one wider
    assert _checked_mul(-(2**62), 2) == -(2**63)


def test_checked_mul_overflow():
    with pytest.raises(OverflowLimitError):
        _checked_mul(INT64_MAX, 2)
    with pytest.raises(OverflowLimitError):
        _checked_mul(2**32, 2**32)
    with pytest.raises(OverflowLimitError):
        _checked_mul(-(2**62), -3)


NINES = int("9" * 4300)  # the most digits str() accepts by default; products have more


@pytest.mark.parametrize(
    "refused, kind",
    [
        (lambda: two_runner_witness(RunnerPair(NINES, 1)), OverflowLimitError),
        (lambda: extremal_sum(*[10**4299] * 4, 1), OverflowLimitError),
        (lambda: bound_intervals(NINES**2, NINES**2 + 1, NINES**2, NINES**2), OverflowLimitError),
        (lambda: extremal_profile(2 * 10**4300, 10**4299, 10), InfeasibleError),
        (lambda: partition_counts(ResidueSet(NINES**2, (0,)), NINES**2), EnumerationCapError),
    ],
    ids=["checked_mul", "extremal_sum", "bound_intervals", "infeasible", "enumeration_cap"],
)
def test_refusals_keep_their_type_past_the_digit_limit(refused, kind):
    with pytest.raises(kind, match="-bit integer"):
        refused()


HUGE = 10**4300  # one digit past what str() accepts by default
BIG = r"a \d+-bit integer"
POSITIVE = f"must be positive, got {BIG}"


@pytest.mark.parametrize(
    "refused, message",
    [
        (lambda: CongruenceSystem.from_pairs([(0, -HUGE)]), f"modulus {POSITIVE}"),
        (lambda: SolutionClass(0, -HUGE), f"modulus {POSITIVE}"),
        (lambda: SolutionClass(10 * HUGE, HUGE), rf"residue {BIG} out of range \[0, {BIG}\)"),
        (lambda: ResidueSet(-HUGE, ()), f"modulus {POSITIVE}"),
        (lambda: ResidueSet(HUGE, (10 * HUGE,)), rf"residue {BIG} out of range \[0, {BIG}\)"),
        (lambda: CyclicInterval(-HUGE, 0, 0), f"modulus {POSITIVE}"),
        (lambda: CyclicInterval(5, 0, HUGE), rf"length {BIG} out of range \[0, 5\]"),
        (lambda: partition_counts(ResidueSet(5, ()), -HUGE), f"divisor {POSITIVE}"),
        (
            lambda: partition_counts(ResidueSet(5, ()), HUGE),
            f"divisor {BIG} does not divide modulus 5",
        ),
        (
            lambda: partition_counts(ResidueSet(HUGE + 1, ()), 3),
            f"divisor 3 does not divide modulus {BIG}",
        ),
        (lambda: bound_intervals(-HUGE, 1, 0, 0), rf"moduli must be positive, got \({BIG}, 1\)"),
        (lambda: bound_arbitrary(5, 7, HUGE, 0), rf"size {BIG} out of range \[0, 5\]"),
        (lambda: density_guarantee(5, 7, HUGE, 0), rf"size {BIG} out of range \[0, 5\]"),
        (lambda: extremal_profile(0, -HUGE, 1), f"cap {POSITIVE}"),
        (lambda: extremal_profile(-HUGE, 1, 1), f"size must be non-negative, got {BIG}"),
        (lambda: extremal_sum(0, 1, 0, 1, -HUGE), f"length {POSITIVE}"),
        (lambda: tightness_instance(-HUGE), f"scale {POSITIVE}"),
        (lambda: RunnerPair(-HUGE, 1), rf"speeds must be positive, got \({BIG}, 1\)"),
        (lambda: RunnerPair(HUGE, HUGE), f"speeds must be distinct, got {BIG} twice"),
        (lambda: distant_interval(-HUGE, 3), f"speed {POSITIVE}"),
        (lambda: distant_interval(1, 3, -HUGE), f"runners must be at least 2, got {BIG}"),
        (
            lambda: distant_interval(1, HUGE + 1),
            rf"denominator {BIG} is not a multiple of \(runners\+1\)\*speed = 3",
        ),
        (
            # a whole number as a Fraction: denominator 1 and no bit_length()
            lambda: DistantWitness(Fraction(3 * HUGE, 2), (Fraction(1, 3), Fraction(1, 3))),
            rf"witness time must lie in \[0, 1\), got {BIG}",
        ),
        (
            lambda: DistantWitness(Fraction(1, 3), (Fraction(1, 3 * HUGE), Fraction(1, 3))),
            f"distance 1/{BIG} is below the 1/3 threshold",
        ),
        (lambda: parse_collection("{1}", -HUGE), f"modulus {POSITIVE}"),
        (
            lambda: parse_collection("{1,1}", HUGE),
            rf"duplicate residue '1' in '\{{1,1\}}' \(mod {BIG}\)",
        ),
    ],
    ids=[
        "system_modulus", "solution_modulus", "solution_residue", "set_modulus",
        "set_residue", "interval_modulus", "interval_length", "divisor_sign",
        "divisor", "partition_modulus", "bound_moduli", "bound_size", "density_size",
        "profile_cap", "profile_size", "extremal_length", "tightness_scale",
        "runner_speeds", "runner_distinct", "arc_speed", "arc_runners",
        "arc_denominator", "witness_time", "witness_distance", "parse_modulus",
        "parse_duplicate",
    ],
)
def test_constructor_refusals_name_their_field(refused, message):
    with pytest.raises(ValueError, match=f"^{message}$") as refusal:
        refused()
    assert "Exceeds the limit" not in str(refusal.value)


def test_congruence_normalizes_residue():
    assert CongruenceSystem([(7, 5)]) == CongruenceSystem([(2, 5)])
    system = CongruenceSystem.from_pairs([(-1, 5), (10, 5)])
    assert system.congruences == ((4, 5), (0, 5))


def test_congruence_rejects_bad_modulus():
    with pytest.raises(ValueError, match="got 0"):
        CongruenceSystem([(0, 0)])
    with pytest.raises(ValueError, match="got -2"):
        CongruenceSystem.from_pairs([(1, 3), (3, -2), (0, 0)])  # checked in input order


def test_empty_system_solves_to_every_integer():
    assert solve(CongruenceSystem(())) == SolutionClass(0, 1)


def test_system_from_pairs():
    system = CongruenceSystem.from_pairs([(2, 3), (3, 5)])
    assert system.congruences == ((2, 3), (3, 5))
    assert system == CongruenceSystem([(2, 3), (3, 5)])


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


def test_lone_congruence_modulus_guarded():
    assert solve(CongruenceSystem.from_pairs([(5, INT64_MAX)])) == SolutionClass(5, INT64_MAX)
    with pytest.raises(OverflowLimitError, match="product 1 \\* 9223372036854775808 exceeds"):
        solve(CongruenceSystem.from_pairs([(3, 2**63)]))


def test_incompatible_pair_is_refused_before_its_lcm_is_guarded():
    # gcd 2 splits residues 0 and 1, so solve answers None before it forms the
    # lcm, about 2**79, which _checked_mul would refuse
    assert solve(CongruenceSystem.from_pairs([(0, 2**40), (1, 2**40 + 2)])) is None


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
    span = math.lcm(*(m for _, m in congruences))
    expected = [x for x in range(span) if all(x % m == r for r, m in congruences)]
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
        (r - s) % math.gcd(m, n) == 0
        for (r, m), (s, n) in itertools.combinations(system.congruences, 2)
    )
    assert (solve(system) is None) == (not compatible)


@given(systems)
def test_solution_satisfies_every_congruence(pairs):
    system = CongruenceSystem.from_pairs(pairs)
    found = solve(system)
    if found is not None:
        congruences = system.congruences
        assert all(found.residue % m == r for r, m in congruences)
        assert all((found.residue + found.modulus) % m == r for r, m in congruences)


moduli_to_2_62 = st.integers(1, 2**62)


@given(moduli_to_2_62, moduli_to_2_62, st.integers(1, 2**20))
def test_lift_coefficient_is_zero_mod_m_over_g_and_one_mod_n_over_g(m, n, factor):
    g, k = _lift(m, n)
    assert g == math.gcd(m, n)
    assert k % (m // g) == 0 and k % (n // g) == 1 % (n // g)
    assert 0 <= k < (m // g) * (n // g)
    # one modulus dividing the other: n | m leaves k == 0, m | n leaves k == 1 unless equal
    assert _lift(m * factor, m) == (m, 0)
    assert _lift(m, m * factor) == (m, 1 % factor)


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
