"""Unit tests for the two-runner distant-time search."""

import ast
import copy
import math
import pickle
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from crtcount import congruence, runner
from crtcount.congruence import INT64_MAX, OverflowLimitError
from crtcount.residues import CyclicInterval
from crtcount.runner import DistantWitness, RunnerPair, distant_interval, two_runner_witness

from brute_force import (
    DISTANT_THRESHOLD,
    circle_distance,
    crt_pairing_witness,
    earliest_grid_time,
)
from opcodes import opcodes_run


def test_distant_interval_golden():
    arc = distant_interval(1, 6)
    assert (arc.modulus, arc.start, arc.length) == (6, 2, 3)
    arc = distant_interval(2, 6)
    assert (arc.modulus, arc.start, arc.length) == (3, 1, 2)
    assert distant_interval(1, 4, runners=3).members() == (1, 2, 3)


def test_distant_interval_validation():
    with pytest.raises(ValueError):
        distant_interval(0, 6)
    with pytest.raises(ValueError):
        distant_interval(1, 6, runners=1)
    with pytest.raises(ValueError, match="6"):
        distant_interval(2, 8)  # needs 3*2 | denominator


def test_distant_interval_matches_brute_force():
    for runners in (2, 3, 4):
        threshold = Fraction(1, runners + 1)
        for q in range(runners + 1, 200, runners + 1):
            arc = distant_interval(1, q, runners)
            brute = {
                x for x in range(q) if circle_distance(Fraction(x, q)) >= threshold
            }
            assert set(arc.members()) == brute, (runners, q)


def test_distant_interval_speed_rescales_the_period():
    for speed in (1, 2, 3, 5):
        denominator = 12 * speed
        arc = distant_interval(speed, denominator)
        for x in range(denominator):
            far = circle_distance(Fraction(speed * x, denominator)) >= DISTANT_THRESHOLD
            assert (x % arc.modulus in arc) == far


def test_distant_interval_two_runner_size():
    for n in range(1, 60):
        assert distant_interval(1, 3 * n).size == n + 1


def test_runner_pair_validation():
    RunnerPair(1, 2)
    with pytest.raises(ValueError):
        RunnerPair(0, 2)
    with pytest.raises(ValueError):
        RunnerPair(3, 3)


def test_distant_witness_validation():
    DistantWitness(Fraction(1, 3), (Fraction(1, 3), Fraction(1, 2)))
    with pytest.raises(ValueError):
        DistantWitness(Fraction(1, 3), (Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(ValueError):
        DistantWitness(Fraction(3, 2), (Fraction(1, 3), Fraction(1, 3)))
    # a float is not exact, so it is refused rather than stored
    with pytest.raises(AttributeError, match="numerator"):
        DistantWitness(0.5, (0.4, 0.4))
    with pytest.raises(AttributeError, match="numerator"):
        DistantWitness(Fraction(1, 2), (Fraction(1, 2), 0.4))


RATIONALS = st.one_of(st.fractions(), st.integers())


@given(RATIONALS, st.tuples(RATIONALS, RATIONALS))
@example(0, (Fraction(1, 3), Fraction(1, 2)))
@example(Fraction(2, 3), (1, Fraction(1, 3)))
@example(Fraction(-1, 3), (Fraction(1, 3), Fraction(1, 3)))
@example(1, (Fraction(1, 3), Fraction(1, 3)))
@example(Fraction(1, 2), (Fraction(1, 3), Fraction(1, 4)))
@example(Fraction(1, 2), (Fraction(-1, 2), Fraction(1, 3)))
def test_distant_witness_accepts_exactly_under_fraction_order(time, distances):
    below = [d for d in distances if d < DISTANT_THRESHOLD]
    if not 0 <= time < 1:
        message = f"witness time must lie in [0, 1), got {time}"
    elif below:
        message = f"distance {below[0]} is below the 1/3 threshold"
    else:
        witness = DistantWitness(time, distances)
        assert (witness.time, witness.distances) == (time, distances)
        return
    with pytest.raises(ValueError) as refusal:
        DistantWitness(time, distances)
    assert str(refusal.value) == message


def test_witness_golden_pairs():
    w = two_runner_witness(RunnerPair(1, 2))
    assert w.time == Fraction(1, 3)
    assert w.distances == (Fraction(1, 3), Fraction(1, 3))
    assert two_runner_witness(RunnerPair(1, 3)).time == Fraction(4, 9)
    assert two_runner_witness(RunnerPair(2, 4)).time == Fraction(1, 6)
    # speed order does not matter for the time
    assert two_runner_witness(RunnerPair(2, 1)).time == Fraction(1, 3)


EDGE = INT64_MAX // 3  # the largest n with 3*1*n in signed 64 bits


def test_witness_at_the_64_bit_edge():
    w = two_runner_witness(RunnerPair(1, EDGE))
    assert w.time == Fraction(1, 3)
    assert w.distances == (Fraction(1, 3), Fraction(1, 3))
    with pytest.raises(OverflowLimitError, match=f"product 3 \\* {EDGE + 1} exceeds"):
        two_runner_witness(RunnerPair(1, EDGE + 1))


def test_witness_is_smallest_grid_time():
    for m in range(1, 9):
        for n in range(m + 1, 9):
            denominator = 3 * m * n
            admissible = [
                x
                for x in range(denominator)
                if circle_distance(Fraction(m * x, denominator)) >= DISTANT_THRESHOLD
                and circle_distance(Fraction(n * x, denominator)) >= DISTANT_THRESHOLD
            ]
            assert admissible, (m, n)
            w = two_runner_witness(RunnerPair(m, n))
            assert w.time == Fraction(admissible[0], denominator), (m, n)


def test_witness_distances_match_positions():
    for m, n in ((3, 7), (5, 12), (9, 30), (11, 13)):
        w = two_runner_witness(RunnerPair(m, n))
        assert w.distances == (circle_distance(m * w.time), circle_distance(n * w.time))
        assert min(w.distances) >= DISTANT_THRESHOLD


@given(st.integers(1, 80), st.integers(1, 80))
@example(6, 4)  # not coprime, f < 2s
@example(4, 12)  # f == 3s
@example(5, 80)  # f >= 3s
@example(80, 79)
@example(2, 1)
def test_witness_equals_brute_force_scan(m, n):
    assume(m != n)
    assert two_runner_witness(RunnerPair(m, n)).time == earliest_grid_time(m, n)


def test_witness_equals_crt_pairing_oracle():
    for m in range(1, 13):
        for n in range(1, 13):
            if m != n:
                assert two_runner_witness(RunnerPair(m, n)) == crt_pairing_witness(m, n)


def test_witness_touches_no_arc_members_or_solver(monkeypatch):
    expected = (Fraction(1, 2999999997), (Fraction(1, 3), Fraction(10**9, 2999999997)))
    third = Fraction(1, 3)

    def refuse(*args):
        raise AssertionError(
            "the witness search walked or built an arc, called the solver,"
            " did Fraction arithmetic or called Fraction's constructor"
        )

    monkeypatch.setattr(CyclicInterval, "__iter__", refuse)
    monkeypatch.setattr(CyclicInterval, "members", refuse)
    monkeypatch.setattr(congruence, "solve", refuse)
    monkeypatch.setattr(runner, "distant_interval", refuse)
    for name in ("__new__", "__mul__", "__rmul__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refuse)
    witness = two_runner_witness(RunnerPair(999999999, 10**9))
    assert (witness.time, witness.distances) == expected
    assert two_runner_witness(RunnerPair(1, 10**9)).time == third


def test_fraction_keeps_the_two_slots_the_witness_fills():
    # runner._reduced stores into these two slots; a Fraction laid out
    # otherwise must fail here rather than build broken witnesses.
    assert Fraction.__slots__ == ("_numerator", "_denominator")


@given(st.integers(0, 2**80), st.integers(1, 2**80), st.integers(1, 2**70))
@example(0, 1, 1)
@example(0, 7, 3)
@example(3, 2, 2)
@example(2**64, 3, 2**64 + 1)
def test_reduced_fraction_is_the_constructors(numerator, denominator, factor):
    # The common factor makes the gcd reduction do work on most draws.
    numerator, denominator = numerator * factor, denominator * factor
    built = Fraction(numerator, denominator)
    reduced = runner._reduced(numerator, denominator)
    assert type(reduced) is Fraction
    assert (reduced.numerator, reduced.denominator) == (built.numerator, built.denominator)
    assert reduced == built and hash(reduced) == hash(built)
    assert (repr(reduced), str(reduced)) == (repr(built), str(built))
    for other in (pickle.loads(pickle.dumps(reduced)), copy.copy(reduced), reduced + 0):
        assert type(other) is Fraction
        assert (other.numerator, other.denominator) == (built.numerator, built.denominator)


@st.composite
def speed_pairs(draw):
    """Distinct speeds (m, n), in either order, with 3*m*n inside signed 64 bits."""
    slow = draw(st.integers(1, math.isqrt(EDGE) - 1))
    fast = draw(st.integers(slow + 1, EDGE // slow))
    return (slow, fast) if draw(st.booleans()) else (fast, slow)


@given(speed_pairs())
@example((1, EDGE))
@example((EDGE, 1))
@example((999999999, 10**9))
def test_witness_is_a_checked_value_up_to_the_64_bit_edge(speeds):
    # the witness is filled without DistantWitness.__init__, so the constructor
    # re-checks it here, and it must equal, hash, pickle and copy like a built one
    w = two_runner_witness(RunnerPair(*speeds))
    assert type(w) is DistantWitness
    for other in (DistantWitness(w.time, w.distances), pickle.loads(pickle.dumps(w)), copy.copy(w)):
        assert type(other) is DistantWitness
        assert other == w and hash(other) == hash(w)
    m, n = speeds
    assert w.distances == (circle_distance(m * w.time), circle_distance(n * w.time))


def test_witness_does_not_call_the_constructor(monkeypatch):
    pairs = ((1, 2), (7, 3), (999999999, 10**9), (1, EDGE))
    expected = {speeds: two_runner_witness(RunnerPair(*speeds)) for speeds in pairs}

    def refuse(*args):
        raise AssertionError("the witness re-ran DistantWitness.__init__")

    monkeypatch.setattr(DistantWitness, "__init__", refuse)
    for speeds, witness in expected.items():
        assert two_runner_witness(RunnerPair(*speeds)) == witness


def test_witness_guard_stays_off_the_passing_path(monkeypatch):
    # Inside 64 bits the witness never calls _checked_mul; past them it does,
    # and test_witness_at_the_64_bit_edge pins that refusal.
    pairs = ((1, 2), (7, 3), (999999999, 10**9), (1, EDGE))
    expected = {speeds: two_runner_witness(RunnerPair(*speeds)) for speeds in pairs}

    def refuse(*args):
        raise AssertionError("the witness called _checked_mul on an in-range product")

    monkeypatch.setattr(runner, "_checked_mul", refuse)
    for speeds, witness in expected.items():
        assert two_runner_witness(RunnerPair(*speeds)) == witness


def test_witness_runs_a_constant_number_of_opcodes():
    # O(1) in the speeds: the same work from speeds near 10 to 10**9 and at the
    # 64-bit edge. math.gcd runs in C, so its cost on larger ints is not counted.
    # A ratio, not a count, since the counts differ between Python versions.
    pairs = [RunnerPair(10**k, 10**k + 1) for k in range(1, 10)]
    pairs += [RunnerPair(10**k + 3, 2 * 10**k) for k in range(1, 10)]
    pairs += [RunnerPair(999999999, 10**9), RunnerPair(1, EDGE), RunnerPair(EDGE // 2, 2)]
    counts = [opcodes_run(lambda: two_runner_witness(pair)) for pair in pairs]
    assert min(counts) > 0
    assert max(counts) <= 1.1 * min(counts), counts


def test_witness_threshold_has_one_owner():
    # The integer form of "at least 1/3", 3 * near >= q, is written in
    # runner._distant alone, and both the constructor and the witness call it.
    tree = ast.parse(Path(runner.__file__).read_text())
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def owner(node):
        while node in parents and not isinstance(node, ast.FunctionDef):
            node = parents[node]
        return getattr(node, "name", None)

    thirds, calls = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any("3 *" in ast.unparse(side) for side in sides):
                thirds.add((owner(node), ast.unparse(node)))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_distant":
            calls.add(owner(node))
    assert thirds == {("_distant", "3 * near >= q")}
    assert calls == {"__init__", "two_runner_witness"}
