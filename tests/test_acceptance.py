"""Acceptance suite: ten contract criteria, one printed pass/fail line each.

Every criterion builds its own oracle (full scans, explicit dot products,
exhaustive grids) and compares the library against it. Counting checks use
exact integer equality; the single floating-point criterion uses a 1e-9
tolerance on sums of at most six products.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

from crtcount.bounds import (
    bound_arbitrary,
    bound_intervals,
    density_guarantee,
    extremal_profile,
    extremal_sum,
    tightness_instance,
)
from crtcount.congruence import CongruenceSystem, solve
from crtcount.residues import (
    CyclicInterval,
    ResidueSet,
    enumerate_solutions,
    exact_count,
)
from crtcount.runner import RunnerPair, distant_interval, two_runner_witness

from brute_force import DISTANT_THRESHOLD, circle_distance, rearrangement_bounds

CLI = [sys.executable, "-m", "crtcount.cli"]


def report(number, label, failures, detail=""):
    tag = "PASS" if not failures else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"{tag}  criterion {number:02d}: {label}{extra}")
    assert not failures, f"criterion {number:02d}: {label}; first: {failures[:3]}"


def random_set(rng, modulus):
    return ResidueSet(modulus, tuple(rng.sample(range(modulus), rng.randint(0, modulus))))


def test_criterion_01_count_matches_enumeration():
    rng = random.Random(101)
    failures = []
    for _ in range(500):
        a = random_set(rng, rng.randint(1, 40))
        b = random_set(rng, rng.randint(1, 40))
        fast = exact_count(a, b)
        slow = len(enumerate_solutions(a, b))
        if fast != slow:
            failures.append((a, b, fast, slow))
    report(1, "exact count equals full enumeration on 500 random set pairs", failures)


def test_criterion_02_solver_agrees_with_scan():
    rng = random.Random(202)
    failures = []
    solvable = unsolvable = 0
    for index in range(500):
        while True:
            moduli = [rng.randint(1, 60) for _ in range(rng.randint(1, 4))]
            span = math.lcm(*moduli)
            if span <= 100_000:
                break
        if index % 2:
            residues = [rng.randrange(m) for m in moduli]
        else:
            hidden = rng.randrange(span)  # force a solvable system
            residues = [hidden % m for m in moduli]
        pairs = list(zip(residues, moduli))
        matches = [x for x in range(span) if all(x % m == r for r, m in pairs)]
        found = solve(CongruenceSystem.from_pairs(pairs))
        if found is None:
            unsolvable += 1
            if matches:
                failures.append((pairs, "missed", matches[0]))
        else:
            solvable += 1
            if matches != [found.residue] or found.modulus != span:
                failures.append((pairs, found, matches[:2]))
    report(
        2,
        "solver agrees with a full residue scan on 500 random systems",
        failures,
        detail=f"{solvable} solvable, {unsolvable} without solution",
    )


def test_criterion_03_size_floor_sound_and_route_identical():
    rng = random.Random(303)
    failures = []
    for _ in range(500):
        a = random_set(rng, rng.randint(1, 60))
        b = random_set(rng, rng.randint(1, 60))
        floor = bound_arbitrary(a.modulus, b.modulus, a.size, b.size).lower_bound
        actual = exact_count(a, b)
        if floor > actual:
            failures.append(("soundness", a, b, floor, actual))
    for m in range(1, 61):
        for n in range(1, 61):
            g = math.gcd(m, n)
            cap_a, cap_b = m // g, n // g
            for size_a in range(m + 1):
                for size_b in range(n + 1):
                    if bound_arbitrary(m, n, size_a, size_b) != extremal_sum(
                        size_a, cap_a, size_b, cap_b, g
                    ):
                        failures.append(("identity", m, n, size_a, size_b))
    report(
        3,
        "size-only floor never exceeds the count and matches the extremal route",
        failures,
        detail="500 random + full grid to 60",
    )


def test_criterion_04_extremal_closed_form_on_grid():
    failures = []
    for cap_a in range(1, 7):
        for cap_b in range(1, 7):
            for length in range(1, 7):
                for size_a in range(cap_a * length + 1):
                    profile_a = extremal_profile(size_a, cap_a, length).values
                    for size_b in range(cap_b * length + 1):
                        profile_b = extremal_profile(size_b, cap_b, length).values
                        explicit = sum(
                            x * y for x, y in zip(profile_a, reversed(profile_b))
                        )
                        got = extremal_sum(size_a, cap_a, size_b, cap_b, length)
                        if got.lower_bound != explicit:
                            failures.append(
                                (cap_a, cap_b, length, size_a, size_b, got, explicit)
                            )
    report(
        4,
        "closed-form extremal pairing equals the explicit reversed dot product",
        failures,
        detail="caps and length up to 6, all sizes",
    )


def test_criterion_05_rearrangement_brackets_every_permutation():
    rng = random.Random(505)
    failures = []
    for _ in range(200):
        length = rng.randint(1, 6)
        a = sorted(rng.uniform(-10, 10) for _ in range(length))
        b = sorted(rng.uniform(-10, 10) for _ in range(length))
        for sigma in permutations(range(length)):
            lower, permuted, upper = rearrangement_bounds(a, b, sigma)
            if lower > permuted + 1e-9 or permuted > upper + 1e-9:
                failures.append((a, b, sigma, lower, permuted, upper))
    report(
        5,
        "reversed and aligned pairings bracket every permutation (tol 1e-9)",
        failures,
    )


def test_criterion_06_interval_floor_sound_and_coprime_exact():
    rng = random.Random(606)
    failures = []
    coprime = 0
    for index in range(500):
        while True:
            m, n = rng.randint(1, 60), rng.randint(1, 60)
            if index % 3 or math.gcd(m, n) == 1:  # keep coprime cases plentiful
                break
        a = CyclicInterval(m, rng.randrange(m), rng.randint(0, m))
        b = CyclicInterval(n, rng.randrange(n), rng.randint(0, n))
        floor = bound_intervals(m, n, a.size, b.size)
        actual = exact_count(a, b)
        if floor > actual:
            failures.append(("soundness", a, b, floor, actual))
        if math.gcd(m, n) == 1:
            coprime += 1
            if actual != a.size * b.size:
                failures.append(("coprime product", a, b, actual))
    report(
        6,
        "interval floor never exceeds the count; coprime moduli give the product",
        failures,
        detail=f"{coprime} coprime pairs",
    )


def test_criterion_07_density_guarantee_and_tight_family():
    rng = random.Random(707)
    failures = []
    for _ in range(1000):
        while True:
            m, n = rng.randint(1, 90), rng.randint(1, 90)
            if m != n:
                break
        size_a = rng.randint(m // 3 + 1, m)  # smallest size with 3*size > modulus
        size_b = rng.randint(n // 3 + 1, n)
        a = CyclicInterval(m, rng.randrange(m), size_a)
        b = CyclicInterval(n, rng.randrange(n), size_b)
        if not density_guarantee(m, n, size_a, size_b):
            failures.append(("precondition", m, n, size_a, size_b))
        if exact_count(a, b) < 1:
            failures.append(("guarantee", a, b))
    for scale in range(1, 101):
        first, second = tightness_instance(scale)
        if exact_count(first, second) != 0:
            failures.append(("tight family", scale))
    report(
        7,
        "one-third density forces a solution; the boundary family never has one",
        failures,
        detail="1000 random + scales 1..100",
    )


def test_criterion_08_runner_witnesses_for_all_pairs():
    failures = []
    for m in range(1, 31):
        for n in range(m + 1, 31):
            try:
                witness = two_runner_witness(RunnerPair(m, n))
            except Exception as exc:  # a raise here is a contract failure, not an error
                failures.append((m, n, repr(exc)))
                continue
            distances = (
                circle_distance(m * witness.time),
                circle_distance(n * witness.time),
            )
            if min(distances) < DISTANT_THRESHOLD or not 0 <= witness.time < 1:
                failures.append((m, n, witness))
    sixths = [
        a
        for a in range(6)
        if circle_distance(Fraction(a, 6)) >= DISTANT_THRESHOLD
        and circle_distance(Fraction(2 * a, 6)) >= DISTANT_THRESHOLD
    ]
    golden = two_runner_witness(RunnerPair(1, 2)).time
    if golden != Fraction(1, 3) or golden != Fraction(sixths[0], 6):
        failures.append(("golden", golden, sixths))
    report(
        8,
        "all speed pairs up to 30 stay 1/3 away at a rational time; (1,2) gives 1/3",
        failures,
    )


def test_criterion_09_distant_arc_equals_brute_force_sweep():
    failures = []
    for runners in (2, 3, 4):
        threshold = Fraction(1, runners + 1)
        for q in range(runners + 1, 3001, runners + 1):
            arc = distant_interval(1, q, runners)
            brute = {
                x for x in range(q) if circle_distance(Fraction(x, q)) >= threshold
            }
            if set(arc.members()) != brute:
                failures.append((runners, q, "membership"))
            if runners == 2 and arc.size != q // 3 + 1:
                failures.append((runners, q, "size"))
    report(
        9,
        "closed-form distant arcs match brute-force membership up to q = 3000",
        failures,
        detail="k in {2,3,4}; two-runner arcs have size q/3 + 1",
    )


def test_criterion_10_cli_contract():
    failures = []
    examples = [
        (["solve", "2:3", "3:5"], 0, "x ≡ 8 (mod 15)\n"),
        (
            ["tightness", "--M", "1"],
            0,
            "m = 3\nn = 6\nA = 0+1 (mod 3)\nB = 1+2 (mod 6)\ncount = 0\n",
        ),
        (["runner", "--speeds", "1,2"], 0, "t = 1/3, distances 1/3, 1/3\n"),
    ]
    for argv, expected_code, expected_out in examples:
        proc = subprocess.run(CLI + argv, capture_output=True, text=True)
        if proc.returncode != expected_code or proc.stdout != expected_out:
            failures.append((argv, proc.returncode, proc.stdout))
    round_trips = [
        (
            ["solve", "2:3", "3:5", "--json"],
            {"status": "ok", "residue": 8, "modulus": 15},
        ),
        (
            ["tightness", "--M", "1", "--json"],
            {
                "status": "ok",
                "m": 3,
                "n": 6,
                "interval_a": {"modulus": 3, "start": 0, "length": 1},
                "interval_b": {"modulus": 6, "start": 1, "length": 2},
                "count": 0,
            },
        ),
        (
            ["runner", "--speeds", "1,2", "--json"],
            {
                "status": "ok",
                "witness_numerator": 1,
                "witness_denominator": 3,
                "distances": [
                    {"numerator": 1, "denominator": 3},
                    {"numerator": 1, "denominator": 3},
                ],
            },
        ),
    ]
    for argv, expected in round_trips:
        proc = subprocess.run(CLI + argv, capture_output=True, text=True)
        record = json.loads(proc.stdout) if proc.returncode == 0 else None
        if record != expected:
            failures.append((argv, proc.returncode, proc.stdout))
    statuses = [
        (["solve", "0:2", "1:4"], 1),
        (["solve", "nonsense"], 2),
        (["count", "4", "6", "{0,4}", "{0}"], 2),
        (["extremal", "9", "2", "0", "1", "4"], 1),
    ]
    for argv, expected_code in statuses:
        proc = subprocess.run(CLI + argv, capture_output=True, text=True)
        if proc.returncode != expected_code:
            failures.append((argv, proc.returncode, "status"))
    report(
        10,
        "pinned CLI examples, JSON round-trips, and the exit-status contract",
        failures,
    )
