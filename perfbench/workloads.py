"""The four seeded workloads: inputs, the timed call, and the answer check.

A workload holds a fixed list of specs made from the seed. The benchmark
cycles through them; ``prepare`` turns a spec into library inputs outside
the timed region, ``call`` is the timed operation, ``expect`` computes the
answer with the independent oracles, and ``check`` returns one reason per
rejected query. ``queries`` says how many queries one operation holds,
``corrupt`` makes a deliberately wrong answer for the checker's self-check,
and ``trace_ops`` is the number of specs in one traced pass. The reason
``OUT_OF_RANGE`` marks the known defect: a result that leaves the signed
64-bit range where the README promises a refusal.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import oracles
from crtcount import bounds, cli, residues, runner
from oracles import OUT_OF_RANGE, fits_int64


def lattice(rng: random.Random, k: int, ranges: list[tuple[float, float]]) -> list[list[float]]:
    """k points in a box, one in every stratum of every dimension, in seeded order.

    Dimension d uses stratum (i * 19**d) % k at point i, a fixed rank-1
    lattice, so every seed covers the same mix of size combinations; the seed
    moves each value within its stratum and shuffles the order. The latency
    distribution then varies little from seed to seed. k must be a power of 2.
    """
    points = []
    for i in range(k):
        point = []
        for d, (lo, hi) in enumerate(ranges):
            stratum = i * pow(19, d, k) % k
            point.append(lo + (stratum + rng.random()) * (hi - lo) / k)
        points.append(point)
    rng.shuffle(points)
    return points


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


# --- runner ------------------------------------------------------------------


class RunnerWorkload:
    """two_runner_witness on distinct speed pairs in [20, 120]."""

    name = "runner"
    trace_ops = 24

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"runner:{seed}")
        pairs: list[tuple[int, int]] = []
        for m, n in lattice(rng, 128, [(20, 121), (20, 121)]):
            m, n = int(m), int(n)
            while n == m or (m, n) in pairs:
                n = 20 + (n - 19) % 101  # next speed, wrapping within [20, 120]
            pairs.append((m, n))
        self.specs = pairs

    def queries(self, spec) -> int:
        return 1

    def prepare(self, spec):
        return runner.RunnerPair(*spec)

    def call(self, pair):
        try:
            return runner.two_runner_witness(pair)
        except Exception as exc:
            return exc

    def expect(self, spec, inputs):
        return oracles.earliest_distant_time(*spec)

    def check(self, spec, inputs, output, expected) -> list[str]:
        if isinstance(output, Exception):
            return [_raised(output)]
        m, n = spec
        if output.time != expected:
            return [f"time {output.time} is not the earliest distant time {expected}"]
        distances = tuple(oracles.circle_distance(v * expected) for v in (m, n))
        if tuple(output.distances) != distances or min(distances) < Fraction(1, 3):
            return [f"distances {output.distances} != {distances}"]
        return []

    def corrupt(self, spec, output):
        m, n = spec
        return SimpleNamespace(
            time=output.time + Fraction(1, 3 * m * n), distances=output.distances
        )


# --- count -------------------------------------------------------------------


class CountWorkload:
    """exact_count for interval×interval, set×interval and set×set, plus enumeration.

    One operation is a bundle of all four calls, so every operation mixes the
    kinds in the same proportion and the latency median does not fall into a
    gap between kinds.
    """

    name = "count"
    trace_ops = 16

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"count:{seed}")
        ranges = [
            (3, 12),  # log2 of the shared factor g
            (2e3, 8e4),  # interval length mod m
            (2e3, 8e4),  # interval length mod n
            (1e4, 1.8e5),  # m minus that length
            (1e4, 1.8e5),  # n minus that length
            (1000, 4000),  # explicit set size mod m
            (1000, 4000),  # explicit set size mod n
            (1e4, 6e4),  # enumeration span bound
            (0.1, 0.5),  # enumeration interval share
            (0.1, 0.5),  # enumeration set share
        ]
        specs = []
        for point in lattice(rng, 128, ranges):
            log_g, la, lb, pad_a, pad_b, ka, kb, span, share_a, share_b = point
            g = round(2**log_g)
            la, lb = int(la), int(lb)
            m = g * math.ceil((la + pad_a) / g)
            n = g * math.ceil((lb + pad_b) / g)
            if n == m:
                n += g
            # enumeration moduli g2*a2 and g2*b2, so lcm <= g2*a2*b2 <= span
            g2 = 2 ** rng.randint(2, 8)
            product = int(span) // g2
            a2 = rng.randint(2, math.isqrt(product))
            b2 = product // a2
            if b2 == a2:
                b2 -= 1
            specs.append(
                {
                    "m": m,
                    "n": n,
                    "interval_a": (rng.randrange(m), la),
                    "interval_b": (rng.randrange(n), lb),
                    "set_a": int(ka),
                    "set_b": int(kb),
                    "enum_m": g2 * a2,
                    "enum_n": g2 * b2,
                    "enum_interval": (rng.randrange(g2 * a2), share_a),
                    "enum_set": share_b,
                    "members_seed": rng.getrandbits(32),
                }
            )
        self.specs = specs

    def queries(self, spec) -> int:
        return 4

    def prepare(self, spec):
        """Plain descriptions for the oracles and library objects for the calls."""
        rng = random.Random(spec["members_seed"])
        m, n, em, en = spec["m"], spec["n"], spec["enum_m"], spec["enum_n"]
        e_start, e_share = spec["enum_interval"]
        descs = {
            "ia": ("interval", m, *spec["interval_a"]),
            "ib": ("interval", n, *spec["interval_b"]),
            "sa": ("set", m, frozenset(rng.sample(range(m), spec["set_a"]))),
            "sb": ("set", n, frozenset(rng.sample(range(n), spec["set_b"]))),
            "ea": ("interval", em, e_start, round(e_share * em)),
            "eb": ("set", en, frozenset(rng.sample(range(en), round(spec["enum_set"] * en)))),
        }
        objects = {
            key: residues.CyclicInterval(*desc[1:])
            if desc[0] == "interval"
            else residues.ResidueSet(desc[1], tuple(desc[2]))
            for key, desc in descs.items()
        }
        return descs, objects

    PAIRS = (("ia", "ib"), ("sa", "ib"), ("sa", "sb"))

    def call(self, inputs):
        objects = inputs[1]
        out = []
        for a, b in self.PAIRS:
            try:
                out.append(residues.exact_count(objects[a], objects[b]))
            except Exception as exc:
                out.append(exc)
        try:
            out.append(residues.enumerate_solutions(objects["ea"], objects["eb"]))
        except Exception as exc:
            out.append(exc)
        return out

    def expect(self, spec, inputs):
        descs = inputs[0]
        pairs = self.PAIRS + (("ea", "eb"),)
        return [oracles.solution_count(descs[a], descs[b]) for a, b in pairs]

    def check(self, spec, inputs, output, expected) -> list[str]:
        descs = inputs[0]
        reasons = []
        for (a, b), got, want in zip(self.PAIRS, output, expected):
            if isinstance(got, Exception):
                reasons.append(_raised(got))
            elif got != want:
                reasons.append(f"exact_count({a}, {b}) = {got}, expected {want}")
        listed = output[3]
        if isinstance(listed, Exception):
            return reasons + [_raised(listed)]
        ea, eb = descs["ea"], descs["eb"]
        span = oracles.solution_span(ea[1], eb[1])
        found = [cls.residue for cls in listed]
        if (
            len(found) != expected[3]
            or any(cls.modulus != span for cls in listed)
            or any(x >= y for x, y in zip(found, found[1:]))
            or not all(
                0 <= x < span and oracles.contains(ea, x) and oracles.contains(eb, x)
                for x in found
            )
        ):
            reasons.append("enumerate_solutions listed a wrong set of residues")
        return reasons

    def corrupt(self, spec, output):
        return [output[0] + 1] + output[1:]


# --- bounds ------------------------------------------------------------------


BOUND_FUNCTIONS = (
    "bound_arbitrary",
    "bound_intervals",
    "density_guarantee",
    "extremal_sum",
    "extremal_profile",
)

# Queries per batch of 1,000. The "big" ones have coprime moduli near 2**36..2**60
# and sizes of at least half the modulus, so the floor is a product of two sizes
# far beyond 64 bits: 10 per batch, a 1% share.
BOUND_MIX = {
    "bound_arbitrary": 295,
    "bound_arbitrary_big": 5,
    "bound_intervals": 295,
    "bound_intervals_big": 5,
    "density_guarantee": 200,
    "extremal_sum": 150,
    "extremal_profile": 50,
}


def _moduli_64(rng: random.Random) -> tuple[int, int]:
    """Moduli g*a and g*b whose lcm stays below 2**62, over the whole 64-bit range."""
    bits = rng.randint(6, 62)
    g_bits = rng.randint(0, bits)
    a_bits = rng.randint(0, bits - g_bits)
    b_bits = bits - g_bits - a_bits
    g, a, b = (rng.randint(max(1, 2 ** (x - 1)), 2**x) for x in (g_bits, a_bits, b_bits))
    if a == b:
        b += 1
    return g * a, g * b


def _bound_query(rng: random.Random, kind: str) -> tuple[str, tuple]:
    if kind.endswith("_big"):
        m = rng.randint(2**36, 2**60)
        n = m + 1
        return kind[:-4], (m, n, rng.randint(m // 2, m), rng.randint(n // 2, n))
    if kind in ("bound_arbitrary", "bound_intervals", "density_guarantee"):
        m, n = _moduli_64(rng)
        return kind, (m, n, rng.randint(0, m), rng.randint(0, n))
    infeasible = rng.random() < 0.1
    if kind == "extremal_profile":
        cap, length = rng.randint(1, 2 ** rng.randint(0, 40)), rng.randint(1, 32)
        size = cap * length + rng.randint(1, cap) if infeasible else rng.randint(0, cap * length)
        return kind, (size, cap, length)
    bits = [rng.randint(0, 20) for _ in range(3)]
    cap_a, cap_b, length = (rng.randint(1, 2**x) for x in bits)
    size_a = rng.randint(0, cap_a * length)
    if infeasible:
        size_b = cap_b * length + rng.randint(1, cap_b)
    else:
        size_b = rng.randint(0, cap_b * length)
    return kind, (size_a, cap_a, size_b, cap_b, length)


def _bound_expect(name: str, args: tuple):
    if name == "bound_arbitrary":
        return oracles.arbitrary_floor(*args)
    if name == "bound_intervals":
        return oracles.interval_floor(*args)
    if name == "density_guarantee":
        return oracles.density_forces_solution(*args)
    if name == "extremal_sum":
        return oracles.extremal(*args)
    return oracles.profile_values(*args)


def _bound_value(name: str, result):
    if name in ("bound_arbitrary", "extremal_sum"):
        return (result.lower_bound, result.case_tag)
    if name == "extremal_profile":
        return list(result.values)
    return result


def _bound_ints(name: str, value) -> list[int]:
    if name in ("bound_arbitrary", "extremal_sum"):
        return [value[0]]
    if name == "extremal_profile":
        return value
    return [] if isinstance(value, bool) else [value]


class BoundsWorkload:
    """Size-only floors, the density test and extremal profiles, 1,000 per operation.

    A spec is the seed of one batch; ``prepare`` builds the batch. Expected
    answers are not kept between calls, because 128 batches of 1,000 would
    dominate the worker's memory.
    """

    name = "bounds"
    trace_ops = 8
    memoize = False

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"bounds:{seed}")
        self.specs = [rng.getrandbits(64) for _ in range(128)]

    def queries(self, spec) -> int:
        return sum(BOUND_MIX.values())

    def prepare(self, spec):
        rng = random.Random(spec)
        kinds = [kind for kind, share in BOUND_MIX.items() for _ in range(share)]
        rng.shuffle(kinds)
        return [_bound_query(rng, kind) for kind in kinds]

    def call(self, batch):
        fns = {name: getattr(bounds, name) for name in BOUND_FUNCTIONS}
        out = []
        for name, args in batch:
            try:
                out.append(fns[name](*args))
            except Exception as exc:
                out.append(exc)
        return out

    def expect(self, spec, batch):
        return [_bound_expect(name, args) for name, args in batch]

    def check(self, spec, batch, output, expected) -> list[str]:
        reasons = []
        for (name, args), got, want in zip(batch, output, expected):
            reason = self._check_one(name, args, got, want)
            if reason:
                reasons.append(reason)
        return reasons

    @staticmethod
    def _check_one(name, args, got, want) -> str | None:
        must_refuse = want is None or not all(fits_int64(v) for v in _bound_ints(name, want))
        if isinstance(got, Exception):
            kind = type(got).__name__
            if want is None and kind == "InfeasibleError":
                return None
            if want is not None and must_refuse and kind == "OverflowLimitError":
                return None
            return f"{name}{args} {_raised(got)}"
        if want is None:
            return f"{name}{args} answered an infeasible request"
        value = _bound_value(name, got)
        if value != want:
            return f"{name}{args} = {value}, expected {want}"
        if must_refuse:
            return OUT_OF_RANGE
        if name == "bound_arbitrary":
            m, n, size_a, size_b = args
            g = math.gcd(m, n)
            if got != bounds.extremal_sum(size_a, m // g, size_b, n // g, g):
                return f"bound_arbitrary{args} disagrees with extremal_sum"
        elif name == "bound_intervals":
            if value < oracles.arbitrary_floor(*args)[0]:
                return f"bound_intervals{args} is below the arbitrary floor"
        elif name == "density_guarantee" and value:
            if bounds.bound_intervals(*args) < 1 or oracles.interval_floor(*args) < 1:
                return f"density_guarantee{args} holds but the interval floor is 0"
        return None

    def corrupt(self, spec, output):
        wrong = list(output)
        first = next(i for i, got in enumerate(output) if type(got) is int)
        wrong[first] = output[first] + 1
        return wrong


# --- cli ---------------------------------------------------------------------


# argv kinds per block of 100; refusals are no-solution solves, count overflow,
# the enumeration cap, malformed collections and infeasible extremal requests.
CLI_MIX = {
    "solve": 15,
    "solve_none": 5,
    "count": 12,
    "count_enumerate": 5,
    "count_overflow": 2,
    "count_cap": 2,
    "count_malformed": 4,
    "bound_arbitrary": 12,
    "bound_interval": 11,
    "bound_big": 2,
    "extremal": 9,
    "extremal_infeasible": 3,
    "tightness": 8,
    "runner": 10,
}


@dataclass(frozen=True)
class CliExpect:
    """What a correct crtcount run prints for one argv.

    ``record`` is the JSON record of a correct answer, or None for an error.
    With ``may_refuse`` an exit-2 refusal is accepted too. ``out_of_range``
    marks an answer that leaves 64 bits: the contract asks for exit 2, and
    exit 0 printing exactly ``record`` is the known defect.
    """

    code: int
    record: dict | None = None
    lines: tuple[str, ...] = ()
    may_refuse: bool = False
    out_of_range: bool = False


def _collection_text(desc: tuple) -> str:
    if desc[0] == "set":
        return "{" + ",".join(str(r) for r in desc[2]) + "}"
    return f"{desc[2]}+{desc[3]}"


def _random_collection(rng: random.Random, modulus: int) -> tuple:
    if rng.random() < 0.5:
        members = rng.sample(range(modulus), rng.randint(0, modulus))
        return ("set", modulus, tuple(members))
    return ("interval", modulus, rng.randrange(modulus), rng.randint(0, modulus))


def _as_oracle(desc: tuple) -> tuple:
    return ("set", desc[1], frozenset(desc[2])) if desc[0] == "set" else desc


def _cli_case(rng: random.Random, kind: str) -> tuple[list[str], dict]:
    """(argv without --json, parameters the oracle needs)."""
    if kind == "solve":
        pairs = [(0, rng.randint(2, 60)) for _ in range(rng.randint(2, 3))]
        x = rng.randrange(math.lcm(*(m for _, m in pairs)))
        pairs = [(x % m, m) for _, m in pairs]
        return ["solve"] + [f"{a}:{m}" for a, m in pairs], {"pairs": pairs}
    if kind == "solve_none":
        g = rng.randint(2, 10)
        m1, m2 = g * rng.randint(1, 6), g * rng.randint(1, 6)
        a1 = rng.randrange(m1)
        a2 = (a1 + rng.randint(1, g - 1)) % m2  # disagrees mod g, so mod gcd(m1, m2)
        return ["solve", f"{a1}:{m1}", f"{a2}:{m2}"], {"pairs": [(a1, m1), (a2, m2)]}
    if kind in ("count", "count_enumerate"):
        m, n = rng.randint(2, 60), rng.randint(2, 60)
        a, b = _random_collection(rng, m), _random_collection(rng, n)
        argv = ["count", str(m), str(n), _collection_text(a), _collection_text(b)]
        if kind == "count_enumerate":
            argv.append("--enumerate")
        return argv, {"a": a, "b": b}
    if kind == "count_overflow":
        m = rng.randint(2**62, 2**63 - 2)
        a, b = ("interval", m, 0, 1), ("set", m + 1, (0, 5))
        argv = ["count", str(m), str(m + 1), _collection_text(a), _collection_text(b)]
        return argv, {"a": a, "b": b}
    if kind == "count_cap":
        m = rng.randint(3163, 5000)  # m*(m+1) > 10**7
        a = ("set", m, tuple(rng.sample(range(m), rng.randint(1, 3))))
        b = ("interval", m + 1, rng.randrange(m + 1), rng.randint(1, 3))
        argv = ["count", str(m), str(m + 1), _collection_text(a), _collection_text(b)]
        return argv + ["--enumerate"], {"a": a, "b": b}
    if kind == "count_malformed":
        m = rng.randint(2, 60)
        bad = rng.choice(
            ["{1,x}", "{1,%d}" % (m + 1), "0+%d" % (m + rng.randint(1, 5)), "3-4", "{1,,2}"]
        )
        return ["count", str(m), "7", bad, "0+3"], {}
    if kind in ("bound_arbitrary", "bound_interval"):
        m, n = rng.randint(1, 60), rng.randint(1, 60)
        sizes = (rng.randint(0, m), rng.randint(0, n))
        mode = kind.split("_")[1]
        args = (m, n, *sizes)
        return ["bound", mode, *map(str, args)], {"mode": mode, "args": args}
    if kind == "bound_big":
        m = rng.randint(2**40, 2**41)
        args = (m, m + 1, rng.randint(m // 2, m), rng.randint((m + 1) // 2, m + 1))
        mode = rng.choice(["arbitrary", "interval"])
        return ["bound", mode, *map(str, args)], {"mode": mode, "args": args}
    if kind in ("extremal", "extremal_infeasible"):
        cap_a, cap_b, length = rng.randint(1, 12), rng.randint(1, 12), rng.randint(1, 20)
        size_a = rng.randint(0, cap_a * length)
        if kind == "extremal":
            size_b = rng.randint(0, cap_b * length)
        else:
            size_b = cap_b * length + rng.randint(1, cap_b)
        args = (size_a, cap_a, size_b, cap_b, length)
        return ["extremal", *map(str, args)], {"args": args}
    if kind == "tightness":
        scale = rng.randint(1, 20)
        return ["tightness", "--M", str(scale)], {"scale": scale}
    speeds = rng.sample(range(1, 13), 2)
    return ["runner", "--speeds", f"{speeds[0]},{speeds[1]}"], {"speeds": tuple(speeds)}


def _fraction_record(value: Fraction) -> dict:
    return {"numerator": value.numerator, "denominator": value.denominator}


def _count_expect(params: dict, enumerate_: bool) -> CliExpect:
    a, b = _as_oracle(params["a"]), _as_oracle(params["b"])
    span = oracles.solution_span(a[1], b[1])
    count = oracles.solution_count(a, b)
    record = {"status": "ok", "count": count, "modulus": span}
    lines = [f"count = {count}", f"modulus = {span}"]
    if not fits_int64(span):
        return CliExpect(2, record, tuple(lines), out_of_range=True)
    if enumerate_:
        if span <= 200_000:
            found = [x for x in range(span) if oracles.contains(a, x) and oracles.contains(b, x)]
        else:  # one CRT class per admissible pair; tiny collections only
            classes = (
                oracles.solve_scan([(r, a[1]), (s, b[1])])
                for r in sorted(a[2])
                for s in range(b[2], b[2] + b[3])
            )
            found = sorted(c[0] for c in classes if c is not None)
        record["solutions"] = found
        lines.append("solutions = " + " ".join(map(str, found)))
    return CliExpect(0, record, tuple(lines), may_refuse=span > oracles.ENUMERATION_CAP)


def _cli_expect(kind: str, params: dict) -> CliExpect:
    if kind in ("solve", "solve_none"):
        found = oracles.solve_scan(params["pairs"])
        if found is None:
            return CliExpect(1, {"status": "no-solution"}, ("no solution",))
        x, modulus = found
        return CliExpect(
            0, {"status": "ok", "residue": x, "modulus": modulus}, (f"x ≡ {x} (mod {modulus})",)
        )
    if kind == "count_malformed":
        return CliExpect(2)
    if kind.startswith("count"):
        return _count_expect(params, kind in ("count_enumerate", "count_cap"))
    if kind.startswith("bound"):
        return _bound_cli_expect(params["mode"], params["args"])
    if kind.startswith("extremal"):
        size_a, cap_a, size_b, cap_b, length = args = params["args"]
        result = oracles.extremal(*args)
        if result is None:
            return CliExpect(1)
        profile_a = oracles.profile_values(size_a, cap_a, length)
        profile_b = oracles.profile_values(size_b, cap_b, length)
        value, case = result
        record = {
            "status": "ok",
            "profile_a": profile_a,
            "profile_b": profile_b,
            "bound": value,
            "case": case,
        }
        lines = (
            "profile_a = " + " ".join(map(str, profile_a)),
            "profile_b = " + " ".join(map(str, profile_b)),
            f"bound = {value}",
            f"case = {case}",
        )
        return CliExpect(0, record, lines)
    if kind == "tightness":
        k = params["scale"]
        a, b = ("interval", 3 * k, 0, k), ("interval", 6 * k, k, 2 * k)
        count = oracles.solution_count(a, b)
        record = {
            "status": "ok",
            "m": 3 * k,
            "n": 6 * k,
            "interval_a": {"modulus": 3 * k, "start": 0, "length": k},
            "interval_b": {"modulus": 6 * k, "start": k, "length": 2 * k},
            "count": count,
        }
        lines = (
            f"m = {3 * k}",
            f"n = {6 * k}",
            f"A = 0+{k} (mod {3 * k})",
            f"B = {k}+{2 * k} (mod {6 * k})",
            f"count = {count}",
        )
        return CliExpect(0, record, lines)
    m, n = params["speeds"]
    time = oracles.earliest_distant_time(m, n)
    first, second = (oracles.circle_distance(v * time) for v in (m, n))
    record = {
        "status": "ok",
        "witness_numerator": time.numerator,
        "witness_denominator": time.denominator,
        "distances": [_fraction_record(first), _fraction_record(second)],
    }
    return CliExpect(0, record, (f"t = {time}, distances {first}, {second}",))


def _bound_cli_expect(mode: str, args: tuple) -> CliExpect:
    if mode == "arbitrary":
        value, case = oracles.arbitrary_floor(*args)
        record = {"status": "ok", "bound": value, "case": case}
        lines: tuple[str, ...] = (f"bound = {value}", f"case = {case}")
    else:
        small = max(args[:2]) <= 60
        value = (oracles.interval_floor_scan if small else oracles.interval_floor)(*args)
        record = {"status": "ok", "bound": value}
        lines = (f"bound = {value}",)
    if not fits_int64(value):
        return CliExpect(2, record, lines, out_of_range=True)
    return CliExpect(0, record, lines)


class CliWorkload:
    """Seeded argv lists over all six subcommands, run in-process by cli.run."""

    name = "cli"
    trace_ops = 200

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"cli:{seed}")
        self.specs = []
        for block in range(2):
            kinds = [
                (kind, (j + block) % 2 == 0)
                for kind, share in CLI_MIX.items()
                for j in range(share)
            ]
            rng.shuffle(kinds)
            for kind, as_json in kinds:
                argv, params = _cli_case(rng, kind)
                self.specs.append((kind, argv + ["--json"] * as_json, params))

    def queries(self, spec) -> int:
        return 1

    def prepare(self, spec):
        return spec[1]

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        except Exception as exc:
            return exc
        return code, out.getvalue(), err.getvalue()

    def expect(self, spec, inputs):
        return _cli_expect(spec[0], spec[2])

    def check(self, spec, inputs, output, expected) -> list[str]:
        if isinstance(output, Exception):
            return [_raised(output)]
        code, out, err = output
        as_json = "--json" in spec[1]
        argv = " ".join(spec[1])
        if code == 0 or (code == expected.code == 1 and expected.record is not None):
            if expected.record is None or not _printed(out, expected, as_json):
                return [f"crtcount {argv}: exit {code} printed {out!r}"]
            if err:
                return [f"crtcount {argv}: wrote {err!r} to stderr"]
            if code == expected.code:
                return []
            if expected.out_of_range:
                return [OUT_OF_RANGE]
            return [f"crtcount {argv}: exit {code}, expected {expected.code}"]
        refused = code == 2 and (expected.may_refuse or expected.out_of_range)
        if code != expected.code and not refused:
            return [f"crtcount {argv}: exit {code}, expected {expected.code}"]
        if out or not _error_line(err, as_json):
            return [f"crtcount {argv}: malformed refusal {out!r} {err!r}"]
        return []

    def corrupt(self, spec, output):
        code, out, err = output
        return code, out + "x\n", err


def _printed(out: str, expected: CliExpect, as_json: bool) -> bool:
    """Whether stdout is the expected record, or its README text lines."""
    if not as_json:
        return out == "".join(line + "\n" for line in expected.lines)
    if not out.endswith("\n") or out.count("\n") != 1:
        return False
    try:
        return json.loads(out) == expected.record
    except ValueError:
        return False


def _error_line(err: str, as_json: bool) -> bool:
    """Whether stderr is one error line: "error: ..." or a JSON error record."""
    if not err.endswith("\n") or err.count("\n") != 1:
        return False
    if not as_json:
        return err.startswith("error: ")
    try:
        record = json.loads(err)
    except ValueError:
        return False
    return (
        isinstance(record, dict)
        and set(record) == {"status", "message"}
        and record["status"] == "error"
        and isinstance(record["message"], str)
    )


WORKLOADS = {
    workload.name: workload
    for workload in (CliWorkload, RunnerWorkload, CountWorkload, BoundsWorkload)
}
