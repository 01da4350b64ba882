"""Collections of residue classes and the exact two-modulus solution count."""


import math
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, repeat

from .congruence import SolutionClass, _lift, _positive, _shown, _solution_classes, _Value
from .congruence import checked_mul

# Defined here but outside the API: the oracle partition_counts.
__all__ = [
    "ENUMERATION_CAP",
    "CyclicInterval",
    "EnumerationCapError",
    "ResidueCollection",
    "ResidueSet",
    "enumerate_solutions",
    "exact_count",
]

ENUMERATION_CAP = 10_000_000


class EnumerationCapError(ValueError):
    """Refused: an enumeration's lcm(m, n), a profile's length, an interval's
    members() length, or a partition's divisor or collection size exceeds
    ENUMERATION_CAP."""


def _within_cap(value: int, what: str, *args: int) -> None:
    """Refuse a value above ENUMERATION_CAP, read at call time, as
    "<what.format(*args)> exceeds the enumeration cap <cap>"."""
    if value > ENUMERATION_CAP:
        shown = what.format(*map(_shown, args))
        cap = _shown(ENUMERATION_CAP)
        raise EnumerationCapError(f"{shown} exceeds the enumeration cap {cap}")


class ResidueSet(_Value):
    """An arbitrary set of residue classes modulo a fixed modulus.

    Members are stored strictly sorted; duplicates and out-of-range residues
    are rejected rather than silently normalized.
    """

    __slots__ = ("modulus", "members")

    def __init__(self, modulus: int, members: Iterable[int]) -> None:
        _positive(modulus, "modulus")
        ordered = tuple(sorted(members))
        for residue in ordered:
            if not 0 <= residue < modulus:
                raise ValueError(
                    f"residue {_shown(residue)} out of range [0, {_shown(modulus)})"
                )
        if any(low == high for low, high in zip(ordered, ordered[1:])):
            raise ValueError("duplicate residues in collection")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "members", ordered)

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, residue: int) -> bool:
        members = self.members
        index = bisect_left(members, residue)
        return index < len(members) and members[index] == residue

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


class CyclicInterval(_Value):
    """A contiguous arc of residue classes modulo a modulus, wrapping past the top.

    length == 0 is the empty collection and length == modulus the full residue
    system. The start is normalized into [0, modulus).
    """

    __slots__ = ("modulus", "start", "length")

    def __init__(self, modulus: int, start: int, length: int) -> None:
        _positive(modulus, "modulus")
        if not 0 <= length <= modulus:
            raise ValueError(f"length {_shown(length)} out of range [0, {_shown(modulus)}]")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "start", start % modulus)
        object.__setattr__(self, "length", length)

    @property
    def size(self) -> int:
        return self.length

    def members(self) -> tuple[int, ...]:
        """Every member in arc order. Raises EnumerationCapError, before building
        anything, when the length exceeds ENUMERATION_CAP, read at call time;
        iter() stays lazy and uncapped, yielding each member as it is asked for."""
        _within_cap(self.length, "interval of {} members", self.length)
        return tuple(self)

    def __contains__(self, residue: int) -> bool:
        return (residue - self.start) % self.modulus < self.length

    def __iter__(self) -> Iterator[int]:
        # the arc up to the top of the range, then its wrapped part from 0
        end = self.start + self.length
        return chain(range(self.start, min(end, self.modulus)), range(end - self.modulus))


ResidueCollection = ResidueSet | CyclicInterval


def partition_counts(collection: ResidueCollection, divisor: int) -> tuple[int, ...]:
    """Count the collection's members in each residue class modulo the divisor.

    The divisor must divide the collection's modulus, so each class modulo the
    divisor holds at most modulus/divisor members. Raises EnumerationCapError,
    before building anything, when the divisor or the collection's size
    exceeds ENUMERATION_CAP, read at call time.
    """
    _positive(divisor, "divisor")
    if collection.modulus % divisor:
        raise ValueError(
            f"divisor {_shown(divisor)} does not divide modulus {_shown(collection.modulus)}"
        )
    size = collection.size
    _within_cap(max(divisor, size), "partition of {} members into {} classes", size, divisor)
    counts = [0] * divisor
    for member in collection:
        counts[member % divisor] += 1
    return tuple(counts)


def interval_block_pairs(size_a: int, size_b: int, g: int) -> tuple[int, int, int]:
    """Pairs agreeing mod g between two cyclic intervals, outside their leftover arcs.

    An interval of size q*g + r covers every class mod g q times, plus once more
    on a leftover arc of r < g consecutive classes beginning at its start mod g.
    The q-fold covers pair off exactly, giving qa*qb*g + qa*rb + qb*ra pairs;
    returns that number with the two leftover lengths (ra, rb). The rest of
    the count is the overlap of the two leftover arcs, which lies between
    max(0, ra + rb - g) and min(ra, rb) depending on their relative shift.
    """
    quot_a, rem_a = divmod(size_a, g)
    quot_b, rem_b = divmod(size_b, g)
    return quot_a * quot_b * g + quot_a * rem_b + quot_b * rem_a, rem_a, rem_b


def _arc_overlap(start_a: int, len_a: int, start_b: int, len_b: int, g: int) -> int:
    """Classes shared by two arcs of lengths below g on Z_g (starts taken mod g)."""
    # Rotate so arc a is [0, len_a); arc b is [shift, shift + len_b), and its
    # part past the top of Z_g is [0, shift + len_b - g).
    shift = (start_b - start_a) % g
    end_b = shift + len_b
    return max(0, min(len_a, end_b) - shift) + max(0, min(len_a, end_b - g))


def _set_interval_count(explicit: ResidueSet, arc: CyclicInterval, g: int) -> int:
    turns, extra = divmod(arc.length, g)
    total = explicit.size * turns
    if extra:
        start = arc.start
        total += len([r for r in explicit.members if (r - start) % g < extra])
    return total


def exact_count(a: ResidueCollection, b: ResidueCollection) -> int:
    """Exact number of residue classes modulo lcm(m, n) hit by some admissible pair.

    A pair (α, β) with α in a, β in b yields a common solution of
    x ≡ α (mod m), x ≡ β (mod n) exactly when α ≡ β (mod g), g = gcd(m, n), and
    each such pair contributes one distinct class modulo m*n/g. The pairs are
    counted in closed form, never by walking an interval:

      interval × interval: interval_block_pairs plus the overlap of the two
        leftover arcs on Z_g, O(1).
      set × interval (either order): |set|*qb plus the set members whose class
        mod g lies on the interval's leftover arc, O(|set|).
      set × set: tally one set by class mod g, look up the other, O(|a| + |b|).
    """
    g = math.gcd(a.modulus, b.modulus)
    checked_mul(a.modulus // g, b.modulus)  # the solution modulus must stay representable
    if isinstance(a, CyclicInterval) and isinstance(b, CyclicInterval):
        blocks, rem_a, rem_b = interval_block_pairs(a.length, b.length, g)
        return blocks + _arc_overlap(a.start, rem_a, b.start, rem_b, g)
    if isinstance(b, CyclicInterval):
        return _set_interval_count(a, b, g)
    if isinstance(a, CyclicInterval):
        return _set_interval_count(b, a, g)
    tally = Counter([r % g for r in a.members])
    return sum(map(tally.get, [r % g for r in b.members], repeat(0)))


def _members_by_class(
    collection: ResidueCollection, g: int
) -> Callable[[int], Iterable[int]]:
    """Lookup from a class c mod g to the collection's members in that class.

    A set is bucketed once, in O(|set|). An interval needs no buckets: its
    members in class c are start + i for i ≡ c - start (mod g), returned in
    O(1) as a range, so those past the top are not reduced mod the modulus.
    """
    if isinstance(collection, CyclicInterval):
        start = collection.start
        end = start + collection.length
        return lambda c: range(start + (c - start) % g, end, g)
    buckets: dict[int, list[int]] = {}
    for member in collection.members:
        buckets.setdefault(member % g, []).append(member)
    return lambda c: buckets.get(c, ())


def _members_between(
    collection: ResidueCollection,
) -> Callable[[int, int, int], Iterable[int]]:
    """Lookup from (base, low, high), 0 <= low <= high <= modulus, to base + each
    member in [low, high), increasing: a slice of a set's sorted members found
    by two bisections, or for an interval the parts of its wrapped piece
    [0, end - modulus) and its main piece [start, end) in [low, high)."""
    if isinstance(collection, CyclicInterval):
        start = collection.start
        end = start + collection.length
        wrapped = end - collection.modulus
        return lambda base, low, high: chain(
            range(base + low, base + min(high, wrapped)),
            range(base + max(low, start), base + min(high, end)),
        )
    members = collection.members
    return lambda base, low, high: [
        base + r for r in members[bisect_left(members, low) : bisect_left(members, high)]
    ]


def _window_solutions(arc: CyclicInterval, other: ResidueCollection, span: int) -> list[int]:
    """The solutions in [0, span) of x mod m in arc and x mod n in other, increasing.

    They lie in the windows [start + j*m, start + j*m + length) clipped to
    [0, span), j from -1 (reached only when the arc wraps past m) to span/m - 1.
    Each window is read one period of n at a time through _members_between.
    """
    m, n, length = arc.modulus, other.modulus, arc.length
    between = _members_between(other)
    found: list[int] = []
    for first in range(arc.start - m if arc.start + length > m else arc.start, span, m):
        low, high = max(first, 0), min(first + length, span)
        base = low - low % n
        low -= base
        while base < high:
            found += between(base, low, min(high - base, n))
            base += n
            low = 0
    return found


def _solutions(a: ResidueCollection, b: ResidueCollection) -> tuple[list[int], int]:
    """Sorted residues of every common solution class, and their modulus lcm(m, n).

    Raises EnumerationCapError when lcm(m, n) exceeds ENUMERATION_CAP, read at
    call time, before anything is built. Two kernels, chosen by cost:

      window: when a side is an interval (of two intervals, the one with the
        larger modulus, which has fewer windows) and lcm/its modulus is at
        most the other side's size, _window_solutions lists the solutions
        already in order, one addition each. Cost O(|other| log |other| + s)
        for s solutions.
      pair: otherwise, let a be the smaller collection (a swap turns k into
        1 - k). Each member α of a meets the members β of b in its class mod
        g = gcd(m, n), and each pair lifts to (α + k*(β - α)) % lcm, k from
        _lift, also for β past the top of b's range. Cost O(min(|a|, |b|) +
        s log s), plus O(|b|) to bucket a set b.

    Neither scans [0, lcm).
    """
    g, k = _lift(a.modulus, b.modulus)
    span = checked_mul(a.modulus // g, b.modulus)
    _within_cap(span, "scan range {}", span)
    arc, other = (a, b) if a.modulus >= b.modulus else (b, a)
    if not isinstance(arc, CyclicInterval):
        arc, other = other, arc
    if isinstance(arc, CyclicInterval) and span // arc.modulus <= other.size:
        return _window_solutions(arc, other, span), span
    if a.size > b.size:
        a, b, k = b, a, 1 - k
    partners = _members_by_class(b, g)
    found = [(alpha + k * (beta - alpha)) % span for alpha in a for beta in partners(alpha % g)]
    found.sort()
    return found, span


def enumerate_solutions(a: ResidueCollection, b: ResidueCollection) -> list[SolutionClass]:
    """Every common solution class modulo lcm(m, n), in increasing order: the
    residues of _solutions, read off an interval's windows or lifted from
    agreeing pairs α ≡ β (mod g), already reduced into [0, lcm), so the
    classes skip SolutionClass's range checks."""
    return _solution_classes(*_solutions(a, b))
