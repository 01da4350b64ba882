"""Lower bounds on two-congruence solution counts.

The solution count is the dot product of the two collections' member counts
per residue class modulo g = gcd(m, n) (residues.partition_counts gives those
counts; residues.exact_count evaluates the product in closed form without
building them). Sorting both count vectors and pairing them in
opposite order can only shrink that product, and among sorted vectors with a
fixed sum and per-entry cap a step-shaped "extremal" vector is the worst
case. extremal_sum is the closed form of that extremal pairing, and
bound_arbitrary is the same closed form with caps m/g, n/g and length g: a
floor on the solution count that depends only on the collection sizes. For
cyclic intervals a sharper pigeonhole floor holds. Both floors are exposed
here together with the one-third density guarantee and the family of
instances sitting exactly on its boundary.
"""


import collections
import math

from . import residues
from .congruence import INT64_MAX, _checked_bound, _positive, _shown, _Value, checked_mul
from .residues import CyclicInterval, _within_cap, interval_block_pairs

__all__ = [
    "BoundResult",
    "CASE_BOUNDARY",
    "CASE_EMPTY",
    "CASE_OVERLAP",
    "ExtremalProfile",
    "InfeasibleError",
    "bound_arbitrary",
    "bound_intervals",
    "density_guarantee",
    "extremal_profile",
    "extremal_sum",
    "tightness_instance",
]

CASE_EMPTY = "empty"
CASE_BOUNDARY = "boundary"
CASE_OVERLAP = "overlap"


class InfeasibleError(ValueError):
    """No admissible sequence exists for the requested size, cap, and length."""


class ExtremalProfile(_Value):
    """The worst-case sorted count vector: zeros, one leftover entry, then caps."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        object.__setattr__(self, "values", values)


def _check_profile(size: int, cap: int, length: int) -> None:
    """Refuse a size, cap and length that admit no sorted profile.

    extremal_profile and extremal_sum test the passing case as one chained
    comparison and call this only when it fails, so its refusals keep this
    one owner and their order.
    """
    _positive(cap, "cap")
    _positive(length, "length")
    if size < 0:
        raise ValueError(f"size must be non-negative, got {_shown(size)}")
    if size > cap * length:
        raise InfeasibleError(f"size {_shown(size)} exceeds cap*length = {_shown(cap * length)}")


def extremal_profile(size: int, cap: int, length: int) -> ExtremalProfile:
    """Non-decreasing sequence of the given length and sum, entries in [0, cap],
    minimizing the reversed dot product against any rival admissible sequence.

    With filled, leftover = divmod(size, cap), the sequence is three runs:
    length - filled - 1 zeros, one leftover entry, then filled caps. When
    filled == length every entry is a cap (the leftover is then 0 and has no
    slot). Before building anything, raises EnumerationCapError when length
    exceeds ENUMERATION_CAP, else OverflowLimitError when cap leaves 64 bits.
    """
    if not (cap >= 1 and length >= 1 and 0 <= size <= cap * length
            and length <= residues.ENUMERATION_CAP and cap <= INT64_MAX):
        _check_profile(size, cap, length)  # one of the three raises
        _within_cap(length, "profile length {}", length)
        _checked_bound(cap, "cap")
    filled, leftover = divmod(size, cap)
    zeros = length - filled - 1
    return ExtremalProfile(values=(0,) * zeros + (leftover,) * (zeros >= 0) + (cap,) * filled)


BoundResult = collections.namedtuple("BoundResult", ("lower_bound", "case_tag"))
BoundResult.__doc__ = "A proven floor on the solution count, tagged by which case produced it."
_new = tuple.__new__  # builds a BoundResult without its generated __new__


def extremal_sum(
    size_a: int, cap_a: int, size_b: int, cap_b: int, length: int
) -> BoundResult:
    """Closed form of the reversed dot product of the two extremal profiles.

    Writing filled_x = size_x // cap_x and leftover_x = size_x % cap_x, the
    reversed pairing of the two step sequences has
    span = filled_a + filled_b + 1 potentially nonzero positions:

      span < length: the nonzero tails miss each other entirely -> 0.
      span == length: they meet in the single term leftover_a * leftover_b.
      span > length: a run of span - length - 1 full products cap_a * cap_b
        plus the two edge terms leftover_a * cap_b and leftover_b * cap_a.

    The tag records which case fired ("empty", "boundary", "overlap").
    Each side is validated exactly as extremal_profile validates it, side a
    first. Raises OverflowLimitError when the sum leaves the 64-bit range.
    """
    if not (cap_a >= 1 and cap_b >= 1 and length >= 1
            and 0 <= size_a <= cap_a * length and 0 <= size_b <= cap_b * length):
        _check_profile(size_a, cap_a, length)  # one of the two raises
        _check_profile(size_b, cap_b, length)
    return _pairing_floor(size_a, cap_a, size_b, cap_b, length)


def _pairing_floor(
    size_a: int, cap_a: int, size_b: int, cap_b: int, length: int
) -> BoundResult:
    """extremal_sum's closed form, called by extremal_sum and bound_arbitrary
    once their guards have passed, so its arguments are already validated.
    The leftovers are worked out only past the empty case."""
    filled_a = size_a // cap_a
    filled_b = size_b // cap_b
    span = filled_a + filled_b + 1
    if span < length:
        return _new(BoundResult, (0, CASE_EMPTY))
    leftover_a = size_a - filled_a * cap_a
    leftover_b = size_b - filled_b * cap_b
    if span == length:
        value, tag = leftover_a * leftover_b, CASE_BOUNDARY
    else:
        value = (
            (span - length - 1) * cap_a * cap_b
            + leftover_a * cap_b
            + leftover_b * cap_a
        )
        tag = CASE_OVERLAP
    if value > INT64_MAX:
        _checked_bound(value)
    return _new(BoundResult, (value, tag))


def _check_sizes(m: int, n: int, size_a: int, size_b: int) -> None:
    """Refuse non-positive moduli and sizes outside [0, modulus].

    Callers test the passing case as one chained comparison and call this
    only when it fails, so each message has this one owner.
    """
    if m < 1 or n < 1:
        raise ValueError(f"moduli must be positive, got ({_shown(m)}, {_shown(n)})")
    if not 0 <= size_a <= m:
        raise ValueError(f"size {_shown(size_a)} out of range [0, {_shown(m)}]")
    if not 0 <= size_b <= n:
        raise ValueError(f"size {_shown(size_b)} out of range [0, {_shown(n)}]")


def bound_arbitrary(m: int, n: int, size_a: int, size_b: int) -> BoundResult:
    """Floor on the solution count for arbitrary collections of the given sizes.

    With g = gcd(m, n), each collection puts at most modulus/g members in
    each of the g classes mod g, so the floor is the extremal pairing
    extremal_sum(size_a, m // g, size_b, n // g, g), and no pair of
    collections of these sizes has fewer solutions. Raises OverflowLimitError
    when the floor leaves the 64-bit range.
    """
    if not (m >= 1 and n >= 1 and 0 <= size_a <= m and 0 <= size_b <= n):
        _check_sizes(m, n, size_a, size_b)
    g = math.gcd(m, n)
    return _pairing_floor(size_a, m // g, size_b, n // g, g)


def bound_intervals(m: int, n: int, size_a: int, size_b: int) -> int:
    """Floor on the solution count when both collections are single cyclic intervals.

    Both sizes decompose by g = gcd(m, n). Each full block of g consecutive
    classes covers every class modulo g once, so full blocks pair off exactly
    (residues.interval_block_pairs, shared with exact_count); the two leftover
    arcs of lengths rem_a, rem_b < g must still meet in at least
    rem_a + rem_b - g classes modulo g when that is positive, and do meet in
    exactly that many at the worst relative shift. Raises OverflowLimitError
    when the floor leaves the 64-bit range.
    """
    if not (m >= 1 and n >= 1 and 0 <= size_a <= m and 0 <= size_b <= n):
        _check_sizes(m, n, size_a, size_b)
    g = math.gcd(m, n)
    blocks, rem_a, rem_b = interval_block_pairs(size_a, size_b, g)
    extra = rem_a + rem_b - g
    value = blocks + extra if extra > 0 else blocks
    if value > INT64_MAX:
        _checked_bound(value)
    return value


def density_guarantee(m: int, n: int, size_a: int, size_b: int) -> bool:
    """Whether interval collections of these sizes are forced to share a solution.

    True iff the moduli are distinct and both sizes are strictly greater than
    one third of their modulus (exact integer comparisons). It refuses sizes
    outside [0, modulus] as bound_intervals does, so whenever it returns True,
    bound_intervals(m, n, size_a, size_b) >= 1.
    """
    if not (m >= 1 and n >= 1 and 0 <= size_a <= m and 0 <= size_b <= n):
        _check_sizes(m, n, size_a, size_b)
    return m != n and 3 * size_a > m and 3 * size_b > n


def tightness_instance(scale: int) -> tuple[CyclicInterval, CyclicInterval]:
    """Interval pair with densities exactly one third and no common solution.

    The moduli 3*scale and 6*scale share gcd 3*scale; the first interval
    covers residues 0..scale-1 and the second scale..3*scale-1, so no pair of
    members agrees modulo the gcd. Raising either density strictly above one
    third would force a solution, so these instances pin the guarantee's
    constant.
    """
    _positive(scale, "scale")
    larger = checked_mul(6, scale)  # the larger modulus, also the lcm
    first = CyclicInterval(modulus=3 * scale, start=0, length=scale)
    second = CyclicInterval(modulus=larger, start=scale, length=2 * scale)
    return first, second
