"""Exact integer primitives and the classical k-congruence solver."""


import math
from collections.abc import Iterable
from itertools import repeat

__all__ = [
    "INT64_MAX",
    "CongruenceSystem",
    "OverflowLimitError",
    "SolutionClass",
    "solve",
]

INT64_MAX = 2**63 - 1


class OverflowLimitError(OverflowError):
    """A product left the signed 64-bit range this library keeps exact."""


def _shown(n) -> str:
    """str(n) for a message. Past Python's int-to-str digit limit an integer
    shows as its bit length, and a Fraction term by term."""
    try:
        return str(n)
    except ValueError:
        if n.denominator != 1:
            return f"{_shown(n.numerator)}/{_shown(n.denominator)}"
        return f"a {n.numerator.bit_length()}-bit integer"


def _checked_mul(a: int, b: int) -> int:
    """Return a*b, raising OverflowLimitError outside the signed 64-bit range."""
    product = a * b
    if not -INT64_MAX - 1 <= product <= INT64_MAX:
        raise OverflowLimitError(
            f"product {_shown(a)} * {_shown(b)} exceeds the 64-bit integer range"
        )
    return product


def _refuse_bound(value: int, what: str = "bound") -> None:
    """Refuse a value its caller has found past INT64_MAX, as
    "<what> <value> exceeds the 64-bit integer range"."""
    raise OverflowLimitError(f"{what} {_shown(value)} exceeds the 64-bit integer range")


def _positive(value: int, what: str) -> None:
    """Refuse value < 1 as "<what> must be positive, got <value>"."""
    if value < 1:
        raise ValueError(f"{what} must be positive, got {_shown(value)}")


class _Value:
    """Base of the immutable value types: fields are the __slots__ in
    constructor order, set once in __init__ by object.__setattr__. Equal within
    one class only, hashed and shown by field, pickled and copied by calling
    the constructor again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class CongruenceSystem(_Value):
    """Ordered congruences x ≡ residue (mod modulus) as (residue, modulus) pairs,
    each residue normalized into [0, modulus) so equal systems compare equal."""

    __slots__ = ("congruences",)

    def __init__(self, pairs: Iterable[tuple[int, int]]) -> None:
        items = []
        for residue, modulus in pairs:
            _positive(modulus, "modulus")
            items.append((residue % modulus, modulus))
        object.__setattr__(self, "congruences", tuple(items))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "CongruenceSystem":
        """Build a system from (residue, modulus) pairs."""
        return cls(pairs)


class SolutionClass(_Value):
    """The residue class x ≡ residue (mod modulus) solving a whole system."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int) -> None:
        _positive(modulus, "modulus")
        if not 0 <= residue < modulus:
            raise ValueError(f"residue {_shown(residue)} out of range [0, {_shown(modulus)})")
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "modulus", modulus)


def _solution_classes(residues: list[int], modulus: int) -> list[SolutionClass]:
    """[SolutionClass(r, modulus) for r in residues], without __init__'s checks.

    Requires modulus >= 1 and 0 <= r < modulus for every r; the caller
    guarantees both. Objects are made bare and filled by the slots' own
    setters, so they equal, hash, pickle and refuse assignment like
    constructed ones, at well under half the cost per object.
    """
    classes = list(map(object.__new__, repeat(SolutionClass, len(residues))))
    # Each setter returns None, so any() runs every one of them.
    any(map(SolutionClass.residue.__set__, classes, residues))
    any(map(SolutionClass.modulus.__set__, classes, repeat(modulus)))
    return classes


def _lift(m: int, n: int) -> tuple[int, int]:
    """(g, k) with g = gcd(m, n), k ≡ 0 (mod m/g) and k ≡ 1 (mod n/g): for α ≡ β (mod g),
    α + k*(β - α) is the one class mod lcm(m, n) that is ≡ α (mod m) and ≡ β (mod n)."""
    g = math.gcd(m, n)
    return g, m // g * pow(m // g, -1, n // g)


def solve(system: CongruenceSystem) -> SolutionClass | None:
    """Solve a congruence system by iterated pairwise merging.

    Starts from x ≡ 0 (mod 1), which every integer satisfies, so the empty
    system solves to SolutionClass(0, 1). Returns the unique solution class
    modulo the lcm of all moduli, or None when some pair of congruences
    disagrees modulo the gcd of its moduli. Raises OverflowLimitError if the
    lcm, or any modulus on its own, leaves the 64-bit range. Each merge with
    x ≡ target (mod m2) is (residue + k*(target - residue)) % lcm, k from _lift.
    """
    residue, modulus = 0, 1
    for target, m2 in system.congruences:
        g, k = _lift(modulus, m2)
        if (target - residue) % g:
            return None
        lcm = _checked_mul(modulus, m2 // g)
        residue, modulus = (residue + k * (target - residue)) % lcm, lcm
    return SolutionClass(residue, modulus)
