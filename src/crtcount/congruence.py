"""Exact integer primitives and the classical k-congruence solver."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

INT64_MAX = 2**63 - 1


class OverflowLimitError(OverflowError):
    """A product left the signed 64-bit range this library keeps exact."""


def checked_mul(a: int, b: int) -> int:
    """Return a*b, raising OverflowLimitError outside the signed 64-bit range."""
    product = a * b
    if not -INT64_MAX - 1 <= product <= INT64_MAX:
        raise OverflowLimitError(f"product {a} * {b} exceeds the 64-bit integer range")
    return product


@dataclass(frozen=True)
class Congruence:
    """A single equation x ≡ residue (mod modulus).

    The residue is normalized into [0, modulus) at construction, so equal
    classes compare and hash equal regardless of the representative given.
    """

    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        object.__setattr__(self, "residue", self.residue % self.modulus)


@dataclass(frozen=True)
class CongruenceSystem:
    """An ordered, non-empty list of simultaneous congruences."""

    congruences: tuple[Congruence, ...]

    def __post_init__(self) -> None:
        items = tuple(self.congruences)
        if not items:
            raise ValueError("a congruence system needs at least one congruence")
        object.__setattr__(self, "congruences", items)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "CongruenceSystem":
        """Build a system from (residue, modulus) pairs."""
        return cls(tuple(Congruence(residue, modulus) for residue, modulus in pairs))


@dataclass(frozen=True)
class SolutionClass:
    """The residue class x ≡ residue (mod modulus) solving a whole system."""

    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(f"residue {self.residue} out of range [0, {self.modulus})")


def solve(system: CongruenceSystem) -> SolutionClass | None:
    """Solve a congruence system by iterated pairwise merging.

    Returns the unique solution class modulo the lcm of all moduli, or None
    when some pair of congruences disagrees modulo the gcd of its moduli.
    Raises OverflowLimitError if the lcm leaves the 64-bit range.
    """
    head, *rest = system.congruences
    residue, modulus = head.residue, head.modulus
    for congruence in rest:
        merged = _merge(residue, modulus, congruence.residue, congruence.modulus)
        if merged is None:
            return None
        residue, modulus = merged
    return SolutionClass(residue, modulus)


def _merge(a1: int, m1: int, a2: int, m2: int) -> tuple[int, int] | None:
    """Combine x ≡ a1 (mod m1) and x ≡ a2 (mod m2) into one congruence, if possible."""
    g = math.gcd(m1, m2)
    if (a2 - a1) % g:
        return None
    step = m2 // g
    combined = checked_mul(m1, step)
    # coeff * (m1 // g) ≡ 1 (mod step), so this t solves a1 + m1*t ≡ a2 (mod m2).
    # When step == 1, pow returns 0 and t == 0, which is right.
    coeff = pow(m1 // g, -1, step)
    t = (a2 - a1) // g * coeff % step
    return (a1 + m1 * t) % combined, combined
