"""Exact arithmetic for simultaneous congruences over residue-class collections.

The package solves systems of congruences, counts the common solutions of two
residue-class collections exactly, proves size-only lower bounds on that
count (including the one-third density guarantee and its tight examples), and
produces exact rational witness times keeping two runners on the unit circle
far from a stationary observer.
"""

from .bounds import (
    CASE_BOUNDARY,
    CASE_EMPTY,
    CASE_OVERLAP,
    BoundResult,
    ExtremalProfile,
    InfeasibleError,
    bound_arbitrary,
    bound_intervals,
    density_guarantee,
    extremal_profile,
    extremal_sum,
    rearrangement_bounds,
    tightness_instance,
)
from .congruence import (
    INT64_MAX,
    CongruenceSystem,
    OverflowLimitError,
    SolutionClass,
    checked_mul,
    solve,
)
from .residues import (
    ENUMERATION_CAP,
    CyclicInterval,
    EnumerationCapError,
    ResidueCollection,
    ResidueSet,
    enumerate_solutions,
    exact_count,
    partition_counts,
)
from .runner import (
    DISTANT_THRESHOLD,
    DistantWitness,
    RunnerPair,
    circle_distance,
    distant_interval,
    two_runner_witness,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CASE_BOUNDARY",
    "CASE_EMPTY",
    "CASE_OVERLAP",
    "CongruenceSystem",
    "CyclicInterval",
    "DISTANT_THRESHOLD",
    "DistantWitness",
    "ENUMERATION_CAP",
    "EnumerationCapError",
    "ExtremalProfile",
    "INT64_MAX",
    "InfeasibleError",
    "OverflowLimitError",
    "ResidueCollection",
    "ResidueSet",
    "RunnerPair",
    "SolutionClass",
    "bound_arbitrary",
    "bound_intervals",
    "checked_mul",
    "circle_distance",
    "density_guarantee",
    "distant_interval",
    "enumerate_solutions",
    "exact_count",
    "extremal_profile",
    "extremal_sum",
    "partition_counts",
    "rearrangement_bounds",
    "solve",
    "tightness_instance",
    "two_runner_witness",
]
