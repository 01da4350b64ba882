"""The package's public names, and the module attributes bound by name elsewhere."""

import importlib

import crtcount

PUBLIC = {
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
}

# The benchmark's traced run (perfbench/tracing.py) looks these up by module
# and name to wrap them, so deleting or renaming one breaks that run.
TRACED = (
    "congruence.solve",
    "runner.two_runner_witness",
    "runner.distant_interval",
    "residues.partition_counts",
    "residues.exact_count",
    "residues.enumerate_solutions",
    "bounds.bound_arbitrary",
    "bounds.bound_intervals",
    "bounds.extremal_sum",
    "bounds.density_guarantee",
    "bounds.extremal_profile",
    "cli.run",
    "cli.parse_collection",
)


def test_public_names():
    assert len(crtcount.__all__) == len(PUBLIC) == 33
    assert set(crtcount.__all__) == PUBLIC
    for name in crtcount.__all__:
        assert hasattr(crtcount, name), name


def test_traced_attributes_exist():
    for qualname in TRACED:
        module_name, attr = qualname.split(".")
        module = importlib.import_module(f"crtcount.{module_name}")
        assert callable(getattr(module, attr, None)), qualname
