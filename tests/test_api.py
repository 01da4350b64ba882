"""The package's public names, and the module attributes bound by name elsewhere."""

import importlib
import importlib.util
from pathlib import Path

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

def test_public_names():
    assert len(crtcount.__all__) == len(PUBLIC) == 33
    assert set(crtcount.__all__) == PUBLIC
    for name in crtcount.__all__:
        assert hasattr(crtcount, name), name


def test_traced_attributes_exist(monkeypatch):
    # The benchmark's traced run (perfbench/tracing.py) looks these up by module
    # and name to wrap them, so deleting or renaming one breaks that run.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # tracing imports oracles
    spec = importlib.util.spec_from_file_location("tracing", perfbench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.TRACED) == 13
    for qualname in tracing.TRACED:
        module_name, attr = qualname.split(".")
        module = importlib.import_module(f"crtcount.{module_name}")
        assert callable(getattr(module, attr, None)), qualname
