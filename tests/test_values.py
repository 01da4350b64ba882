"""Value semantics of the package's record types: immutable, equal and hashed
by field within one class, printable, picklable and copyable."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import crtcount
from crtcount.bounds import ExtremalProfile, extremal_profile
from crtcount.congruence import CongruenceSystem, SolutionClass, _Value, solve
from crtcount.residues import CyclicInterval, ResidueSet
from crtcount.runner import DistantWitness, RunnerPair, two_runner_witness

# One factory per value type, called inside each test row, so a fault in one
# constructor (a wrong runner answer, say) fails only that type's rows.
FACTORIES = {
    CongruenceSystem: lambda: CongruenceSystem.from_pairs([(2, 3), (3, 5)]),
    SolutionClass: lambda: SolutionClass(8, 15),
    ResidueSet: lambda: ResidueSet(4, (2, 0, 1)),
    CyclicInterval: lambda: CyclicInterval(modulus=5, start=9, length=3),
    ExtremalProfile: lambda: extremal_profile(5, 2, 4),
    RunnerPair: lambda: RunnerPair(3, 2),
    DistantWitness: lambda: two_runner_witness(RunnerPair(1, 2)),
}
each_type = pytest.mark.parametrize("kind", FACTORIES, ids=lambda kind: kind.__name__)


def make(kind):
    value = FACTORIES[kind]()
    assert type(value) is kind
    return value


def test_instances_cover_every_value_type():
    assert set(FACTORIES) == set(_Value.__subclasses__())


@each_type
def test_pickle_and_copy_round_trips(kind):
    value = make(kind)
    for twin in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert repr(twin) == repr(value)
        if isinstance(value, ResidueSet):
            assert 1 in twin and 3 not in twin


@each_type
def test_fields_cannot_be_assigned_or_deleted(kind):
    value = make(kind)
    field = kind.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_equality_stays_within_one_class():
    assert RunnerPair(8, 15) != SolutionClass(8, 15)
    assert SolutionClass(8, 15) != RunnerPair(8, 15)
    assert SolutionClass(8, 15) != (8, 15)
    first, second = (CongruenceSystem.from_pairs([(r, 15)]) for r in (23, 8))
    assert first == second
    assert hash(first) == hash(second)


def test_residue_set_compares_by_sorted_members():
    first, second = ResidueSet(4, (2, 0, 1)), ResidueSet(4, (0, 1, 2))
    assert first == second
    assert hash(first) == hash(second)
    assert first != ResidueSet(4, (0, 1, 3))
    assert len({first, second}) == 1


def test_readme_reprs():
    found = solve(CongruenceSystem.from_pairs([(2, 3), (3, 5)]))
    assert repr(found) == "SolutionClass(residue=8, modulus=15)"
    witness = two_runner_witness(RunnerPair(1, 2))
    assert repr(witness) == (
        "DistantWitness(time=Fraction(1, 3), distances=(Fraction(1, 3), Fraction(1, 3)))"
    )
    assert repr(ResidueSet(4, (2, 0))) == "ResidueSet(modulus=4, members=(0, 2))"


def test_cli_import_loads_no_dataclass_machinery():
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); "
        "import crtcount.cli; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    src = Path(crtcount.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    added = set(proc.stdout.split())
    assert "crtcount.cli" in added
    assert not added & {"dataclasses", "inspect"}
