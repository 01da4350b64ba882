"""The package's public names, and the module attributes bound by name elsewhere."""

import ast
import importlib
import importlib.util
import inspect
import pickle
import re
import subprocess
import sys
import typing
from pathlib import Path

import crtcount
from crtcount import bounds, cli, congruence, residues, runner

PUBLIC = {
    "BoundResult",
    "CongruenceSystem",
    "CyclicInterval",
    "ENUMERATION_CAP",
    "EnumerationCapError",
    "ExtremalProfile",
    "INT64_MAX",
    "InfeasibleError",
    "OverflowLimitError",
    "ResidueSet",
    "SolutionClass",
    "bound_arbitrary",
    "bound_intervals",
    "density_guarantee",
    "enumerate_solutions",
    "exact_count",
    "extremal_profile",
    "extremal_sum",
    "solve",
    "tightness_instance",
}

# Names listed by crtcount.runner, a submodule the package root does not import.
RUNNER = {"DistantWitness", "RunnerPair", "two_runner_witness"}

MODULES = (bounds, congruence, residues)
API = [name for module in MODULES for name in module.__all__]  # __all__'s order

# Oracles left in their modules, outside the API, because the benchmark's traced
# run (perfbench/tracing.py) binds them by name; they move to tests/brute_force.py
# once it stops.
ORACLES = {
    residues: ("partition_counts",),
    runner: ("distant_interval",),
}

# Oracles that live in tests/brute_force.py alone.
MOVED = {
    bounds: ("rearrangement_bounds",),
    runner: ("DISTANT_THRESHOLD", "circle_distance"),
}


def test_public_names():
    assert len(crtcount.__all__) == len(PUBLIC) == 20
    assert set(crtcount.__all__) == PUBLIC
    for name in crtcount.__all__:
        assert hasattr(crtcount, name), name
    assert len(runner.__all__) == len(RUNNER) == 3
    assert set(runner.__all__) == RUNNER
    for name in runner.__all__:
        assert hasattr(runner, name) and not hasattr(crtcount, name), name


def test_readme_counts_the_public_names():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text().split())
    sentence = r"The API is `crtcount\.__all__`, (\d+) names, plus the runner's (\w+) in"
    stated = re.search(sentence, text)
    assert stated, "README no longer states the size of the API"
    assert int(stated[1]) == len(crtcount.__all__)
    assert stated[2] == "three" and len(runner.__all__) == 3


def test_each_public_name_is_listed_once_in_its_own_module():
    assert crtcount.__all__ == API
    listed = API + runner.__all__
    assert len(set(listed)) == len(listed)
    owners = {module: crtcount for module in MODULES} | {runner: crtcount.runner}
    for module, owner in owners.items():
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(owner, name) is value, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name


def test_oracles_stay_in_their_modules_outside_the_api():
    for module, names in ORACLES.items():
        for name in names:
            assert hasattr(module, name), name
            assert name not in crtcount.__all__ and not hasattr(crtcount, name), name


def test_moved_oracles_stay_out_of_the_library():
    for module, names in MOVED.items():
        for name in names:
            assert not hasattr(module, name), name


def test_every_annotation_resolves():
    # Each annotation is evaluated when its `def` runs, except a string one such
    # as `CongruenceSystem.from_pairs`'s `-> "CongruenceSystem"`: a name in a
    # string that the module never imports goes unnoticed until something
    # resolves it, as get_type_hints does here for every function and method.
    defined = []
    for module in (crtcount, *MODULES, runner, cli):
        for value in vars(module).values():
            if callable(value) and getattr(value, "__module__", None) == module.__name__:
                defined.append(value)
                if inspect.isclass(value):  # methods, properties, static and class methods
                    for member in vars(value).values():
                        member = getattr(member, "fget", getattr(member, "__func__", member))
                        if callable(member):
                            defined.append(member)
    from_pairs = congruence.CongruenceSystem.from_pairs.__func__
    covered = {congruence._shown, cli._emit, residues.CyclicInterval.members, from_pairs}
    assert covered <= set(defined)
    unresolved = []
    for member in defined:
        try:
            typing.get_type_hints(member)
        except NameError as error:
            unresolved.append((member.__qualname__, str(error)))
    assert unresolved == []


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


def test_positivity_refusal_has_one_owner():
    # "<what> must be positive, got <value>" is formatted in congruence._positive
    # alone; only the two pair-shaped messages spell the phrase out themselves.
    found = set()
    for path in Path(crtcount.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and "must be positive, got" in ast.unparse(node):
                owner = node
                while owner in parents and not isinstance(owner, ast.FunctionDef):
                    owner = parents[owner]
                head = node.values[0]
                text = head.value if isinstance(head, ast.Constant) else ""
                found.add((path.stem, getattr(owner, "name", None), text))
    assert found == {
        ("congruence", "_positive", ""),
        ("bounds", "_check_sizes", "moduli must be positive, got ("),
        ("runner", "__init__", "speeds must be positive, got ("),
    }


def test_modular_inverse_has_one_owner():
    # pow(x, -1, n) is called in congruence._lift alone, and solve and the
    # enumeration take the CRT lift's coefficient from it.
    found = set()
    for path in Path(crtcount.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            called = ast.unparse(node.func)
            inverse = called == "pow" and [ast.unparse(arg) for arg in node.args[1:2]] == ["-1"]
            if inverse or called == "_lift":
                owner = node
                while owner in parents and not isinstance(owner, ast.FunctionDef):
                    owner = parents[owner]
                found.add((called, path.stem, getattr(owner, "name", None)))
    assert found == {
        ("pow", "congruence", "_lift"),
        ("_lift", "congruence", "solve"),
        ("_lift", "residues", "_solutions"),
    }


def in_fresh_interpreter(code, *args):
    """Run code in a fresh `python -I -S` that finds crtcount where this test
    process did, after `import sys`, and return the literal it prints."""
    src = Path(crtcount.__file__).resolve().parents[1]
    prelude = f"import sys; sys.path.insert(0, {str(src)!r})\n"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", prelude + code, *args],
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(proc.stdout)


def test_bare_import_leaves_runner_to_its_own_import():
    # Each probe starts from a bare `import crtcount` and reports what it found
    # with the modules loaded since: nothing asked of the package root loads
    # runner or fractions, and importing runner itself loads neither importlib
    # nor typing.
    def after_import(statement):
        probe = "[m for m in ('crtcount.runner', 'fractions') if m in sys.modules]"
        return in_fresh_interpreter(f"import crtcount\n{statement}\nprint([found, {probe}])")

    assert after_import("found = None") == [None, []]
    assert after_import("found = hasattr(crtcount, '__wrapped__')") == [False, []]
    assert after_import("found = hasattr(crtcount, 'RunnerPair')") == [False, []]
    assert after_import("found = hasattr(crtcount, 'distant_interval')") == [False, []]
    assert after_import("found = crtcount.__all__") == [API, []]
    listed = "found = sorted(name for name in dir(crtcount) if name[:2] != '__')"
    assert after_import(listed) == [sorted([*API, "bounds", "congruence", "residues"]), []]
    star = "exec('from crtcount import *', names := {}); found = sorted(names)"
    assert after_import(star) == [sorted(["__builtins__", *API]), []]
    submodule = (
        "from crtcount import runner\n"
        "found = [runner is sys.modules['crtcount.runner'], runner.__all__,\n"
        "         [m for m in ('importlib', 'typing') if m in sys.modules]]"
    )
    loaded = ["crtcount.runner", "fractions"]
    assert after_import(submodule) == [[True, runner.__all__, []], loaded]


def test_pickled_witness_loads_in_an_interpreter_that_imported_nothing():
    witness = runner.two_runner_witness(runner.RunnerPair(1, 3))
    loaded = "import pickle; print(repr(repr(pickle.loads(bytes.fromhex(sys.argv[1])))))"
    assert in_fresh_interpreter(loaded, pickle.dumps(witness).hex()) == repr(witness)


def test_bound_result_and_residue_collection_keep_their_shape():
    # BoundResult is a plain collections.namedtuple and residues' private
    # annotation alias a runtime `|` union; neither needs typing to be built or used.
    BoundResult = crtcount.BoundResult
    assert BoundResult._fields == ("lower_bound", "case_tag")
    assert BoundResult.__mro__ == (BoundResult, tuple, object)
    assert BoundResult.__module__ == "crtcount.bounds"
    assert BoundResult.__doc__ == (
        "A proven floor on the solution count, tagged by which case produced it."
    )
    result = BoundResult(3, "overlap")
    assert repr(result) == "BoundResult(lower_bound=3, case_tag='overlap')"
    assert result == (3, "overlap") and hash(result) == hash((3, "overlap"))
    assert result._asdict() == {"lower_bound": 3, "case_tag": "overlap"}
    assert result._replace(lower_bound=4) == BoundResult(4, "overlap")
    loaded = (
        "import pickle; r = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
        "print(repr([repr(r), r == (3, 'overlap')]))"
    )
    assert in_fresh_interpreter(loaded, pickle.dumps(result).hex()) == [repr(result), True]

    collection = residues._Collection
    assert typing.get_args(collection) == (crtcount.ResidueSet, crtcount.CyclicInterval)
    assert isinstance(crtcount.ResidueSet(6, (0, 2)), collection)
    assert isinstance(crtcount.CyclicInterval(6, 4, 3), collection)
