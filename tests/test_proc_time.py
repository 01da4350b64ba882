"""The summary arithmetic and the argv sample of tools/proc_time.py, on fixed
inputs; the script's child processes are not spawned here."""

import importlib.util
from pathlib import Path

from crtcount import cli

PATH = Path(__file__).resolve().parents[1] / "tools" / "proc_time.py"
SPEC = importlib.util.spec_from_file_location("proc_time", PATH)
proc_time = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(proc_time)


def test_each_row_is_its_median_and_its_distance_above_the_floor():
    times = {
        "floor": [10.0, 12.0, 11.0],
        "count 12 18 0+4 3+5": [40.0, 38.0, 45.0, 39.0],  # an even count: 39.5
        "--help": [30.0],
    }
    assert proc_time.summarize(times) == {
        "floor": (11.0, 0.0),
        "count 12 18 0+4 3+5": (39.5, 28.5),
        "--help": (30.0, 19.0),
    }


def test_a_row_faster_than_the_floor_reads_below_zero():
    assert proc_time.summarize({"floor": [10.0], "x": [9.0, 8.0]})["x"] == (8.5, -1.5)


def test_the_sample_covers_every_shape_it_names():
    sample = proc_time.SAMPLE
    assert {argv[0] for argv in sample} >= set(cli._SUBCOMMANDS)
    for name in cli._SUBCOMMANDS:  # each subcommand in text and --json
        assert [argv for argv in sample if argv[0] == name and "--json" not in argv]
        assert [argv for argv in sample if argv[0] == name and "--json" in argv]
    assert ["--help"] in sample
    assert any(token.startswith("--") and "=" in token for argv in sample for token in argv)
    assert ["bound", "middling", "4", "6", "1", "2"] in sample  # a usage error
    assert len({" ".join(argv) for argv in sample}) == len(sample)
