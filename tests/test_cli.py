"""Unit tests for argument parsing, report formats, and exit codes."""

import argparse
import ast
import importlib.util
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crtcount import cli, residues
from crtcount.cli import parse_collection, run
from crtcount.residues import CyclicInterval, ResidueSet


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_parse_explicit_set():
    parsed = parse_collection("{0,2,4}", 6)
    assert parsed == ResidueSet(6, (0, 2, 4))


def test_parse_wrapping_interval():
    parsed = parse_collection("4+3", 5)
    assert parsed == CyclicInterval(5, 4, 3)
    assert parsed.members() == (4, 0, 1)


def test_parse_normalizes_residues():
    assert parse_collection("{7}", 5) == ResidueSet(5, (2,))
    assert parse_collection("{-1}", 5) == ResidueSet(5, (4,))
    assert parse_collection("-2+3", 7) == CyclicInterval(7, 5, 3)


def test_parse_empty_and_full():
    assert parse_collection("{}", 6).size == 0
    assert parse_collection("0+0", 6).size == 0
    assert parse_collection("3+6", 6).size == 6


def test_parse_errors_name_the_token():
    with pytest.raises(ValueError, match="'x'"):
        parse_collection("{1,x}", 6)
    with pytest.raises(ValueError, match="'8'"):
        parse_collection("{2,8}", 6)  # 8 ≡ 2 (mod 6)
    with pytest.raises(ValueError, match="'9'"):
        parse_collection("4+9", 6)
    with pytest.raises(ValueError):
        parse_collection("1+2+3", 6)
    with pytest.raises(ValueError):
        parse_collection("plain", 6)
    with pytest.raises(ValueError):
        parse_collection("{1}", 0)


@pytest.mark.parametrize(
    "text, modulus, message",
    [
        ("{1,1,x}", 6, "duplicate residue '1' in '{1,1,x}' (mod 6)"),
        ("{x,1,1}", 6, "malformed residue 'x' in '{x,1,1}'"),
        ("{1,7,x}", 6, "duplicate residue '7' in '{1,7,x}' (mod 6)"),
        ("{ 2 , 8 }", 6, "duplicate residue '8' in '{ 2 , 8 }' (mod 6)"),
        ("{ 2 , x }", 6, "malformed residue 'x' in '{ 2 , x }'"),
        ("{1,,2}", 6, "malformed residue '' in '{1,,2}'"),
        ("{1, }", 6, "malformed residue '' in '{1, }'"),
    ],
)
def test_parse_reports_the_first_bad_token_in_order(text, modulus, message):
    # each token is named as stripped, whichever of the two faults comes first
    with pytest.raises(ValueError) as caught:
        parse_collection(text, modulus)
    assert str(caught.value) == message


def test_parse_strips_every_padding_that_str_strip_removes():
    # int() refuses the separators \x1c-\x1f that strip() removes, so each
    # token is stripped before it is converted
    assert parse_collection("{\x1c2\x1f, 3\t}", 6) == ResidueSet(6, (2, 3))
    with pytest.raises(ValueError, match=r"duplicate residue '8'"):
        parse_collection("{\x1d2,8}", 6)


def test_solve_text_example():
    assert invoke("solve", "2:3", "3:5") == (0, "x ≡ 8 (mod 15)\n", "")


def test_solve_no_solution():
    code, out, err = invoke("solve", "0:2", "1:4")
    assert (code, out, err) == (1, "no solution\n", "")
    code, out, _ = invoke("solve", "0:2", "1:4", "--json")
    assert code == 1
    assert json.loads(out) == {"status": "no-solution"}


def test_solve_json_record():
    code, out, _ = invoke("solve", "2:3", "3:5", "--json")
    assert code == 0
    assert json.loads(out) == {"status": "ok", "residue": 8, "modulus": 15}


def test_count_text_and_enumeration():
    code, out, _ = invoke("count", "4", "6", "{0,1,2}", "{0,1,2}", "--enumerate")
    assert code == 0
    assert out == "count = 5\nmodulus = 12\nsolutions = 0 1 2 6 8\n"


def test_count_with_no_solutions_lists_none():
    assert invoke("count", "3", "6", "0+1", "1+2", "--enumerate") == (
        0,
        "count = 0\nmodulus = 6\nsolutions = \n",
        "",
    )
    code, out, _ = invoke("count", "3", "6", "0+1", "1+2", "--enumerate", "--json")
    assert code == 0
    assert json.loads(out) == {"status": "ok", "count": 0, "modulus": 6, "solutions": []}


def test_count_json_round_trip():
    code, out, _ = invoke("count", "4", "6", "0+3", "0+3", "--json", "--enumerate")
    record = json.loads(out)
    assert code == 0
    assert record == {
        "status": "ok",
        "count": 5,
        "modulus": 12,
        "solutions": [0, 1, 2, 6, 8],
    }
    assert len(record["solutions"]) == record["count"]


@st.composite
def collection_tokens(draw):
    """A modulus up to 40 and a set or interval token for it."""
    m = draw(st.integers(1, 40))
    if draw(st.booleans()):
        members = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m))
        return m, "{" + ",".join(map(str, members)) + "}"
    return m, f"{draw(st.integers(-m, 2 * m))}+{draw(st.integers(0, m))}"


@given(collection_tokens(), collection_tokens())
def test_count_enumerate_lists_the_library_classes(first, second):
    (m, text_a), (n, text_b) = first, second
    code, out, _ = invoke("count", str(m), str(n), "--enumerate", "--json", "--", text_a, text_b)
    a, b = parse_collection(text_a, m), parse_collection(text_b, n)
    assert code == 0
    assert json.loads(out)["solutions"] == [c.residue for c in residues.enumerate_solutions(a, b)]


def test_bound_arbitrary_report():
    assert invoke("bound", "arbitrary", "4", "6", "3", "3") == (
        0,
        "bound = 3\ncase = overlap\n",
        "",
    )
    code, out, _ = invoke("bound", "arbitrary", "4", "6", "3", "3", "--json")
    assert json.loads(out) == {"status": "ok", "bound": 3, "case": "overlap"}


def test_bound_interval_report():
    assert invoke("bound", "interval", "4", "6", "3", "3") == (0, "bound = 4\n", "")
    code, out, _ = invoke("bound", "interval", "4", "6", "3", "3", "--json")
    assert json.loads(out) == {"status": "ok", "bound": 4}


def test_extremal_report():
    code, out, _ = invoke("extremal", "5", "2", "5", "3", "4")
    assert code == 0
    assert out == "profile_a = 0 1 2 2\nprofile_b = 0 0 2 3\nbound = 2\ncase = boundary\n"
    code, out, _ = invoke("extremal", "5", "2", "5", "3", "4", "--json")
    assert json.loads(out) == {
        "status": "ok",
        "profile_a": [0, 1, 2, 2],
        "profile_b": [0, 0, 2, 3],
        "bound": 2,
        "case": "boundary",
    }


def test_one_entry_lists_print_without_a_comma():
    # a one-entry tuple's repr is "(3,)": the text line must still read "3"
    assert invoke("extremal", "3", "3", "0", "1", "1") == (
        0,
        "profile_a = 3\nprofile_b = 0\nbound = 0\ncase = overlap\n",
        "",
    )
    assert invoke("count", "4", "6", "{1}", "{1}", "--enumerate") == (
        0,
        "count = 1\nmodulus = 12\nsolutions = 1\n",
        "",
    )


def test_tightness_report():
    code, out, _ = invoke("tightness", "--M", "1")
    assert code == 0
    assert out == "m = 3\nn = 6\nA = 0+1 (mod 3)\nB = 1+2 (mod 6)\ncount = 0\n"
    code, out, _ = invoke("tightness", "--M", "2", "--json")
    assert json.loads(out) == {
        "status": "ok",
        "m": 6,
        "n": 12,
        "interval_a": {"modulus": 6, "start": 0, "length": 2},
        "interval_b": {"modulus": 12, "start": 2, "length": 4},
        "count": 0,
    }


def test_runner_report():
    assert invoke("runner", "--speeds", "1,2") == (
        0,
        "t = 1/3, distances 1/3, 1/3\n",
        "",
    )
    code, out, _ = invoke("runner", "--speeds", "1,3", "--json")
    assert json.loads(out) == {
        "status": "ok",
        "witness_numerator": 4,
        "witness_denominator": 9,
        "distances": [
            {"numerator": 4, "denominator": 9},
            {"numerator": 1, "denominator": 3},
        ],
    }


RUNNER_EDGE = (2**63 - 1) // 3  # the largest n with 3*1*n in signed 64 bits


def test_runner_report_at_large_speeds():
    assert invoke("runner", "--speeds", "999999999,1000000000") == (
        0,
        "t = 1/2999999997, distances 1/3, 1000000000/2999999997\n",
        "",
    )
    speeds = ("runner", "--speeds", f"1,{RUNNER_EDGE}")
    assert invoke(*speeds) == (0, "t = 1/3, distances 1/3, 1/3\n", "")
    code, out, err = invoke(*speeds, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "status": "ok",
        "witness_numerator": 1,
        "witness_denominator": 3,
        "distances": [
            {"numerator": 1, "denominator": 3},
            {"numerator": 1, "denominator": 3},
        ],
    }


def test_runner_outside_64_bits_is_refused():
    for pair in ("3037000500,3037000501", f"1,{RUNNER_EDGE + 1}"):
        speeds = ("runner", "--speeds", pair)
        code, out, err = invoke(*speeds)
        assert (code, out) == (2, ""), pair
        assert err.startswith("error: ") and "64-bit" in err
        assert err.count("\n") == 1
        code, out, err = invoke(*speeds, "--json")
        assert (code, out) == (2, ""), pair
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["status"] == "error" and "64-bit" in record["message"]
    assert invoke("runner", "--speeds", f"1,{RUNNER_EDGE + 1}") == (
        2,
        "",
        f"error: product 3 * {RUNNER_EDGE + 1} exceeds the 64-bit integer range\n",
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "--", "0:9223372036854775808"),
         "product 1 * 9223372036854775808 exceeds the 64-bit integer range"),
        (("extremal", "--", "0", "1", "9223372036854775808", "9223372036854775808", "1"),
         "cap 9223372036854775808 exceeds the 64-bit integer range"),
        (("runner", "--speeds", "9" * 4300 + ",1"),
         f"product a {(3 * int('9' * 4300)).bit_length()}-bit integer * 1"
         " exceeds the 64-bit integer range"),
    ],
    ids=["solve", "extremal", "runner"],
)
def test_results_outside_64_bits_are_refused(argv, message):
    assert invoke(*argv) == (2, "", f"error: {message}\n")
    code, out, err = invoke(argv[0], "--json", *argv[1:])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"status": "error", "message": message}


def test_error_record_goes_to_stderr():
    code, out, err = invoke("count", "4", "6", "{0,4}", "{0}", "--json")
    assert code == 2
    assert out == ""
    record = json.loads(err)
    assert record["status"] == "error"
    assert "'4'" in record["message"]


def test_text_error_prefix():
    code, out, err = invoke("runner", "--speeds", "2,2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_overflow_is_a_usage_error():
    code, _, err = invoke("solve", f"0:{2**32}", f"1:{2**32 - 1}")
    assert code == 2
    assert "64-bit" in err


def test_enumeration_cap_is_a_usage_error():
    code, out, _ = invoke("count", "10007", "10009", "0+1", "0+1")
    assert code == 0
    assert out == "count = 1\nmodulus = 100160063\n"
    code, _, err = invoke("count", "10007", "10009", "0+1", "0+1", "--enumerate")
    assert code == 2
    assert "enumeration cap" in err


def test_extremal_length_cap_is_a_usage_error(monkeypatch):
    # a small cap stands in for the real one, so nothing large is built
    monkeypatch.setattr(residues, "ENUMERATION_CAP", 8)
    assert invoke("extremal", "0", "1", "0", "1", "8")[0] == 0
    message = "profile length 9 exceeds the enumeration cap 8"
    assert invoke("extremal", "0", "1", "0", "1", "9") == (2, "", f"error: {message}\n")
    code, out, err = invoke("extremal", "0", "1", "0", "1", "9", "--json")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"status": "error", "message": message}


def test_exit_code_matrix():
    cases = [
        (("solve", "2:3", "3:5"), 0),
        (("solve", "0:2", "1:4"), 1),
        (("solve", "2:3", "bogus"), 2),
        (("solve", "1:0"), 2),
        (("count", "4", "6", "{0,1}", "0+2"), 0),
        (("bound", "arbitrary", "4", "6", "5", "0"), 2),
        (("bound", "middling", "4", "6", "1", "1"), 2),
        (("extremal", "9", "2", "0", "1", "4"), 1),
        (("tightness", "--M", "0"), 2),
        (("tightness", "--M", "1000000000"), 0),
        (("tightness", "--M", "1537228672809129302"), 2),
        (("runner", "--speeds", "2,2"), 2),
        (("runner", "--speeds", "1"), 2),
        ((), 2),
        (("--help",), 0),
    ]
    for argv, expected in cases:
        code, _, _ = invoke(*argv)
        assert code == expected, argv


JSON_HELP = "emit one JSON record instead of text"


# usage lines as argparse prints them on Python 3.11 at 80 columns; the rest of
# the help text is checked only for each help string, since its layout varies
@pytest.mark.parametrize(
    "argv, usage, helps",
    [
        ((), "usage: crtcount [-h] {solve,count,bound,extremal,tightness,runner} ...", [
            "solve a system of congruences",
            "count common solutions of two residue collections",
            "lower bound on the solution count from sizes alone",
            "worst-case count profiles and their pairing sum",
            "one-third-density interval pair with no common solution",
            "time keeping two runners at distance >= 1/3 from the origin",
        ]),
        (("solve",), "usage: crtcount solve [-h] [--json] a:m [a:m ...]", [
            JSON_HELP, "congruence x ≡ a (mod m)",
        ]),
        (("count",), "usage: crtcount count [-h] [--json] [--enumerate] m n A B", [
            JSON_HELP, "first modulus", "second modulus",
            "collection mod m: {r1,r2,...} or start+len",
            "collection mod n: {r1,r2,...} or start+len",
            "also list the solution residues",
        ]),
        (("bound",),
         "usage: crtcount bound [-h] [--json] {arbitrary,interval} m n size_a size_b", [
            JSON_HELP, "first modulus", "second modulus",
            "size of the first collection", "size of the second collection",
        ]),
        (("extremal",),
         "usage: crtcount extremal [-h] [--json] size_a cap_a size_b cap_b length",
         [JSON_HELP]),
        (("tightness",), "usage: crtcount tightness [-h] [--json] --M SCALE", [
            JSON_HELP, "scale factor; moduli are 3M and 6M",
        ]),
        (("runner",), "usage: crtcount runner [-h] [--json] --speeds M,N", [
            JSON_HELP, "two distinct positive speeds",
        ]),
    ],
    ids=["crtcount", "solve", "count", "bound", "extremal", "tightness", "runner"],
)
def test_help_pins_usage_and_every_help_string(monkeypatch, argv, usage, helps):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = invoke(*argv, "--help")
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == usage
    flowed = " ".join(out.split())  # help strings may wrap at 80 columns
    for text in helps:
        assert text in flowed, text


@pytest.mark.parametrize(
    "argv, name",
    [
        (("tightness", "--M=--"), "scale"),
        (("runner", "--speeds=--"), "speeds"),
        (("bound", "--", "arbitrary", "4", "6", "--", "1"), "size_a"),
    ],
)
def test_double_dash_as_a_value_is_a_usage_error(argv, name):
    message = f"argument {name}: invalid value '--'"
    assert invoke(*argv) == (2, "", f"error: {message}\n")
    code, out, err = invoke(argv[0], "--json", *argv[1:])
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err) == {"status": "error", "message": message}


def test_option_types_read_a_double_dash_value_as_empty():
    # Python 3.13's argparse converts an option value of `--` that 3.10-3.12 hand
    # over as [] unconverted, so each option's type reads it as [] itself and
    # keeps its converter's name for argparse's errors. Positionals are not wrapped.
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    wrapped = {}
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.nargs == 0:  # --help, --json, --enumerate
                continue
            if action.option_strings:
                assert action.type("--") == []
                wrapped[name, action.dest] = (action.type.__name__, action.type("12"))
            else:
                assert action.type in (None, int), (name, action.dest)
    assert wrapped == {("tightness", "scale"): ("int", 12), ("runner", "speeds"): ("str", "12")}


def test_no_exception_escapes_run_on_the_digest_argv(monkeypatch):
    # malformed tokens, --help, wrong arity and values past 2**63 on every subcommand
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", path)
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    monkeypatch.setenv("COLUMNS", "200")  # the digest reads help at 80 columns regardless
    hexdigest, outcomes = cli_digest.digest(1)
    # the tallies pin every exit status; the hash pins every byte, help text included
    assert outcomes == {"exit 0": 1824, "exit 1": 303, "exit 2": 5373}, outcomes
    assert hexdigest == "1daaa803d4e12dd0f22a43868b6388719563a1520738eacaa8a5d8a5e459a520"
    assert os.environ["COLUMNS"] == "200"


def test_digest_versions_refuses_an_interpreter_that_does_not_start(tmp_path):
    # every interpreter is probed before any digest runs, so the reference reports nothing
    script = Path(__file__).resolve().parents[1] / "tools" / "digest_versions.py"
    missing = tmp_path / "no-such-python"
    proc = subprocess.run(
        [sys.executable, str(script), sys.executable, str(missing)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {missing} did not start: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


VALID_ARGV = [
    ("solve", "2:3", "3:5"),
    ("count", "4", "6", "{0,1,2}", "1+3", "--enumerate"),
    ("bound", "arbitrary", "4", "6", "1", "2"),
    ("bound", "interval", "4", "6", "3", "5"),
    ("extremal", "5", "2", "4", "3", "4"),
    ("tightness", "--M", "2"),
    ("tightness", "--M=5"),
    ("runner", "--speeds", "3,7"),
    ("runner", "--speeds=3,7"),
]


# each valid call in text and --json, then calls the full parser must report:
# leftover arguments, no or an unknown subcommand, help, and `--` as a value
@pytest.mark.parametrize(
    "argv",
    VALID_ARGV
    + [(*argv, "--json") for argv in VALID_ARGV]
    + [
        ("bound", "arbitrary", "4", "6", "1", "2", "3"),
        ("count", "4", "6", "{0}", "{1}", "--bogus"),
        (),
        ("--help",),
        ("--json",),
        ("nonsense",),
        ("count", "--help"),
        ("tightness",),
        ("solve", "--", "1:2"),
        ("tightness", "--M=--"),
    ],
    ids=" ".join,
)
def test_subcommand_dispatch_prints_what_the_full_parser_prints(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    direct = invoke(*argv)
    # with the plain reader deferring on every call, each one goes through parse_args
    monkeypatch.setattr(cli, "_plain", lambda reader, tokens: None)
    assert invoke(*argv) == direct


def test_leftover_arguments_get_the_top_level_usage():
    code, out, err = invoke("count", "4", "6", "{0}", "{1}", "--bogus")
    assert (code, out) == (2, "")
    assert err.startswith("usage: crtcount [-h]")
    assert err.endswith("crtcount: error: unrecognized arguments: --bogus\n")


def test_valid_calls_skip_the_top_level_parser(monkeypatch):
    assert {argv[0] for argv in VALID_ARGV} == set(cli._SUBCOMMANDS)
    calls = []
    reference = argparse.ArgumentParser.parse_known_args

    def counted(self, args=None, namespace=None):
        calls.append((self.prog, args))
        return reference(self, args, namespace)

    # parse_args goes through parse_known_args, on the full parser and on a subparser
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    for argv in VALID_ARGV:
        assert invoke(*argv)[0] == 0, argv
        assert invoke(*argv, "--json")[0] == 0, argv
    assert calls == []
    # an unknown subcommand, an abbreviation the reader leaves to argparse, and a
    # broken nargs="+" run (argparse's "unrecognized arguments") reach it once each
    fallbacks = [
        ["nonsense"], ["count", "4", "6", "{0}", "{1}", "--enum"], ["solve", "1:2", "--json", "3:4"]
    ]
    for argv, code in zip(fallbacks, (2, 0, 2)):
        assert invoke(*argv)[0] == code, argv
    assert [args for prog, args in calls if prog == "crtcount"] == fallbacks
    assert [prog for prog, _ in calls if prog != "crtcount"] == [
        "crtcount count", "crtcount solve"
    ]


def _subparser(name):
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices[name]


@pytest.mark.parametrize("name", sorted(cli._SUBCOMMANDS))
def test_reader_table_agrees_with_the_rows(name):
    flags, positionals, switches, options = cli._reader(name)
    row = dict(cli._SUBCOMMANDS[name][2])
    actions = [action for action in _subparser(name)._actions if action.dest != "help"]
    # flags: each as the row spells it, with argparse's dest and choices and the
    # row's own converter; a store_true flag marked, its dest among the switches
    spelled = [action for action in actions if action.option_strings]
    assert list(flags) == [flag for action in spelled for flag in action.option_strings]
    for action in spelled:
        (flag,) = action.option_strings
        store_true = isinstance(action, argparse._StoreTrueAction)
        convert = row[flag].get("type", str)
        assert flags[flag] == (action.dest, convert, action.choices, store_true)
    assert switches == tuple(a.dest for a in spelled if isinstance(a, argparse._StoreTrueAction))
    assert options == tuple(a.dest for a in spelled if not isinstance(a, argparse._StoreTrueAction))
    # positionals in row order, each with the row's converter and choices and its nargs="+" mark
    named = [action for action in actions if not action.option_strings]
    assert [entry[0] for entry in positionals] == [action.dest for action in named]
    for (dest, convert, choices, many), action in zip(positionals, named):
        assert convert is row[dest].get("type", str)
        assert choices == action.choices == row[dest].get("choices")
        assert many == (action.nargs == "+")


def test_reader_table_pins_the_rows_that_differ():
    assert cli._reader("tightness")[0]["--M"] == ("scale", int, None, False)
    assert cli._reader("tightness")[2:] == (("json",), ("scale",))
    assert cli._reader("count")[2:] == (("json", "enumerate"), ())
    assert cli._reader("bound")[1][0] == ("mode", str, ("arbitrary", "interval"), False)
    assert cli._reader("solve")[1] == (("congruences", str, None, True),)
    assert cli._reader("runner")[0]["--speeds"] == ("speeds", str, None, False)


def _agrees_with_argparse(name, tokens):
    """Whether _plain reads tokens; if it does, it must read them as the subparser does."""
    read = cli._plain(cli._reader(name), list(tokens))
    if read is not None:
        with redirect_stdout(io.StringIO()), redirect_stderr(err := io.StringIO()):
            try:
                namespace, leftover = _subparser(name).parse_known_args(list(tokens))
            except SystemExit:
                pytest.fail(f"{name} {tokens}: _plain read {read}, argparse: {err.getvalue()}")
        assert (vars(read), []) == (vars(namespace), leftover), (name, tokens)
    return read is not None


# every value and default the reader gives, store_true flags' False included,
# must be argparse's: on a row with an optional option argparse fills with
# None, the reader would have to defer or differ
@pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
def test_plain_reader_reads_every_valid_call(argv):
    name, *tokens = argv
    assert _agrees_with_argparse(name, tokens)
    assert _agrees_with_argparse(name, [*tokens, "--json"])
    assert _agrees_with_argparse(name, ["--json", *tokens])


@pytest.mark.parametrize(
    "argv",
    [
        ("runner", "--speeds", "--json"),  # an option value starting with "-"
        ("runner", "--speeds"),
        ("tightness", "--M", "-5"),
        ("solve", "1:2", "--json", "3:4"),  # a broken nargs="+" run
        ("solve",),
        ("bound", "middling", "4", "6", "1", "2"),  # out of choices
        ("bound", "arbitrary", "4", "6", "1", "x"),
        ("count", "4", "6", "{0}", "-1+2"),
        ("count", "4", "6", "{0}"),
        ("count", "4", "6", "{0}", "{1}", "{2}"),
        ("tightness", "--json"),  # a required option missing
        ("runner",),
        ("tightness", "--M=-5"),  # a joined value starting with "-"
        ("tightness", "--M=--"),
        ("tightness", "--M", "2", "--json=1"),  # a store_true flag given "="
        ("count", "4", "6", "{0}", "{1}", "--enumerate="),
        ("runner", "--sp=3,5"),  # an abbreviation, joined
        ("tightness", "--M", "2", "--"),
        ("solve", "--", "1:2"),
        ("count", "-h"),
        ("count", "4", "6", "{0}", "{1}", "--enum"),
        ("extremal", "1", "1", "1", "1", "9" * 4301),  # past int()'s digit limit
    ],
    ids=lambda argv: " ".join(argv)[:40],
)
def test_plain_reader_leaves_other_shapes_to_argparse(argv):
    name, *tokens = argv
    assert cli._plain(cli._reader(name), tokens) is None


def _texts(ints, modes):
    return {
        "int": ints,
        "collection": st.one_of(
            st.lists(ints, max_size=3).map(lambda r: "{" + ",".join(r) + "}"),
            st.builds("{}+{}".format, ints, ints),
        ),
        "mode": st.sampled_from(modes),
        "congruence": st.builds("{}:{}".format, ints, ints),
        "speeds": st.builds("{},{}".format, ints, ints),
    }


PLAIN_TEXT = _texts(st.integers(0, 2**64).map(str), ["arbitrary", "interval"])
ANY_TEXT = _texts(
    st.one_of(
        st.integers(-3, 40).map(str),
        st.integers(-(2**64), 2**64).map(str),
        st.sampled_from([str(2**63), "9" * 4301]),  # 4301 digits: past int()'s limit
    ),
    ["arbitrary", "interval", "middling", "Arbitrary", "-1"],
)
POSITIONALS = {
    "solve": ["congruence", "congruence", "congruence"],
    "count": ["int", "int", "collection", "collection"],
    "bound": ["mode", "int", "int", "int", "int"],
    "extremal": ["int"] * 5,
    "tightness": [],
    "runner": [],
}
OPTIONS = {"count": [["--enumerate"]], "tightness": [["--M", "int"]], "runner": [["--speeds", "speeds"]]}
NOISE = ["--", "-h", "--help", "--M=3", "--speeds=1,2", "-5", "", "1 2", "{0, 1}", "--js",
         "--M", "--speeds", "--enumerate", "--json", "--json=x", "arbitrary", "9" * 4301]


@st.composite
def _tokens(draw, name):
    """A row's tokens: its positionals in order and its flags anywhere; when
    wild, also bad values, dropped positionals, noise tokens and any order."""
    wild = draw(st.booleans())
    texts = ANY_TEXT if wild else PLAIN_TEXT
    tokens = [draw(texts[kind]) for kind in POSITIONALS[name]]
    groups = [["--json"], *OPTIONS.get(name, [])]
    if wild:
        tokens = tokens[: draw(st.integers(0, len(tokens)))]
        groups += draw(st.lists(st.sampled_from(NOISE).map(lambda token: [token]), max_size=3))
    for flag, *kinds in groups:
        if draw(st.booleans()) or flag in ("--M", "--speeds") and not wild:
            at = draw(st.integers(0, len(tokens)))
            spelled = [flag, *(draw(texts[kind]) for kind in kinds)]
            if kinds and draw(st.booleans()):  # --M=<int>, --speeds=<speeds>
                spelled = ["=".join(spelled)]
            tokens[at:at] = spelled
    return draw(st.permutations(tokens)) if wild and draw(st.booleans()) else tokens


@pytest.mark.parametrize("name", sorted(POSITIONALS))
@given(data=st.data())
def test_plain_reader_agrees_with_the_subparser(name, data):
    _agrees_with_argparse(name, data.draw(_tokens(name)))


CONGRUENCE_REFUSAL = "congruence {!r} is not of the form 'a:m'"
SPEEDS_REFUSAL = "speeds {!r} must be two comma-separated integers"


@pytest.mark.parametrize(
    "argv, message",
    [(("solve", token), CONGRUENCE_REFUSAL.format(token))
     for token in ("34", "3:", ":4", "1:2:3", "x:5")]
    + [(("runner", f"--speeds={text}"), SPEEDS_REFUSAL.format(text))
       for text in ("1", "1,2,3", ",1", "1,x")],
)
def test_token_refusal_messages(argv, message):
    assert invoke(*argv) == (2, "", f"error: {message}\n")
    code, out, err = invoke(*argv, "--json")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"status": "error", "message": message}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "crtcount.cli", "solve", "2:3", "3:5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x ≡ 8 (mod 15)\n"


def test_cli_loads_fractions_and_json_only_on_the_paths_that_use_them():
    # In a fresh interpreter without site: what `import crtcount.cli` leaves out,
    # then what a text count call, a joined tightness call, a text runner call, a
    # --json call and a --help call add. argparse (and its gettext) load only
    # for the help; typing, importlib, __future__, dataclasses and inspect load
    # on no path. Module names only, no timings.
    probe = (
        "import io, sys; from contextlib import redirect_stdout\n"
        "sys.path.insert(0, sys.argv[1]); import crtcount.cli\n"
        "deferred = ('fractions', 'decimal', 'numbers', 'json', 'crtcount.runner',\n"
        "            'argparse', 'gettext', 'typing', 'importlib', 're', 'enum',\n"
        "            '__future__', 'dataclasses', 'inspect')\n"
        "def loaded(): return sorted(m for m in deferred if m in sys.modules)\n"
        "print(repr(loaded()))\n"
        "for argv in (['count', '12', '18', '0+4', '3+5'], ['tightness', '--M=5'],\n"
        "             ['runner', '--speeds', '1,2'], ['solve', '2:3', '3:5', '--json'],\n"
        "             ['count', '--help']):\n"
        "    with redirect_stdout(out := io.StringIO()):\n"
        "        code = crtcount.cli.run(argv)\n"
        "    print(repr([code, out.getvalue(), loaded()]))\n"
    )
    src = Path(residues.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe, str(src)],
        capture_output=True,
        text=True,
        check=True,
    )
    lines = map(ast.literal_eval, proc.stdout.splitlines())
    imported, count_call, joined, runner, json_call, help_call = lines
    assert imported == []
    assert count_call == [0, "count = 3\nmodulus = 36\n", []]
    tightness = "m = 15\nn = 30\nA = 0+5 (mod 15)\nB = 5+10 (mod 30)\ncount = 0\n"
    assert joined == [0, tightness, []]
    assert runner == [
        0,
        "t = 1/3, distances 1/3, 1/3\n",
        ["crtcount.runner", "decimal", "enum", "fractions", "numbers", "re"],
    ]
    assert json_call == [
        0,
        '{"status": "ok", "residue": 8, "modulus": 15}\n',
        ["crtcount.runner", "decimal", "enum", "fractions", "json", "numbers", "re"],
    ]
    assert help_call[0] == 0 and help_call[1].startswith("usage: crtcount count [-h]")
    assert {"argparse", "gettext"} <= set(help_call[2])
    assert not {"typing", "importlib", "__future__", "dataclasses", "inspect"} & set(help_call[2])


def test_out_of_range_bound_is_refused():
    args = ("1099511627776", "1099511627777", "549755813888", "549755813888")
    for mode in ("interval", "arbitrary"):
        code, out, err = invoke("bound", mode, *args)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "64-bit" in err
        assert err.count("\n") == 1
        code, out, err = invoke("bound", mode, *args, "--json")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["status"] == "error"
