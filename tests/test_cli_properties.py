"""Property tests of the CLI's output contract over well-formed argv.

Every subcommand gets integers up to 2**64 in magnitude, in text and --json
mode. Whatever the values, a run exits 0, 1 or 2 without a traceback; a
result goes to stdout (one JSON object under --json) and a refusal is one
line on stderr (a JSON object under --json) with nothing on stdout. Every
integer in a --json result fits in signed 64 bits.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crtcount import residues
from crtcount.cli import run

# small caps stand in for the real ones, so no run enumerates or builds much
SMALL_CAP = 64

ints = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2**63 - 1, 2**63]),
    st.integers(-(2**64), 2**64),
).map(str)
moduli = st.one_of(st.integers(1, 40).map(str), ints)
explicit_sets = st.lists(ints, max_size=5).map(lambda r: "{" + ",".join(r) + "}")
intervals = st.builds(
    "{}+{}".format,
    st.integers(0, 2**64),
    st.one_of(st.integers(0, 40), st.integers(0, 2**64)),
)
collections = st.one_of(explicit_sets, intervals)


def _argv(subcommand, positionals, flags=()):
    # "--" lets positionals such as "-1:5" start with a dash
    return [subcommand, *flags, "--", *positionals]


ARGV = {
    "solve": st.lists(st.builds("{}:{}".format, ints, ints), min_size=1, max_size=4).map(
        lambda tokens: _argv("solve", tokens)
    ),
    "count": st.builds(
        lambda positionals, listed: _argv("count", positionals, ["--enumerate"] * listed),
        st.tuples(moduli, moduli, collections, collections),
        st.booleans(),
    ),
    "bound": st.tuples(
        st.sampled_from(["arbitrary", "interval"]), ints, ints, ints, ints
    ).map(lambda positionals: _argv("bound", positionals)),
    "extremal": st.tuples(ints, ints, ints, ints, ints).map(
        lambda positionals: _argv("extremal", positionals)
    ),
    "tightness": ints.map(lambda scale: ["tightness", f"--M={scale}"]),
    "runner": st.tuples(ints, ints).map(
        lambda speeds: ["runner", "--speeds=" + ",".join(speeds)]
    ),
}


def _integers(value):
    """Every int in a decoded JSON value, nested lists and dicts included."""
    if isinstance(value, list):
        return [n for item in value for n in _integers(item)]
    if isinstance(value, dict):
        return _integers(list(value.values()))
    return [value] if isinstance(value, int) else []


@pytest.fixture(autouse=True, scope="module")
def small_caps():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(residues, "ENUMERATION_CAP", SMALL_CAP)
        yield


@pytest.mark.parametrize("subcommand", sorted(ARGV))
@given(data=st.data(), json_mode=st.booleans())
def test_every_run_keeps_the_output_contract(subcommand, data, json_mode):
    argv = data.draw(ARGV[subcommand])
    if json_mode:
        argv.insert(1, "--json")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if err:
        # a refusal from the handler: one stderr line and no result
        assert code in (1, 2)
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        if json_mode:
            assert json.loads(err)["status"] == "error"
        else:
            assert err.startswith("error: ")
    else:
        assert out.endswith("\n")
        if json_mode:
            assert out.count("\n") == 1
            record = json.loads(out)
            assert isinstance(record, dict)
            if code == 0:
                assert all(-(2**63) <= n < 2**63 for n in _integers(record)), record
