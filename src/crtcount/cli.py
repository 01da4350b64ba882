"""Command-line front end.

Subcommands: solve, count, bound, extremal, tightness, runner, each one row
of _SUBCOMMANDS (name: help, handler, arguments). Each handler returns a
record and, optionally, its text lines; run alone prints and picks the exit
status. A result goes to stdout as text (the lines, else one
`key = value` line per field) or, with --json, as one JSON record; a refusal
goes to stderr as `error: <message>` or the record {"status": "error",
"message": ...}. Exit status is 0 when the record's status is "ok", 1 when the
system has no solution or the request is infeasible, and 2 on usage errors and
overflow refusals. run reads a plain call (flags as the table spells them,
each value after a space or an "=") from its row without loading argparse;
help, usage errors and other spellings go to the parser built from the rows.
"""


import functools
import math
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .bounds import (
    InfeasibleError,
    bound_arbitrary,
    bound_intervals,
    extremal_profile,
    extremal_sum,
    tightness_instance,
)
from .congruence import CongruenceSystem, OverflowLimitError, _positive, _shown, solve
from .residues import CyclicInterval, ResidueSet, _solutions, exact_count


def parse_collection(text: str, modulus: int) -> ResidueSet | CyclicInterval:
    """Parse "{r1,r2,...}" as an explicit set or "start+len" as a cyclic interval.

    Residues and starts are normalized mod modulus; duplicates after
    normalization and lengths outside [0, modulus] are rejected with the
    offending token named.
    """
    _positive(modulus, "modulus")
    if text.startswith("{") and text.endswith("}"):
        body = text[1:-1].strip()
        seen: set[int] = set()
        if body:
            for token in body.split(","):
                token = token.strip()
                try:
                    value = int(token)
                except ValueError:
                    raise ValueError(
                        f"malformed residue {token!r} in {text!r}"
                    ) from None
                residue = value % modulus
                if residue in seen:
                    raise ValueError(
                        f"duplicate residue {token!r} in {text!r} (mod {_shown(modulus)})"
                    )
                seen.add(residue)
        return ResidueSet(modulus=modulus, members=tuple(seen))
    head, sep, length_text = text[1:].partition("+")  # skip a leading sign on start
    if sep:
        start_text = text[:1] + head
        try:
            start = int(start_text)
            length = int(length_text)
        except ValueError:
            raise ValueError(f"malformed interval {text!r}") from None
        if not 0 <= length <= modulus:
            raise ValueError(
                f"length {length_text!r} out of range [0, {_shown(modulus)}] in {text!r}"
            )
        return CyclicInterval(modulus=modulus, start=start, length=length)
    raise ValueError(
        f"collection {text!r} matches neither '{{r1,r2,...}}' nor 'start+len'"
    )


def _int_pair(text: str, sep: str, message: str) -> tuple[int, int]:
    """Read "x<sep>y", split at the first sep, as two ints; else refuse with the message."""
    first, found, second = text.partition(sep)
    if found:
        try:
            return int(first), int(second)
        except ValueError:
            pass
    raise ValueError(message.format(text))


def _emit(json_mode: bool, record: dict, lines: list[str] | None, file) -> None:
    """Print the record as JSON, or as text: the given lines, else one per field."""
    if json_mode:
        import json  # only --json output needs it

        print(json.dumps(record), file=file)
    elif lines is None:
        for key, value in record.items():
            if key != "status":
                if isinstance(value, (list, tuple)):
                    # repr writes the entries one at a time; a join holds every entry's str at once
                    value = repr(value)[1:-1].replace(",", "")
                print(f"{key} = {value}", file=file)
    else:
        for line in lines:
            print(line, file=file)


def _cmd_solve(args: SimpleNamespace) -> tuple[dict, list[str]]:
    system = CongruenceSystem.from_pairs(
        _int_pair(token, ":", "congruence {!r} is not of the form 'a:m'")
        for token in args.congruences
    )
    found = solve(system)
    if found is None:
        return {"status": "no-solution"}, ["no solution"]
    return (
        {"status": "ok", "residue": found.residue, "modulus": found.modulus},
        [f"x ≡ {found.residue} (mod {found.modulus})"],
    )


def _cmd_count(args: SimpleNamespace) -> tuple[dict, None]:
    first = parse_collection(args.collection_a, args.m)
    second = parse_collection(args.collection_b, args.n)
    how_many = exact_count(first, second)
    record: dict = {"status": "ok", "count": how_many, "modulus": math.lcm(args.m, args.n)}
    if args.enumerate:
        record["solutions"] = _solutions(first, second)[0]
    return record, None


def _cmd_bound(args: SimpleNamespace) -> tuple[dict, None]:
    if args.mode == "arbitrary":
        result = bound_arbitrary(args.m, args.n, args.size_a, args.size_b)
        return {"status": "ok", "bound": result.lower_bound, "case": result.case_tag}, None
    value = bound_intervals(args.m, args.n, args.size_a, args.size_b)
    return {"status": "ok", "bound": value}, None


def _cmd_extremal(args: SimpleNamespace) -> tuple[dict, None]:
    profile_a = extremal_profile(args.size_a, args.cap_a, args.length)
    profile_b = extremal_profile(args.size_b, args.cap_b, args.length)
    result = extremal_sum(args.size_a, args.cap_a, args.size_b, args.cap_b, args.length)
    return {
        "status": "ok",
        "profile_a": profile_a.values,
        "profile_b": profile_b.values,
        "bound": result.lower_bound,
        "case": result.case_tag,
    }, None


def _cmd_tightness(args: SimpleNamespace) -> tuple[dict, list[str]]:
    first, second = pair = tightness_instance(args.scale)
    how_many = exact_count(first, second)
    interval_a, interval_b = (
        {name: getattr(arc, name) for name in arc.__match_args__} for arc in pair
    )
    record = {
        "status": "ok",
        "m": first.modulus,
        "n": second.modulus,
        "interval_a": interval_a,
        "interval_b": interval_b,
        "count": how_many,
    }
    lines = [
        f"m = {first.modulus}",
        f"n = {second.modulus}",
        f"A = {first.start}+{first.length} (mod {first.modulus})",
        f"B = {second.start}+{second.length} (mod {second.modulus})",
        f"count = {how_many}",
    ]
    return record, lines


def _cmd_runner(args: SimpleNamespace) -> tuple[dict, list[str]]:
    import crtcount.runner as runner  # loads fractions

    pair = _int_pair(args.speeds, ",", "speeds {!r} must be two comma-separated integers")
    witness = runner.two_runner_witness(runner.RunnerPair(*pair))
    first, second = witness.distances
    record = {
        "status": "ok",
        "witness_numerator": witness.time.numerator,
        "witness_denominator": witness.time.denominator,
        "distances": [
            {"numerator": d.numerator, "denominator": d.denominator}
            for d in witness.distances
        ],
    }
    return record, [f"t = {witness.time}, distances {first}, {second}"]


_JSON = ("--json", dict(action="store_true", help="emit one JSON record instead of text"))

# name: (help, handler, arguments), _JSON first in each. Each argument is (flag or
# name, add_argument keywords), added in row order, so help and usage keep that order.
_SUBCOMMANDS = {
    "solve": ("solve a system of congruences", _cmd_solve, (
        _JSON,
        ("congruences", dict(nargs="+", metavar="a:m", help="congruence x ≡ a (mod m)")),
    )),
    "count": ("count common solutions of two residue collections", _cmd_count, (
        _JSON,
        ("m", dict(type=int, help="first modulus")),
        ("n", dict(type=int, help="second modulus")),
        ("collection_a", dict(metavar="A", help="collection mod m: {r1,r2,...} or start+len")),
        ("collection_b", dict(metavar="B", help="collection mod n: {r1,r2,...} or start+len")),
        ("--enumerate", dict(action="store_true", help="also list the solution residues")),
    )),
    "bound": ("lower bound on the solution count from sizes alone", _cmd_bound, (
        _JSON,
        ("mode", dict(choices=("arbitrary", "interval"))),
        ("m", dict(type=int, help="first modulus")),
        ("n", dict(type=int, help="second modulus")),
        ("size_a", dict(type=int, help="size of the first collection")),
        ("size_b", dict(type=int, help="size of the second collection")),
    )),
    "extremal": ("worst-case count profiles and their pairing sum", _cmd_extremal, (_JSON, *(
        (name, dict(type=int)) for name in ("size_a", "cap_a", "size_b", "cap_b", "length")
    ))),
    "tightness": ("one-third-density interval pair with no common solution", _cmd_tightness, (
        _JSON,
        ("--M", dict(dest="scale", type=int, required=True,
                     help="scale factor; moduli are 3M and 6M")),
    )),
    "runner": ("time keeping two runners at distance >= 1/3 from the origin", _cmd_runner, (
        _JSON,
        ("--speeds", dict(required=True, metavar="M,N", help="two distinct positive speeds")),
    )),
}


def _value(keywords: dict, token: str):
    """token converted and checked as argparse would, refused when it starts with "-"."""
    value = keywords.get("type", str)(token)
    if token[:1] == "-" or "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(token)
    return value


def _plain(arguments: tuple, tokens: list[str]) -> SimpleNamespace | None:
    """What the subparser reads from tokens in their plain shape, else None.

    Plain: flags exactly as the table spells them, each value after a space
    or an "=" and not starting with "-", the other tokens filling the
    positionals in order (an nargs="+" one from one unbroken run), every value
    converting and every value-taking option given. argparse reads the rest.
    """
    spec, values, words, runs, in_run = dict(arguments), {}, [], 0, False
    tokens = iter(tokens)
    try:
        for token in tokens:
            if token[:1] != "-":
                runs += not in_run
                in_run = True
                words.append(token)
                continue
            flag, joined, value = token.partition("=")
            keywords = spec[flag]  # KeyError: not one of the row's flags
            in_run = False
            store_true = keywords.get("action") == "store_true"
            if store_true and joined:  # argparse refuses it
                return None
            # a store_true flag reads True; a missing value reads as "-", which _value refuses
            values[keywords.get("dest", flag[2:])] = store_true or _value(
                keywords, value if joined else next(tokens, "-")
            )
        for name, keywords in arguments:
            if name[0] == "-":  # an unseen flag reads False; an unseen option defers
                dest = keywords.get("dest", name[2:])
                if dest not in values and keywords.get("action") != "store_true":
                    return None
                values.setdefault(dest, False)
            elif keywords.get("nargs") != "+":
                values[name] = _value(keywords, words.pop(0))  # IndexError: too few
            elif runs > 1 or not words:  # it takes every remaining word, from one run
                return None
            else:
                values[name] = [_value(keywords, word) for word in words]
                words = []
    except (LookupError, ValueError):
        return None
    return None if words else SimpleNamespace(**values)


@functools.cache
def _build_parser():
    """The full argparse parser, built from the same rows; it alone prints help and errors."""
    import argparse  # plain calls never load it

    parser = argparse.ArgumentParser(
        prog="crtcount",
        description=(
            "Exact solution counts and lower bounds for pairs of congruence "
            "collections, plus a two-runner distant-time search."
        ),
    )
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, _, arguments) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            if flag[0] == "-" and keywords.get("action") != "store_true":
                keywords = dict(keywords, type=_dash_value_as_empty(keywords.get("type", str)))
            sub.add_argument(flag, **keywords)
    return parser


def _dash_value_as_empty(convert):
    """convert, except that an option value of "--" reads as [].

    argparse before 3.13 drops such a `--` and hands the option [] without
    converting; 3.13 converts it. Either way run's [] scan then refuses it.
    The name stays convert's, which argparse shows in its errors.
    """

    def read(token: str):
        return [] if token == "--" else convert(token)

    read.__name__ = convert.__name__
    return read


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, dispatch, print the result or refusal, and return the exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    args = _plain(_SUBCOMMANDS[name][2], argv[1:]) if name in _SUBCOMMANDS else None
    try:
        if args is None:  # help, usage errors and unusual spellings: argparse reads argv
            args = _build_parser().parse_args(argv, SimpleNamespace())
            name = args.subcommand
            # argparse hands a `--` given as a value (--M=--, or a second `--`) over as []
            if empty := [key for key, value in vars(args).items() if value == []]:
                raise ValueError(f"argument {empty[0]}: invalid value '--'")
        record, lines = _SUBCOMMANDS[name][1](args)
        code, file = (0 if record["status"] == "ok" else 1), sys.stdout
    except SystemExit as exc:  # argparse exits on usage errors and --help
        return int(exc.code or 0)
    except (OverflowLimitError, ValueError) as exc:  # InfeasibleError is a ValueError
        record, lines = {"status": "error", "message": str(exc)}, [f"error: {exc}"]
        code, file = (1 if isinstance(exc, InfeasibleError) else 2), sys.stderr
    _emit(args.json, record, lines, file)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
