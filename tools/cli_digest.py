"""Print one SHA-256 digest of the CLI's behaviour over seeded random argv.

Runs crtcount.cli.run in-process on argv lists drawn from a seeded
generator and hashes every (argv, exit status, stdout, stderr). A second
line tallies the outcomes (each exit status, and each type of exception
that escaped run), so two trees with different digests show which outcomes
moved. The argv cover all six subcommands in text and --json mode, --help,
malformed tokens, and values above 2**63. Inputs stay cheap under the real caps: an
--enumerate run has either small moduli or an lcm far above the cap, and an
extremal length is either small or above the cap.

It imports crtcount from the src/ directory next to this script. To compare
two trees, copy this script into the other tree's tools/ directory and run it
in both; equal digests mean their CLIs printed the same bytes and exit
statuses on every argv:

    python3 tools/cli_digest.py --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

MALFORMED = [
    "x", "", "1.5", "0x10", "1e3", "--",
    "+", "-", "3:", ":4", "{1,x}", "{", "1+2+3",
]

COUNT = 7500  # argv per digest

SUBCOMMANDS = ["solve", "count", "bound", "extremal", "tightness", "runner"]


def _int(rng: random.Random) -> int:
    roll = rng.random()
    if roll < 0.55:
        return rng.randint(-3, 60)
    if roll < 0.75:
        return rng.randint(61, 10**6)
    if roll < 0.9:
        return 2**63 + rng.randint(-3, 3)
    return rng.choice([2**64, 10**20, -(2**63) - 1, rng.randint(2**63, 2**64)])


def _token(rng: random.Random) -> str:
    return rng.choice(MALFORMED) if rng.random() < 0.05 else str(_int(rng))


def _collection(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.45:
        return "{" + ",".join(_token(rng) for _ in range(rng.randint(0, 6))) + "}"
    if roll < 0.9:
        return f"{_token(rng)}+{_token(rng)}"
    return rng.choice(MALFORMED + ["plain", "{}", "0+0"])


def _separator(rng: random.Random) -> list[str]:
    return ["--"] if rng.random() < 0.2 else []


def _argv(rng: random.Random) -> list[str]:
    kind = rng.choice([*SUBCOMMANDS, "other"])
    flags = ["--json"] if rng.random() < 0.5 else []
    if kind == "solve":
        tokens = [f"{_token(rng)}:{_token(rng)}" for _ in range(rng.randint(0, 5))]
        return ["solve", *flags, *_separator(rng), *tokens]
    if kind == "count":
        if rng.random() < 0.2:
            flags.append("--enumerate")
            # small moduli, or an lcm far above the enumeration cap
            moduli = [
                str(rng.choice([rng.randint(1, 60), rng.randint(10**8, 2**64)]))
                for _ in range(2)
            ]
        else:
            moduli = [_token(rng), _token(rng)]
        collections = [_collection(rng), _collection(rng)]
        return ["count", *flags, *_separator(rng), *moduli, *collections]
    if kind == "bound":
        mode = rng.choice(["arbitrary", "interval", "arbitrary", "interval", "other"])
        arity = rng.randint(3, 5) if rng.random() < 0.05 else 4
        sizes = [_token(rng) for _ in range(arity)]
        return ["bound", *flags, *_separator(rng), mode, *sizes]
    if kind == "extremal":
        values = [_token(rng) for _ in range(4)]
        length = rng.choice([rng.randint(-1, 40), 10**7 + 1, 2**63])
        return ["extremal", *flags, *_separator(rng), *values, str(length)]
    if kind == "tightness":
        value = _token(rng)
        return ["tightness", *flags, f"--M={value}"]
    if kind == "runner":
        speeds = ",".join(_token(rng) for _ in range(rng.choice([2, 2, 2, 1, 3])))
        return ["runner", *flags, f"--speeds={speeds}"]
    return rng.choice(
        [
            [],
            ["--help"],
            ["--json"],
            ["nonsense"],
            [rng.choice(SUBCOMMANDS), "--help"],
            ["tightness", *flags],
            ["runner", "--speeds"],
        ]
    )


@patch.dict(os.environ, COLUMNS="80")
def digest(seed: int) -> tuple[str, Counter]:
    """SHA-256 over (argv, outcome, stdout, stderr) for COUNT argv, and the outcomes.

    The outcome is the exit status, or the type of an exception escaping run.
    Help is read at 80 columns whatever the caller's COLUMNS, so the digest
    depends on its seed alone.
    """
    from crtcount.cli import run

    rng = random.Random(seed)
    sha = hashlib.sha256()
    outcomes: Counter = Counter()
    for _ in range(COUNT):
        argv = _argv(rng)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                outcome = f"exit {run(argv)}"
            except Exception as exc:  # a crash is part of the behaviour hashed
                outcome = f"raised {type(exc).__name__}"
        outcomes[outcome] += 1
        record = json.dumps([argv, outcome, out.getvalue(), err.getvalue()])
        sha.update(record.encode() + b"\n")
    return sha.hexdigest(), outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    hexdigest, outcomes = digest(args.seed)
    print(f"{hexdigest}  {COUNT} argv")
    print("  ".join(f"{outcome}: {n}" for outcome, n in sorted(outcomes.items())))


if __name__ == "__main__":
    main()
