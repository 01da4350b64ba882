"""Check that tools/cli_digest.py prints the same digests under several Pythons.

Runs `cli_digest.py --seed 1`, `--seed 2` and `--seed 3` under each
interpreter named on the command line. Each run imports crtcount from the
src/ directory of this tree, so every interpreter reads the same code; the
interpreters need only the standard library. The first interpreter is the
reference: every other one is reported as agreeing with it or as differing,
with the seeds whose digest moved. Not part of tier-1:

    python3 tools/digest_versions.py python3.11 python3.10 python3.12 python3.13

Every interpreter's version is read before any digest runs. Exit status 0
means every interpreter printed the reference's digests; 1 means some did
not; 2 means some interpreter did not start, and no digest ran.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().with_name("cli_digest.py")
SEEDS = (1, 2, 3)


def _output(python: str, *arguments: str) -> str:
    # -I: no PYTHONPATH, user site or current directory, so src/ is the only crtcount
    command = [python, "-I", *arguments]
    return subprocess.run(command, capture_output=True, text=True, check=True).stdout


def version(python: str) -> str:
    """The interpreter's version, as platform.python_version() prints it."""
    return _output(python, "-c", "import platform; print(platform.python_version())").strip()


def digests(python: str) -> list[str]:
    """Per seed, cli_digest.py's two output lines."""
    return [_output(python, str(DIGEST), "--seed", str(seed)) for seed in SEEDS]


def _first_line(error: OSError | subprocess.CalledProcessError) -> str:
    if isinstance(error, OSError):
        return str(error)
    lines = error.stderr.strip().splitlines()
    return lines[0] if lines else f"exit status {error.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pythons", nargs="+", help="interpreter paths; the first is the reference")
    args = parser.parse_args()
    versions = []
    for python in args.pythons:
        try:
            versions.append(version(python))
        except (OSError, subprocess.CalledProcessError) as error:
            print(f"error: {python} did not start: {_first_line(error)}", file=sys.stderr)
            return 2
    reference, agree = None, True
    for python, python_version in zip(args.pythons, versions):
        outputs = digests(python)
        if reference is None:
            reference, verdict = outputs, "reference"
        else:
            moved = [str(seed) for seed, a, b in zip(SEEDS, reference, outputs) if a != b]
            verdict = f"differs on seed {', '.join(moved)}" if moved else "agrees"
            agree = agree and not moved
        print(f"{python} (Python {python_version}): {verdict}")
        for seed, output in zip(SEEDS, outputs):
            hexdigest, tallies = output.splitlines()
            print(f"  seed {seed}  {hexdigest.split()[0][:8]}  {tallies}")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
