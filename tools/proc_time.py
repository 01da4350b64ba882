"""Time whole crtcount processes: fresh `python -I -S` children of crtcount.cli.main.

For each argv of a fixed sample (every subcommand in text and --json, --help,
a usage error, `--opt=value` spellings and a valid call that only argparse
reads) it spawns one child per round, all argv and the floor taking turns,
so a drift of the host's speed falls on every row alike. It prints, per argv,
the median wall time of a spawn, that median less the floor's, and the exit
status; the floor is a bare `python -I -S -c pass`, which every process pays:

    python3 tools/proc_time.py --spawns 21

--src names the src/ directory the children import crtcount from (default:
the one next to this script), so two trees can be timed on the same sample.
Standard library only; not part of tier-1 (tests/test_proc_time.py checks
the summary arithmetic). Exit status 0, or 1 when an argv's exit status
changed between spawns.
"""

import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CHILD = "import sys; sys.path.insert(0, sys.argv.pop(1)); from crtcount.cli import main; main()"
FLOOR = "floor"  # the row of the bare interpreter

SAMPLE = [
    ["solve", "2:3", "3:5"],
    ["count", "12", "18", "0+4", "3+5"],
    ["count", "16", "12", "{0,1,2,3,5,7,8,9,10,11,13,14}", "3+5", "--enumerate"],
    ["bound", "arbitrary", "4", "6", "3", "3"],
    ["extremal", "3", "2", "3", "2", "4"],
    ["tightness", "--M", "5"],
    ["runner", "--speeds", "3,5"],
]
SAMPLE += [[*argv, "--json"] for argv in SAMPLE] + [
    ["tightness", "--M=5"],  # --opt=value
    ["runner", "--speeds=3,5"],
    ["solve", "--", "2:3", "3:5"],  # valid, but read by argparse
    ["--help"],
    ["count", "--help"],
    ["bound", "middling", "4", "6", "1", "2"],  # a usage error
]


def summarize(times: dict[str, list[float]]) -> dict[str, tuple[float, float]]:
    """Per row, (median, median less the floor's median), in the times' unit."""
    floor = statistics.median(times[FLOOR])
    return {
        label: (statistics.median(values), statistics.median(values) - floor)
        for label, values in times.items()
    }


def spawn(command: list[str]) -> tuple[float, int]:
    """(wall seconds, exit status) of one child, its output discarded."""
    start = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start, done.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spawns", type=int, default=21, help="children per argv")
    parser.add_argument("--src", type=Path, default=SRC, help="where crtcount is imported from")
    args = parser.parse_args()
    if args.spawns < 1:
        parser.error("--spawns must be at least 1")

    base = [sys.executable, "-I", "-S", "-c"]
    commands = {FLOOR: [*base, "pass"]}
    commands.update(
        (" ".join(argv), [*base, CHILD, str(args.src.resolve()), *argv]) for argv in SAMPLE
    )
    times: dict[str, list[float]] = {label: [] for label in commands}
    codes: dict[str, set[int]] = {label: set() for label in commands}
    for _ in range(args.spawns):
        for label, command in commands.items():
            seconds, code = spawn(command)
            times[label].append(seconds * 1e3)
            codes[label].add(code)

    print(
        f"Python {sys.version.split()[0]} -I -S, {args.spawns} spawns per argv, "
        f"crtcount from {args.src}"
    )
    print(f"{'median ms':>10} {'over floor':>11} {'exit':>5}  argv")
    for label, (median, over) in summarize(times).items():
        shown = "/".join(map(str, sorted(codes[label])))
        print(f"{median:>10.2f} {over:>11.2f} {shown:>5}  {label}")
    return 0 if all(len(seen) == 1 for seen in codes.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
