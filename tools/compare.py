"""Compare two revisions' src/ on the committed benchmark, in alternating pairs.

For each side it builds a temporary tree from this checkout's perfbench/ and
BENCHMARK.json and that revision's src/ (taken with `git archive`), so both
sides run the same benchmark and differ only in the library. It then runs
perfbench/run.py on the two trees over N pairs, each pair on a fresh seed
shared by both sides, alternating which side runs first, and prints one table
per workload:

    python3 tools/compare.py --workload bounds --pairs 10 --seed 7001

Each run lasts BENCHMARK.json's run_seconds. The change is --head (default
HEAD) and the base is --base (default the head's parent); both take any
revision git knows, so uncommitted work can be measured through
`git stash create`. For each end-to-end metric in
BENCHMARK.json a row gives the two medians, the base's interquartile range,
the relative change of the medians, the pairs the change won and a verdict:
"worse beyond bound" when the median moved the wrong way by more than the
metric's bound; "unresolved" when the base's IQR is wider than the bound and
not every head run beat every base run; "gain" when there were at least 10
pairs, the change won at least 9 in 10 of them and its median moved the right
way by more than the base's IQR; else "within bound".
No gain is reported when any run printed "correct": false or when the two
sides' "failed" counts differ on a seed.

Standard library only; it needs CPython 3.10.12+ or 3.11.4+, whose tarfile
takes extractall's filter. Not part of tier-1 (tests/test_compare.py checks
the summary arithmetic). Exit status 0 when no metric is worse beyond its bound
and every run could be trusted, 1 otherwise, 2 when a run or git failed.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WIN_SHARE = 0.9  # a gain needs the change ahead in at least this share of pairs
GAIN_PAIRS = 10  # and at least this many pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base: list[float], head: list[float], better: str, bound: float) -> dict:
    """One metric over paired runs: base[i] and head[i] ran on the same seed."""
    q1, base_median, q3 = quartiles(base)
    head_median = statistics.median(head)
    sign = 1 if better == "higher" else -1
    change = (head_median - base_median) / base_median
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    apart = min(head) > max(base) if sign > 0 else max(head) < min(base)  # every run better
    if -sign * change > bound:
        verdict = "worse beyond bound"
    elif q3 - q1 > bound * base_median and not apart:
        verdict = "unresolved"  # the base's own spread is wider than the bound
    elif (
        len(base) >= GAIN_PAIRS
        and wins >= WIN_SHARE * len(base)
        and sign * (head_median - base_median) > q3 - q1
    ):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "base_median": base_median,
        "head_median": head_median,
        "base_iqr": q3 - q1,
        "change": change,
        "wins": wins,
        "pairs": len(base),
        "verdict": verdict,
    }


def distrust(runs: dict[str, list[dict]]) -> str | None:
    """Why no gain may be reported from these paired runs, or None when they can be trusted."""
    for side, results in runs.items():
        if not all(result["correct"] for result in results):
            return f'a {side} run printed "correct": false'
    for base, head in zip(runs["base"], runs["head"]):
        if base["failed"] != head["failed"]:
            return f'"failed" differs on one seed: base {base["failed"]}, head {head["failed"]}'
    return None


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def build_tree(revision: str, destination: Path) -> None:
    """This checkout's benchmark with the revision's src/ at destination."""
    skipped = shutil.ignore_patterns("__pycache__", "out")  # out/: trace files
    shutil.copytree(ROOT / "perfbench", destination / "perfbench", ignore=skipped)
    shutil.copy2(ROOT / "BENCHMARK.json", destination)  # run.py refuses a tree without it
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", revision, "src"))) as tar:
        tar.extractall(destination, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced perfbench run in tree."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"run.py exited {done.returncode} in {tree.name}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def compare(trees: dict[str, Path], workload: str, seconds: float, args) -> dict[str, list[dict]]:
    """Both sides' results over args.pairs seeds, the first side alternating."""
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    for pair in range(args.pairs):
        seed = args.seed + pair
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
        rates = ", ".join(
            f"{side} {runs[side][-1]['metrics']['ops_per_s']['value']:.6g} ops/s" for side in order
        )
        print(f"  {workload} pair {pair + 1}/{args.pairs}, seed {seed}: {rates}", flush=True)
    return runs


def report(workload: str, runs: dict[str, list[dict]], metrics: list[dict]) -> bool:
    """Print one workload's table; True when nothing in it is worse beyond bound or untrusted."""
    reason = distrust(runs)
    failed = {side: sorted({r["failed"] for r in results}) for side, results in runs.items()}
    print(f"{workload}: failed base {failed['base']}, head {failed['head']}")
    print(
        f"  {'metric':<12} {'base median':>13} {'head median':>13} {'base IQR':>11}"
        f" {'change':>8} {'wins':>6}  verdict"
    )
    ok = reason is None
    for metric in metrics:
        name = metric["name"]
        values = {
            side: [result["metrics"][name]["value"] for result in results]
            for side, results in runs.items()
        }
        row = summarize(values["base"], values["head"], metric["better"], metric["bound"])
        verdict = row["verdict"]
        if verdict == "gain" and reason:
            verdict = "no gain reported"
        ok = ok and verdict != "worse beyond bound"
        print(
            f"  {name:<12} {row['base_median']:>13.6g} {row['head_median']:>13.6g}"
            f" {row['base_iqr']:>11.4g} {row['change']:>+8.1%}"
            f" {row['wins']:>3}/{row['pairs']:<2}  {verdict}"
        )
    if reason:
        print(f"  no gain reported: {reason}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="pair i runs on seed + i")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--base", help="default: the head's parent")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    try:
        revisions = {
            "base": git("rev-parse", "--short", args.base or f"{args.head}^"),
            "head": git("rev-parse", "--short", args.head),
        }
        revisions = {side: revision.decode().strip() for side, revision in revisions.items()}
        print(
            f"base {revisions['base']}, head {revisions['head']}; "
            f"{args.pairs} pairs of {spec['run_seconds']:g} s"
        )
        ok = True
        with tempfile.TemporaryDirectory(prefix="crtcount-compare-") as scratch:
            trees = {side: Path(scratch) / side for side in revisions}
            for side, revision in revisions.items():
                build_tree(revision, trees[side])
            for workload in args.workload:
                runs = compare(trees, workload, spec["run_seconds"], args)
                ok = report(workload, runs, spec["end_to_end"]) and ok
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.stderr.decode().strip()}", file=sys.stderr)
        return 2
    except (RuntimeError, TypeError, ValueError) as exc:  # failed run, old tarfile, no JSON line
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
