"""crtcount benchmark: one seeded workload, checked answers, one JSON result line.

    python3 perfbench/run.py --workload {cli,runner,count,bounds} --seed N \\
        --seconds T --trace {0,1}

Run from the repository root, against the package in ``src/``. Set-up is
measured first: several fresh interpreters each time ``import crtcount.cli``
and the median is reported. The workload then runs in one more fresh worker
interpreter, as one caller in a closed loop (see worker.py). With
``--trace 0`` the last line carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, and the
spans are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from gauge import REFERENCE_S
from oracles import OUT_OF_RANGE

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("cli", "runner", "count", "bounds")
WORKERS = 4
PROBES_PER_PART = 8
WORKER_TIMEOUT_S = 45

# Runs in a fresh interpreter; times the package import and then the CLI
# module, then reads the machine-speed gauge (see gauge.py).
PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import crtcount
package = time.perf_counter()
import crtcount.cli
done = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import statistics
from gauge import gauge
reading = statistics.median(gauge() for _ in range(5))
print(package - start, done - package, reading, crtcount.__file__)
"""


def probe_import() -> tuple[float, float, float]:
    """(package, cli module) import seconds and a gauge reading, from a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", PROBE, str(SRC_DIR), str(BENCH_DIR)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    package_s, cli_s, reading, origin = done.stdout.split()
    if Path(origin).resolve().parent != SRC_DIR / "crtcount":
        raise RuntimeError(f"imported crtcount from {origin}, not {SRC_DIR}")
    return float(package_s), float(cli_s), float(reading)


def run_worker(args, seconds: float, part: int = 0, parts: int = 1) -> dict:
    command = [
        sys.executable, "-I", str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(args.trace),
        "--out", str(OUT_DIR),
        "--part", str(part),
        "--parts", str(parts),
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(args) -> tuple[list[tuple[float, float, float]], dict]:
    """Import probes and the workload, one child interpreter at a time.

    The first probe is dropped: it may compile the sources to bytecode, which
    a user pays once, not on every invocation. An untraced run is split over
    WORKERS interpreters with probes in between, so that the probes and the
    workload sample the same stretch of time.
    """
    probe_import()
    if args.trace:
        imports = [probe_import() for _ in range(PROBES_PER_PART * WORKERS)]
        result = run_worker(args, args.seconds)
        result.update(tally([result]))
        return imports, result
    imports, parts = [], []
    for part in range(WORKERS):
        imports += [probe_import() for _ in range(PROBES_PER_PART)]
        parts.append(run_worker(args, args.seconds / WORKERS, part, WORKERS))
    result = pool(parts)
    result.update(tally(parts))
    return imports, result


def tally(parts: list[dict]) -> dict:
    """Queries attempted and rejected, counting each spec once over all workers.

    A spec's verdict is that of its first call; a worker that saw another
    verdict for the same spec counts it as a wrong answer. So ``attempted``
    and ``failed`` are the same in every run with the same seed.
    """
    slots: dict[str, dict] = {}
    inconsistent = sum(part["inconsistent"] for part in parts)
    for part in parts:
        for slot, verdict in part["slots"].items():
            first = slots.setdefault(slot, verdict)
            inconsistent += first != verdict
    reasons: dict[str, int] = {}
    for verdict in slots.values():
        for reason in verdict["reasons"]:
            reasons[reason] = reasons.get(reason, 0) + 1
    failed = sum(reasons.values())
    return {
        "attempted": sum(verdict["queries"] for verdict in slots.values()),
        "failed": failed,
        "wrong": failed - reasons.get(OUT_OF_RANGE, 0) + inconsistent,
        "reasons": reasons,
        "covered": len(slots) == parts[0]["specs"],
    }


def pool(parts: list[dict]) -> dict:
    """Latency metrics from the workers' gauge-scaled samples.

    Each spec runs several times, spread over the run, and its fastest call
    is its latency; the percentiles and the throughput are taken over specs.
    """
    repeats: dict[str, list[float]] = {}
    for part in parts:
        for slot, latencies in part["latencies"].items():
            repeats.setdefault(slot, []).extend(latencies)
    best = [min(latencies) for latencies in repeats.values()]
    cuts = statistics.quantiles(best, n=100, method="inclusive")
    return {
        "ops": sum(len(latencies) for latencies in repeats.values()),
        "samples": len(best),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": cuts[49] * 1e3,
        "op_p90_ms": cuts[89] * 1e3,
        "beyond_p90": sum(1 for x in best if x > cuts[89]),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "gauge_s": statistics.median(part["gauge_s"] for part in parts),
        "rejects_corrupted": all(part["rejects_corrupted"] for part in parts),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC_DIR / "crtcount" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: no crtcount sources under {SRC_DIR}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))

    try:
        imports, result = measure(args)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup = [(package + cli) * REFERENCE_S / reading for package, cli, reading in imports]
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"crtcount benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(
        f"machine: {platform.machine()}, {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}; one caller, closed loop"
    )
    values: dict = {}
    if args.trace:
        metrics = spec["per_layer"]
        values.update(result["layer"])
        values["import.crtcount_ms"] = statistics.median(p for p, _, _ in imports) * 1e3
        values["import.crtcount_cli_ms"] = statistics.median(c for _, c, _ in imports) * 1e3
        print(
            f"traced passes: {result['passes']} of {values['trace.ops_per_pass']} ops; "
            f"times are per pass, medians over passes; counts are from one pass"
        )
    else:
        metrics = spec["end_to_end"]
        values.update({metric["name"]: result.get(metric["name"]) for metric in metrics})
        values["setup_s"] = statistics.median(setup)
        print(
            f"samples: {result['samples']} specs, best of {result['ops']} calls "
            f"({result['beyond_p90']} beyond p90), from {WORKERS} worker interpreters; "
            f"{len(imports)} import probes"
        )
        print(
            f"gauge: median {result['gauge_s'] * 1e3:.3f} ms in the workers, "
            f"{statistics.median(g for _, _, g in imports) * 1e3:.3f} ms in the probes; "
            f"times below are scaled to {REFERENCE_S * 1e3:g} ms"
        )
    for metric in metrics:
        print(f"  {metric['name']:<44} {values[metric['name']]:>14.6g} {metric['unit']}")
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} ({failed} of {attempted} queries)")

    checks = {
        "no wrong answers (out-of-64-bit results aside)": result["wrong"] == 0,
        "a deliberately wrong answer is rejected": result["rejects_corrupted"],
        "every spec ran at least once": result["covered"],
    }
    if args.trace:
        checks["counts repeat exactly in every traced pass"] = result["counts_repeat"]
    for label, ok in checks.items():
        print(f"check: {label}: {'ok' if ok else 'FAILED'}")
    top = sorted(result["reasons"].items(), key=lambda item: -item[1])[:5]
    for reason, count in top:
        print(f"rejected x{count}: {reason}")
    print(
        json.dumps(
            {
                "correct": all(checks.values()),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
