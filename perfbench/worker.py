"""One workload run in a fresh interpreter: the closed loop, the checks, the trace.

Started by run.py as ``python3 -I worker.py --workload W --seed S
--seconds T --trace 0|1 --out DIR [--part J --parts N]``. Part J of N starts
its cycle J/N of the way through the specs. One caller sends the next
operation only after the previous one returns; there are no threads and no
subprocesses. Prints one JSON object on its last line of stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]  # -I leaves both off the path

import crtcount  # noqa: E402
from gauge import REFERENCE_S, gauge  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_SECONDS = 35.0  # per worker, so four workers end well within a run's time limit


class Checker:
    """Checks every answer against the oracles, keeping expected answers per spec.

    Every call is checked, but the tally counts each spec once: its queries
    and the rejections of its first call. So ``attempted`` and ``failed``
    depend on the seed alone, not on how many calls fit in the time. A later
    call on the same spec that is rejected differently is a wrong answer.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.expected: dict[int, object] = {}
        self.slots: dict[int, dict] = {}
        self.inconsistent = 0

    def verdict(self, index, spec, inputs, output) -> list[str]:
        expected = self.expected.get(index)
        if expected is None:
            expected = self.workload.expect(spec, inputs)
            if getattr(self.workload, "memoize", True):
                self.expected[index] = expected
        return self.workload.check(spec, inputs, output, expected)

    def record(self, index, spec, inputs, output) -> None:
        reasons = self.verdict(index, spec, inputs, output)
        first = self.slots.setdefault(
            index, {"queries": self.workload.queries(spec), "reasons": reasons}
        )
        if first["reasons"] != reasons:
            self.inconsistent += 1

    def rejects_corrupted(self) -> bool:
        """Self-check: one deliberately wrong answer must be rejected."""
        workload = self.workload
        spec = workload.specs[0]
        inputs = workload.prepare(spec)
        output = workload.call(inputs)
        before = len(self.verdict(0, spec, inputs, output))
        after = len(self.verdict(0, spec, inputs, workload.corrupt(spec, output)))
        return after > before


def run_untraced(workload, checker: Checker, seconds: float, first: int, min_ops: int) -> dict:
    """Cycle through the specs from index ``first`` for the given time.

    Returns each spec's call latencies, scaled by the machine-speed gauge
    (the median of the last nine gauge readings, one taken before each call).
    Latency covers the call only; preparing inputs and checking the answer
    run between calls.
    """
    latencies: dict[int, list[float]] = {}
    readings: list[float] = []
    specs = workload.specs
    began = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - began
        if (elapsed >= seconds and done >= min_ops) or elapsed >= MAX_SECONDS:
            break
        slot = (first + done) % len(specs)
        spec = specs[slot]
        inputs = workload.prepare(spec)
        readings.append(gauge())
        scale = REFERENCE_S / statistics.median(readings[-9:])
        start = time.perf_counter()
        output = workload.call(inputs)
        latencies.setdefault(slot, []).append((time.perf_counter() - start) * scale)
        checker.record(slot, spec, inputs, output)
        del output, inputs
        done += 1
    return {
        "latencies": latencies,
        "gauge_s": statistics.median(readings),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_pass(workload, checker: Checker, tracer) -> float:
    """One pass over the first trace_ops specs; returns the summed call time."""
    total = 0.0
    for index, spec in enumerate(workload.specs[: workload.trace_ops]):
        inputs = workload.prepare(spec)
        if tracer is not None:
            tracer.op = index
            tracer.enabled = True
        start = time.perf_counter()
        output = workload.call(inputs)
        total += time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        checker.record(index, spec, inputs, output)
    return total


def run_traced(workload, checker: Checker, seconds: float, trace_file: Path) -> dict:
    """Alternate untraced and traced passes over the same operations.

    Counts must repeat exactly from one traced pass to the next; times are
    medians over passes. The spans of the first traced pass are written out.
    """
    untraced: list[float] = []
    traced: list[float] = []
    counts: list[dict] = []
    self_ms: list[dict] = []
    began = time.perf_counter()
    while len(traced) < 2 or (
        time.perf_counter() - began < seconds and time.perf_counter() - began < MAX_SECONDS
    ):
        # Alternate which side runs first, so that order effects cancel.
        for is_traced in (True, False) if len(traced) % 2 else (False, True):
            if not is_traced:
                untraced.append(run_pass(workload, checker, None))
                continue
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run_pass(workload, checker, tracer))
            finally:
                tracer.uninstall()
            snapshot = {f"{name}.calls": tracer.calls[name] for name in TRACED}
            snapshot.update(tracer.counts)
            snapshot["runner.pairs_tried"] = tracer.pairs_tried()
            counts.append(snapshot)
            self_ms.append({name: tracer.self_seconds[name] * 1e3 for name in TRACED})
            if len(traced) == 1:
                tracer.dump(trace_file, {"workload": workload.name, "ops": workload.trace_ops})

    first = counts[0]
    median_ms = {name: statistics.median(run[name] for run in self_ms) for name in TRACED}
    ops = workload.trace_ops
    overhead = statistics.median(traced) - statistics.median(untraced)
    layer = layer_metrics(first, median_ms)
    layer.update(
        {
            "trace.ops_per_pass": ops,
            "trace.overhead_ms_per_op": overhead / ops * 1e3,
            "trace.overhead_pct": overhead / statistics.median(untraced) * 100,
        }
    )
    return {
        "counts_repeat": all(run == first for run in counts),
        "passes": len(traced),
        "layer": layer,
    }


def layer_metrics(counts: dict, self_ms: dict) -> dict:
    """Per-layer metrics of one traced pass: calls and self time per function, plus counts."""
    metrics: dict = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = counts[f"{name}.calls"]
        metrics[f"{name}.self_ms"] = self_ms[name]
    solves = counts["congruence.solve.calls"]
    scanned = counts.get("residues.enumerate_solutions.span_scanned", 0)
    metrics.update(
        {
            "congruence.solve.solved_ratio": (
                counts.get("congruence.solve.solved", 0) / solves if solves else 0.0
            ),
            "runner.pairs_tried": counts["runner.pairs_tried"],
            "residues.enumerate_solutions.span_scanned": scanned,
            "residues.enumerate_solutions.hit_ratio": (
                counts.get("residues.enumerate_solutions.solutions", 0) / scanned
                if scanned
                else 0.0
            ),
        }
    )
    for key in (
        "residues.partition_counts.members_touched",
        "residues.partition_counts.slots_allocated",
        "bounds.extremal_profile.entries_built",
        "bounds.out_of_range_results",
        "cli.exit_1",
        "cli.exit_2",
    ):
        metrics[key] = counts.get(key, 0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args()

    if Path(crtcount.__file__).resolve().parent != SRC_DIR / "crtcount":
        print(f"error: imported crtcount from {crtcount.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    # The specs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()
    checker = Checker(workload)
    result: dict = {}
    if args.trace:
        os.makedirs(args.out, exist_ok=True)
        trace_file = Path(args.out) / f"trace-{args.workload}-seed{args.seed}.json"
        result.update(run_traced(workload, checker, args.seconds, trace_file))
        result["trace_file"] = str(trace_file)
    else:
        # Together the parts run every spec at least once.
        first = args.part * len(workload.specs) // args.parts
        min_ops = -(-len(workload.specs) // args.parts)
        result.update(run_untraced(workload, checker, args.seconds, first, min_ops))
    result.update(
        specs=workload.trace_ops if args.trace else len(workload.specs),
        slots=checker.slots,
        inconsistent=checker.inconsistent,
        rejects_corrupted=checker.rejects_corrupted(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
