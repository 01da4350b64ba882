"""Span recorder installed around crtcount's public functions for a traced pass.

Each traced function gets a wrapper that records a span (id, name, start,
end, parent span, operation id) and its self time, which is the span's
duration minus the time covered by its traced children. Functions called in
a hot loop (``solve`` inside ``two_runner_witness``) are not kept as spans:
their call count and summed time are aggregated per parent span instead.

The wrapper is bound in every ``crtcount`` module namespace that holds the
original function, because modules import names directly (``runner`` and
``cli`` both bind ``solve``). Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from time import perf_counter

from oracles import fits_int64


def _count_solve(counts, args, result):
    counts["congruence.solve.solved"] += result is not None


def _count_partition(counts, args, result):
    collection, divisor = args
    counts["residues.partition_counts.members_touched"] += collection.size
    counts["residues.partition_counts.slots_allocated"] += divisor


def _count_enumerate(counts, args, result):
    a, b = args[0], args[1]
    counts["residues.enumerate_solutions.span_scanned"] += (
        a.modulus // math.gcd(a.modulus, b.modulus) * b.modulus
    )
    counts["residues.enumerate_solutions.solutions"] += len(result)


def _count_bound(counts, args, result):
    value = result if isinstance(result, int) else result.lower_bound
    counts["bounds.out_of_range_results"] += not fits_int64(value)


def _count_profile(counts, args, result):
    counts["bounds.extremal_profile.entries_built"] += len(result.values)


def _count_exit(counts, args, result):
    if result in (1, 2):
        counts[f"cli.exit_{result}"] += 1


# qualified name -> (aggregate per parent instead of keeping spans, counter)
TRACED = {
    "congruence.solve": (True, _count_solve),
    "runner.two_runner_witness": (False, None),
    "runner.distant_interval": (False, None),
    "residues.partition_counts": (False, _count_partition),
    "residues.exact_count": (False, None),
    "residues.enumerate_solutions": (False, _count_enumerate),
    "bounds.bound_arbitrary": (False, _count_bound),
    "bounds.bound_intervals": (False, _count_bound),
    "bounds.extremal_sum": (False, _count_bound),
    "bounds.density_guarantee": (False, None),
    "bounds.extremal_profile": (False, _count_profile),
    "cli.run": (False, _count_exit),
    "cli.parse_collection": (False, None),
}


class Tracer:
    """Records spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = None  # id of the benchmark operation in progress
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.aggregates: dict[tuple, list] = {}  # (parent id, name) -> [calls, seconds]
        self.calls: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self._names: dict[int, str] = {}  # span id -> name, for parents of aggregates
        self._stack: list[list] = []  # open spans: [id, seconds covered by children]
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, aggregate, counter):
        tracer = self
        stack = self._stack

        if aggregate:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[1] += elapsed
                    slot = tracer.aggregates.setdefault(
                        (parent[0] if parent else None, name), [0, 0.0]
                    )
                    slot[0] += 1
                    slot[1] += elapsed
                    tracer.calls[name] += 1
                    tracer.self_seconds[name] += elapsed
                if counter is not None:
                    counter(tracer.counts, args, result)
                return result

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = len(tracer._names)
            tracer._names[span_id] = name
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                tracer.spans.append((span_id, name, start, end, parent, tracer.op))
                tracer.calls[name] += 1
                tracer.self_seconds[name] += elapsed - frame[1]
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Bind a wrapper for each traced function in every crtcount namespace."""
        modules = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name == "crtcount" or module_name.startswith("crtcount.")
        ]
        for qualname, (aggregate, counter) in TRACED.items():
            module_name, attr = qualname.split(".")
            original = getattr(sys.modules[f"crtcount.{module_name}"], attr)
            wrapper = self._wrap(qualname, original, aggregate, counter)
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, bound_name, wrapper)
                        self._patched.append((module, bound_name, original))

    def uninstall(self) -> None:
        while self._patched:
            module, bound_name, original = self._patched.pop()
            setattr(module, bound_name, original)

    def pairs_tried(self) -> int:
        """Solver calls made directly by two_runner_witness spans."""
        return sum(
            calls
            for (parent, name), (calls, _) in self.aggregates.items()
            if name == "congruence.solve"
            and self._names.get(parent) == "runner.two_runner_witness"
        )

    def dump(self, path, meta: dict) -> None:
        record = dict(meta)
        record["spans"] = [
            dict(zip(("id", "name", "start", "end", "parent", "op"), span))
            for span in self.spans
        ]
        record["aggregates"] = [
            {"parent": parent, "name": name, "calls": calls, "seconds": seconds}
            for (parent, name), (calls, seconds) in self.aggregates.items()
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
