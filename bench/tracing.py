"""Per-layer tracing of rootsim, installed from outside the package.

`Tracer.installed()` replaces each traced function at the name its callers
look up (module globals and class attributes), records one span per call
and restores every original on exit. Spans are kept in memory as
[name, start, end, parent index, run index], where the run index is the
index of the enclosing `cli.run_once` span; self times are derived from
them afterwards. Counting wrappers, which record no span, sit on the small
hot graph functions so that their cost stays in their callers' self time.
"""

from __future__ import annotations

import csv
import functools
import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Iterator

# name -> (unit, better, the end-to-end metric and workload it should move).
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "adversary.generate_s": ("s", "lower", "runs_per_s on grid"),
    "adversary.generate_calls": ("count", "lower", "runs_per_s on grid"),
    "adversary.check_s": ("s", "lower", "runs_per_s on grid"),
    "adversary.compound_sequence_s": ("s", "lower", "run_s.p50 on voting; zero on grid and ladder"),
    "graphs.compound_calls": ("count", "lower", "run_s.p50 on voting; zero on grid and ladder"),
    "graphs.root_components_calls": ("count", "lower", "runs_per_s on grid, run_s.p90 on ladder"),
    "graphs.root_components_distinct": ("count", "lower", "runs_per_s on grid, run_s.p90 on ladder"),
    "graphs.root_components_per_graph": ("calls/graph", "lower", "runs_per_s on grid, run_s.p90 on ladder"),
    "engine.run_s": ("s", "lower", "run_s.p90 on ladder"),
    "engine.process_rounds": ("count", "lower", "run_s.p90 on ladder"),
    "algorithms.step_s": ("s", "lower", "run_s.p90 on ladder"),
    "algorithms.step_calls": ("count", "lower", "run_s.p90 on ladder"),
    "detection.estimate_root_s": ("s", "lower", "run_s.p90 on ladder, run_s.p50 on voting"),
    "detection.estimate_root_calls": ("count", "lower", "run_s.p90 on ladder, run_s.p50 on voting"),
    "detection.estimate_root_per_step": ("calls/step", "lower", "run_s.p90 on ladder, run_s.p50 on voting"),
    "detection.estimate_root_found_share": ("share", "higher", "run_s.p90 on ladder, run_s.p50 on voting"),
    "verification.check_s": ("s", "lower", "runs_per_s on grid, run_s.p90 on ladder"),
    "verification.check_detection_soundness_s": ("s", "lower", "runs_per_s on grid, run_s.p90 on ladder"),
    "cli.run_once_s": ("s", "lower", "none: residual, stays near zero"),
    "trace_overhead_share": ("share", "lower", "none: cost of tracing itself"),
}


def _own_public_functions(module) -> list[str]:
    return [
        name
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__
    ]


class Tracer:
    """Spans and counters for the calls made while `installed()` is active."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.root_components_calls = 0
        self.root_graphs: set[Any] = set()
        self.compound_calls = 0
        self.process_rounds = 0
        self.estimates_found = 0

    def _span(self, name: str, fn: Callable, on_result: Callable[[Any], None] | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, stack[0] if stack else idx]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_root_components(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(g, *args, **kwargs):
            self.root_components_calls += 1
            self.root_graphs.add(g)
            return fn(g, *args, **kwargs)

        return wrapper

    def _count_compound(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.compound_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_execution(self, exec_) -> None:
        self.process_rounds += exec_.rounds * exec_.n

    def _on_estimate(self, root) -> None:
        self.estimates_found += root is not None

    def _patches(self) -> list[tuple[Any, str, Callable[[Callable], Callable]]]:
        """(owner, attribute, wrapper factory) for every traced name."""
        from rootsim import adversary, algorithms, cli, detection, engine, graphs, verification

        def span(name, on_result=None):
            return lambda fn: self._span(name, fn, on_result)

        patches = [
            (cli, "run_once", span("cli.run_once")),
            (engine, "run", span("engine.run", self._on_execution)),
            (algorithms.LockingConsensus, "step", span("algorithms.LockingConsensus.step")),
            (algorithms.VotingConsensus, "step", span("algorithms.VotingConsensus.step")),
            (algorithms, "estimate_root", span("detection.estimate_root", self._on_estimate)),
            (detection, "estimate_root", span("detection.estimate_root", self._on_estimate)),
            (graphs, "root_components", self._count_root_components),
            (graphs, "compound", self._count_compound),
        ]
        for module, prefix in ((adversary, "adversary"), (verification, "verification")):
            for name in _own_public_functions(module):
                patches.append((module, name, span(f"{prefix}.{name}")))
        return patches

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        originals = []
        try:
            for owner, attr, factory in self._patches():
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, factory(original))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per span name: summed self time (duration minus child spans), calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value except trace_overhead_share."""
        self_s, calls = self.self_times()

        def total(values: dict, pred: Callable[[str], bool]) -> float:
            return sum(v for k, v in values.items() if pred(k))

        def is_generate(k: str) -> bool:
            return k.startswith("adversary.generate_")

        def is_compound(k: str) -> bool:
            return k == "adversary.compound_sequence"

        def is_check(k: str) -> bool:
            return k.startswith("adversary.") and not is_generate(k) and not is_compound(k)

        def is_step(k: str) -> bool:
            return k.startswith("algorithms.") and k.endswith(".step")

        steps = total(calls, is_step)
        estimates = calls["detection.estimate_root"]
        distinct = len(self.root_graphs)
        return {
            "adversary.generate_s": total(self_s, is_generate),
            "adversary.generate_calls": total(calls, is_generate),
            "adversary.check_s": total(self_s, is_check),
            "adversary.compound_sequence_s": total(self_s, is_compound),
            "graphs.compound_calls": self.compound_calls,
            "graphs.root_components_calls": self.root_components_calls,
            "graphs.root_components_distinct": distinct,
            "graphs.root_components_per_graph": self.root_components_calls / distinct if distinct else 0.0,
            "engine.run_s": self_s["engine.run"],
            "engine.process_rounds": self.process_rounds,
            "algorithms.step_s": total(self_s, is_step),
            "algorithms.step_calls": steps,
            "detection.estimate_root_s": self_s["detection.estimate_root"],
            "detection.estimate_root_calls": estimates,
            "detection.estimate_root_per_step": estimates / steps if steps else 0.0,
            "detection.estimate_root_found_share": self.estimates_found / estimates if estimates else 0.0,
            "verification.check_s": total(self_s, lambda k: k.startswith("verification.")),
            "verification.check_detection_soundness_s": self_s["verification.check_detection_soundness"],
            "cli.run_once_s": self_s["cli.run_once"],
        }

    def write_spans(self, path) -> None:
        """One CSV row per span; times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_s", "end_s", "parent", "run"])
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                out.writerow([i, name, f"{start - t0:.7f}", f"{end - t0:.7f}", parent, run])
