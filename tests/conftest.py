"""Shared helpers for the test suite."""

from __future__ import annotations

import random

from rootsim.graphs import CommGraph, GraphSequence
from rootsim import engine


def random_graph(rng: random.Random, n: int, density: float = 0.3) -> CommGraph:
    edges = {
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    }
    return CommGraph(n, edges)


def random_sequence(rng: random.Random, n: int, rounds: int, density: float = 0.3) -> GraphSequence:
    return GraphSequence(n, tuple(random_graph(rng, n, density) for _ in range(rounds)))


class ProbeState(tuple):
    """A (pid, input) pair that never decides."""

    decision = None


class Probe:
    """Minimal algorithm whose state is just its (pid, input); exposes a
    per-round hook so tests can interrogate live process views."""

    def __init__(self, hook=None):
        self.hook = hook

    def initial_state(self, pid: int, x: int):
        return ProbeState((pid, x))

    def step(self, state, view: engine.ProcessView):
        if self.hook is not None:
            self.hook(state, view, view.round)
        return state

    def trace_fields(self, state):
        return {"pid_input": list(state)}


def sink_mutation_sequence(rounds: int = 20) -> GraphSequence:
    """Three processes, alternating single-member roots {0} and {1}, with
    process 2 a permanent sink.

    Process 2 never detects any root (each round's root member never sends
    to it the round after), and nobody ever sees process 2's states, so the
    only way process 2 can converge to the stable locked value is the
    unanimous-locked-value adoption rule. Used to show the convergence
    checker catches algorithms with that rule (or the backoff) disabled.
    """
    a = CommGraph(3, [(0, 1), (0, 2)])  # root {0}
    b = CommGraph(3, [(1, 0), (1, 2)])  # root {1}
    return GraphSequence(3, tuple(a if r % 2 else b for r in range(1, rounds + 1)))


def short_diameter_sequence() -> GraphSequence:
    """Six processes, D = 2: a star from 5, then three rounds with root
    {0, 1, 2}, whose members broadcast in round 2 only. Rounds 3 and 4 add
    a chain 2 -> 3 -> 4 -> 5 below the root, so across the window 3..4
    process 3 hears the whole root, 4 misses 0 and 1, and 5 misses all of
    it."""
    n = 6
    ring = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    broadcast = CommGraph(n, ring + [(u, v) for u in range(3) for v in range(3, n)])
    sparse = CommGraph(n, ring + [(2, 3), (3, 4), (4, 5)])
    return GraphSequence(n, (CommGraph(n, [(5, v) for v in range(5)]), broadcast, sparse, sparse))


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion, outside output capture."""
    import sys

    mod = next(
        (m for name, m in sys.modules.items() if name.endswith("test_acceptance")),
        None,
    )
    lines = getattr(mod, "CRITERION_LINES", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
