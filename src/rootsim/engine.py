"""Lock-step synchronous execution over a graph sequence.

Processes run a full-information protocol: each round they forward
everything they know along the round's edges, merge what they receive,
and then run the algorithm's round computation, which returns the
process's new state. Whatever that computation derives from its view,
such as a root estimate, is part of the state: the engine records states
and knowledge, and nothing algorithm-specific beside them. Knowledge is
represented compactly: because a process's round-s state contains its
entire history, "p knows q's round-s state" is equivalent to
"s <= lastround_p[q]", so one integer vector per process captures the
whole view. Recorded states live in a single shared store indexed by
(process, round).

A round-r row depends only on the receive set (every process hears
itself): it is the elementwise maximum of the senders' round-(r-1) rows,
each sender's own entry set to r-1. It is one tuple per distinct
in-neighbour mask, which every process with that mask reads and the run
records; the nearly complete compound graphs of voting have few masks.

A step sees its round as one ProcessView: an immutable tuple of its
owner, the round, its row, the state store, the sequence's root
components and the round's memo, so a step cannot rebind any of them.
Each round's root components are computed once per sequence
(GraphSequence.root_sets), and detection.estimate_root reads its
estimates off them. LockingConsensus's lock candidates are computed when
first needed, in a memo that the round's views share and the next round
drops: the engine carries nothing from one round to the next but the
rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Protocol

from .graphs import GraphSequence

NEVER = -1


class EngineError(RuntimeError):
    """An algorithm broke its contract during execution."""


class Algorithm(Protocol):
    """The behavior the engine drives. An instance holds only parameters,
    so one instance can drive any number of executions. Every state has a
    `decision` attribute, the only one the engine reads: None until the
    process decides, then final, and every later state of the process
    must carry it."""

    def initial_state(self, pid: int, x: int) -> Any: ...

    def step(self, state: Any, view: "ProcessView") -> Any:
        """Round computation for round `view.round`: returns the new
        state, which carries any root estimate the computation made."""
        ...

    def trace_fields(self, state: Any) -> dict[str, Any]: ...


class ProcessView(NamedTuple):
    """One process's knowledge at the start of its round-r computation,
    r = `round`: its causal past, as one row. The view is an immutable
    tuple, so assigning any of its fields fails at the assignment.

    `lastround[q]` is the newest round s such that q's round-s state is
    known (NEVER if q was never heard of). It is the only knowledge bound:
    q's round-s state is readable iff 0 <= s <= lastround[q]. The owner's
    own entry is r-1, since its round-r state is what the current
    computation produces, root estimate included, and the round-r senders
    are exactly the processes whose entry is r-1. The row is a tuple too,
    shared by every process with the same receive set and recorded as
    Execution.lastrounds. The view reads states through `state`, which
    raises EngineError outside the view.

    `states` is the run's whole store and `root_sets[s-1]` the round-s
    root components. A step may read `states[q][s]` itself where
    s <= lastround[q], as both algorithms read their senders' round-(r-1)
    states straight off the row. Nothing stops a step from reading
    `states` past its row;
    tests/test_lock_runs.py::test_steps_read_only_their_views audits that
    the shipped algorithms do not.

    `memo` is shared by the views of one round and dropped after it.
    LockingConsensus keeps its round-(r-D) lock candidates there, keyed by
    root. An entry is a function of its key and the round alone, and a
    view reads only the entries whose key its own knowledge yields, so a
    cached entry tells a view nothing it could not compute from what it
    knows. The same audit replays every step with an empty memo.
    """

    owner: int
    round: int
    lastround: tuple[int, ...]
    states: list[list[Any]]
    root_sets: tuple[frozenset[frozenset[int]], ...]
    memo: dict[Any, Any]

    def state(self, q: int, s: int) -> Any:
        if not (0 <= s <= self.lastround[q]):
            raise EngineError(
                f"process {self.owner} has no recorded round-{s} state of {q} at round {self.round}"
            )
        return self.states[q][s]


@dataclass
class Execution:
    """Complete record of one run: inputs, sequence, states, knowledge.
    A trace line is one state's `trace_fields` after its round and pid."""

    inputs: tuple[int, ...]
    seq: GraphSequence
    states: list[list[Any]]  # states[p][s], s = 0..rounds
    lastrounds: list[tuple[tuple[int, ...], ...]]  # [r-1][p] round-r view row, own entry r-1
    trace_fields: Callable[[Any], dict[str, Any]]

    @property
    def n(self) -> int:
        return self.seq.n

    @property
    def rounds(self) -> int:
        return len(self.lastrounds)

    def trace_lines(self) -> Iterator[dict[str, Any]]:
        for r in range(1, self.rounds + 1):
            for p in range(self.n):
                entry: dict[str, Any] = {"round": r, "pid": p}
                entry.update(self.trace_fields(self.states[p][r]))
                yield entry

    def trace_hash(self) -> str:
        h = hashlib.sha256()
        for line in self.trace_lines():
            h.update(json.dumps(line, sort_keys=True).encode())
        return h.hexdigest()

    def write_trace(self, fh) -> None:
        for line in self.trace_lines():
            fh.write(json.dumps(line) + "\n")


def run(
    algorithm: Algorithm,
    inputs: list[int] | tuple[int, ...],
    seq: GraphSequence,
) -> Execution:
    """Execute `algorithm` over `seq` from the given inputs.

    Deterministic: identical arguments give an identical Execution. Decided
    processes keep running their round computation; only the decision value
    is write-once.
    """
    n = seq.n
    if len(inputs) != n:
        raise ValueError(f"got {len(inputs)} inputs for {n} processes")

    states: list[list[Any]] = [[algorithm.initial_state(p, inputs[p])] for p in range(n)]
    lastrounds: list[tuple[tuple[int, ...], ...]] = []
    root_sets = seq.root_sets
    # Before round 1 nobody knows any state, its own included: the merge
    # sets each sender's own entry.
    sent = ((NEVER,) * n,) * n

    for r, graph in enumerate(seq.graphs, start=1):
        newest = r - 1  # one int object for every entry it fills this round
        rows: dict[int, tuple[int, ...]] = {}
        for mask in graph.ins:
            if mask in rows:
                continue
            # No sent row holds a round past r-2, so a sender's own entry
            # can be set as soon as its row is merged.
            low = mask & -mask
            q = low.bit_length() - 1
            row = list(sent[q])
            row[q] = newest
            rest = mask ^ low
            while rest:
                low = rest & -rest
                rest ^= low
                q = low.bit_length() - 1
                other = sent[q]
                for i in range(n):
                    if other[i] > row[i]:
                        row[i] = other[i]
                row[q] = newest
            rows[mask] = tuple(row)
        views = tuple([rows[mask] for mask in graph.ins])

        memo: dict[Any, Any] = {}
        for p in range(n):
            # tuple.__new__ skips the keyword handling of ProcessView(...).
            view = tuple.__new__(ProcessView, (p, r, views[p], states, root_sets, memo))
            old = states[p][newest]
            try:
                new_state = algorithm.step(old, view)
            except EngineError:
                raise
            except Exception as exc:  # pragma: no cover - contract breach path
                raise EngineError(f"algorithm failed at round {r}, process {p}: {exc}") from exc
            decision = old.decision
            if decision is not None and new_state.decision != decision:
                raise EngineError(f"process {p} revoked its decision at round {r}")
            states[p].append(new_state)
        lastrounds.append(views)
        sent = views

    return Execution(
        inputs=tuple(inputs),
        seq=seq,
        states=states,
        lastrounds=lastrounds,
        trace_fields=algorithm.trace_fields,
    )
