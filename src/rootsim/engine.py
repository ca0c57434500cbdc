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

The merge of a round is a function of the receive set alone (every
process hears itself), so it is computed once per distinct in-neighbour
mask of the round; processes with the same mask each get their own copy.
Nearly complete graphs, such as the compound graphs of the voting
algorithm, share a few masks among all processes.

Facts that depend only on the sequence and on recorded states, not on who
reads them, are computed once per run in a memo that every view shares.
It starts with each round's root for views that know every report of
that round (detection.seeded_memo); root estimates for partial knowledge
and lock candidates are added as they are first needed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Protocol

from .detection import seeded_memo
from .graphs import CommGraph, GraphSequence, members

NEVER = -1


class EngineError(RuntimeError):
    """An algorithm broke its contract during execution."""


class Algorithm(Protocol):
    """The behavior the engine drives. An instance holds only parameters,
    so one instance can drive any number of executions."""

    def initial_state(self, pid: int, x: int) -> Any: ...

    def step(self, state: Any, view: "ProcessView", r: int) -> Any:
        """Round computation: returns the new state, which carries any
        root estimate the computation made."""
        ...

    def trace_fields(self, state: Any) -> dict[str, Any]: ...


class ProcessView:
    """One process's knowledge at the start of its round-r computation.

    `lastround[q]` is the newest round s such that q's round-s state is
    known (NEVER if q was never heard of). It is the only knowledge bound:
    q's round-s state is readable iff 0 <= s <= lastround[q]. The owner's
    own entry is r-1, since its round-r state is what the current
    computation produces, root estimate included. Every state read goes
    through `state`, which raises EngineError outside the view, or through
    `newest`, which reads only each process's newest known state.

    `memo` is shared by every view of one run. It holds the root estimates
    of detection.estimate_root, keyed (s, mask of the processes whose
    round-s reports are known) and seeded with the full-knowledge entry of
    every round, and LockingConsensus's lock candidates, keyed (s, root)
    with a frozenset root, so the two kinds of key never meet. An entry is
    a function of its key alone, and a view reads only the entries whose
    key its own knowledge yields, so a cached entry tells a view nothing it
    could not compute from what it knows.
    """

    __slots__ = ("owner", "round", "n", "lastround", "_states", "_graphs", "memo")

    def __init__(
        self,
        owner: int,
        r: int,
        lastround: list[int],
        states: list[list[Any]],
        graphs: tuple[CommGraph, ...],
        memo: dict[Any, Any],
    ):
        self.owner = owner
        self.round = r
        self.n = len(lastround)
        self.lastround = lastround
        self._states = states
        self._graphs = graphs  # graphs[s-1] is the round-s graph
        self.memo = memo

    def state(self, q: int, s: int) -> Any:
        if not (0 <= s <= self.lastround[q]):
            raise EngineError(
                f"process {self.owner} has no recorded round-{s} state of {q} at round {self.round}"
            )
        return self._states[q][s]

    def newest(self, lo: int) -> list[tuple[int, int, Any]]:
        """(q, s, q's round-s state) for every q whose newest known round s
        is at least lo >= 0; each such read lies inside the view."""
        if lo < 0:
            raise ValueError(f"need lo >= 0, got {lo}")
        states = self._states
        return [(q, s, states[q][s]) for q, s in enumerate(self.lastround) if s >= lo]

    def in_report_mask(self, q: int, s: int) -> int | None:
        """IN_q of round s as reported by q itself, as an in-neighbour bit
        mask, or None if unknown.

        A round-s report travels inside q's round-s state; additionally the
        owner knows its own current receive set before computing.
        """
        if 1 <= s <= (self.round if q == self.owner else self.lastround[q]):
            return self._graphs[s - 1].ins[q]
        return None


@dataclass
class Execution:
    """Complete record of one run: inputs, sequence, states, knowledge.
    A trace line is one state's `trace_fields` after its round and pid."""

    inputs: tuple[int, ...]
    seq: GraphSequence
    states: list[list[Any]]  # states[p][s], s = 0..rounds
    lastrounds: list[tuple[tuple[int, ...], ...]]  # [r-1][p] post-round vector
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
    lr: list[list[int]] = [[NEVER] * n for _ in range(n)]
    for p in range(n):
        lr[p][p] = 0

    lastrounds: list[tuple[tuple[int, ...], ...]] = []
    memo = seeded_memo(seq)

    for r in range(1, len(seq) + 1):
        ins = seq.graph(r).ins

        # One merge per distinct in-mask, but a list of its own for every
        # process: merged[p][p] = r below must not reach another view. The
        # copies are all taken before any process steps.
        merged: list[list[int]] = []
        rows: dict[int, list[int]] = {}
        for p in range(n):
            mask = ins[p]
            row = rows.get(mask)
            if row is not None:
                merged.append(row[:])
                continue
            senders = members(mask)
            row = rows[mask] = lr[next(senders)][:]
            for q in senders:
                other = lr[q]
                for i in range(n):
                    if other[i] > row[i]:
                        row[i] = other[i]
            merged.append(row)

        for p in range(n):
            view = ProcessView(p, r, merged[p], states, seq.graphs, memo)
            try:
                new_state = algorithm.step(states[p][r - 1], view, r)
            except EngineError:
                raise
            except Exception as exc:  # pragma: no cover - contract breach path
                raise EngineError(f"algorithm failed at round {r}, process {p}: {exc}") from exc
            old = states[p][r - 1]
            if getattr(old, "decided", False):
                if not getattr(new_state, "decided", False) or new_state.decision != old.decision:
                    raise EngineError(f"process {p} revoked its decision at round {r}")
            states[p].append(new_state)
            merged[p][p] = r
        lr = merged
        lastrounds.append(tuple(tuple(row) for row in merged))

    return Execution(
        inputs=tuple(inputs),
        seq=seq,
        states=states,
        lastrounds=lastrounds,
        trace_fields=algorithm.trace_fields,
    )
