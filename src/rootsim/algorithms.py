"""The two consensus behaviors driven by the engine.

LockingConsensus tolerates sequences that are always rooted, have
information-propagation diameter D, and eventually keep one root component
stable for D+1 rounds. Each process chases the most recent root component
it can detect, locks onto its maximum proposal, queues confirmations,
backs off when it learns of disagreeing processes, adopts a unanimous
locked value it has been seeing for long enough, and decides once every
recent-enough state it knows of agrees with its own locked proposal.

VotingConsensus solves consensus on compound sequences (blocks of n-1
rounds collapsed into one graph) that are non-split and eventually contain
two consecutive broadcast rounds from a stable root.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterator, NamedTuple

from .detection import estimate_root
from .engine import NEVER, ProcessView


class LockQueue:
    """A lock queue: the confirmation rounds log[lo:hi] of one append-only
    list per process.

    Confirmations are appended in increasing round order and backoff drops
    a prefix, so every queue a process holds is a slice of the list that
    its initial state created; a state stores the bounds, not a copy. A
    queue is never mutated: `append` and `drop_through` return new ones.
    Two queues are equal if they hold the same rounds; a queue equals no
    tuple."""

    __slots__ = ("log", "lo", "hi")

    def __init__(self, log: list[int], lo: int, hi: int):
        self.log = log
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self) -> Iterator[int]:
        return iter(self.log[self.lo : self.hi])

    def __getitem__(self, i: int) -> int:
        if not -len(self) <= i < len(self):
            raise IndexError("queue index out of range")
        return self.log[(self.lo if i >= 0 else self.hi) + i]

    def __contains__(self, t: object) -> bool:
        i = bisect_left(self.log, t, self.lo, self.hi)
        return i < self.hi and self.log[i] == t

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LockQueue):
            return self.log[self.lo : self.hi] == other.log[other.lo : other.hi]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"LockQueue({tuple(self)!r})"

    def append(self, t: int) -> LockQueue:
        """This queue with round t (later than every queued round) added.
        If entries were appended past this queue's end, as when an older
        state is stepped again, they belong to later states: the append
        goes to a copy instead."""
        log, lo, hi = self.log, self.lo, self.hi
        if hi != len(log):
            log, lo, hi = log[lo:hi], 0, hi - lo
        log.append(t)
        return LockQueue(log, lo, hi + 1)

    def drop_through(self, cut: int) -> LockQueue:
        """This queue without the rounds up to and including cut."""
        lo = bisect_right(self.log, cut, self.lo, self.hi)
        return self if lo == self.lo else LockQueue(self.log, lo, self.hi)


class LockState(NamedTuple):
    """One process's locking state. Its key is its proposal if it is locked,
    else None. `dissent` is the latest round s of a state (q, s) that the
    process knows after its round-r computation and whose key differs
    from this state's key, or NEVER if there is none.

    `dissent` is exact from the round's senders alone: the row of a
    round-r view is the union of its senders' rows, each downward-closed
    per process, and a sender's own round-(r-1) state is the newest state
    any round-r view can hold. So if every sender's key is k, the latest
    state against k is the latest of the senders' `dissent`s, and against
    any other key it is round r-1, as it is against every key if the
    senders' keys differ (`sender_dissent`).

    `dissent` is derived bookkeeping and is not traced. A hand-built
    state passes `dissent` NEVER, so it serves only where no round
    computation reads it as a sender. `decision` is the decided value, or
    None while undecided. `detected` is the root component of the round
    r-D graph that the process detected in its round-r computation, or
    None. No field has a default, so a call must name every one."""

    proposal: int
    locked: bool
    lockround: int
    queue: LockQueue
    decision: int | None
    dissent: int
    detected: frozenset[int] | None


def scan_recent(view: ProcessView, lo: int) -> set[int]:
    """The locked values among the known states of rounds lo on."""
    _, _, row, states, _, _ = view
    locked_values: set[int] = set()
    for q, s in enumerate(row):
        for t in range(lo, s + 1):
            st = states[q][t]
            if st.locked:
                locked_values.add(st.proposal)
    return locked_values


def sender_dissent(view: ProcessView) -> tuple[int | None, int]:
    """(k, d) from the newest states of the round's senders alone: the
    latest round of a state the view knows whose key differs from v is d
    if v == k, else round - 1. If every sender's key is k, d is the
    latest of their `dissent`s; if the senders' keys differ, k is the
    first sender's key and d is round - 1, so that every v gets round - 1.

    It reads `states[q][round - 1]` for each q whose row entry is
    round - 1: those q are the round's senders."""
    _, r, row, states, _, _ = view
    r1 = r - 1
    k = d = None
    for q, s in enumerate(row):
        if s == r1:
            st = states[q][s]
            key = st.proposal if st.locked else None
            if d is None:
                k, d = key, st.dissent
            elif key != k:
                return k, r1
            elif st.dissent > d:
                d = st.dissent
    return k, d


class VoteState(NamedTuple):
    """One process's voting state. `decision` is the decided value, or None
    while undecided; `detected` is the root component of the round r-1
    graph that it detected in its round-r computation, or None."""

    proposal: int
    vote: int | None
    decision: int | None
    detected: frozenset[int] | None


class LockingConsensus:
    """Locking consensus; parameters N (known bound on n, N >= n) and D.

    The queries over recent states read one number first: the latest
    round of a known state whose key differs from our proposal. Each step
    derives it from its senders' newest states alone (`sender_dissent`),
    and that is exact because a round-r view knows exactly what its
    senders knew after round r-1, and a sender's round-(r-1) state is
    the newest state it can know (see LockState). The decide guard holds
    when that round lies before the start of its lookback. Backoff and
    unanimous adoption fire only when that round lies inside the last N
    rounds; otherwise every recent state holds our locked proposal. When
    it does lie there, it is the backoff cut, and unanimous adoption walks
    every known state of the last N rounds for the locked values among
    them (`scan_recent`). A hand-built state passes `dissent` NEVER, so
    it serves only where no step reads it as a sender.

    `decide_span` = N(D+2N) is the paper's termination bound: the decide
    guard is due `decide_span` rounds after the lock round, and its
    lookback is the last `decide_span` rounds.

    The keywords are mutations that validate the checkers; the defaults
    are the verified configuration:
    - adopt_unanimous=False disables the unanimous-locked-value adoption
      rule, and backoff=False the backoff rule.
    - decide_rule: "sliding" (default) evaluates the decide guard every
      round from lockround + decide_span onward; "exact" evaluates it only
      in that one round. The sliding rule is what makes
      termination-by-deadline hold: a process whose lock round predates
      the stability window gets exactly one "exact" chance, and that
      chance can land while stale pre-stability states are still in
      scope, after which the guard would never be re-examined.
    """

    def __init__(
        self, N: int, D: int, adopt_unanimous: bool = True, backoff: bool = True, decide_rule: str = "sliding"
    ):
        if N < 1 or D < 1:
            raise ValueError(f"need N >= 1 and D >= 1, got N={N}, D={D}")
        if decide_rule not in ("sliding", "exact"):
            raise ValueError(f"unknown decide_rule {decide_rule!r}")
        self.N = N
        self.D = D
        self.decide_span = N * (D + 2 * N)
        self.adopt_unanimous = adopt_unanimous
        self.backoff = backoff
        self.decide_rule = decide_rule

    def initial_state(self, pid: int, x: int) -> LockState:
        return LockState(
            proposal=x, locked=True, lockround=1, queue=LockQueue([], 0, 0), decision=None, dissent=NEVER, detected=None
        )

    def trace_fields(self, state: LockState) -> dict[str, Any]:
        return {
            "proposal": state.proposal,
            "locked": state.locked,
            "lockround": state.lockround,
            "queue": list(state.queue),
            "decided": state.decision is not None,
            "decision": state.decision,
            "detected_root": sorted(state.detected) if state.detected is not None else None,
        }

    def step(self, state: LockState, view: ProcessView) -> LockState:
        N, D, r = self.N, self.D, view.round
        proposal, locked, lockround, queue, decision, _, _ = state
        # The latest known state whose key differs from v is of round d if
        # v == k, else of round r-1.
        k, d = sender_dissent(view)

        root = estimate_root(view, r - D) if r > D else None

        if root is not None:
            # Every member's round-(r-D) report, which the estimate needed,
            # travels in its round-(r-D) state, so this view can read them
            # all; the maximum is the same for every view, and the round's
            # memo keeps it once per root.
            candidate = view.memo.get(root)
            if candidate is None:
                candidate = view.memo[root] = max(view.state(q, r - D).proposal for q in root)
            adopt = not locked
            if not adopt and candidate != proposal:
                # Count the distinct detectable root components between the
                # oldest round still backing our lock and the newest
                # detectable one; more than one means our lock's evidence
                # spans a root change and may be stale.
                t_lo = max(1, max(queue[-1] if queue else 0, lockround) - D)
                seen: set[frozenset[int]] = set()
                for i in range(t_lo, r - D + 1):
                    est = estimate_root(view, i)
                    if est is not None:
                        seen.add(est)
                        if len(seen) > 1:
                            break
                adopt = len(seen) > 1
            if adopt:
                proposal, locked, lockround = candidate, True, r
            elif candidate == proposal:
                queue = queue.append(r)

        # Backoff and unanimous adoption need r >= lockround + N and a state
        # of the last N rounds that does not hold our locked proposal; the
        # latest such state's round dp is the backoff cut. Without one, the
        # last N rounds hold our locked proposal alone, and neither can fire.
        dp = d if proposal == k else r - 1
        if r >= lockround + N and dp >= r - N:
            if self.backoff:
                queue = queue.drop_through(dp)
                if queue:
                    lockround = queue[0]
                else:
                    locked = False
            if self.adopt_unanimous and r >= lockround + 2 * N:
                locked_values = scan_recent(view, r - N)
                if len(locked_values) == 1:
                    (proposal,) = locked_values

        due = lockround + self.decide_span
        if decision is None and (r >= due if self.decide_rule == "sliding" else r == due):
            # Every known state of the lookback holds our locked proposal.
            # The lookback starts at r - decide_span >= lockround >= 1.
            if (d if proposal == k else r - 1) < r - self.decide_span:
                decision = proposal

        key = proposal if locked else None
        # tuple.__new__ skips the keyword handling of LockState(...).
        return tuple.__new__(
            LockState, (proposal, locked, lockround, queue, decision, d if key == k else r - 1, root)
        )


def value_of_root(root: frozenset[int], messages: dict[int, VoteState]) -> int:
    """The value a detected root dictates: the pending vote of its lowest
    member that has one, else the maximum proposal among the members.

    Every member's message was received: the root of round r-1 is
    detected only from its members' round-(r-1) states, which are exactly
    the round-r messages.
    """
    for q in sorted(root):
        vote = messages[q].vote
        if vote is not None:
            return vote
    return max(messages[q].proposal for q in root)


class VotingConsensus:
    """Voting consensus for non-split compound sequences."""

    def initial_state(self, pid: int, x: int) -> VoteState:
        return VoteState(proposal=x, vote=None, decision=None, detected=None)

    def trace_fields(self, state: VoteState) -> dict[str, Any]:
        return {
            "proposal": state.proposal,
            "locked": None,
            "lockround": None,
            "queue": [],
            "decided": state.decision is not None,
            "decision": state.decision,
            "vote": state.vote,
            "detected_root": sorted(state.detected) if state.detected is not None else None,
        }

    def step(self, state: VoteState, view: ProcessView) -> VoteState:
        _, r, row, states, _, _ = view
        proposal, vote, decision, _ = state
        # The round-r messages are the senders' round-(r-1) states, and the
        # senders are the processes whose row entry is r-1.
        r1 = r - 1
        messages = {q: states[q][r1] for q, s in enumerate(row) if s == r1}
        prev_root = estimate_root(view, r1) if r >= 2 else None

        votes = {st.vote for st in messages.values()}
        if None not in votes and len(votes) == 1:
            (v,) = votes
            proposal = v
            vote = v
            if decision is None:
                decision = v
            return VoteState(proposal, vote, decision, prev_root)

        if prev_root is not None:
            dictated = value_of_root(prev_root, messages)
            return VoteState(dictated, dictated, decision, prev_root)

        # Adopt the pending vote of the lowest sender that has one.
        pending = next((st.vote for st in messages.values() if st.vote is not None), None)
        if pending is not None:
            return VoteState(pending, None, decision, prev_root)
        return VoteState(proposal, None, decision, prev_root)
