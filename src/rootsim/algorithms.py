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

from typing import Any, NamedTuple

from .detection import estimate_root
from .engine import ProcessView
from .graphs import members


class LockState(NamedTuple):
    """One process's locking state. Its key is its proposal if it is locked,
    else None; `since` is the first round of the maximal run of equal keys
    in the process's state row that ends at this state. `since` is derived
    bookkeeping and is not traced."""

    proposal: int
    locked: bool
    lockround: int
    queue: tuple[int, ...]
    decided: bool
    decision: int | None
    since: int = 0


def key_runs(view: ProcessView, lo: int) -> list[tuple[int, int, int | None]]:
    """The recorded states from round lo on of every process heard from
    since round lo, as maximal runs of equal keys: (first round, last round,
    key), each process's oldest run clipped to lo. The walk jumps from run
    to run through `since`, so it reads one state per run."""
    runs = []
    for q, s in enumerate(view.lastround):
        while s >= lo:
            st = view.state(q, s)
            since = st.since
            runs.append((since if since > lo else lo, s, st.proposal if st.locked else None))
            s = since - 1
    return runs


class VoteState(NamedTuple):
    proposal: int
    vote: int | None
    decided: bool
    decision: int | None


class LockingConsensus:
    """Locking consensus; parameters N (known bound on n, N >= n) and D.

    Every query over recent states reads them as runs of equal keys
    (`key_runs`): the locked values seen in the last N rounds, the backoff
    witnesses among them, and the decide guard, which holds when each heard
    process's newest state holds our locked proposal and its run (`since`)
    began by the start of the guard's lookback.

    Optional knobs (defaults are the verified configuration):
    - history_window: the lookback of the decide guard. "deadline" makes it
      the decide span N(D+2N) itself; "squared" uses the wider (D+2N)^2.
    - prune: on backoff, drop queued confirmations up to the "max" (default)
      or "min" violating state round.
    - adopt_unanimous: enable the unanimous-locked-value adoption rule
      (disabling it is a mutation used to validate the checkers).
    - backoff: enable the backoff rule (same purpose).
    - decide_rule: "sliding" (default) evaluates the decide guard every
      round from the lock deadline onward; "exact" evaluates it only in
      the single round equal to the deadline. The sliding rule is what
      makes termination-by-deadline hold: a process whose lock round
      predates the stability window gets exactly one "exact" chance, and
      that chance can land while stale pre-stability states are still in
      scope, after which the guard would never be re-examined.
    """

    def __init__(
        self,
        N: int,
        D: int,
        history_window: str = "deadline",
        prune: str = "max",
        adopt_unanimous: bool = True,
        backoff: bool = True,
        decide_rule: str = "sliding",
    ):
        if N < 1 or D < 1:
            raise ValueError(f"need N >= 1 and D >= 1, got N={N}, D={D}")
        if history_window not in ("deadline", "squared"):
            raise ValueError(f"unknown history_window {history_window!r}")
        if prune not in ("max", "min"):
            raise ValueError(f"unknown prune mode {prune!r}")
        if decide_rule not in ("sliding", "exact"):
            raise ValueError(f"unknown decide_rule {decide_rule!r}")
        if not (isinstance(adopt_unanimous, bool) and isinstance(backoff, bool)):
            raise ValueError("adopt_unanimous and backoff must be true or false")
        self.N = N
        self.D = D
        self.history_window = history_window
        self.prune = prune
        self.adopt_unanimous = adopt_unanimous
        self.backoff = backoff
        self.decide_rule = decide_rule

    def initial_state(self, pid: int, x: int) -> LockState:
        return LockState(proposal=x, locked=True, lockround=1, queue=(), decided=False, decision=None)

    def trace_fields(self, state: LockState) -> dict[str, Any]:
        return {
            "proposal": state.proposal,
            "locked": state.locked,
            "lockround": state.lockround,
            "queue": list(state.queue),
            "decided": state.decided,
            "decision": state.decision,
        }

    def deadline(self, lockround: int) -> int:
        return lockround + self.N * (self.D + 2 * self.N)

    def step(self, state: LockState, view: ProcessView, r: int) -> tuple[LockState, frozenset[int] | None]:
        N, D = self.N, self.D
        proposal, locked, lockround, queue, decided, decision, since = state

        root = estimate_root(view, r - D) if r > D else None

        # Recent states: everyone whose fresh-enough state reached us, with
        # all their recorded states inside the N-round lookback, as runs.
        lo = max(0, r - N)
        runs = key_runs(view, lo)
        locked_values = {key for _, _, key in runs if key is not None}

        if root is not None:
            candidate = max(view.state(q, r - D).proposal for q in root)
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
                queue = queue + (r,)

        if self.backoff and r >= lockround + N:
            violating = [(start, end) for start, end, key in runs if key != proposal]
            if violating:
                starts, ends = zip(*violating)
                cut = max(ends) if self.prune == "max" else min(starts)
                queue = tuple(t for t in queue if t > cut)
                if queue:
                    lockround = queue[0]
                else:
                    locked = False

        if self.adopt_unanimous and r >= lockround + 2 * N and len(locked_values) == 1:
            (unanimous,) = locked_values
            if unanimous != proposal:
                proposal = unanimous

        at_deadline = (
            r >= self.deadline(lockround)
            if self.decide_rule == "sliding"
            else r == self.deadline(lockround)
        )
        if not decided and at_deadline:
            span = self.N * (D + 2 * N) if self.history_window == "deadline" else (D + 2 * N) ** 2
            lo2 = max(0, r - self.N * (D + 2 * N))
            s_lo = max(0, r - span)
            # q's states from s_lo on all hold our locked proposal iff its
            # newest one does and that one's run began by s_lo.
            newest = [view.state(q, s) for q, s in enumerate(view.lastround) if s >= lo2]
            if all(st.locked and st.proposal == proposal and st.since <= s_lo for st in newest):
                decided, decision = True, proposal

        if (proposal if locked else None) != (state.proposal if state.locked else None):
            since = r
        return LockState(proposal, locked, lockround, queue, decided, decision, since), root


def value_of_root(
    root: frozenset[int], messages: dict[int, tuple[int | None, int]]
) -> int | None:
    """The value a detected root dictates: a member's pending vote if any
    member has one, else the maximum proposal among received members.

    Returns None when no root member's message was received (out of
    contract; callers fall through to the non-root rules).
    """
    received = [q for q in sorted(root) if q in messages]
    if not received:
        return None
    for q in received:
        vote = messages[q][0]
        if vote is not None:
            return vote
    return max(messages[q][1] for q in received)


class VotingConsensus:
    """Voting consensus for non-split compound sequences."""

    def initial_state(self, pid: int, x: int) -> VoteState:
        return VoteState(proposal=x, vote=None, decided=False, decision=None)

    def trace_fields(self, state: VoteState) -> dict[str, Any]:
        return {
            "proposal": state.proposal,
            "locked": None,
            "lockround": None,
            "queue": [],
            "decided": state.decided,
            "decision": state.decision,
            "vote": state.vote,
        }

    def step(self, state: VoteState, view: ProcessView, r: int) -> tuple[VoteState, frozenset[int] | None]:
        proposal, vote, decided, decision = state
        messages = {
            q: (view.state(q, r - 1).vote, view.state(q, r - 1).proposal)
            for q in members(view.in_report_mask(view.owner, r))
        }
        prev_root = estimate_root(view, r - 1) if r >= 2 else None

        votes = {m for (m, _) in messages.values()}
        if None not in votes and len(votes) == 1:
            (v,) = votes
            proposal = v
            vote = v
            if not decided:
                decided, decision = True, v
            return VoteState(proposal, vote, decided, decision), prev_root

        if prev_root is not None:
            dictated = value_of_root(prev_root, messages)
            if dictated is not None:
                return VoteState(dictated, dictated, decided, decision), prev_root

        pending = [m for (m, _) in messages.values() if m is not None]
        if pending:
            # Adopt a received pending vote; pick deterministically.
            chosen = messages[min(q for q in messages if messages[q][0] is not None)][0]
            return VoteState(chosen, None, decided, decision), prev_root  # type: ignore[arg-type]
        return VoteState(proposal, None, decided, decision), prev_root
