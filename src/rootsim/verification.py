"""Post-hoc checkers over executions: consensus properties and invariants.

All checks run on immutable traces so the engine stays algorithm-agnostic.
Failures carry replayable witnesses (rounds, processes, values) so a report
can be re-derived from the trace it came from. `locking_verdict` and
`voting_verdict` gather each algorithm's checks into its one verdict.

The checkers walk each process's state column, `exec_.states[p]`, with
slices and `attrgetter` maps, not one (round, process) cell at a time.
Failures are rare, and each checker puts its own in (round, process)
order, the order of a walk over cells, rounds outer.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import compress, count, repeat
from operator import attrgetter, itemgetter, ne
from typing import TYPE_CHECKING, Any

from . import adversary
from .engine import Execution
from .graphs import maximal_runs

if TYPE_CHECKING:
    from .algorithms import LockingConsensus

# Decisions of the voting algorithm land this many compound rounds after
# the second graph of the first broadcast window (observed constant; the
# second graph delivers the root's states, the round after spreads the
# unanimous vote).
VOTING_DECISION_OFFSET = 1

_proposal = attrgetter("proposal")
_detected = attrgetter("detected")
_round = itemgetter("round")


@dataclass
class Verdict:
    """Outcome of checking one execution against the consensus properties."""

    agreement: bool
    agreement_witness: dict[str, Any] | None
    validity: bool
    validity_witness: dict[str, Any] | None
    termination: bool
    undecided: list[int]
    deadline: int
    invariant_failures: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.agreement
            and self.validity
            and self.termination
            and not self.invariant_failures
        )

    def to_json(self) -> dict[str, Any]:
        return {**asdict(self), "ok": self.ok}


def decision_of(exec_: Execution, p: int) -> tuple[int | None, int | None]:
    """(value, round) of p's decision, or (None, None): the first state of
    p's column that holds one."""
    col = exec_.states[p]
    for r in range(1, exec_.rounds + 1):
        st = col[r]
        if st.decision is not None:
            return st.decision, r
    return None, None


def check_consensus(exec_: Execution, deadline: int) -> Verdict:
    """Agreement, validity, and termination-by-deadline for one execution."""
    decisions = [decision_of(exec_, p) for p in range(exec_.n)]

    agreement, agreement_witness = True, None
    decided = [(p, v, r) for p, (v, r) in enumerate(decisions) if v is not None]
    for i in range(1, len(decided)):
        p0, v0, r0 = decided[0]
        p, v, r = decided[i]
        if v != v0:
            agreement = False
            agreement_witness = {
                "process_a": p0, "value_a": v0, "round_a": r0,
                "process_b": p, "value_b": v, "round_b": r,
            }
            break

    validity, validity_witness = True, None
    inputs = set(exec_.inputs)
    for p, v, r in decided:
        if v not in inputs:
            validity = False
            validity_witness = {"process": p, "value": v, "round": r, "inputs": sorted(inputs)}
            break

    cutoff = min(deadline, exec_.rounds)
    undecided = [p for p, (v, r) in enumerate(decisions) if v is None or r > cutoff]
    return Verdict(
        agreement=agreement,
        agreement_witness=agreement_witness,
        validity=validity,
        validity_witness=validity_witness,
        termination=not undecided,
        undecided=undecided,
        deadline=deadline,
    )


def track_v_locked_windows(exec_: Execution) -> list[tuple[int, int, int]]:
    """Maximal runs (start, end, v) of rounds whose root is locked on v.

    A round qualifies if its graph is rooted and every root member's
    end-of-round state has locked = True with one common proposal v.
    """
    states = exec_.states
    values: list[int | None] = []
    for r, root in enumerate(exec_.seq.roots[: exec_.rounds], start=1):
        value: int | None = None
        if root is not None:
            members = iter(root)
            st = states[next(members)][r]
            if st.locked:
                value = st.proposal
                for q in members:
                    st = states[q][r]
                    if not st.locked or st.proposal != value:
                        value = None
                        break
        values.append(value)
    return maximal_runs(values)


def check_locked_root_convergence(exec_: Execution, D: int, N: int) -> list[dict[str, Any]]:
    """After D+2N straight rounds of a v-locked root, all proposals stay v.

    Checks every sufficiently long v-locked window in the trace and reports
    each (round, process) whose proposal differs from v afterwards.
    """
    failures: list[dict[str, Any]] = []
    span = D + 2 * N
    for start, end, v in track_v_locked_windows(exec_):
        if end - start + 1 < span:
            continue
        failures.extend(
            {
                "invariant": "locked-root-convergence",
                "window": [start, end],
                "value": v,
                "round": r,
                "process": p,
                "proposal": proposal,
            }
            for r, p, proposal in _other_proposals(exec_, start + span - 1, v)
        )
    return failures


def check_post_window_lock(
    exec_: Execution, window: tuple[int, int, frozenset[int]], D: int
) -> list[dict[str, Any]]:
    """From round a+D on, everyone is locked on the window's value.

    A stable window [a, b] of at least D+1 rounds with root R lets every
    process detect R at round c = a+D and lock on v, the maximum round-a
    proposal of R. From round c on every state must then have locked =
    True, proposal = v, lockround <= c, and either lockround = c or c
    still queued. The anchor is c, not b: a lock taken at c stays backed
    by c even when a later round of the window confirms nothing.
    """
    a, b, root = window
    c = a + D
    if b < c or c > exec_.rounds:
        return []
    v = max(exec_.states[q][a].proposal for q in root)
    failures: list[dict[str, Any]] = []
    for p, col in enumerate(exec_.states):
        for r, st in enumerate(col[c : exec_.rounds + 1], start=c):
            ok = (
                st.locked
                and st.proposal == v
                and st.lockround <= c
                and (st.lockround == c or c in st.queue)
            )
            if not ok:
                failures.append({
                    "invariant": "post-window-lock",
                    "round": r,
                    "process": p,
                    "state": {
                        "proposal": st.proposal,
                        "locked": st.locked,
                        "lockround": st.lockround,
                        "queue": list(st.queue),
                    },
                    "expected_value": v,
                    "window": [a, b],
                    "lock_round": c,
                })
    failures.sort(key=_round)
    return failures


def check_agreement_stability(exec_: Execution) -> list[dict[str, Any]]:
    """Once any process decides v, every proposal from that round on is v.

    The first decision is the earliest round's, of the lowest process
    among those deciding in it."""
    first_round, value = None, None
    for p in range(exec_.n):
        v, r = decision_of(exec_, p)
        if r is not None and (first_round is None or r < first_round):
            first_round, value = r, v
    if first_round is None:
        return []
    return [
        {
            "invariant": "post-decision-proposals",
            "round": r,
            "process": p,
            "proposal": proposal,
            "decided_value": value,
            "first_decision_round": first_round,
        }
        for r, p, proposal in _other_proposals(exec_, first_round, value)
    ]


def _other_proposals(exec_: Execution, lo: int, v: Any) -> list[tuple[int, int, Any]]:
    """(r, p, proposal) for every state of rounds lo on whose proposal is
    not v, in (round, process) order."""
    found = []
    for p, col in enumerate(exec_.states):
        for r in compress(count(lo), map(ne, map(_proposal, col[lo : exec_.rounds + 1]), repeat(v))):
            found.append((r, p, col[r].proposal))
    found.sort()
    return found


def check_detection_soundness(exec_: Execution, D: int) -> list[dict[str, Any]]:
    """Every recorded estimate names a true root component and rests on
    known states.

    Each process's round-r state records, as `detected`, its estimate of
    the round r-D graph's root. Whenever it is a set, it must be a root
    component of that graph (the unique one on a rooted round) and every
    member's round-(r-D) state must have reached p.
    """
    failures = []
    seq = exec_.seq
    # The root sets an estimate of round r must be among, at index r-1.
    targets = ((),) * D + seq.root_sets
    for p, col in enumerate(exec_.states):
        rows = map(itemgetter(p), exec_.lastrounds)
        for s, est, lastround, root_sets in zip(count(1 - D), map(_detected, col[1:]), rows, targets):
            if est is None:
                continue
            if est in root_sets:
                # Every member's round-s state must have reached p. The
                # loop is inline: all() over a generator or min() over a
                # map would cost calls per estimate.
                for q in est:
                    if lastround[q] < s:
                        break
                else:
                    continue
            true_root = seq.roots[s - 1] if s >= 1 else None
            failures.append({
                "invariant": "estimate-soundness",
                "round": s + D,
                "process": p,
                "estimate": sorted(est),
                "true_root": sorted(true_root) if true_root else None,
                "members_known": all(lastround[q] >= s for q in est),
            })
    failures.sort(key=_round)
    return failures


def check_detection_completeness(
    exec_: Execution, window: tuple[int, int, frozenset[int]], D: int
) -> list[dict[str, Any]]:
    """After each D+1-round span of the stable window, everyone detects R.

    For every s with [s, s+D] inside the window, the estimate recorded at
    round s+D (which targets round s) must be exactly the window's root.
    """
    a, b, root = window
    failures = []
    for s in range(a, b - D + 1):
        r = s + D
        if r > exec_.rounds:
            break
        for p in range(exec_.n):
            est = exec_.states[p][r].detected
            if est != root:
                failures.append({
                    "invariant": "estimate-completeness",
                    "round": r,
                    "target_round": s,
                    "process": p,
                    "estimate": sorted(est) if est else None,
                    "expected": sorted(root),
                })
    return failures


def locking_verdict(
    exec_: Execution, algo: LockingConsensus, window: tuple[int, int, frozenset[int]] | None
) -> Verdict:
    """Every check on a run of `algo`, whose sequence has the stable window
    `window` (None if it has none).

    Consensus is due by the window's end plus the decide span, or by the
    run's last round without a window. The invariants: every estimate is
    sound, locked roots converge, proposals agree after the first
    decision, and with a window, estimates are complete and everyone
    holds the post-window lock.
    """
    D = algo.D
    deadline = window[1] + algo.decide_span if window else exec_.rounds
    verdict = check_consensus(exec_, deadline)
    failures = verdict.invariant_failures
    failures.extend(check_detection_soundness(exec_, D))
    if window:
        failures.extend(check_detection_completeness(exec_, window, D))
        failures.extend(check_post_window_lock(exec_, window, D))
    failures.extend(check_locked_root_convergence(exec_, D, algo.N))
    failures.extend(check_agreement_stability(exec_))
    return verdict


def voting_verdict(exec_: Execution) -> Verdict:
    """Every check on a voting run over a compound sequence.

    Consensus is due VOTING_DECISION_OFFSET rounds after the second graph
    of the first two-round broadcast window, or by the run's last round
    without one, every compound round must be non-split, and every
    estimate, which targets the round before its own, must be sound.
    """
    stars = adversary.check_star_window(exec_.seq, 2)
    deadline = stars[0][0] + 1 + VOTING_DECISION_OFFSET if stars else exec_.rounds
    verdict = check_consensus(exec_, deadline)
    nonsplit_ok, split = adversary.check_nonsplit(exec_.seq)
    if not nonsplit_ok:
        verdict.invariant_failures.append(
            {"invariant": "compound-nonsplit", "violation": list(split)}
        )
    verdict.invariant_failures.extend(check_detection_soundness(exec_, 1))
    return verdict
