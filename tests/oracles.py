"""Independent oracles that the tests cross-check rootsim against.

Each one is written without the bit-mask routines of `rootsim.graphs` it
checks (or, for the propagation property, from `causal_past` alone), and
is exponential or cubic where the production code is not, so it is only
usable at small n. `views_equal_until` compares what one process knows in
two executions, state by state and report by report.

The `walk_*` functions check as the checkers of the same names did
before they walked bit masks and state columns: `walk_diam` with one
`causal_past` per window and process, the others one (round, process)
cell at a time, rounds outer. Their results, witness order included, are
the reference for the faster walks.
"""

from __future__ import annotations

from typing import Any

from rootsim.engine import Execution
from rootsim.graphs import CommGraph, Edge, GraphSequence, causal_past, maximal_runs


def brute_force_roots(g: CommGraph) -> frozenset[frozenset[int]]:
    """Exponential root-component oracle: all closed strongly connected sets."""
    n = g.n
    succ: dict[int, set[int]] = {u: set() for u in range(n)}
    for u, v in g.edges:
        succ[u].add(v)
    found = []
    for mask in range(1, 1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        # closed: no edge from outside into the set
        if any(v in members and u not in members for u, v in g.edges):
            continue
        # strongly connected (with implicit self-loops, singletons qualify)
        ok = True
        for src in members:
            seen = {src}
            frontier = [src]
            while frontier:
                u = frontier.pop()
                for v in succ[u]:
                    if v in members and v not in seen:
                        seen.add(v)
                        frontier.append(v)
            if seen != members:
                ok = False
                break
        if ok:
            found.append(members)
    return frozenset(found)


def compound_edges(g1: CommGraph, g2: CommGraph) -> frozenset[Edge]:
    """Edges of the compound g1 then g2: the boolean product of the two
    adjacency matrices with the diagonal forced to 1."""
    n = g1.n
    m1 = [[u == v or (u, v) in g1.edges for v in range(n)] for u in range(n)]
    m2 = [[u == v or (u, v) in g2.edges for v in range(n)] for u in range(n)]
    return frozenset(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and any(m1[u][k] and m2[k][v] for k in range(n))
    )


def brute_force_nonsplit(seq: GraphSequence) -> tuple[bool, tuple[int, int, int] | None]:
    """Pairwise non-split oracle over edge sets: in every round, every pair
    p < q shares an in-neighbour, self-loops included. Returns (ok, first
    failing (round, p, q) in round, then p, then q order, or None)."""
    n = seq.n
    for r, g in enumerate(seq.graphs, start=1):
        ins = [{u for u, v in g.edges if v == w} | {w} for w in range(n)]
        for p in range(n):
            for q in range(p + 1, n):
                if not ins[p] & ins[q]:
                    return False, (r, p, q)
    return True, None


def check_information_propagation(graphs: list[CommGraph], X: set[int]) -> bool:
    """Any set hitting every root influences everyone within n rooted rounds.

    Given exactly n rooted graphs (n = process count) and a set X containing
    a member of every graph's root component, verifies that every process p
    has, for some q in X and round r, q in the round-r root with q's round-r
    information reaching p by the end of the last round.
    """
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if len(graphs) != n:
        raise ValueError(f"need exactly {n} graphs for {n} processes, got {len(graphs)}")
    seq = GraphSequence(n, tuple(graphs))
    roots = seq.roots
    for r, root in enumerate(roots, start=1):
        if root is None:
            raise ValueError(f"graph at position {r} is not rooted")
        if not X & root:
            raise ValueError(f"X misses the root of the graph at position {r}")
    for p in range(n):
        ok = any(
            q in roots[r - 1] and q in causal_past(seq, p, r, n)
            for r in range(1, n + 1)
            for q in X
        )
        if not ok:
            return False
    return True


def views_equal_until(exec1: Execution, exec2: Execution, p: int, r: int) -> bool:
    """Is p's full knowledge identical in both executions through round r?

    Compares, per round: p's recorded state, what it knows of everyone
    (which states, their contents, and the in-edge reports they carry),
    and its own receive set.
    """
    if exec1.n != exec2.n:
        raise ValueError("executions have different process counts")
    if r > exec1.rounds or r > exec2.rounds:
        raise ValueError(f"round {r} not covered by both executions")
    n = exec1.n
    for t in range(1, r + 1):
        if exec1.states[p][t] != exec2.states[p][t]:
            return False
        row1 = exec1.lastrounds[t - 1][p]
        row2 = exec2.lastrounds[t - 1][p]
        if row1 != row2:
            return False
        if exec1.seq.graphs[t - 1].ins[p] != exec2.seq.graphs[t - 1].ins[p]:
            return False
        for q in range(n):
            for s in range(0, row1[q] + 1):
                if exec1.states[q][s] != exec2.states[q][s]:
                    return False
                if s >= 1 and exec1.seq.graphs[s - 1].ins[q] != exec2.seq.graphs[s - 1].ins[q]:
                    return False
    return True


def walk_diam(seq: GraphSequence, D: int) -> tuple[bool, dict[str, Any] | None]:
    """The diameter property, one `causal_past` per (window, process):
    (ok, the first violation in window, then process order, or None)."""
    for start, end, root in maximal_runs(seq.roots):
        for r1 in range(start, end - D + 2):
            hi = r1 + D - 1
            for p in range(seq.n):
                cp = causal_past(seq, p, r1 - 1, hi)
                if not root <= cp:
                    return False, {
                        "window_start": r1,
                        "window_end": hi,
                        "process": p,
                        "root": sorted(root),
                        "missing": sorted(root - cp),
                    }
    return True, None


def walk_decision_of(exec_: Execution, p: int) -> tuple[int | None, int | None]:
    """(value, round) of p's decision, or (None, None)."""
    for r in range(1, exec_.rounds + 1):
        st = exec_.states[p][r]
        if st.decision is not None:
            return st.decision, r
    return None, None


def walk_v_locked_windows(exec_: Execution) -> list[tuple[int, int, int]]:
    """Maximal runs (start, end, v) of rounds whose root members' states
    are all locked on the one proposal v."""
    values: list[int | None] = []
    for r, root in enumerate(exec_.seq.roots[: exec_.rounds], start=1):
        value: int | None = None
        if root is not None:
            states = [exec_.states[q][r] for q in root]
            proposals = {st.proposal for st in states}
            if all(st.locked for st in states) and len(proposals) == 1:
                (value,) = proposals
        values.append(value)
    return maximal_runs(values)


def walk_locked_root_convergence(exec_: Execution, D: int, N: int) -> list[dict[str, Any]]:
    """Every (round, process) whose proposal differs from v once a v-locked
    root has held for D+2N rounds."""
    failures: list[dict[str, Any]] = []
    span = D + 2 * N
    for start, end, v in walk_v_locked_windows(exec_):
        if end - start + 1 < span:
            continue
        c = start + span - 1
        for r in range(c, exec_.rounds + 1):
            for p in range(exec_.n):
                proposal = exec_.states[p][r].proposal
                if proposal != v:
                    failures.append({
                        "invariant": "locked-root-convergence",
                        "window": [start, end],
                        "value": v,
                        "round": r,
                        "process": p,
                        "proposal": proposal,
                    })
    return failures


def walk_post_window_lock(
    exec_: Execution, window: tuple[int, int, frozenset[int]], D: int
) -> list[dict[str, Any]]:
    """Every state from round c = a+D on that does not hold the lock on v
    taken at c or with c queued."""
    a, b, root = window
    c = a + D
    if b < c or c > exec_.rounds:
        return []
    v = max(exec_.states[q][a].proposal for q in root)
    failures: list[dict[str, Any]] = []
    for r in range(c, exec_.rounds + 1):
        for p in range(exec_.n):
            st = exec_.states[p][r]
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
    return failures


def walk_agreement_stability(exec_: Execution) -> list[dict[str, Any]]:
    """Every proposal, from the first decision's round on, that differs
    from the first decided value."""
    first_round, value = None, None
    for r in range(1, exec_.rounds + 1):
        for p in range(exec_.n):
            st = exec_.states[p][r]
            if st.decision is not None and first_round is None:
                first_round, value = r, st.decision
    if first_round is None:
        return []
    failures = []
    for r in range(first_round, exec_.rounds + 1):
        for p in range(exec_.n):
            proposal = exec_.states[p][r].proposal
            if proposal != value:
                failures.append({
                    "invariant": "post-decision-proposals",
                    "round": r,
                    "process": p,
                    "proposal": proposal,
                    "decided_value": value,
                    "first_decision_round": first_round,
                })
    return failures


def walk_detection_soundness(exec_: Execution, D: int) -> list[dict[str, Any]]:
    """Every estimate that is no root component of the round it targets,
    or one of whose members' states of that round p does not know."""
    failures = []
    seq = exec_.seq
    for r in range(1, exec_.rounds + 1):
        s = r - D
        root_sets = seq.root_sets[s - 1] if s >= 1 else ()
        true_root = seq.roots[s - 1] if s >= 1 else None
        for p in range(exec_.n):
            est = exec_.states[p][r].detected
            if est is None:
                continue
            lastround = exec_.lastrounds[r - 1][p]
            known = all(lastround[q] >= s for q in est)
            if est not in root_sets or not known:
                failures.append({
                    "invariant": "estimate-soundness",
                    "round": r,
                    "process": p,
                    "estimate": sorted(est),
                    "true_root": sorted(true_root) if true_root else None,
                    "members_known": known,
                })
    return failures
