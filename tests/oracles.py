"""Independent oracles that the tests cross-check rootsim against.

Each one is written without the bit-mask routines of `rootsim.graphs` it
checks (or, for the propagation property, from `causal_past` alone), and
is exponential or cubic where the production code is not, so it is only
usable at small n. `views_equal_until` compares what one process knows in
two executions, state by state and report by report.
"""

from __future__ import annotations

from rootsim.engine import Execution
from rootsim.graphs import CommGraph, Edge, GraphSequence, causal_past


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
