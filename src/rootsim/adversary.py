"""Admissibility checkers, random sequence generators, and scripted scenarios.

A "message adversary" here is a predicate over graph sequences. The checkers
validate finite prefixes against the three core properties (every graph
rooted, bounded information-propagation diameter, an eventual stable-root
window) plus the non-split and broadcast-window properties used by the
compound-graph voting algorithm.
"""

from __future__ import annotations

import inspect
import random
from functools import reduce
from operator import and_
from typing import Any, Callable, Sequence

from .graphs import (
    CommGraph,
    GraphError,
    GraphSequence,
    _reaches_all,
    _union,
    compound_all,
    mask_of,
    maximal_runs,
    star,
)


class GenerationError(RuntimeError):
    """Random sequence generation could not satisfy its constraints."""


def check_diam(seq: GraphSequence, D: int) -> tuple[bool, dict[str, Any] | None]:
    """Verify the diameter property on every window of D same-root rounds.

    For each window of D consecutive rounds all rooted with the same root R,
    every process must have all of R in its causal past across the window.
    Returns (ok, first violation as a dict or None), windows in round
    order and processes in id order. D < 1 raises ValueError.
    """
    if D < 1:
        raise ValueError(f"the diameter must be >= 1, got D={D}")
    graphs = seq.graphs
    for start, end, root in maximal_runs(seq.roots):
        if end - start + 1 < D:
            continue
        root_mask = mask_of(root)
        for r1 in range(start, end - D + 2):
            short = _first_short(graphs[r1 - 1 : r1 - 1 + D], root_mask)
            if short is not None:
                p, past = short
                return False, {
                    "window_start": r1,
                    "window_end": r1 + D - 1,
                    "process": p,
                    "root": sorted(root),
                    "missing": sorted(q for q in root if not past >> q & 1),
                }
    return True, None


def _first_short(window: Sequence[CommGraph], root_mask: int) -> tuple[int, int] | None:
    """The first process whose causal past across `window`, a run of
    consecutive rounds, misses a member of `root_mask`, as (process, mask
    of that past); None if every process has all of it.

    The pasts are compounded forward: after round t, p's past is the union
    of the pasts of p's round-t in-neighbours after round t-1.
    """
    past = window[0].ins
    for g in window[1:]:
        past = [_union(past, m) for m in g.ins]
    for p, m in enumerate(past):
        if root_mask & ~m:
            return p, m
    return None


def check_nonsplit(seq: GraphSequence) -> tuple[bool, tuple[int, int, int] | None]:
    """Every pair of processes must share an in-neighbor in every round.

    Self-loops count, so an edge (p, q) alone already covers the pair (p, q).
    Returns (ok, first (round, p, q) violation or None).

    A round in which some process is in every in-neighbour mask cannot
    split, since that process covers every pair; one AND over the masks
    finds it, and only the other rounds get the pairwise scan.
    """
    for r, g in enumerate(seq.graphs, start=1):
        ins = g.ins
        if reduce(and_, ins):
            continue
        for p in range(seq.n):
            for q in range(p + 1, seq.n):
                if not ins[p] & ins[q]:
                    return False, (r, p, q)
    return True, None


def _is_broadcast_root(g: CommGraph, root: frozenset[int]) -> bool:
    """Does every root member have an edge to every other process?"""
    root_mask = mask_of(root)
    return all(m & root_mask == root_mask for m in g.ins)


def check_star_window(seq: GraphSequence, y: int) -> list[tuple[int, int, frozenset[int]]]:
    """Windows of >= y consecutive same-root rounds whose root broadcasts.

    A qualifying round is rooted with root R and every member of R has an
    out-edge to all other processes. Returns maximal such runs with
    length >= y.
    """
    broadcast_roots = (
        root if root is not None and _is_broadcast_root(g, root) else None
        for g, root in zip(seq.graphs, seq.roots)
    )
    return [(s, e, root) for (s, e, root) in maximal_runs(broadcast_roots) if e - s + 1 >= y]


def stable_window(seq: GraphSequence, x: int) -> tuple[int, int, frozenset[int]] | None:
    """The first maximal run (start, end, root) of at least x rounds with
    one root, or None."""
    return next((w for w in maximal_runs(seq.roots) if w[1] - w[0] + 1 >= x), None)


def membership_report(seq: GraphSequence, D: int, x: int) -> dict[str, Any]:
    """Run all checkers and collect the results in one JSON object. The
    sequence is a member when it is rooted, has diameter D and has an
    x-round stable window."""
    first_unrooted = next((r for r, root in enumerate(seq.roots, start=1) if root is None), None)
    diam_ok, diam_violation = check_diam(seq, D)
    stability_ok = stable_window(seq, x) is not None
    nonsplit_ok, first_split = check_nonsplit(seq)
    return {
        "n": seq.n,
        "rounds": len(seq),
        "D": D,
        "x": x,
        "rooted_ok": first_unrooted is None,
        "first_unrooted_round": first_unrooted,
        "diam_ok": diam_ok,
        "first_diam_violation": diam_violation,
        "stability_windows": _windows_json(maximal_runs(seq.roots)),
        "stability_ok": stability_ok,
        "nonsplit_ok": nonsplit_ok,
        "first_split": list(first_split) if first_split else None,
        "star_windows": _windows_json(check_star_window(seq, 1)),
        "member": first_unrooted is None and diam_ok and stability_ok,
    }


def _windows_json(windows: list[tuple[int, int, frozenset[int]]]) -> list[dict[str, Any]]:
    return [{"start": s, "end": e, "root": sorted(root)} for (s, e, root) in windows]


def compound_sequence(seq: GraphSequence) -> GraphSequence:
    """Collapse each block of n-1 consecutive rounds into one compound graph.
    The sequence must be whole blocks."""
    block = seq.n - 1
    if block < 1:
        raise GraphError("compound sequences need at least two processes")
    if len(seq) % block:
        raise GraphError(f"{len(seq)} rounds are not whole blocks of {block}")
    graphs = tuple(compound_all(seq.graphs[i : i + block]) for i in range(0, len(seq), block))
    return GraphSequence(seq.n, graphs)


# ---------------------------------------------------------------------------
# Random generation


def _random_root_set(rng: random.Random, n: int, *forbid: frozenset[int] | None) -> frozenset[int]:
    """A random nonempty root set, redrawn while it is one of `forbid`
    (unless n = 1, where only one root set exists)."""
    for _ in range(200):
        size = rng.randint(1, n)
        root = frozenset(rng.sample(range(n), size))
        if root not in forbid or n == 1:
            return root
    raise GenerationError("could not draw a fresh root set")


def _random_rooted_graph(
    rng: random.Random,
    n: int,
    root: frozenset[int],
    density: float,
    broadcast: bool = False,
) -> CommGraph:
    """A random graph whose unique root component is exactly `root`.

    The root members are wired into a cycle (strong connectivity), every
    non-root process is attached below the root (rootedness), and no edge
    ever points from outside the root into it (closedness). With
    `broadcast`, every root member additionally reaches everyone directly.
    """
    coin = rng.random
    ins = [1 << v for v in range(n)]
    members = sorted(root)
    if len(members) > 1:
        ring = members[:]
        rng.shuffle(ring)
        for i, u in enumerate(ring):
            ins[ring[(i + 1) % len(ring)]] |= 1 << u
        for u in members:
            bit = 1 << u
            for v in members:
                if u != v and coin() < density:
                    ins[v] |= bit
    rest = [p for p in range(n) if p not in root]
    rng.shuffle(rest)
    reachable = members[:]
    for v in rest:
        ins[v] |= 1 << rng.choice(reachable)
        reachable.append(v)
    for u in range(n):
        bit = 1 << u
        for v in rest:
            if u != v and coin() < density:
                ins[v] |= bit
    if broadcast:
        root_mask = mask_of(root)
        ins = [m | root_mask for m in ins]
    return CommGraph.from_ins(ins)


def window_start(n: int, x: int, seed: int) -> int:
    """The first round of the stable window for a run with this seed: drawn
    from rounds 3..x+n+2 by a stream of its own, so the sequence's stream
    does not depend on it."""
    return random.Random(f"window-{seed}").randint(3, x + n + 2)


def generate_stable(
    n: int, D: int, x: int, start: int, horizon: int, seed: int
) -> tuple[GraphSequence, tuple[int, int, frozenset[int]]]:
    """A random `horizon`-round sequence that is rooted, diameter-D, and
    x-round stable, with its stable window on rounds start..start+x-1.

    Returns the sequence plus its designated stable window (start, end, R).
    The root set changes every round outside the window and never equals
    the window's root, so the only same-root windows the diameter property
    constrains are inside the designated window; those are drawn until the
    causal-past check passes. Each redraw is denser than the one before,
    and the last has the root broadcast, which always meets every window
    ending at that round. For D = 1 every single round is constrained, so
    all roots broadcast.

    Two extra structural guarantees make the pre-stability phase legible
    to root-history bookkeeping: round 1's root is a singleton {c} and c
    also belongs to round 2's root and broadcasts there, so from round 2
    on every process can reconstruct round 1's root; the window starts at
    round 3 or later so this anchor always precedes it.

    The output is re-validated against what membership needs (every round
    rooted, the diameter property, and the designated window as a maximal
    same-root run); failure raises GenerationError rather than returning
    an unvalidated sequence. Each round's designed root is proven to be
    its graph's unique root component (GraphSequence.with_roots), not
    searched for, so the returned sequence carries its roots and no root
    search runs on it.
    """
    if n < 2:
        raise ValueError(f"generating a sequence needs n >= 2, got n={n}")
    if not 1 <= D <= n - 1:
        raise ValueError(f"need 1 <= D <= n-1, got D={D}, n={n}")
    if x < 1:
        raise ValueError(f"the stable-window length x must be >= 1, got x={x}")
    a, b = start, start + x - 1
    if a < 3:
        raise ValueError(f"the stable window starts at round 3 or later, got {a}")
    if b > horizon:
        raise ValueError(f"horizon {horizon} ends before the stable window (rounds {a}..{b})")
    rng = random.Random(seed)

    anchor = rng.randrange(n)
    anchor_root = frozenset({anchor})
    # For n = 2 the full set is excluded, or no valid round-2 root exists.
    window_root = _random_root_set(rng, n, anchor_root, frozenset(range(n)) if n == 2 else None)

    graphs: list[CommGraph] = []
    roots: list[frozenset[int]] = []
    for r in range(1, horizon + 1):
        in_window = a <= r <= b
        if r == 1:
            root = anchor_root
        elif r == 2:
            root = anchor_root | _random_root_set(rng, n)
            tries = 0
            while root in (anchor_root, window_root):
                root = anchor_root | _random_root_set(rng, n)
                tries += 1
                if tries > 200:
                    raise GenerationError("cannot draw a round-2 root")
        elif in_window:
            root = window_root
        else:
            root = _random_root_set(rng, n, roots[-1], window_root)
        g = _random_rooted_graph(rng, n, root, density=0.25, broadcast=(D == 1))
        if r == 2:
            # Round 2's root contains the anchor, which broadcasts so that
            # everyone learns round 1's receive reports this round.
            g = CommGraph.from_ins([m | 1 << anchor for m in g.ins])
        graphs.append(g)
        roots.append(root)

        # Re-draw the newest round until every D-window of same-root rounds
        # ending here satisfies the causal-past requirement. The last
        # redraw has the root broadcast: every process then hears every
        # root member, whose past holds that member, so every window
        # ending here passes and needs no further check.
        if in_window and D > 1 and r - a + 1 >= D:
            root_mask = mask_of(root)
            for attempt in range(9):
                if _first_short(graphs[r - D :], root_mask) is None:
                    break
                density = min(0.9, 0.3 + 0.08 * attempt)
                graphs[-1] = _random_rooted_graph(
                    rng, n, root, density=density, broadcast=(attempt == 8)
                )

    try:
        seq = GraphSequence.with_roots(n, graphs, roots)
    except GraphError as exc:
        raise GenerationError(f"generated {exc}") from exc
    diam_ok, diam_violation = check_diam(seq, D)
    if not diam_ok:
        raise GenerationError(f"generated sequence violates the diameter property: {diam_violation}")
    if (a, b, window_root) not in maximal_runs(seq.roots):
        raise GenerationError(f"designated window ({a},{b}) not maximal in output")
    return seq, (a, b, window_root)


def generate_rooted(n: int, horizon: int, seed: int, stable_len: int = 0) -> GraphSequence:
    """A random all-rooted sequence, optionally with one stable-root window
    of `stable_len` rounds at a random position.

    No diameter constraint beyond the one every rooted sequence satisfies
    automatically (n-1 rounds always suffice for a stable root's information
    to spread).

    Each round is checked as it is drawn: one member of its designated root
    must reach every process, so the graph has exactly one root component,
    and it holds that member; a round that fails raises GenerationError
    naming it. The check searches for no root component, so the roots of
    the returned sequence are computed only when a caller reads them.

    n < 1, a negative `stable_len` or one longer than `horizon` raise
    ValueError before the first draw.
    """
    if n < 1:
        raise ValueError(f"generating a sequence needs n >= 1, got n={n}")
    if stable_len < 0:
        raise ValueError(f"the stable-window length must be >= 0, got stable_len={stable_len}")
    if stable_len > horizon:
        raise ValueError(f"a stable window of {stable_len} rounds exceeds horizon {horizon}")
    rng = random.Random(seed)
    a = b = -1
    window_root: frozenset[int] = frozenset()
    if stable_len:
        a = rng.randint(1, horizon - stable_len + 1)
        b = a + stable_len - 1
        window_root = _random_root_set(rng, n)

    everyone = (1 << n) - 1
    graphs: list[CommGraph] = []
    prev_root: frozenset[int] | None = None
    for r in range(1, horizon + 1):
        if a <= r <= b:
            root = window_root
        else:
            forbid = (prev_root, window_root) if r in (a - 1, b + 1) else (prev_root,)
            root = _random_root_set(rng, n, *forbid)
        g = _random_rooted_graph(rng, n, root, density=0.25)
        # A process that reaches everyone lies in every root component,
        # so there is exactly one, and it holds the designated root's member.
        bit = 1 << min(root)
        if not _reaches_all(g.ins, bit, everyone ^ bit):
            raise GenerationError(f"generated round {r} is not rooted at its designated root {sorted(root)}")
        graphs.append(g)
        prev_root = root
    return GraphSequence(n, tuple(graphs))


# ---------------------------------------------------------------------------
# Scripted scenarios

def _with_undepicted(n: int, depicted: range, edges: set[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Add an edge from every depicted process to every undepicted one."""
    full = set(edges)
    for u in depicted:
        for v in range(n):
            if v not in depicted:
                full.add((u, v))
    return frozenset(full)


def _chain(lo: int, hi: int) -> set[tuple[int, int]]:
    """Edges (lo,lo+1), ..., (hi-1,hi)."""
    return {(i, i + 1) for i in range(lo, hi)}


def scenario_indist_a(n: int, D: int, horizon: int) -> GraphSequence:
    """First sequence of the indistinguishability pair.

    Rounds 1..2D-1: a chain from process 0 fanning out to D and D+1, with
    processes D+2.. fed by every depicted process. From round 2D on, the
    two processes D and D+1 form an isolated alternating gadget feeding
    back into process 0: the edge D+1 -> D is present in rounds 2D,
    2D+2, ... and absent in the rounds between. D = 1 is rejected: the
    first phase then has no chain, and the sequence fails the diameter
    property.
    """
    if D < 2 or n <= D + 2:
        raise ValueError(f"need D >= 2 and n >= D+3, got n={n}, D={D}")
    if horizon < 2 * D:
        raise ValueError(f"horizon {horizon} does not reach the second phase (round {2 * D})")
    depicted = range(D + 2)
    pre = _with_undepicted(n, depicted, _chain(0, D - 1) | {(D - 1, D), (D - 1, D + 1)})
    graphs = [CommGraph(n, pre)] * (2 * D - 1)
    base = _chain(0, D - 1) | {(D, D + 1), (D + 1, 0)}
    for r in range(2 * D, horizon + 1):
        edges = set(base)
        if (r - 2 * D) % 2 == 0:
            edges.add((D + 1, D))
        graphs.append(CommGraph(n, _with_undepicted(n, depicted, edges)))
    return GraphSequence(n, tuple(graphs))


def scenario_indist_b(n: int, D: int, tau: int, horizon: int) -> GraphSequence:
    """Second sequence of the pair: same gadget view, different root history.

    All processes are wired explicitly (a trailing chain replaces the
    depicted-to-undepicted edges), an alternating back-edge 1 -> 0 is
    present in rounds D, D+2, ... below 2D, the gadget's edge D+1 -> D
    alternates as in indist-a from round 2D to tau, and from round tau+1
    the last process broadcasts forever, forming the eventual stable root.
    Like indist-a, it needs D >= 2.
    """
    if D < 2 or n <= D + 2:
        raise ValueError(f"need D >= 2 and n >= D+3, got n={n}, D={D}")
    if tau < 2 * D:
        raise ValueError(f"need tau >= 2D, got tau={tau}, D={D}")
    if horizon <= tau:
        raise ValueError(f"horizon {horizon} must extend past tau={tau}")
    early = _chain(0, D - 1) | {(D - 1, D), (D - 1, D + 1)} | _chain(D + 1, n - 1)
    graphs = [CommGraph(n, frozenset(early))] * (D - 1)
    for r in range(D, 2 * D):
        edges = set(early)
        if (r - D) % 2 == 0:
            edges.add((1, 0))
        graphs.append(CommGraph(n, frozenset(edges)))
    mid = _chain(0, D - 1) | {(D, D + 1), (D + 1, 0), (D - 1, D + 2)} | _chain(D + 2, n - 1)
    for r in range(2 * D, tau + 1):
        edges = set(mid)
        if (r - 2 * D) % 2 == 0:
            edges.add((D + 1, D))
        graphs.append(CommGraph(n, frozenset(edges)))
    graphs.extend([star(n - 1, n)] * (horizon - tau))
    return GraphSequence(n, tuple(graphs))


def scenario_lossy_link(horizon: int, seed: int = 0) -> GraphSequence:
    """Two processes; each round exactly one direction gets through."""
    if horizon < 1:
        raise ValueError(f"the horizon must be >= 1, got {horizon}")
    rng = random.Random(seed)
    graphs = tuple(
        CommGraph(2, frozenset({(0, 1) if rng.random() < 0.5 else (1, 0)}))
        for _ in range(horizon)
    )
    return GraphSequence(2, graphs)


# Scenario name -> builder. A builder's parameters are the ones the
# scenario takes, those without a default the ones it requires; each is
# an integer and also names its `rootsim scenario` flag. Every scenario
# requires a horizon.
SCENARIOS: dict[str, Callable[..., GraphSequence]] = {
    "indist-a": scenario_indist_a,
    "indist-b": scenario_indist_b,
    "lossy-link": scenario_lossy_link,
}


def scenario(name: str, **params: Any) -> GraphSequence:
    """Build a scripted sequence by name; see SCENARIOS."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; known: {', '.join(SCENARIOS)}")
    build = SCENARIOS[name]
    accepted = inspect.signature(build).parameters
    missing = [f"--{key}" for key, p in accepted.items() if p.default is p.empty and key not in params]
    if missing:
        raise ValueError(f"needs {' and '.join(missing)}")
    extra = [f"--{key}" for key in params if key not in accepted]
    if extra:
        raise ValueError(f"takes no {' or '.join(extra)}")
    return build(**params)
