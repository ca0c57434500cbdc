"""Directed communication graphs and round sequences.

Graphs are over a dense process id space 0..n-1. Self-loops are never
stored: every process always hears itself, so the loop (p, p) is implied
in every graph and all operations account for it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Iterator, Mapping, Sequence, TypeVar

Edge = tuple[int, int]
K = TypeVar("K")


class GraphError(ValueError):
    """Malformed graph, sequence, or out-of-range argument."""


@dataclass(frozen=True)
class CommGraph:
    """One round's communication graph: edge (u, v) means v hears u."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError(f"need at least one process, got n={self.n}")
        cleaned = frozenset((u, v) for (u, v) in self.edges if u != v)
        for u, v in cleaned:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
        object.__setattr__(self, "edges", cleaned)

    @classmethod
    def make(cls, n: int, edges: Iterable[Edge] = ()) -> "CommGraph":
        return cls(n, frozenset(edges))


def in_neighborhood(g: CommGraph, p: int) -> frozenset[int]:
    """Processes p hears from in g, always including p itself."""
    if not (0 <= p < g.n):
        raise GraphError(f"process {p} out of range for n={g.n}")
    return frozenset(u for (u, v) in g.edges if v == p) | {p}


def out_neighborhood(g: CommGraph, p: int) -> frozenset[int]:
    """Processes that hear p in g, always including p itself."""
    if not (0 <= p < g.n):
        raise GraphError(f"process {p} out of range for n={g.n}")
    return frozenset(v for (u, v) in g.edges if u == p) | {p}


def strongly_connected_components(
    nodes: Iterable[int], succ: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]
) -> list[frozenset[int]]:
    """All SCCs of the graph on `nodes` with edges v -> w for w in succ[v].

    Iterative Tarjan. Every successor must itself be one of `nodes`; the
    graph may be a subgraph of a round graph, indexed by process id.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[frozenset[int]] = []

    for root in nodes:
        if root in index:
            continue
        # (node, iterator position) work stack
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = len(index)
                stack.append(v)
                on_stack.add(v)
            advanced = False
            out = succ[v]
            for i in range(pi, len(out)):
                w = out[i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
            if work:
                u, _ = work[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    return components


def root_components(g: CommGraph) -> frozenset[frozenset[int]]:
    """All root components of g: SCCs with no in-edge from outside."""
    succ: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        succ[u].append(v)
    comps = strongly_connected_components(range(g.n), succ)
    member_of: dict[int, frozenset[int]] = {}
    for comp in comps:
        for v in comp:
            member_of[v] = comp
    closed = set(comps)
    for u, v in g.edges:
        if member_of[u] is not member_of[v]:
            closed.discard(member_of[v])
    return frozenset(closed)


def is_rooted(g: CommGraph) -> bool:
    """True iff g has exactly one root component."""
    return len(root_components(g)) == 1


def single_root(g: CommGraph) -> frozenset[int] | None:
    """The unique root component of g, or None if g is not rooted."""
    roots = root_components(g)
    if len(roots) == 1:
        return next(iter(roots))
    return None


def compound(g1: CommGraph, g2: CommGraph) -> CommGraph:
    """Two-hop composition g1 then g2, with self-loops on both inputs.

    Equivalent to the boolean product of the adjacency matrices
    (diagonal forced to 1).
    """
    if g1.n != g2.n:
        raise GraphError(f"process count mismatch: {g1.n} vs {g2.n}")
    n = g1.n
    step2: list[set[int]] = [set() for _ in range(n)]
    for u, v in g2.edges:
        step2[u].add(v)
    for u in range(n):
        step2[u].add(u)
    edges = set()
    for u, v in g1.edges:
        for w in step2[v]:
            if u != w:
                edges.add((u, w))
    # loop-carried: u -> u -> w and u -> v -> v
    for u, v in g1.edges:
        edges.add((u, v))
    for u, v in g2.edges:
        edges.add((u, v))
    return CommGraph(n, frozenset(edges))


def compound_all(graphs: Iterable[CommGraph]) -> CommGraph:
    graphs = list(graphs)
    if not graphs:
        raise GraphError("cannot compound an empty list of graphs")
    acc = graphs[0]
    for g in graphs[1:]:
        acc = compound(acc, g)
    return acc


def star(center: int, n: int) -> CommGraph:
    """Graph with edges from center to every other process and nothing else."""
    if not (0 <= center < n):
        raise GraphError(f"center {center} out of range for n={n}")
    return CommGraph(n, frozenset((center, q) for q in range(n) if q != center))


@dataclass(frozen=True)
class GraphSequence:
    """A finite prefix of a communication-graph sequence, rounds 1..len."""

    n: int
    graphs: tuple[CommGraph, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for g in self.graphs:
            if g.n != self.n:
                raise GraphError(f"graph with n={g.n} in sequence with n={self.n}")

    def __len__(self) -> int:
        return len(self.graphs)

    def __iter__(self) -> Iterator[CommGraph]:
        return iter(self.graphs)

    def graph(self, r: int) -> CommGraph:
        """The round-r graph, rounds numbered from 1."""
        if not (1 <= r <= len(self.graphs)):
            raise GraphError(f"round {r} outside 1..{len(self.graphs)}")
        return self.graphs[r - 1]

    def rounds(self) -> range:
        return range(1, len(self.graphs) + 1)

    @cached_property
    def roots(self) -> tuple[frozenset[int] | None, ...]:
        """roots[r-1] is single_root of the round-r graph, built on first use."""
        return tuple(single_root(g) for g in self.graphs)


def maximal_runs(keys: Iterable[K | None]) -> list[tuple[int, int, K]]:
    """Maximal runs (start, end, key) of consecutive equal keys, rounds from 1.

    Rounds whose key is None belong to no run.
    """
    runs: list[tuple[int, int, K]] = []
    start, current, r = 0, None, 0
    for r, key in enumerate(keys, start=1):
        if key is not None and key == current:
            continue
        if current is not None:
            runs.append((start, r - 1, current))
        start, current = r, key
    if current is not None:
        runs.append((start, r, current))
    return runs


def causal_past(seq: GraphSequence, p: int, a: int, b: int) -> frozenset[int]:
    """Processes whose round-(a+1)-or-later information reached p by round b.

    Equals {p} when a == b, else the in-neighborhood of p in the compound
    of the round a+1..b graphs.
    """
    if a > b:
        raise GraphError(f"causal_past needs a <= b, got a={a}, b={b}")
    if a < 0 or b > len(seq):
        raise GraphError(f"rounds {a}..{b} outside sequence of length {len(seq)}")
    if not (0 <= p < seq.n):
        raise GraphError(f"process {p} out of range for n={seq.n}")
    # Walk backwards: reached = set that can still influence p.
    reached = {p}
    for r in range(b, a, -1):
        g = seq.graphs[r - 1]
        extra = {u for (u, v) in g.edges if v in reached}
        reached |= extra
    return frozenset(reached)


def write_jsonl(seq: GraphSequence, fh: IO[str]) -> None:
    """Serialize a sequence: header line, then one object per round."""
    fh.write(json.dumps({"n": seq.n, "rounds": len(seq)}) + "\n")
    for r, g in enumerate(seq.graphs, start=1):
        edges = sorted(g.edges)
        fh.write(json.dumps({"round": r, "edges": [list(e) for e in edges]}) + "\n")


def read_jsonl(fh: IO[str]) -> GraphSequence:
    """Parse the write_jsonl format; raises GraphError with a line number."""
    lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise GraphError("line 1: empty sequence file")
    try:
        header = json.loads(lines[0])
        n = int(header["n"])
        rounds = int(header["rounds"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"line 1: bad header ({exc})") from exc
    if len(lines) - 1 != rounds:
        raise GraphError(f"line 1: header says {rounds} rounds, file has {len(lines) - 1}")
    graphs = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(ln)
            edges = frozenset((int(u), int(v)) for u, v in obj["edges"])
            graphs.append(CommGraph(n, edges))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, GraphError) as exc:
            raise GraphError(f"line {i}: {exc}") from exc
    return GraphSequence(n, tuple(graphs))
