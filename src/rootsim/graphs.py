"""Directed communication graphs and round sequences.

Graphs are over a dense process id space 0..n-1 and are stored as
in-neighbour bit masks. Every process always hears itself, so its own bit
is set in its mask and the loop (p, p) is implied in every graph; the
derived edge set never lists it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Iterable, Iterator, Sequence, TypeVar

Edge = tuple[int, int]
K = TypeVar("K")


class GraphError(ValueError):
    """Malformed graph, sequence, or out-of-range argument."""


def members(mask: int) -> Iterator[int]:
    """The set bits of `mask` in increasing order, as process ids."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(processes: Iterable[int]) -> int:
    """The bit mask of a set of process ids; `members` inverts it."""
    mask = 0
    for p in processes:
        mask |= 1 << p
    return mask


@dataclass(frozen=True, init=False)
class CommGraph:
    """One round's communication graph: edge (u, v) means v hears u.

    Invariant: `ins[v]` has bit u set iff v hears u in this round, and bit
    v of `ins[v]` is always set. Equality and hashing are on (n, ins);
    `edges` is a derived view without self-loops.
    """

    n: int
    ins: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 1:
            raise GraphError(f"need at least one process, got n={n}")
        ins = [1 << v for v in range(n)]
        for u, v in edges:
            if u == v:
                continue
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            ins[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "ins", tuple(ins))

    @classmethod
    def from_ins(cls, ins: Sequence[int]) -> "CommGraph":
        """The graph with these in-neighbour masks; the caller keeps the invariant."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", len(ins))
        object.__setattr__(g, "ins", tuple(ins))
        return g

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """Every edge (u, v) with u != v, derived from `ins`."""
        return frozenset((u, v) for v, m in enumerate(self.ins) for u in members(m) if u != v)


def root_components(g: CommGraph) -> frozenset[frozenset[int]]:
    """All root components of g: SCCs with no in-edge from outside.

    v lies in a root component iff every ancestor of v has the same
    ancestor set as v, that is, iff v reaches every one of its ancestors;
    that ancestor set is then the component, and all of its members are
    settled at once. A process that hears a settled process (a found root
    member, or one known to lie outside every root) lies outside every
    root itself, so it needs no closure.
    """
    ins = g.ins
    settled = 0
    roots = []
    for v in range(len(ins)):
        bit = 1 << v
        if settled & bit:
            continue
        if not ins[v] & settled:
            anc = _ancestors(ins, v)
            if not anc & settled and _reaches_all(ins, bit, anc ^ bit):
                roots.append(frozenset(members(anc)))
                settled |= anc
                continue
        settled |= bit
    return frozenset(roots)


def _reaches_all(ins: Sequence[int], reached: int, rest: int) -> bool:
    """Does the set `reached` reach every process of `rest`?"""
    while rest:
        grown = False
        todo = rest
        while todo:
            low = todo & -todo
            todo ^= low
            if ins[low.bit_length() - 1] & reached:
                reached |= low
                rest ^= low
                grown = True
        if not grown:
            return False
    return True


def _ancestors(ins: Sequence[int], v: int) -> int:
    """Mask of every process with a path to v, v included."""
    seen = new = 1 << v
    while new:
        new = _union(ins, new) & ~seen
        seen |= new
    return seen


def compound(g1: CommGraph, g2: CommGraph) -> CommGraph:
    """Two-hop composition g1 then g2, with self-loops on both inputs.

    The boolean product of the adjacency matrices (diagonal forced to 1):
    w hears u in the result iff w hears some v in g2 that heard u in g1.
    A w that hears in g2 some v that heard everyone in g1 hears everyone,
    which spares the row walk in the nearly complete products that a
    block's fold passes through before it is complete (`compound_all`).
    """
    if g1.n != g2.n:
        raise GraphError(f"process count mismatch: {g1.n} vs {g2.n}")
    ins1 = g1.ins
    everyone = (1 << g1.n) - 1
    saturated = sum(1 << v for v, m in enumerate(ins1) if m == everyone)
    return CommGraph.from_ins([everyone if m & saturated else _union(ins1, m) for m in g2.ins])


def _union(ins: Sequence[int], mask: int) -> int:
    """OR of ins[v] over the bits v of mask."""
    acc = 0
    while mask:
        low = mask & -mask
        mask ^= low
        acc |= ins[low.bit_length() - 1]
    return acc


def compound_all(graphs: Iterable[CommGraph]) -> CommGraph:
    """The compound of `graphs` in order: their fold under `compound`.

    The fold stops once the compound is complete. Every process hears
    itself, so a complete graph stays complete under any further
    compounding. Every graph's size is checked first, so a mismatch
    raises GraphError wherever it lies.
    """
    graphs = list(graphs)
    if not graphs:
        raise GraphError("cannot compound an empty list of graphs")
    acc = graphs[0]
    n = acc.n
    for g in graphs:
        if g.n != n:
            raise GraphError(f"process count mismatch: {n} vs {g.n}")
    everyone = (1 << n) - 1
    for g in graphs[1:]:
        acc = compound(acc, g)
        if acc.ins.count(everyone) == n:
            break
    return acc


def star(center: int, n: int) -> CommGraph:
    """Graph with edges from center to every other process and nothing else."""
    if not (0 <= center < n):
        raise GraphError(f"center {center} out of range for n={n}")
    return CommGraph(n, ((center, q) for q in range(n)))


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

    @classmethod
    def with_roots(cls, n: int, graphs: Sequence[CommGraph], roots: Sequence[frozenset[int]]) -> "GraphSequence":
        """The sequence of `graphs` whose round-r graph has `roots[r-1]` as
        its unique root component, proven round by round and stored as
        root_sets and roots, so that the sequence's roots need no search.

        A set R is the unique root component iff the ancestors of m = min(R)
        are exactly R and m reaches every process: a process that reaches
        everyone lies in every root component, and its own component is
        then its ancestor set. A claim that fails raises GraphError naming
        its round.
        """
        seq = cls(n, tuple(graphs))
        roots = tuple(roots)
        if len(roots) != len(seq.graphs):
            raise GraphError(f"{len(roots)} roots for {len(seq.graphs)} rounds")
        everyone = (1 << n) - 1
        for r, (g, root) in enumerate(zip(seq.graphs, roots), start=1):
            m = min(root) if root else -1
            if not 0 <= m < n:
                raise GraphError(f"round {r}: {sorted(root)} is not a set of processes of n={n}")
            bit = 1 << m
            if _ancestors(g.ins, m) != mask_of(root) or not _reaches_all(g.ins, bit, everyone ^ bit):
                raise GraphError(f"round {r}: {sorted(root)} is not the graph's unique root component")
        # Both are cached_properties: entries in the instance's dict take
        # their place.
        seq.__dict__["root_sets"] = tuple(frozenset((root,)) for root in roots)
        seq.__dict__["roots"] = roots
        return seq

    @cached_property
    def root_sets(self) -> tuple[frozenset[frozenset[int]], ...]:
        """root_sets[r-1] holds every root component of the round-r graph,
        built on first use, or proven by `with_roots`."""
        return tuple(root_components(g) for g in self.graphs)

    @cached_property
    def roots(self) -> tuple[frozenset[int] | None, ...]:
        """roots[r-1] is the unique root component of the round-r graph, or
        None if it is not rooted, read off root_sets or proven by
        `with_roots`."""
        return tuple(next(iter(rs)) if len(rs) == 1 else None for rs in self.root_sets)


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
    reached = 1 << p
    for r in range(b, a, -1):
        reached = _union(seq.graphs[r - 1].ins, reached)
    return frozenset(members(reached))


def write_jsonl(seq: GraphSequence, fh: IO[str]) -> None:
    """Serialize a sequence: header line, then one object per round."""
    fh.write(json.dumps({"n": seq.n, "rounds": len(seq)}) + "\n")
    for r, g in enumerate(seq.graphs, start=1):
        edges = sorted(g.edges)
        fh.write(json.dumps({"round": r, "edges": [list(e) for e in edges]}) + "\n")


def is_json_int(value: object) -> bool:
    """Is `value` a JSON integer? Floats, strings, true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _json_int(value: object, what: str) -> int:
    """`value` if it is a JSON integer."""
    if not is_json_int(value):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return value


def _json_object(line: str, *keys: str) -> dict[str, object]:
    """The JSON object on `line`; it must hold every one of `keys`."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise GraphError(f"must be a JSON object with {' and '.join(map(repr, keys))}")
    for key in keys:
        if key not in obj:
            raise GraphError(f"missing key {key!r}")
    return obj


def _edge(value: object) -> Edge:
    """`value` as an edge: it must be a pair of JSON integers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise GraphError(f"each edge must be a pair of integers, got {value!r}")
    return _json_int(value[0], "edge endpoint"), _json_int(value[1], "edge endpoint")


def read_jsonl(fh: IO[str]) -> GraphSequence:
    """Parse the write_jsonl format; raises GraphError with a line number."""
    lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    if not lines:
        raise GraphError("line 1: empty sequence file")
    try:
        header = _json_object(lines[0], "n", "rounds")
        n = _json_int(header["n"], "n")
        rounds = _json_int(header["rounds"], "rounds")
    except (ValueError, RecursionError) as exc:
        raise GraphError(f"line 1: bad header ({exc})") from exc
    if n < 1:
        raise GraphError(f"line 1: need at least one process, got n={n}")
    if len(lines) - 1 != rounds:
        raise GraphError(f"line 1: header says {rounds} rounds, file has {len(lines) - 1}")
    graphs = []
    for i, ln in enumerate(lines[1:], start=2):
        try:
            obj = _json_object(ln, "round", "edges")
            if _json_int(obj["round"], "round") != i - 1:
                raise GraphError(f"round must be {i - 1}, got {obj['round']}")
            edges = obj["edges"]
            if not isinstance(edges, list):
                raise GraphError(f"edges must be a list of integer pairs, got {edges!r}")
            graphs.append(CommGraph(n, map(_edge, edges)))
        except (ValueError, RecursionError) as exc:
            raise GraphError(f"line {i}: {exc}") from exc
    return GraphSequence(n, tuple(graphs))
