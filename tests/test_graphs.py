import functools
import io
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from rootsim import graphs as graphs_module
from rootsim.graphs import (
    CommGraph,
    GraphError,
    GraphSequence,
    compound,
    compound_all,
    members,
    read_jsonl,
    root_components,
    star,
    write_jsonl,
)
from conftest import random_graph, random_sequence
from oracles import brute_force_roots, causal_past, compound_edges


def root_of(graph):
    """The graph's one root component, or None, as a sequence reads it."""
    return GraphSequence(graph.n, (graph,)).roots[0]


def g(n, edges):
    return CommGraph(n, edges)


class TestCommGraph:
    def test_self_loops_stripped(self):
        assert g(3, [(0, 0), (0, 1)]).edges == frozenset({(0, 1)})

    def test_invalid_vertex_rejected(self):
        with pytest.raises(GraphError):
            g(2, [(0, 5)])

    def test_immutable_and_hashable(self):
        assert len({g(2, [(0, 1)]), g(2, [(0, 1)])}) == 1


class TestNeighborhoods:
    def test_in_neighborhood_empty_graph_is_self(self):
        assert list(members(g(3, []).ins[0])) == [0]

    def test_in_neighborhood_reads_edges(self):
        assert list(members(g(3, [(1, 0), (2, 0)]).ins[0])) == [0, 1, 2]

    def test_in_neighborhood_star_leaf(self):
        assert list(members(star(1, 3).ins[0])) == [0, 1]

    def test_out_neighborhood_star_center(self):
        assert all(m & 1 for m in star(0, 3).ins)


class TestRootComponents:
    def test_edgeless_every_singleton(self):
        assert root_components(g(3, [])) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
        }

    def test_chain_with_undepicted_broadcast(self):
        # Chain 0->1->2->3 where every chain member also points at the
        # remaining (undepicted) processes: the chain head is the only root.
        n = 6
        depicted = [0, 1, 2, 3]
        edges = {(depicted[i], depicted[i + 1]) for i in range(3)}
        edges |= {(u, v) for u in depicted for v in range(n) if v not in depicted}
        assert root_components(g(n, edges)) == {frozenset({0})}

    def test_two_disjoint_cycles(self):
        roots = root_components(g(4, [(0, 1), (1, 0), (2, 3), (3, 2)]))
        assert roots == {frozenset({0, 1}), frozenset({2, 3})}

    def test_is_rooted_star(self):
        assert root_of(star(0, 4)) is not None

    def test_is_rooted_edgeless_false(self):
        assert root_of(g(3, [])) is None

    def test_two_member_root(self):
        # 0 <-> 1 cycle feeding a chain: single root {0, 1}.
        graph = g(4, [(0, 1), (1, 0), (1, 2), (2, 3)])
        assert root_of(graph) == frozenset({0, 1})

    def test_single_root_none_when_split(self):
        assert root_of(g(2, [])) is None

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_brute_force_enumeration(self, n):
        rng = random.Random(n)
        for _ in range(60):
            graph = random_graph(rng, n, rng.uniform(0.05, 0.6))
            assert root_components(graph) == brute_force_roots(graph)

    def test_brute_force_matches_example(self):
        graph = g(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        assert brute_force_roots(graph) == root_components(graph)

    def test_sequence_roots_match_brute_force(self):
        # roots[r-1] is round r's single root component, or None when the
        # round has several; sparse graphs make the multi-root case common.
        for seed in range(20):
            rng = random.Random(seed)
            seq = random_sequence(rng, rng.randint(1, 5), 8, density=rng.uniform(0.05, 0.5))
            assert len(seq.roots) == len(seq)
            for r, graph in enumerate(seq.graphs, start=1):
                expected = brute_force_roots(graph)
                assert seq.roots[r - 1] == (next(iter(expected)) if len(expected) == 1 else None)


@st.composite
def graph_and_claim(draw):
    """A graph at n <= 5 and a nonempty set of its processes."""
    n = draw(st.integers(1, 5))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    graph = CommGraph(n, draw(st.sets(pairs, max_size=n * n)))
    claim = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return graph, claim


class TestWithRoots:
    def test_claims_accepted_exactly_when_unique_root(self):
        # Every singleton and the full set, on random graphs of every
        # size up to 5 and density.
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 5)
            graph = random_graph(rng, n, rng.uniform(0.0, 0.8))
            roots = brute_force_roots(graph)
            for claim in [frozenset({v}) for v in range(n)] + [frozenset(range(n)), *roots]:
                self.assert_accepted_iff_unique_root(graph, claim, roots)

    @given(graph_and_claim())
    @settings(max_examples=300, deadline=None)
    def test_random_claims(self, case):
        graph, claim = case
        self.assert_accepted_iff_unique_root(graph, claim, brute_force_roots(graph))

    @staticmethod
    def assert_accepted_iff_unique_root(graph, claim, roots):
        unique = roots == {claim}
        try:
            seq = GraphSequence.with_roots(graph.n, [graph], [claim])
        except GraphError as exc:
            assert not unique, (graph, claim)
            assert str(exc).startswith("round 1: ")
        else:
            assert unique, (graph, claim)
            assert seq.root_sets == (roots,) and seq.roots == (claim,)

    def test_failing_round_named(self):
        seq = GraphSequence.with_roots(3, [star(0, 3), star(1, 3)], [frozenset({0}), frozenset({1})])
        assert seq.roots == (frozenset({0}), frozenset({1}))
        with pytest.raises(GraphError, match=r"round 2: \[0, 1\] is not the graph's unique root component"):
            GraphSequence.with_roots(3, [star(0, 3), star(1, 3)], [frozenset({0}), frozenset({0, 1})])

    @pytest.mark.parametrize(
        "roots, message",
        [
            ([frozenset({0})], "1 roots for 2 rounds"),
            ([frozenset({0}), frozenset()], r"round 2: \[\] is not a set of processes of n=3"),
            ([frozenset({0}), frozenset({-1, 1})], r"round 2: \[-1, 1\] is not a set of processes of n=3"),
            ([frozenset({0}), frozenset({1, 3})], r"round 2: \[1, 3\] is not the graph's unique root component"),
        ],
        ids=["count", "empty", "negative", "out-of-range"],
    )
    def test_malformed_claim_rejected(self, roots, message):
        with pytest.raises(GraphError, match=message):
            GraphSequence.with_roots(3, [star(0, 3), star(1, 3)], roots)

    def test_proof_searches_no_root(self, monkeypatch):
        def no_search(graph):
            raise AssertionError("root search")

        monkeypatch.setattr(graphs_module, "root_components", no_search)
        seq = GraphSequence.with_roots(3, [star(2, 3)] * 4, [frozenset({2})] * 4)
        assert seq.roots == (frozenset({2}),) * 4


class TestCompound:
    def test_identity_is_neutral(self):
        rng = random.Random(1)
        ident = g(4, [])
        for _ in range(20):
            graph = random_graph(rng, 4)
            assert compound(ident, graph) == graph
            assert compound(graph, ident) == graph

    def test_path_composition(self):
        result = compound(g(3, [(0, 1)]), g(3, [(1, 2)]))
        assert {(0, 2), (0, 1), (1, 2)} <= set(result.edges)

    def test_cycle_squared(self):
        cycle = g(3, [(0, 1), (1, 2), (2, 0)])
        sq = compound(cycle, cycle)
        # Every vertex reaches both its one-step and two-step successor.
        for v in range(3):
            assert (v, (v + 1) % 3) in sq.edges
            assert (v, (v + 2) % 3) in sq.edges

    def test_mismatched_sizes(self):
        with pytest.raises(GraphError):
            compound(g(2, []), g(3, []))

    def test_associative_on_random_triples(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 6)
            a, b, c = (random_graph(rng, n) for _ in range(3))
            assert compound(compound(a, b), c) == compound(a, compound(b, c))

    def test_compound_matches_matrix_product(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 5)
            g1, g2 = random_graph(rng, n), random_graph(rng, n)
            assert compound(g1, g2).edges == compound_edges(g1, g2)

    def test_compound_with_saturated_rows_matches_matrix_product(self):
        # Dense first factors give rows that already hear everyone, so the
        # saturated shortcut fires next to targets that still need the walk.
        rng = random.Random(12)
        saturated_seen = 0
        for _ in range(200):
            n = rng.randint(2, 7)
            g1 = random_graph(rng, n, density=rng.uniform(0.5, 0.95))
            g2 = random_graph(rng, n, density=rng.uniform(0.0, 0.4))
            full = (1 << n) - 1
            saturated_seen += any(
                m & sum(1 << v for v, row in enumerate(g1.ins) if row == full) for m in g2.ins
            )
            assert compound(g1, g2).edges == compound_edges(g1, g2)
            assert compound_all([g1, g2, g1]).edges == compound_edges(compound(g1, g2), g1)
        assert saturated_seen > 50

    def test_compound_all_star_chain(self):
        result = compound_all([star(0, 3), star(1, 3)])
        assert (0, 2) in result.edges  # 0 -> 1 -> 2 across the pair

    @pytest.mark.parametrize("n", range(2, 10))
    def test_compound_all_matches_the_full_fold(self, n, monkeypatch):
        # Dense blocks turn complete after a few graphs, and the fold must
        # stop right there; sparse ones never do and fold to the end.
        rng = random.Random(600 + n)
        complete = ((1 << n) - 1,) * n
        calls = []

        def counted(g1, g2):
            calls.append(1)
            return compound(g1, g2)

        monkeypatch.setattr(graphs_module, "compound", counted)
        stopped_early = never_complete = 0
        for density in (0.0, 0.5 / n, 0.3, 0.6, 0.9):
            for _ in range(12):
                block = [random_graph(rng, n, density) for _ in range(rng.randint(1, 2 * n))]
                prefixes = list(itertools.accumulate(block, compound))
                # The fold checks each product it makes, so it makes one
                # at least whenever there are two graphs.
                first_complete = next(
                    (i for i in range(1, len(block)) if prefixes[i].ins == complete), len(block) - 1
                )
                calls.clear()
                assert compound_all(block) == functools.reduce(compound, block)
                assert len(calls) == first_complete
                stopped_early += first_complete < len(block) - 1
                never_complete += prefixes[-1].ins != complete
        assert stopped_early >= 10 and never_complete >= 10

    def test_compound_all_checks_sizes_past_completeness(self):
        complete = g(3, [(u, v) for u in range(3) for v in range(3)])
        with pytest.raises(GraphError, match="process count mismatch: 3 vs 4"):
            compound_all([complete, star(0, 3), g(4, [])])


class TestStar:
    def test_star_edges(self):
        assert star(0, 3).edges == frozenset({(0, 1), (0, 2)})

    def test_star_root(self):
        assert root_components(star(0, 3)) == {frozenset({0})}


class TestCausalPast:
    def test_same_round_is_self(self):
        seq = random_sequence(random.Random(0), 4, 5)
        assert causal_past(seq, 2, 3, 3) == frozenset({2})

    def test_single_star_round(self):
        seq = GraphSequence(3, (star(1, 3),))
        assert causal_past(seq, 0, 0, 1) == frozenset({0, 1})

    def test_chain_accumulates(self):
        chain = g(4, [(0, 1), (1, 2), (2, 3)])
        seq = GraphSequence(4, (chain, chain, chain))
        assert causal_past(seq, 3, 0, 3) == frozenset({0, 1, 2, 3})

    def test_bad_bounds(self):
        seq = random_sequence(random.Random(0), 3, 4)
        with pytest.raises(ValueError):
            causal_past(seq, 0, 3, 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_monotone_and_reflexive(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        seq = random_sequence(rng, n, 6)
        p = rng.randrange(n)
        a = rng.randint(0, 5)
        prev = None
        for b in range(a, 7):
            cp = causal_past(seq, p, a, min(b, 6))
            assert p in cp
            if prev is not None:
                assert prev <= cp
            prev = cp

    def test_matches_compound_definition(self):
        # CP(p, a, b) should equal IN_p of the compound of graphs a+1 .. b.
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(2, 5)
            seq = random_sequence(rng, n, 6)
            a, b = sorted(rng.sample(range(0, 7), 2))
            p = rng.randrange(n)
            folded = compound_all(seq.graphs[a:b] or [g(n, [])])
            assert causal_past(seq, p, a, b) == frozenset(members(folded.ins[p]))


class TestSequenceSerialization:
    def test_round_trip(self):
        seq = random_sequence(random.Random(5), 4, 6)
        buf = io.StringIO()
        write_jsonl(seq, buf)
        buf.seek(0)
        back = read_jsonl(buf)
        assert back.n == seq.n and back.graphs == seq.graphs

    def test_parse_error_carries_line(self):
        buf = io.StringIO('{"n": 2, "rounds": 1}\nnot-json\n')
        with pytest.raises(GraphError) as err:
            read_jsonl(buf)
        assert "2" in str(err.value)


def _reach(n, succ, src):
    """Processes reachable from src along succ (src included), by BFS."""
    seen = {src}
    frontier = [src]
    while frontier:
        u = frontier.pop()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _roots_by_reachability(graph):
    """Edge-set oracle: SCCs by mutual reachability, kept if closed."""
    n = graph.n
    succ = {u: set() for u in range(n)}
    for u, v in graph.edges:
        succ[u].add(v)
    desc = [_reach(n, succ, v) for v in range(n)]
    roots = set()
    for v in range(n):
        comp = frozenset(u for u in desc[v] if v in desc[u])
        if not any(w in comp and u not in comp for u, w in graph.edges):
            roots.add(comp)
    return frozenset(roots)


class TestWideMasks:
    """Kernel oracles at mask widths past the small-n cases above."""

    WIDTHS = [8, 16, 24]

    @pytest.mark.parametrize("n", WIDTHS)
    def test_compound_matches_matrix_product(self, n):
        rng = random.Random(100 + n)
        for _ in range(8):
            g1 = random_graph(rng, n, rng.uniform(0.02, 0.3))
            g2 = random_graph(rng, n, rng.uniform(0.02, 0.3))
            m1 = [[u == v or (u, v) in g1.edges for v in range(n)] for u in range(n)]
            m2 = [[u == v or (u, v) in g2.edges for v in range(n)] for u in range(n)]
            expect = {
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and any(m1[u][k] and m2[k][v] for k in range(n))
            }
            assert compound(g1, g2).edges == frozenset(expect)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_causal_past_matches_edge_bfs(self, n):
        rng = random.Random(200 + n)
        seq = random_sequence(rng, n, 6, density=2.0 / n)
        for _ in range(20):
            p = rng.randrange(n)
            a, b = sorted(rng.sample(range(0, 7), 2))
            reached = {p}
            for r in range(b, a, -1):
                reached |= {u for (u, v) in seq.graphs[r - 1].edges if v in reached}
            assert causal_past(seq, p, a, b) == frozenset(reached)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_root_components_match_reachability(self, n):
        rng = random.Random(300 + n)
        for _ in range(30):
            graph = random_graph(rng, n, rng.uniform(0.0, 4.0 / n))
            assert root_components(graph) == _roots_by_reachability(graph)

    @pytest.mark.parametrize("n", [8, 10])
    def test_root_components_match_brute_force(self, n):
        rng = random.Random(400 + n)
        for _ in range(5):
            graph = random_graph(rng, n, rng.uniform(0.05, 0.3))
            assert root_components(graph) == brute_force_roots(graph)

    @pytest.mark.parametrize("n", WIDTHS)
    def test_compound_equals_graph_rebuilt_from_edges(self, n):
        rng = random.Random(500 + n)
        folded = compound_all(random_graph(rng, n, 1.5 / n) for _ in range(4))
        rebuilt = CommGraph(n, folded.edges)
        assert folded == rebuilt and hash(folded) == hash(rebuilt)
        assert len({folded, rebuilt}) == 1

    def test_jsonl_round_trip_n20(self):
        seq = random_sequence(random.Random(20), 20, 5, density=0.2)
        buf = io.StringIO()
        write_jsonl(seq, buf)
        buf.seek(0)
        back = read_jsonl(buf)
        assert back == seq
        assert [h.edges for h in back] == [h.edges for h in seq]
