import random

import pytest

from rootsim.detection import estimate_root
from rootsim.engine import run
from rootsim.graphs import CommGraph, GraphSequence, members, star
from rootsim.adversary import compound_sequence, generate_rooted, generate_stable, window_start
from conftest import Probe, random_sequence
from oracles import brute_force_roots


def g(n, edges):
    return CommGraph(n, edges)


def collect_estimates(seq, max_s=None):
    """Run the probe and record estimate_root(view, s) for every process,
    round, and 1 <= s <= r. Returns {(p, s, r): estimate}."""
    out = {}

    def hook(state, view, r):
        top = r if max_s is None else min(r, max_s)
        for s in range(1, top + 1):
            out[(view.owner, s, r)] = estimate_root(view, s)

    run(Probe(hook), list(range(seq.n)), seq)
    return out


class TestExamples:
    def test_current_round_singleton(self):
        # A process whose current receive set is only itself can already
        # conclude it is this round's root.
        seq = GraphSequence(3, (g(3, [(0, 1), (1, 2)]),))
        est = collect_estimates(seq)
        assert est[(0, 1, 1)] == frozenset({0})
        # Process 1 received from 0 but lacks 0's round-1 report: unknown.
        assert est[(1, 1, 1)] is None

    def test_star_detected_next_round_by_all(self):
        seq = GraphSequence(3, (star(0, 3), star(0, 3)))
        est = collect_estimates(seq)
        for p in range(3):
            assert est[(p, 1, 2)] == frozenset({0})

    def test_missing_member_report_unknown(self):
        # Root {0,1} is a 2-cycle; process 2 hears 0's round-1 state in
        # round 2 but never 1's, so the round-1 root stays unknown to it.
        g1 = g(3, [(0, 1), (1, 0), (0, 2)])
        g2 = g(3, [(0, 2), (0, 1), (1, 0)])
        est = collect_estimates(GraphSequence(3, (g1, g2)))
        assert est[(2, 1, 2)] is None

    def test_unrooted_round_known_component(self):
        # Round 1 has the two roots {0} and {1}. Process 0 knows its own
        # report, which makes {0} fully known; process 2 knows neither
        # root's report. In round 2 everyone hears everyone, and then
        # both roots are fully known, so nobody can single one out.
        complete = g(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        est = collect_estimates(GraphSequence(3, (g(3, [(0, 2), (1, 2)]), complete)))
        assert est[(0, 1, 1)] == frozenset({0})
        assert est[(1, 1, 1)] == frozenset({1})
        assert est[(2, 1, 1)] is None
        assert [est[(p, 1, 2)] for p in range(3)] == [None] * 3

    def test_bad_round_arguments(self):
        def hook(state, view, r):
            with pytest.raises(ValueError):
                estimate_root(view, r + 1)
            with pytest.raises(ValueError):
                estimate_root(view, 0)

        run(Probe(hook), [0, 1], GraphSequence(2, (g(2, []),)))

    def test_estimate_prev_root_star(self):
        # Previous graph a broadcast star, current round delivers the
        # center's state: everyone reconstructs the previous root.
        seq = GraphSequence(3, (star(0, 3), star(0, 3)))
        results = {}

        def hook(state, view, r):
            if r == 2:
                results[view.owner] = estimate_root(view, r - 1)

        run(Probe(hook), [0, 1, 2], seq)
        assert results == {p: frozenset({0}) for p in range(3)}


class TestSoundness:
    def test_known_estimates_match_true_roots(self):
        # On rooted sequences every non-None estimate equals the true root
        # of that round's graph.
        for seed in range(15):
            n = random.Random(seed).randint(2, 5)
            seq = generate_rooted(n, 10, seed)
            est = collect_estimates(seq)
            for (p, s, r), root in est.items():
                if root is not None:
                    assert root == seq.roots[s - 1], (p, s, r)

    def test_unrooted_graphs_never_fabricate(self):
        # On arbitrary (possibly multi-root) graphs, a Known estimate must
        # still be a genuinely closed strongly connected set.
        for seed in range(10):
            rng = random.Random(1000 + seed)
            seq = random_sequence(rng, 4, 6, density=0.15)
            est = collect_estimates(seq)
            for (p, s, r), root in est.items():
                if root is not None:
                    assert root in brute_force_roots(seq.graphs[s - 1])


class TestCompleteness:
    @pytest.mark.parametrize("n,D", [(3, 1), (4, 2), (5, 3), (6, 4)])
    def test_window_root_known_at_window_end(self, n, D):
        x = D + 1
        for seed in range(4):
            horizon = (x + n + 2) + x + 5
            seq, (a, b, root) = generate_stable(n, D, x, window_start(n, x, seed), horizon, seed)
            est = collect_estimates(seq, max_s=b)
            for p in range(n):
                assert est[(p, a, a + D)] == root, (p, seed)


class TestMonotonicity:
    def test_estimates_never_revert(self):
        for seed in range(8):
            rng = random.Random(seed)
            n = rng.randint(2, 5)
            seq = generate_rooted(n, 12, seed + 50)
            est = collect_estimates(seq)
            for p in range(n):
                for s in range(1, 13):
                    known = None
                    for r in range(s, 13):
                        cur = est.get((p, s, r))
                        if known is not None:
                            assert cur == known, (p, s, r)
                        elif cur is not None:
                            known = cur


def known_report(view, seq, q, s):
    """q's round-s receive report as an in-neighbour mask, or None if the
    view does not know it. The report travels in q's round-s state, and
    the owner also knows its own current one."""
    if 1 <= s <= (view.round if q == view.owner else view.lastround[q]):
        return seq.graphs[s - 1].ins[q]
    return None


def unmemoized_estimate(view, seq, s):
    """The estimate by exhaustive search: the unique closed, strongly
    connected set of processes whose round-s reports the view can read."""
    reports = {q: known_report(view, seq, q, s) for q in range(seq.n)}
    known = {q for q, mask in reports.items() if mask is not None}
    reported = CommGraph(seq.n, {(u, q) for q in known for u in members(reports[q])})
    found = [R for R in brute_force_roots(reported) if R <= known]
    return found[0] if len(found) == 1 else None


def estimate_mismatches(seq, fully_known=None):
    """(p, s, r) wherever estimate_root differs from unmemoized_estimate.
    Adds to `fully_known` every s of which some view knew all reports."""
    mismatches = []

    def hook(state, view, r):
        for s in range(1, r + 1):
            if estimate_root(view, s) != unmemoized_estimate(view, seq, s):
                mismatches.append((view.owner, s, r))
            if fully_known is not None and all(known_report(view, seq, q, s) is not None for q in range(seq.n)):
                fully_known.add(s)

    run(Probe(hook), list(range(seq.n)), seq)
    return mismatches


class TestMemo:
    def test_memoized_estimates_match_unmemoized(self):
        # On multi-root sequences a view must single out the one root
        # component whose reports it knows, or answer None if it knows
        # several.
        for seed in range(10):
            rng = random.Random(1000 + seed)
            assert not estimate_mismatches(random_sequence(rng, 4, 6, density=0.15)), seed

    def test_estimates_match_unmemoized_at_n8(self):
        # Report masks eight bits wide, with several roots in most rounds.
        for seed in range(3):
            rng = random.Random(2000 + seed)
            assert not estimate_mismatches(random_sequence(rng, 8, 5, density=0.12)), seed

    def test_full_knowledge_entries_match_unmemoized(self):
        # A view that knows all of a round's reports gets that round's
        # root, or None for a round with several: here round 2 is edgeless
        # and round 3 has the two roots {0} and {1}. The complete round 5
        # shows everyone every report of rounds 1..4.
        complete = g(3, [(u, v) for u in range(3) for v in range(3) if u != v])
        seq = GraphSequence(3, (complete, g(3, []), g(3, [(0, 2), (1, 2)]), star(0, 3), complete, complete))
        assert seq.roots == (frozenset({0, 1, 2}), None, None, frozenset({0}), frozenset({0, 1, 2}), frozenset({0, 1, 2}))
        fully_known = set()
        assert not estimate_mismatches(seq, fully_known)
        assert fully_known == {1, 2, 3, 4, 5}

    def test_estimates_match_unmemoized_on_rooted_sequences(self):
        # Estimates are read off the sequence's root components rather
        # than searched, so the oracle must also see the sequences the
        # algorithms run on: stable windows at every (n, D), plain rooted
        # sequences, and the compound graphs of voting.
        for n in range(2, 7):
            for D in range(1, n):
                x = D + 1
                for seed in range(3):
                    start = window_start(n, x, seed)
                    seq, _ = generate_stable(n, D, x, start, start + x + 2, seed)
                    assert not estimate_mismatches(seq), (n, D, seed)
        for seed in range(4):
            n = 3 + seed
            rooted = generate_rooted(n, 14, seed)
            assert not estimate_mismatches(rooted), seed
            blocks = generate_rooted(n, 6 * (n - 1), seed, stable_len=n - 1)
            assert not estimate_mismatches(compound_sequence(blocks)), seed

