import hashlib
import json
import random

import pytest

from rootsim import adversary
from rootsim.adversary import (
    GenerationError,
    check_diam,
    check_nonsplit,
    check_star_window,
    compound_sequence,
    generate_rooted,
    generate_stable,
    membership_report,
    scenario,
    stable_window,
    window_start,
)
from rootsim.graphs import (
    CommGraph,
    GraphError,
    GraphSequence,
    causal_past,
    compound,
    maximal_runs,
    root_components,
    star,
)
from rootsim.algorithms import LockingConsensus
from rootsim.engine import run

from conftest import random_graph, short_diameter_sequence
from oracles import brute_force_nonsplit, views_equal_until, walk_diam


def g(n, edges):
    return CommGraph(n, edges)


def stable(n, D, x, horizon, seed):
    """generate_stable with the window placed by window_start."""
    return generate_stable(n, D, x, window_start(n, x, seed), horizon, seed)


class TestCheckers:
    def test_rooted_all_stars(self):
        seq = GraphSequence(3, (star(0, 3), star(1, 3), star(2, 3)))
        assert None not in seq.roots

    def test_rooted_flags_edgeless_round(self):
        seq = GraphSequence(3, (star(0, 3), g(3, []), star(0, 3)))
        assert [root is not None for root in seq.roots] == [True, False, True]

    def test_stability_constant_star(self):
        seq = GraphSequence(3, (star(0, 3),) * 5)
        assert maximal_runs(seq.roots) == [(1, 5, frozenset({0}))]

    def test_stability_alternating_has_no_window(self):
        seq = GraphSequence(3, (star(0, 3), star(1, 3)) * 3)
        assert all(e - s + 1 < 2 for (s, e, _) in maximal_runs(seq.roots))
        assert stable_window(seq, 2) is None

    def test_stable_window_is_the_first_long_enough_run_whole(self):
        # Runs {0} 1..2, {1} 3..5, unrooted 6, {0} 7..10.
        graphs = (star(0, 3),) * 2 + (star(1, 3),) * 3 + (g(3, []),) + (star(0, 3),) * 4
        seq = GraphSequence(3, graphs)
        assert stable_window(seq, 1) == (1, 2, frozenset({0}))
        assert stable_window(seq, 3) == (3, 5, frozenset({1}))
        assert stable_window(seq, 4) == (7, 10, frozenset({0}))
        assert stable_window(seq, 5) is None

    def test_diam_max_diameter_always_ok(self):
        rng = random.Random(2)
        for seed in range(10):
            seq = generate_rooted(4, 12, seed)
            ok, violation = check_diam(seq, 3)
            assert ok, violation

    def test_diam_vacuous_when_roots_change(self):
        seq = GraphSequence(3, (star(0, 3), star(1, 3), star(2, 3)))
        ok, _ = check_diam(seq, 2)
        assert ok

    def test_diam_violation_detected(self):
        # Root {0} for one round with its information reaching only process
        # 1: the one-round window fails the D=1 causal-past requirement.
        graph = g(3, [(0, 1), (1, 2)])
        seq = GraphSequence(3, (graph,))
        assert seq.roots == (frozenset({0}),)
        ok, violation = check_diam(seq, 1)
        assert not ok
        assert 0 not in causal_past(
            seq, violation["process"], violation["window_start"] - 1, violation["window_end"]
        )

    def test_diam_violation_pinned(self):
        # Processes 4 and 5 are both short in the window 3..4: the first
        # violation names the window, the lower process and its misses.
        seq = short_diameter_sequence()
        assert check_diam(seq, 2) == (False, {
            "window_start": 3,
            "window_end": 4,
            "process": 4,
            "root": [0, 1, 2],
            "missing": [0, 1],
        })
        assert check_diam(seq, 3) == (True, None)
        with pytest.raises(ValueError, match="D=0"):
            check_diam(seq, 0)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_diam_matches_the_causal_past_walk(self, n):
        # Sequences with a stable window of 2..n rounds, at every D. (At
        # n = 2 every rooted round reaches both processes.)
        found = 0
        for seed in range(30):
            seq = generate_rooted(n, 3 * n, seed, stable_len=2 + seed % (n - 1))
            for D in range(1, n):
                got = check_diam(seq, D)
                assert got == walk_diam(seq, D), (seed, D)
                found += not got[0]
        assert found

    def test_nonsplit_star(self):
        ok, _ = check_nonsplit(GraphSequence(3, (star(0, 3),)))
        assert ok

    def test_nonsplit_edgeless_pair(self):
        ok, witness = check_nonsplit(GraphSequence(2, (g(2, []),)))
        assert not ok
        assert witness[0] == 1  # violating round

    def test_nonsplit_matches_brute_force(self):
        # The first `covered` rounds of each sequence get a star on top, so
        # a common in-neighbour covers them and the shortcut skips them; a
        # later round may still split, and its witness must be the first.
        rng = random.Random(77)
        late_splits = 0
        for _ in range(400):
            n = rng.randint(2, 7)
            rounds = rng.randint(1, 8)
            covered = rng.randint(0, rounds)
            graphs = []
            for r in range(rounds):
                h = random_graph(rng, n, rng.choice([0.1, 0.4, 0.8]))
                if r < covered:
                    h = CommGraph(n, h.edges | star(rng.randrange(n), n).edges)
                graphs.append(h)
            seq = GraphSequence(n, tuple(graphs))
            expected = brute_force_nonsplit(seq)
            assert check_nonsplit(seq) == expected, (n, covered, expected)
            late_splits += covered > 0 and not expected[0] and expected[1][0] > covered
        assert late_splits >= 20

    def test_star_window_two_stars(self):
        seq = GraphSequence(3, (star(0, 3), star(0, 3)))
        assert check_star_window(seq, 2) == [(1, 2, frozenset({0}))]

    def test_star_window_requires_outward_broadcast(self):
        # Stable root {0,1} as a 2-cycle with a chain onward: rooted and
        # stable, but the root does not broadcast, so no window.
        graph = g(3, [(0, 1), (1, 0), (1, 2)])
        seq = GraphSequence(3, (graph,))
        assert check_star_window(seq, 1) == []


class TestCompoundSequence:
    def test_constant_star(self):
        seq = GraphSequence(3, (star(0, 3),) * 4)
        out = compound_sequence(seq)
        assert len(out) == 2
        expected = compound(star(0, 3), star(0, 3))
        assert all(out.graph(r) == expected for r in (1, 2))

    def test_rooted_input_gives_nonsplit_output(self):
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            seq = generate_rooted(n, 3 * (n - 1), seed)
            ok, witness = check_nonsplit(compound_sequence(seq))
            assert ok, (n, seed, witness)

    def test_stable_input_gives_star_windows(self):
        for seed in range(30):
            n = 4
            seq = generate_rooted(n, 9 * (n - 1), seed, stable_len=3 * (n - 1))
            windows = check_star_window(compound_sequence(seq), 2)
            assert windows, seed

    def test_remainder_dropped(self):
        # A trailing part block is the caller's to trim.
        seq = GraphSequence(3, (star(0, 3),) * 5)
        with pytest.raises(GraphError, match="5 rounds are not whole blocks of 2"):
            compound_sequence(seq)


class TestGenerateStable:
    @pytest.mark.parametrize("n,D", [(2, 1), (3, 2), (4, 1), (5, 3), (6, 5)])
    def test_output_is_member_with_designated_window(self, n, D):
        x = D + 1
        for seed in range(5):
            horizon = (x + n + 2) + x + n * (D + 2 * n) + 5
            seq, (a, b, root) = stable(n, D, x, horizon, seed)
            report = membership_report(seq, D, x)
            assert report["member"]
            assert {"start": a, "end": b, "root": sorted(root)} in report["stability_windows"]
            assert b - a + 1 == x

    def test_designated_window_is_first(self):
        seq, (a, b, root) = stable(4, 2, 3, 60, 9)
        assert stable_window(seq, 3) == (a, b, root)
        # No earlier run reaches length x.
        for (s, e, _) in maximal_runs(seq.roots):
            assert e - s + 1 < 3 or s >= a

    def test_window_root_unique_to_window(self):
        seq, (a, b, root) = stable(5, 2, 3, 70, 4)
        for r in range(1, len(seq) + 1):
            if not (a <= r <= b):
                assert seq.roots[r - 1] != root

    def test_round_one_root_is_detectable_anchor(self):
        # Round 1 has a singleton root that also sits in round 2's root and
        # broadcasts there, making round 1's root universally detectable.
        seq, _ = stable(5, 3, 4, 80, 11)
        r1_root = seq.roots[0]
        assert len(r1_root) == 1
        (anchor,) = r1_root
        assert anchor in seq.roots[1]
        g2 = seq.graph(2)
        assert all((anchor, v) in g2.edges for v in range(5) if v != anchor)

    def test_deterministic(self):
        assert stable(4, 3, 4, 60, 7)[0] == stable(4, 3, 4, 60, 7)[0]

    @pytest.mark.parametrize("n,D", [(n, D) for n in range(2, 7) for D in range(1, n)])
    def test_longer_horizon_keeps_the_prefix(self, n, D):
        # Growing only the horizon extends the sequence: the same graphs up
        # to the shorter horizon, and the same window.
        x = D + 1
        for seed in range(30):
            start = window_start(n, x, seed)
            horizon = start + x - 1 + 3
            seq, window = generate_stable(n, D, x, start, horizon, seed)
            longer, longer_window = generate_stable(n, D, x, start, horizon + 37, seed)
            assert longer.graphs[:horizon] == seq.graphs
            assert longer_window == window

    def test_revalidation_skips_voting_properties(self, monkeypatch):
        # Non-split rounds and broadcast windows are voting properties that
        # membership ignores, so generation does not compute them.
        def voting_only(*args):
            raise AssertionError("voting-only check during generation")

        monkeypatch.setattr(adversary, "check_nonsplit", voting_only)
        monkeypatch.setattr(adversary, "check_star_window", voting_only)
        seq, window = stable(4, 2, 3, 60, 9)
        assert window in maximal_runs(seq.roots)

    @pytest.mark.parametrize("n,D", [(n, D) for n in range(2, 7) for D in range(1, n)])
    def test_proven_roots_are_the_searched_ones(self, n, D):
        # The criterion-1 grid cells: the root sets the generator proves
        # are the ones a root search finds.
        x = D + 1
        for seed in range(40):
            start = window_start(n, x, seed)
            seq, _ = generate_stable(n, D, x, start, start + x - 1 + n * (D + 2 * n) + 5, seed)
            assert seq.root_sets == tuple(root_components(graph) for graph in seq.graphs), seed

    def test_round_off_its_designed_root_raises(self, monkeypatch):
        # Round 5 is drawn with its designed root plus a member that no
        # other process hears, so it has two root components.
        draw = adversary._random_rooted_graph
        drawn = []

        def second_root(rng, n, root, density, broadcast=False):
            graph = draw(rng, n, root, density, broadcast)
            drawn.append(root)
            if len(drawn) != 5:
                return graph
            loner = max(set(range(n)) - root)
            return CommGraph.from_ins([1 << v if v == loner else m & ~(1 << loner) for v, m in enumerate(graph.ins)])

        monkeypatch.setattr(adversary, "_random_rooted_graph", second_root)
        with pytest.raises(GenerationError, match=r"^generated round 5: .* is not the graph's unique root component"):
            generate_stable(6, 3, 4, 8, 30, 0)

    def test_failed_revalidation_raises(self, monkeypatch):
        monkeypatch.setattr(adversary, "check_diam", lambda seq, D: (False, {"window_start": 3}))
        with pytest.raises(GenerationError, match="diameter"):
            stable(4, 2, 3, 60, 9)

    @pytest.mark.parametrize(
        "n,D,x,start,horizon",
        [
            (1, 1, 2, 3, 40),
            (4, 0, 2, 3, 40),
            (4, 4, 5, 3, 60),
            (4, 2, 0, 3, 60),
            (4, 1, 2, 2, 40),
            (4, 1, 2, 39, 39),
        ],
        ids=["n-below-2", "D-below-1", "D-above-n-1", "x-below-1", "start-before-3", "end-after-horizon"],
    )
    def test_out_of_range_argument_rejected(self, n, D, x, start, horizon):
        with pytest.raises(ValueError):
            generate_stable(n, D, x, start, horizon, 0)


class TestGenerateRooted:
    # sha256 of repr([g.ins for g in seq.graphs]) for generate_rooted(n,
    # horizon, seed, stable_len). They pin the random stream: a draw added,
    # dropped or reordered changes the graphs and every voting digest.
    DIGESTS = {
        (2, 12, 0, 0): "f6c8363e163f3b71e5f231e21b6a19887336e982bcd5074520c57805698b62a3",
        (4, 27, 3, 9): "f637d5977e5795c419475af61790c32189c930fa94241ecba1d2a6c5a30176e1",
        (9, 48, 7, 24): "1c26265e96414ee013b2384959ba09820af2aa744733cf0c5387124c2a123c8f",
        (16, 135, 1, 45): "3f07581df7eb59c74656d6a1262073a8282cf87089e51772156f567be3d504bb",
    }

    @pytest.mark.parametrize("n,horizon,seed,stable_len", sorted(DIGESTS))
    def test_stream_is_pinned(self, n, horizon, seed, stable_len):
        seq = generate_rooted(n, horizon, seed, stable_len=stable_len)
        digest = hashlib.sha256(repr([g.ins for g in seq.graphs]).encode()).hexdigest()
        assert digest == self.DIGESTS[n, horizon, seed, stable_len]

    @pytest.mark.parametrize("n", range(2, 10))
    @pytest.mark.parametrize("windowed", [False, True], ids=["no-window", "window"])
    def test_every_round_rooted(self, n, windowed):
        for seed in range(40):
            stable_len = n - 1 if windowed else 0
            seq = generate_rooted(n, 4 * (n - 1), seed, stable_len=stable_len)
            assert None not in seq.roots, (n, seed)

    def test_round_with_split_root_rejected(self, monkeypatch):
        # Each designated root member is a root component of its own, and
        # every other process hears all of them: the root mask as a whole
        # reaches everyone, but with two or more members the round has as
        # many root components and is not rooted.
        drawn = []

        def split_root(rng, n, root, density, broadcast=False):
            drawn.append(root)
            mask = sum(1 << p for p in root)
            return CommGraph.from_ins([1 << v if v in root else 1 << v | mask for v in range(n)])

        monkeypatch.setattr(adversary, "_random_rooted_graph", split_root)
        with pytest.raises(GenerationError) as info:
            generate_rooted(4, 40, 0)
        assert f"round {len(drawn)} " in str(info.value)
        *rooted, split = drawn
        assert len(split) >= 2 and all(len(root) == 1 for root in rooted)
        assert GraphSequence(4, (split_root(None, 4, split, 0.25),)).roots == (None,)

    @pytest.mark.parametrize(
        "n,horizon,stable_len",
        [(0, 10, 0), (-1, 10, 0), (4, 10, -2), (4, 10, 11)],
        ids=["n-zero", "n-negative", "stable-len-negative", "stable-len-above-horizon"],
    )
    def test_out_of_range_argument_rejected(self, n, horizon, stable_len):
        with pytest.raises(ValueError, match=str(stable_len if n >= 1 else n)):
            generate_rooted(n, horizon, 0, stable_len=stable_len)


class TestScenarios:
    def test_indist_a_shape(self):
        D, n = 2, 12
        seq = scenario("indist-a", n=n, D=D, horizon=10)
        assert None not in seq.roots
        # Process 0 heads the chain in the early rounds.
        assert seq.roots[0] == frozenset({0})

    def test_indist_b_has_stable_suffix(self):
        D, n, tau = 2, 12, 6
        seq = scenario("indist-b", n=n, D=D, tau=tau, horizon=tau + 5)
        assert None not in seq.roots
        runs = maximal_runs(seq.roots)
        assert any(s == tau + 1 and e - s + 1 >= 2 * D - 1 for (s, e, _) in runs)

    def test_indist_pair_validates_for_relaxed_adversary(self):
        D, n, tau = 2, 12, 6
        x = 2 * D - 1
        for name, params in (
            ("indist-a", {"n": n, "D": D, "horizon": tau + 5}),
            ("indist-b", {"n": n, "D": D, "tau": tau, "horizon": tau + 5}),
        ):
            report = membership_report(scenario(name, **params), D, x)
            assert report["member"], (name, report)

    @pytest.mark.parametrize("D,n,tau", [
        (D, n, tau)
        for D in range(2, 5)
        for n in (D + 3, 12)
        for tau in (2 * D, 2 * D + 1, 2 * D + 4, 3 * D + 3)
    ])
    def test_indist_pair_over_the_grid(self, D, n, tau):
        # Criterion 5's checks away from its own cells: process D cannot
        # tell the two runs apart through tau, process 0 can by 2D-1, and
        # the final star window of 2D rounds makes both members at x = 2D-1.
        horizon = tau + 2 * D
        seq1 = scenario("indist-a", n=n, D=D, horizon=horizon)
        seq2 = scenario("indist-b", n=n, D=D, tau=tau, horizon=horizon)
        inputs = [p % 2 for p in range(n)]
        e1 = run(LockingConsensus(N=n, D=D), inputs, seq1)
        e2 = run(LockingConsensus(N=n, D=D), inputs, seq2)
        assert views_equal_until(e1, e2, D, tau)
        assert not views_equal_until(e1, e2, 0, 2 * D - 1)
        assert membership_report(seq1, D, 2 * D - 1)["member"]
        assert membership_report(seq2, D, 2 * D - 1)["member"]

    def test_indist_a_needs_room(self):
        with pytest.raises(ValueError):
            scenario("indist-a", n=4, D=2, horizon=10)

    @pytest.mark.parametrize(
        "name,params",
        [
            ("indist-a", {"n": 5, "D": 1, "horizon": 8}),
            ("indist-b", {"n": 5, "D": 1, "tau": 4, "horizon": 8}),
        ],
        ids=["a", "b"],
    )
    def test_indist_pair_rejects_diameter_below_two(self, name, params):
        # At D = 1 both builders used to return sequences that fail the
        # diameter property they are meant to satisfy.
        with pytest.raises(ValueError, match="D >= 2"):
            scenario(name, **params)

    def test_lossy_link(self):
        seq = scenario("lossy-link", horizon=50, seed=3)
        assert seq.n == 2
        for r in range(1, 51):
            edges = seq.graph(r).edges
            assert len(edges) == 1 and edges <= {(0, 1), (1, 0)}
        # Both directions occur.
        assert {next(iter(seq.graph(r).edges)) for r in range(1, 51)} == {(0, 1), (1, 0)}

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario("no-such-scenario")

    def test_added_builder_works_through_scenario(self, monkeypatch):
        # A builder's signature is the scenario's parameter list: those
        # without a default are required, and nothing else is taken.
        def ring(n: int, horizon: int, shift: int = 1) -> GraphSequence:
            return GraphSequence(n, (CommGraph(n, [(p, (p + shift) % n) for p in range(n)]),) * horizon)

        monkeypatch.setitem(adversary.SCENARIOS, "ring", ring)
        assert scenario("ring", n=3, horizon=2) == ring(3, 2)
        assert scenario("ring", n=3, horizon=2, shift=2) == ring(3, 2, 2)
        with pytest.raises(ValueError, match="^needs --n and --horizon$"):
            scenario("ring", shift=2)
        with pytest.raises(ValueError, match="^takes no --seed$"):
            scenario("ring", n=3, horizon=2, seed=1)


class TestMembershipReport:
    def test_report_json_round_trippable(self):
        seq, _ = stable(3, 1, 2, 30, 1)
        data = json.loads(json.dumps(membership_report(seq, 1, 2)))
        assert data["member"] is True
        assert data["rooted_ok"] is True and data["diam_ok"] is True

    def test_two_root_round_flagged(self):
        seq = GraphSequence(3, (star(0, 3), g(3, []), star(0, 3)))
        report = membership_report(seq, 1, 1)
        assert not report["rooted_ok"]
        assert report["first_unrooted_round"] == 2

    def test_no_window_fails_stability(self):
        seq = GraphSequence(3, (star(0, 3), star(1, 3)) * 4)
        report = membership_report(seq, 2, 2)
        assert not report["stability_ok"]
        assert not report["member"]
