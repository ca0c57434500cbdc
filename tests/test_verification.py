import dataclasses
import itertools
import json
import random

import pytest

from rootsim import adversary, cli, verification
from rootsim.algorithms import LockingConsensus, LockQueue, LockState, VotingConsensus
from rootsim.engine import NEVER, Execution, run
from rootsim.graphs import CommGraph, GraphSequence, star
from rootsim.verification import (
    check_agreement_stability,
    check_consensus,
    check_detection_completeness,
    check_detection_soundness,
    check_post_window_lock,
    decisions_of,
    track_v_locked_windows,
)

import oracles
from conftest import Probe
from oracles import brute_force_roots, check_information_propagation, views_equal_until


def g(n, edges):
    return CommGraph(n, edges)


def make_exec(inputs, rows):
    """Build a minimal Execution from explicit per-process state rows.

    rows[p] is the list of LockState entries for rounds 0..R.
    """
    n = len(inputs)
    rounds = len(rows[0]) - 1
    seq = GraphSequence(n, (g(n, []),) * rounds)
    return Execution(
        inputs=tuple(inputs),
        seq=seq,
        states=[list(r) for r in rows],
        lastrounds=[tuple((0,) * n for _ in range(n))] * rounds,
        trace_fields=lambda s: {"proposal": s.proposal, "decided": s.decision is not None},
    )


def locked(v, decision=None):
    return LockState(
        proposal=v, locked=True, lockround=1, queue=LockQueue([], 0, 0), decision=decision, dissent=NEVER, detected=None
    )


class TestCheckConsensus:
    def test_all_pass(self):
        rows = [
            [locked(5), locked(5), locked(5, 5)],
            [locked(5), locked(5, 5), locked(5, 5)],
        ]
        exec_ = make_exec([5, 0], rows)
        verdict = check_consensus(exec_, 2, decisions_of(exec_))
        assert verdict.ok and verdict.agreement and verdict.validity and verdict.termination

    def test_disagreement_carries_witnesses(self):
        rows = [
            [locked(3), locked(3, 3)],
            [locked(5), locked(5, 5)],
        ]
        exec_ = make_exec([3, 5], rows)
        verdict = check_consensus(exec_, 1, decisions_of(exec_))
        assert not verdict.agreement
        w = verdict.agreement_witness
        assert {w["value_a"], w["value_b"]} == {3, 5}

    def test_invented_value_fails_validity(self):
        rows = [[locked(9), locked(9, 9)]]
        exec_ = make_exec([1], rows)
        verdict = check_consensus(exec_, 1, decisions_of(exec_))
        assert not verdict.validity

    def test_decision_after_deadline_counts_as_undecided(self):
        rows = [[locked(1), locked(1), locked(1, 1)]]
        exec_ = make_exec([1], rows)
        verdict = check_consensus(exec_, 1, decisions_of(exec_))
        assert not verdict.termination
        assert verdict.undecided == [0]

    def test_decision_of_zero_counts(self):
        # 0 is a decided value like any other.
        rows = [[locked(0), locked(0, 0), locked(0, 0)], [locked(1), locked(1), locked(1)]]
        exec_ = make_exec([0, 1], rows)
        decisions = decisions_of(exec_)
        assert decisions == [(0, 1), (None, None)]
        assert check_consensus(exec_, 2, decisions).undecided == [1]
        failures = check_agreement_stability(exec_, decisions)
        assert [(f["round"], f["process"], f["decided_value"]) for f in failures] == [(1, 1, 0), (2, 1, 0)]
        assert LockingConsensus(N=2, D=1).trace_fields(locked(0, 0))["decided"] is True
        assert LockingConsensus(N=2, D=1).trace_fields(locked(0))["decided"] is False

    def test_verdict_json(self):
        rows = [[locked(1), locked(1, 1)]]
        exec_ = make_exec([1], rows)
        data = check_consensus(exec_, 1, decisions_of(exec_)).to_json()
        assert data["ok"] is True and data["deadline"] == 1


class TestLockedWindows:
    def test_windows_from_real_run(self):
        exec_, verdict = cli.run_once({"algorithm": "locking", "n": 4, "D": 1}, 1)
        assert verdict.ok
        windows = track_v_locked_windows(exec_)
        assert windows, "a passing run must eventually hold a locked window"
        # Windows are ordered, non-overlapping, and the last one runs to the
        # horizon with the decided value.
        for (s, e, _v), (s2, _e2, _v2) in zip(windows, windows[1:]):
            assert s <= e < s2
        last = windows[-1]
        assert last[1] == exec_.rounds
        assert last[2] == exec_.states[0][exec_.rounds].decision

    def test_broken_round_splits_window(self):
        rows = [
            [
                locked(1),
                locked(1),
                locked(1)._replace(locked=False),
                locked(1),
            ]
        ]
        exec_ = make_exec([1], rows)
        windows = track_v_locked_windows(exec_)
        assert (1, 1, 1) in windows and (3, 3, 1) in windows


class TestAgreementStability:
    def test_post_decision_divergence_flagged(self):
        rows = [
            [locked(1), locked(1, 1), locked(1, 1)],
            [locked(1), locked(1), locked(2)],
        ]
        exec_ = make_exec([1, 2], rows)
        failures = check_agreement_stability(exec_, decisions_of(exec_))
        assert failures and failures[0]["process"] == 1


class TestDetectionSoundness:
    def test_estimates_on_rounds_with_several_roots_pass(self, tmp_path):
        # Every round of an edgeless replay has the roots {0} and {1}, and
        # each process detects its own: a true root component whose member's
        # state it knows, although the round has no single root.
        path = tmp_path / "edgeless.jsonl"
        lines = [{"n": 2, "rounds": 6}] + [{"round": r, "edges": []} for r in range(1, 7)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        exec_, verdict = cli.run_once({"algorithm": "locking", "n": 2, "D": 1, "x": 1, "sequence": str(path)}, 0)
        assert [exec_.states[p][6].detected for p in range(2)] == [frozenset({0}), frozenset({1})]
        assert not [f for f in verdict.invariant_failures if f["invariant"] == "estimate-soundness"]

    def test_estimate_that_is_no_root_component_reported(self):
        # Round 3 has the roots {0} and {1}, and the complete round 4 shows
        # both processes both round-3 states: {0, 1} is fully known, but it
        # is no root component of round 3.
        complete = g(2, [(0, 1), (1, 0)])
        exec_ = run(LockingConsensus(N=2, D=1), [0, 1], GraphSequence(2, (complete, complete, g(2, []), complete)))
        assert not check_detection_soundness(exec_, 1)
        exec_.states[0][4] = exec_.states[0][4]._replace(detected=frozenset({0, 1}))
        assert check_detection_soundness(exec_, 1) == [{
            "invariant": "estimate-soundness",
            "round": 4,
            "process": 0,
            "estimate": [0, 1],
            "true_root": None,
            "members_known": True,
        }]


    def test_voting_verdict_reports_an_unsound_estimate(self):
        # Voting estimates target the round before their own. Process 1's
        # round-3 estimate is replaced by {0, 1}, no root component of the
        # star round 2, whose one root is {0}.
        exec_ = run(VotingConsensus(), [0, 1, 1], GraphSequence(3, (star(0, 3),) * 4))
        assert exec_.states[1][3].detected == frozenset({0})
        assert verification.voting_verdict(exec_).ok
        exec_.states[1][3] = exec_.states[1][3]._replace(detected=frozenset({0, 1}))
        assert verification.voting_verdict(exec_).invariant_failures == [{
            "invariant": "estimate-soundness",
            "round": 3,
            "process": 1,
            "estimate": [0, 1],
            "true_root": [0],
            "members_known": True,
        }]


class TestDetectionCompleteness:
    def test_missing_estimate_in_the_window_reported(self):
        n, D, x = 4, 2, 4
        seq, window = adversary.generate_stable(n, D, x, 3, 3 + x - 1 + n * (D + 2 * n), 0)
        a, b, root = window
        exec_ = run(LockingConsensus(N=n, D=D), [0, 1, 2, 1], seq)
        assert check_detection_completeness(exec_, window, D) == []
        r = a + D + 1
        exec_.states[1][r] = exec_.states[1][r]._replace(detected=None)
        assert check_detection_completeness(exec_, window, D) == [{
            "invariant": "estimate-completeness",
            "round": r,
            "target_round": r - D,
            "process": 1,
            "estimate": None,
            "expected": sorted(root),
        }]

    def test_check_stops_at_the_last_round(self):
        # The run ends at round b - 1, inside the window: the span whose
        # estimate is due at round b is not checked.
        n, D, x = 4, 2, 4
        seq, window = adversary.generate_stable(n, D, x, 3, 3 + x - 1 + n * (D + 2 * n), 0)
        a, b, root = window
        prefix = GraphSequence(n, seq.graphs[: b - 1])
        exec_ = run(LockingConsensus(N=n, D=D), [0, 1, 2, 1], prefix)
        assert exec_.rounds == b - 1 == a + D
        assert check_detection_completeness(exec_, window, D) == []
        exec_.states[0][b - 1] = exec_.states[0][b - 1]._replace(detected=frozenset({n - 1}))
        assert [(f["round"], f["process"]) for f in check_detection_completeness(exec_, window, D)] == [(b - 1, 0)]


class TestPostWindowLock:
    @pytest.mark.parametrize("n,D,seed", [(3, 2, 14), (4, 3, 4), (5, 4, 1)])
    def test_lock_anchored_at_a_plus_D_in_longer_windows(self, n, D, seed):
        exec_, verdict = cli.run_once({"algorithm": "locking", "n": n, "D": D, "x": D + 2}, seed)
        assert verdict.ok, verdict.to_json()
        # Some process holds, at the window end b, the lock it took at
        # round a+D without b confirming it: anchored at b, the invariant
        # would fail on these runs.
        _, b, _ = adversary.stable_window(exec_.seq, D + 2)
        assert any(
            exec_.states[p][b].lockround != b and b not in exec_.states[p][b].queue
            for p in range(n)
        )

    def test_unlocked_state_after_anchor_reported(self):
        # Window rounds 1..2 with root {0} and D = 1: from round 2 on every
        # state must hold a lock on 1 taken at round 2 or with 2 queued.
        rest = {"decision": None, "dissent": NEVER, "detected": None}
        backed = LockState(proposal=1, locked=True, lockround=2, queue=LockQueue([], 0, 0), **rest)
        queued = LockState(proposal=1, locked=True, lockround=1, queue=LockQueue([2], 0, 1), **rest)
        unlocked = LockState(proposal=1, locked=False, lockround=2, queue=LockQueue([], 0, 0), **rest)
        rows = [
            [locked(1), locked(1), backed, queued],
            [locked(1), locked(1), backed, unlocked],
        ]
        exec_ = make_exec([1, 1], rows)
        failures = check_post_window_lock(exec_, (1, 2, frozenset({0})), 1)
        assert [(f["round"], f["process"]) for f in failures] == [(3, 1)]
        # A window shorter than D+1 rounds forces no lock.
        assert check_post_window_lock(exec_, (1, 2, frozenset({0})), 2) == []


# Runs whose stable window starts at round 1, at n = 2 and D = 1: a star
# centred on 0 for 20 rounds with inputs [1, 0], and lossy-link seed 6,
# whose window is rounds 1..2, with inputs [0, 1].
WINDOW_AT_ROUND_ONE = [
    (GraphSequence(2, (star(0, 2),) * 20), [1, 0]),
    (adversary.scenario("lossy-link", horizon=20, seed=6), [0, 1]),
]


def with_faults(exec_, window, D, seed):
    """A copy of `exec_` with faults of every kind at random cells from the
    window's first round on: flipped proposals, cleared locks, estimates
    that name no root, estimates of a root whose member's state the
    process does not know, confirmations of the lock round c = a+D
    dropped from a queue, and two processes that decide different values
    in one round before anyone else."""
    rng = random.Random(seed)
    states = [list(col) for col in exec_.states]
    lastrounds = list(exec_.lastrounds)
    n, rounds = exec_.n, exec_.rounds
    a, b, root = window
    c = a + D

    def cells(k):
        return [(rng.randrange(n), rng.randint(a, rounds)) for _ in range(k)]

    for p, r in cells(6):
        states[p][r] = states[p][r]._replace(proposal=states[p][r].proposal + 1)
    for p, r in cells(6):
        states[p][r] = states[p][r]._replace(locked=False)
    for p, r in cells(6):
        states[p][r] = states[p][r]._replace(detected=frozenset(range(n)) - {rng.randrange(n)})
    for p, r in cells(20):
        est, s = states[p][r].detected, r - D
        if est and s >= 1:
            q = min(est)
            row = list(lastrounds[r - 1][p])
            row[q] = min(row[q], s - 1)
            view = list(lastrounds[r - 1])
            view[p] = tuple(row)
            lastrounds[r - 1] = tuple(view)
    for p, r in cells(40):
        st = states[p][r]
        if r >= c and st.lockround < c and c in st.queue:
            kept = [t for t in st.queue if t != c]
            states[p][r] = st._replace(queue=LockQueue(kept, 0, len(kept)))
    r0 = min(r for _, r in decisions_of(exec_)) - 1
    p1, p2 = rng.sample(range(n), 2)
    states[p1][r0] = states[p1][r0]._replace(decision=-1)
    states[p2][r0] = states[p2][r0]._replace(decision=-2)
    return dataclasses.replace(exec_, states=states, lastrounds=lastrounds)


class TestWitnessOrder:
    """The column walks report exactly the failures of the (round, process)
    walks in `oracles`, in the same order, on real runs with faults."""

    CASES = [
        ({"algorithm": "locking", "n": n, "D": D}, seed)
        for n, D in ((3, 1), (4, 2), (5, 2), (6, 3))
        for seed in range(3)
    ]

    @pytest.mark.parametrize("cfg, seed", CASES)
    def test_faulty_locking_runs(self, cfg, seed):
        exec_, verdict = cli.run_once(cfg, seed)
        assert verdict.ok
        D, N = cfg["D"], cfg["n"]
        window = adversary.stable_window(exec_.seq, D + 1)
        bad = with_faults(exec_, window, D, seed)
        pairs = {
            "decisions": (decisions_of(bad), [oracles.walk_decision_of(bad, p) for p in range(bad.n)]),
            "soundness": (check_detection_soundness(bad, D), oracles.walk_detection_soundness(bad, D)),
            "post-window": (check_post_window_lock(bad, window, D), oracles.walk_post_window_lock(bad, window, D)),
            "convergence": (
                verification.check_locked_root_convergence(bad, D, N),
                oracles.walk_locked_root_convergence(bad, D, N),
            ),
            "agreement": (check_agreement_stability(bad, decisions_of(bad)), oracles.walk_agreement_stability(bad)),
            "locked windows": (track_v_locked_windows(bad), oracles.walk_v_locked_windows(bad)),
        }
        for name, (got, want) in pairs.items():
            assert got == want, name
        for name in ("soundness", "post-window", "agreement"):
            cells = [(f["round"], f["process"]) for f in pairs[name][1]]
            # Process-major order would differ: the order is under test.
            assert cells != sorted(cells, key=lambda cell: cell[::-1]), name

    @pytest.mark.parametrize("seed", range(3))
    def test_faulty_voting_run_estimates(self, seed):
        exec_, verdict = cli.run_once({"algorithm": "voting", "n": 5}, seed)
        assert verdict.ok
        rng = random.Random(seed)
        for _ in range(4):
            p, r = rng.randrange(exec_.n), rng.randint(2, exec_.rounds)
            exec_.states[p][r] = exec_.states[p][r]._replace(detected=frozenset({0, 1, 2}) - {p})
        want = oracles.walk_detection_soundness(exec_, 1)
        assert len(want) >= 2
        assert check_detection_soundness(exec_, 1) == want
        assert verification.voting_verdict(exec_).invariant_failures == want


def locking_run_verdict(seq, inputs):
    """The library verdict on a LockingConsensus(N=2, D=1) run over seq,
    with its first stable window of D+1 rounds."""
    algo = LockingConsensus(N=2, D=1)
    return verification.locking_verdict(run(algo, inputs, seq), algo, adversary.stable_window(seq, 2))


class TestVerdicts:
    def test_locking_verdict_is_the_run_verdict(self):
        # The verdict on a run assembled from the library equals the one
        # `run_once` gives for the same configuration.
        seq, window = adversary.generate_stable(4, 2, 3, 5, 60, 1)
        algo = LockingConsensus(N=4, D=2)
        verdict = verification.locking_verdict(run(algo, [0, 1, 1, 0], seq), algo, window)
        cfg = {"n": 4, "D": 2, "stability_start": 5, "horizon": 60, "inputs": [0, 1, 1, 0]}
        assert verdict.ok
        assert verdict.to_json() == cli.run_once(cfg, 1)[1].to_json()

    def test_window_at_round_one_cases(self):
        # Both cases' windows start at round 1, and the star case passes
        # once round 1 has another root.
        assert [adversary.stable_window(seq, 2)[0] for seq, _ in WINDOW_AT_ROUND_ONE] == [1, 1]
        seq = GraphSequence(2, (star(1, 2),) + (star(0, 2),) * 19)
        assert adversary.stable_window(seq, 2)[0] == 2
        assert locking_run_verdict(seq, [1, 0]).ok

    @pytest.mark.xfail(
        strict=True,
        reason="the initial lock (lockround 1) keeps a process whose input differs "
        "from the root's value from adopting it at round D+1",
    )
    @pytest.mark.parametrize("seq, inputs", WINDOW_AT_ROUND_ONE, ids=["star", "lossy-link"])
    def test_window_at_round_one(self, seq, inputs):
        verdict = locking_run_verdict(seq, inputs)
        assert verdict.ok, verdict.to_json()


N2_GRAPHS = {">": g(2, [(0, 1)]), "<": g(2, [(1, 0)]), "=": g(2, [(0, 1), (1, 0)])}


def check_n2_words(H, failing):
    """Run every word of H rounds over the three rooted graphs of two
    processes (> is 0 -> 1, < is 1 -> 0, = is both), followed by 12 rounds
    of =, under both input orders, each with its full verdict. Assert that
    none breaks agreement or validity, and that exactly `failing` runs fail,
    each with its stable window at round 1: the runs whose initial lock
    outlives a window that no detected root precedes, as in
    `test_window_at_round_one`."""
    failed_windows = []
    for word in itertools.product("><=", repeat=H):
        seq = GraphSequence(2, tuple(N2_GRAPHS[c] for c in word + ("=",) * 12))
        for inputs in ([0, 1], [1, 0]):
            verdict = locking_run_verdict(seq, inputs)
            assert verdict.agreement and verdict.validity, ("".join(word), inputs)
            if not verdict.ok:
                failed_windows.append(adversary.stable_window(seq, 2))
    assert len(failed_windows) == failing
    assert {window[0] for window in failed_windows} == {1}


def test_every_n2_word_of_six_rounds():
    check_n2_words(6, failing=486)


def seen_root_window_run(word, inputs):
    """The verdict on a LockingConsensus(N=4, D=3) run over `word` (one
    edge list per round; (u, v) means v hears u) and then complete graphs,
    70 rounds in all, with its first stable window of D+1 rounds."""
    n, D = 4, 3
    complete = [(u, v) for u in range(n) for v in range(n) if u != v]
    seq = GraphSequence(n, tuple(g(n, edges) for edges in word + [complete] * (70 - len(word))))
    assert adversary.membership_report(seq, D, D + 1)["member"]
    algo = LockingConsensus(N=n, D=D)
    return verification.locking_verdict(run(algo, inputs, seq), algo, adversary.stable_window(seq, D + 1))


class TestWindowRootSeenBefore:
    """Windows whose root was already the root of an earlier round."""

    def test_a_round_with_no_estimate_counts_as_a_root_change(self):
        # Round 3's root {3} locks processes 0 and 3 on 0 at round 6. The
        # window 5..8 has root {3} again and dictates 1, but they never
        # learn process 1's round-4 state, so round 4, whose root is {1},
        # has no estimate. Unless that round counts as a possible root
        # change, they keep their stale lock past the window and everyone
        # decides at 56, after the deadline 52.
        star3 = [(3, 0), (3, 1), (3, 2)]
        word = [
            [(2, 0), (2, 1), (2, 3)],
            [(1, 0), (2, 3), (3, 1), (3, 2)],
            [(1, 0), (2, 1), (3, 2)],
            [(1, 0), (1, 2), (1, 3)],
            star3,
            [(1, 2), (3, 0), (3, 1)],
            star3,
            star3,
        ]
        verdict = seen_root_window_run(word, [0, 1, 1, 0])
        assert verdict.deadline == 52
        assert verdict.ok, verdict.to_json()

    def test_root_of_round_two_returns_in_the_window(self):
        # The window 4..7 has root {0, 2, 3}, round 2's root too. The run
        # passes whether or not a round with no estimate counts as a root
        # change, but it fails if the initial lock yields to the first
        # candidate while such rounds do not count: everyone then decides
        # at 55, after the deadline 51.
        word = [
            [(1, 2), (1, 3), (3, 0)],
            [(0, 3), (2, 0), (2, 1), (3, 2)],
            [(1, 3), (3, 0), (3, 2)],
            [(0, 2), (2, 1), (2, 3), (3, 0)],
            [(0, 3), (2, 3), (3, 0), (3, 1), (3, 2)],
            [(0, 3), (2, 0), (3, 1), (3, 2)],
            [(0, 2), (2, 3), (3, 0), (3, 1)],
        ]
        verdict = seen_root_window_run(word, [0, 1, 0, 0])
        assert verdict.deadline == 51
        assert verdict.ok, verdict.to_json()


class TestIndistinguishability:
    def test_identical_sequences(self):
        seq = GraphSequence(2, (g(2, [(0, 1)]),) * 3)
        e1 = run(Probe(), [0, 1], seq)
        e2 = run(Probe(), [0, 1], seq)
        assert views_equal_until(e1, e2, 0, 3)
        assert views_equal_until(e1, e2, 1, 3)


class TestInformationPropagation:
    def test_constant_stars(self):
        assert check_information_propagation([star(0, 3)] * 3, {0})

    def test_wrong_graph_count(self):
        with pytest.raises(ValueError):
            check_information_propagation([star(0, 3)] * 2, {0})

    def test_x_must_hit_every_root(self):
        graphs = [star(0, 3), star(1, 3), star(0, 3)]
        with pytest.raises(ValueError):
            check_information_propagation(graphs, {0})

    def test_unrooted_graph_rejected(self):
        with pytest.raises(ValueError):
            check_information_propagation([g(2, [])] * 2, {0, 1})


class TestBruteForceOracle:
    def test_matches_fast_path_on_named_graphs(self):
        cases = [
            star(0, 4),
            g(4, [(0, 1), (1, 0), (2, 3), (3, 2)]),
            g(3, [(0, 1), (1, 2), (2, 0)]),
            g(3, []),
        ]
        from rootsim.graphs import root_components

        for graph in cases:
            assert brute_force_roots(graph) == root_components(graph)
