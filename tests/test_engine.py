import random
from typing import NamedTuple

import pytest

from rootsim import adversary
from rootsim.algorithms import LockingConsensus, VotingConsensus
from rootsim.detection import estimate_root
from rootsim.engine import NEVER, EngineError, run
from rootsim.graphs import CommGraph, GraphSequence, members, star

from conftest import Probe, random_sequence
from oracles import causal_past, views_equal_until


def g(n, edges):
    return CommGraph(n, edges)


def complete(n):
    return g(n, [(u, v) for u in range(n) for v in range(n)])


def assert_knowledge_equals_causal_past(seq):
    """At its round-r computation, p knows q's round-s state iff s < r and q
    is in p's causal past from round s: the independent graph-level oracle.
    Each state is unique to its (pid, round), so knowledge tracking cannot
    alias."""
    n = seq.n
    exec_ = run(Probe(), list(range(n)), seq)
    for r in range(1, len(seq) + 1):
        vec = exec_.lastrounds[r - 1]
        for p in range(n):
            for q in range(n):
                lr = vec[p][q]
                for s in range(0, r + 1):
                    knows = s <= lr
                    assert knows == (s < r and q in causal_past(seq, p, s, r)), (p, q, s, r)


class TestFullInformation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_knowledge_equals_causal_past(self, n):
        rng = random.Random(n * 17)
        for _ in range(6):
            horizon = rng.randint(5, 20)
            assert_knowledge_equals_causal_past(
                random_sequence(rng, n, horizon, density=rng.uniform(0.1, 0.5))
            )

    @pytest.mark.parametrize("kind", ["complete", "stars", "complete_and_empty", "voting"])
    def test_knowledge_equals_causal_past_on_repeated_masks(self, kind):
        # Rounds in which several processes share one receive set, so the
        # engine merges that set once and they all read the same row.
        n = 5
        if kind == "voting":
            seqs = [
                adversary.compound_sequence(adversary.generate_rooted(n, 36, seed, stable_len=12))
                for seed in range(3)
            ]
        else:
            graphs = {
                "complete": (complete(n),) * 4,
                "stars": tuple(star(c, n) for c in (0, 0, 3, 1, 4, 4, 2)),
                "complete_and_empty": (g(n, []), complete(n), g(n, []), star(2, n), complete(n)),
            }[kind]
            seqs = [GraphSequence(n, graphs)]
        for seq in seqs:
            assert_knowledge_equals_causal_past(seq)

    def test_shared_mask_views_read_previous_round(self):
        # Every process has the complete receive set, so all of a round's
        # views come from one merge; each must still see every other
        # process's entry as r-1, also after earlier views in the same
        # round have stepped.
        n = 4
        seen = []

        def hook(state, view, r):
            seen.append((view.owner, r, list(view.lastround)))

        run(Probe(hook), list(range(n)), GraphSequence(n, (complete(n),) * 3))
        assert len(seen) == 3 * n
        assert all(lastround == [r - 1] * n for _, r, lastround in seen), seen

    def test_first_round_chain(self):
        seq = GraphSequence(2, (g(2, [(0, 1)]),) * 3)
        exec_ = run(Probe(), [0, 1], seq)
        after1 = exec_.lastrounds[0]
        assert after1[1][0] == 0  # 1 received 0's initial state
        assert after1[0][1] == NEVER  # 0 heard nothing of 1

    def test_never_connected_sentinel(self):
        # With no edges at all, nobody ever learns anything about anyone
        # else, not even initial states: the sentinel stays NEVER. The
        # round-4 row's own entry is 3, the state the round-4 step read.
        seq = GraphSequence(3, (g(3, []),) * 4)
        exec_ = run(Probe(), [0, 1, 2], seq)
        for p in range(3):
            for q in range(3):
                assert exec_.lastrounds[-1][p][q] == (3 if p == q else NEVER)

    def test_views_with_one_receive_set_share_the_recorded_row(self):
        # Round 1 gives everyone the receive set {0, 1, 2}, round 2 gives
        # everyone their own; each view reads the very tuple that the run
        # records for it.
        n = 3
        seen = {}

        def hook(state, view, r):
            seen[view.owner, r] = view.lastround

        exec_ = run(Probe(hook), list(range(n)), GraphSequence(n, (complete(n), g(n, []))))
        for (p, r), row in seen.items():
            assert type(row) is tuple and row is exec_.lastrounds[r - 1][p]
        assert seen[0, 1] is seen[1, 1] is seen[2, 1]
        assert seen[0, 2] is not seen[1, 2] and seen[1, 2] is not seen[2, 2]

    def test_a_view_cannot_widen_its_own_knowledge(self):
        # Process 1 never hears of 0. Writing a round into its row and then
        # reading 0's state there would read a state it never heard of.
        def hook(state, view, r):
            if view.owner == 1 and r == 2:
                view.lastround[0] = 1
                view.state(0, 1)

        with pytest.raises(EngineError):
            run(Probe(hook), [0, 1], GraphSequence(2, (g(2, []),) * 2))

    @pytest.mark.parametrize(
        "attr,value,read",
        [
            # Would read 0's round-1 state.
            ("lastround", (1, 1), lambda view: view.state(0, 1)),
            # Would read round 2's root {0}, fully known only to its owner 0.
            ("owner", 0, lambda view: estimate_root(view, 2)),
            # Would read round 3's root {1}: a round that 1 has not reached.
            ("round", 3, lambda view: estimate_root(view, 3)),
        ],
        ids=["lastround", "owner", "round"],
    )
    def test_a_view_cannot_rebind_its_knowledge(self, attr, value, read):
        # Process 1 never hears of 0, and at round 2 knows nothing of round
        # 3. Each rebinding would let the step read what it never heard of;
        # the assignment itself fails, so the read never happens.
        read_back = []

        def hook(state, view, r):
            if view.owner == 1 and r == 2:
                setattr(view, attr, value)
                read_back.append(read(view))

        with pytest.raises(EngineError) as info:
            run(Probe(hook), [0, 1], GraphSequence(2, (g(2, []),) * 3))
        assert isinstance(info.value.__cause__, AttributeError)
        assert read_back == []

    def test_a_view_cannot_be_rebound_and_restored(self):
        # A step that rebinds its row, reads 0's round-1 state through it
        # and puts the row back returns with its view as it was given; the
        # assignment must fail before the read.
        read_back = []

        def hook(state, view, r):
            if view.owner == 1 and r == 2:
                row = view.lastround
                view.lastround = (1, 1)
                read_back.append(view.state(0, 1))
                view.lastround = row

        with pytest.raises(EngineError) as info:
            run(Probe(hook), [0, 1], GraphSequence(2, (g(2, []),) * 3))
        assert isinstance(info.value.__cause__, AttributeError)
        assert read_back == []


class TestLastHeard:
    def test_single_late_edge(self):
        # 0 -> 1 exists only in round 3; at round 5, process 1 last heard
        # 0's round-2 state (what 0 forwarded when the edge was up).
        graphs = [g(2, []), g(2, []), g(2, [(0, 1)]), g(2, []), g(2, [])]
        seen = {}

        def hook(state, view, r):
            if r == 5 and view.owner == 1:
                seen["lastround"] = list(view.lastround)

        run(Probe(hook), [0, 1], GraphSequence(2, tuple(graphs)))
        # Its own entry is 4: its round-5 state is being computed.
        assert seen == {"lastround": [2, 4]}

    def test_owner_hears_itself_in_round_one(self):
        # Before its first computation a process knows its own initial
        # state, so it is its own only round-1 sender, and nothing of others.
        captured = {}

        def hook(state, view, r):
            if view.owner == 0 and r == 1:
                captured["lastround"] = list(view.lastround)
                captured["senders"] = [q for q, s in enumerate(view.lastround) if s == r - 1]

        run(Probe(hook), [0, 1], GraphSequence(2, (g(2, []),)))
        assert captured == {"lastround": [0, NEVER], "senders": [0]}

    @pytest.mark.parametrize("seed", range(6))
    def test_newest_previous_round_states_are_the_senders(self, seed):
        # The round-r senders are exactly the processes whose row entry is
        # r-1, their newest known state being their round-(r-1) one: no
        # merged entry passes r-2.
        rng = random.Random(300 + seed)
        seq = random_sequence(rng, rng.randint(2, 7), 10, density=rng.choice([0.15, 0.4, 0.8]))
        seen = {}

        def hook(state, view, r):
            seen[view.owner, r] = [q for q, s in enumerate(view.lastround) if s == r - 1]

        run(Probe(hook), list(range(seq.n)), seq)
        assert len(seen) == seq.n * len(seq)
        for (p, r), senders in seen.items():
            assert senders == list(members(seq.graphs[r - 1].ins[p])), (p, r)

    @pytest.mark.parametrize("algorithm", ["locking", "voting", "probe"])
    def test_owner_entry_is_previous_round(self, algorithm):
        if algorithm == "locking":
            algo, seq = LockingConsensus(N=4, D=2), adversary.generate_stable(4, 2, 3, 4, 70, 1)[0]
        elif algorithm == "voting":
            base = adversary.generate_rooted(4, 27, 0, stable_len=9)
            algo, seq = VotingConsensus(), adversary.compound_sequence(base)
        else:
            algo, seq = Probe(), random_sequence(random.Random(5), 4, 12)
        seen = []
        step = algo.step

        def recording_step(state, view):
            seen.append((view.owner, view.round, view.lastround[view.owner]))
            return step(state, view)

        algo.step = recording_step
        exec_ = run(algo, [0, 1, 1, 0], seq)
        assert len(seen) == exec_.n * exec_.rounds
        assert all(last == r - 1 for _, r, last in seen)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        seq = random_sequence(random.Random(9), 4, 12)
        e1 = run(Probe(), [3, 1, 4, 1], seq)
        e2 = run(Probe(), [3, 1, 4, 1], seq)
        assert e1.trace_hash() == e2.trace_hash()
        assert list(e1.trace_lines()) == list(e2.trace_lines())


class TestViewsEqualUntil:
    def test_reflexive(self):
        seq = random_sequence(random.Random(1), 3, 5)
        exec_ = run(Probe(), [0, 1, 2], seq)
        assert views_equal_until(exec_, exec_, 0, 5)

    def test_detects_single_edge_difference(self):
        base = [g(3, []) for _ in range(3)]
        with_edge = [g(3, [(1, 0)])] + base[1:]
        e1 = run(Probe(), [0, 1, 2], GraphSequence(3, tuple(base)))
        e2 = run(Probe(), [0, 1, 2], GraphSequence(3, tuple(with_edge)))
        assert not views_equal_until(e1, e2, 0, 1)
        # Process 2 sees no difference: the extra edge never reaches it.
        assert views_equal_until(e1, e2, 2, 3)

    def test_bad_round(self):
        seq = random_sequence(random.Random(1), 2, 3)
        exec_ = run(Probe(), [0, 1], seq)
        with pytest.raises(ValueError):
            views_equal_until(exec_, exec_, 0, 4)


class FlakyState(NamedTuple):
    decision: int | None


class Flaky:
    """Starts decided on its input; each step's decision is `next_decision`
    of the old state."""

    def __init__(self, next_decision):
        self.next_decision = next_decision

    def initial_state(self, pid, x):
        return FlakyState(decision=x)

    def step(self, state, view):
        return FlakyState(decision=self.next_decision(state))

    def trace_fields(self, state):
        return {}


class TestContracts:
    def test_wrong_input_count(self):
        seq = random_sequence(random.Random(0), 3, 3)
        with pytest.raises(ValueError):
            run(Probe(), [0, 1], seq)

    def test_decision_revocation_rejected(self):
        # Every process starts decided on 0, a falsy value that is still a
        # decision, and drops it in round 1.
        seq = GraphSequence(2, (g(2, []),))
        with pytest.raises(EngineError, match="process 0 revoked its decision at round 1"):
            run(Flaky(lambda state: None), [0, 0], seq)

    def test_changed_decision_rejected_and_kept_decision_accepted(self):
        seq = GraphSequence(2, (g(2, []),) * 2)
        with pytest.raises(EngineError, match="process 0 revoked its decision at round 1"):
            run(Flaky(lambda state: state.decision + 1), [0, 0], seq)
        exec_ = run(Flaky(lambda state: state.decision), [0, 0], seq)
        assert [st.decision for st in exec_.states[0]] == [0, 0, 0]

    def test_own_state_readable_up_to_previous_round(self):
        results = {}

        def hook(state, view, r):
            if view.owner == 0:
                results[r] = view.lastround[0]
                view.state(0, r - 1)  # must be readable
                with pytest.raises(EngineError):
                    view.state(0, r)

        run(Probe(hook), [0, 1], GraphSequence(2, (g(2, []),) * 3))
        assert results == {1: 0, 2: 1, 3: 2}

    def test_memo_lasts_one_round(self):
        # Every view of a round shares one memo, which starts empty: a
        # value written in round r is gone in round r+1.
        memos = {}
        found = []

        def hook(state, view, r):
            memos.setdefault(r, view.memo)
            assert view.memo is memos[r]
            if view.owner == 0:
                found.append(dict(view.memo))
            view.memo[view.owner] = r

        run(Probe(hook), [0, 1, 2], GraphSequence(3, (complete(3),) * 4))
        assert found == [{}] * 4
        assert [memos[r] for r in range(1, 5)] == [{0: r, 1: r, 2: r} for r in range(1, 5)]
