import itertools
import random

import pytest

from rootsim import adversary, cli, verification
from rootsim.algorithms import LockingConsensus, LockQueue, LockState, VoteState, VotingConsensus, value_of_root
from rootsim.engine import NEVER, run
from rootsim.graphs import CommGraph, GraphSequence, star

from conftest import sink_mutation_sequence


def g(n, edges):
    return CommGraph(n, edges)


class TestLockingBasics:
    def test_initial_state(self):
        algo = LockingConsensus(N=3, D=1)
        state = algo.initial_state(0, 7)
        assert state == LockState(
            proposal=7, locked=True, lockround=1, queue=LockQueue([], 0, 0), decision=None, dissent=NEVER, detected=None
        )

    def test_state_records_hold_each_fact_once(self):
        # A decision is its value; no second field says whether there is one.
        assert LockState._fields == ("proposal", "locked", "lockround", "queue", "decision", "dissent", "detected")
        assert VoteState._fields == ("proposal", "vote", "decision", "detected")
        for state in (LockingConsensus(N=2, D=1).initial_state(0, 0), VotingConsensus().initial_state(0, 0)):
            assert not hasattr(state, "decided")

    def test_state_records_take_every_field(self):
        # A call written for the old field order, with `decided` before
        # `decision`, would build a state with decision=False if the
        # trailing fields had defaults.
        with pytest.raises(TypeError):
            LockState(1, True, 1, LockQueue([], 0, 0), False, None)
        with pytest.raises(TypeError):
            VoteState(1, None, None)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LockingConsensus(N=0, D=1)
        with pytest.raises(ValueError):
            LockingConsensus(N=2, D=2, decide_rule="eventually")

    def test_single_process_decides_at_deadline(self):
        # Degenerate system: the lone process detects itself every round,
        # keeps lockround 1, and decides its input at 1 + N(D+2N).
        N = D = 1
        algo = LockingConsensus(N=N, D=D)
        deadline = 1 + N * (D + 2 * N)
        seq = GraphSequence(1, (g(1, []),) * (deadline + 2))
        exec_ = run(algo, [42], seq)
        first = next(r for r in range(1, exec_.rounds + 1) if exec_.states[0][r].decision is not None)
        assert first == deadline
        assert exec_.states[0][first].decision == 42

    def test_stable_window_forces_lock_in(self):
        cfg = {"algorithm": "locking", "n": 4, "D": 2}
        exec_, verdict = cli.run_once(cfg, seed=3)
        assert verdict.ok
        # Recover the designated window from the sequence itself.
        window = adversary.stable_window(exec_.seq, 3)
        a, b, root = window
        v = max(exec_.states[q][a].proposal for q in root)
        for p in range(4):
            st = exec_.states[p][b]
            assert st.locked and st.proposal == v
        assert not verification.check_post_window_lock(exec_, window, 2)

    def test_all_decide_window_value_by_deadline(self):
        for seed in range(10):
            cfg = {"algorithm": "locking", "n": 5, "D": 2}
            exec_, verdict = cli.run_once(cfg, seed)
            assert verdict.ok, (seed, verdict.to_json())
            decisions = {
                exec_.states[p][exec_.rounds].decision for p in range(5)
            }
            assert len(decisions) == 1
            assert decisions <= set(exec_.inputs)

    def test_instance_reusable_across_runs(self):
        # An algorithm instance holds only parameters: a second run on
        # another sequence traces exactly as it does on a fresh instance.
        first = cli.run_once({"n": 4, "D": 2}, 3)[0].seq
        second = cli.run_once({"n": 4, "D": 2}, 4)[0].seq
        inputs = [0, 1, 0, 1]
        algo = LockingConsensus(N=4, D=2)
        run(algo, inputs, first)
        reused = run(algo, inputs, second)
        assert reused.trace_hash() == run(LockingConsensus(N=4, D=2), inputs, second).trace_hash()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_size_bound_above_n_with_inputs_up_to_n(self, n):
        # Criterion 1 runs only N = n and binary inputs. A known bound
        # N > n lengthens the decide span and the backoff and adoption
        # lookbacks; every run must still pass its whole verdict.
        failed = []
        for D, N, seed in itertools.product(range(1, n), (n + 1, 2 * n), range(3)):
            rng = random.Random(seed)
            cfg = {"n": n, "D": D, "N": N, "inputs": [rng.randrange(n + 1) for _ in range(n)]}
            if not cli.run_once(cfg, seed)[1].ok:
                failed.append((D, N, seed))
        assert not failed


class TestDecideRule:
    @pytest.mark.parametrize("n,D,seed", [(5, 3, 12), (5, 4, 5)])
    def test_exact_rule_can_strand_processes(self, n, D, seed):
        # Frozen counterexamples: the CLI run passes, and on its sequence
        # and inputs, with the guard evaluated only in the single round
        # equal to the lock deadline, a process whose lock round predates
        # the stability window hits its one deadline while stale states
        # are still in scope and never decides in time.
        exec_, verdict = cli.run_once({"algorithm": "locking", "n": n, "D": D}, seed)
        assert verdict.ok
        window = adversary.stable_window(exec_.seq, D + 1)
        algo = LockingConsensus(N=n, D=D, decide_rule="exact")
        assert window[1] + algo.decide_span == verdict.deadline
        mutated = run(algo, exec_.inputs, exec_.seq)
        assert not verification.locking_verdict(mutated, algo, window).termination

    def test_exact_rule_strands_a_process_at_n_2(self):
        # The word ><>>>> and then 12 rounds of <->, inputs (0, 1): the
        # window is rounds 3..6, so unlike the window-at-round-one runs
        # the shipped rule passes, both processes deciding 0 at round 14,
        # before the deadline 16. The exact rule leaves process 0 undecided.
        graphs = {">": g(2, [(0, 1)]), "<": g(2, [(1, 0)]), "=": g(2, [(0, 1), (1, 0)])}
        seq = GraphSequence(2, tuple(graphs[c] for c in "><>>>>" + "=" * 12))
        window = adversary.stable_window(seq, 2)
        assert window == (3, 6, frozenset({0}))
        shipped = LockingConsensus(N=2, D=1)
        exec_ = run(shipped, [0, 1], seq)
        verdict = verification.locking_verdict(exec_, shipped, window)
        assert verdict.ok and verdict.deadline == 16
        assert verification.decisions_of(exec_) == [(0, 14), (0, 14)]
        exact = LockingConsensus(N=2, D=1, decide_rule="exact")
        verdict = verification.locking_verdict(run(exact, [0, 1], seq), exact, window)
        assert not verdict.termination and verdict.undecided == [0]
        assert verdict.agreement and verdict.validity and not verdict.invariant_failures


class TestMutations:
    def test_unanimous_adoption_is_load_bearing(self):
        # On the crafted sink sequence the only path to convergence for the
        # sink process is the unanimous-locked-value rule.
        seq = sink_mutation_sequence(20)
        inputs = [1, 1, 0]
        good = run(LockingConsensus(N=3, D=1), inputs, seq)
        assert not verification.check_locked_root_convergence(good, 1, 3)
        mutated = run(LockingConsensus(N=3, D=1, adopt_unanimous=False), inputs, seq)
        assert verification.check_locked_root_convergence(mutated, 1, 3)

    def test_backoff_is_load_bearing(self):
        seq = sink_mutation_sequence(20)
        mutated = run(LockingConsensus(N=3, D=1, backoff=False), [1, 1, 0], seq)
        assert verification.check_locked_root_convergence(mutated, 1, 3)


def vote_msg(vote: int | None, proposal: int) -> VoteState:
    return VoteState(proposal=proposal, vote=vote, decision=None, detected=None)


class TestValueOfRoot:
    def test_pending_vote_wins(self):
        assert value_of_root(frozenset({0, 1}), {0: vote_msg(None, 3), 1: vote_msg(5, 9)}) == 5

    def test_max_proposal_when_no_votes(self):
        assert value_of_root(frozenset({0, 1}), {0: vote_msg(None, 3), 1: vote_msg(None, 7)}) == 7

    def test_singleton(self):
        assert value_of_root(frozenset({0}), {0: vote_msg(None, 2)}) == 2


class TestVoting:
    def test_broadcast_star_decides(self):
        # Constant star: round 2 everyone adopts the center's proposal as
        # its vote, round 3 all votes agree and everyone decides.
        seq = GraphSequence(3, (star(0, 3),) * 4)
        exec_ = run(VotingConsensus(), [6, 1, 2], seq)
        for p in range(3):
            decided = [r for r in range(1, 5) if exec_.states[p][r].decision is not None]
            assert decided and decided[0] == 3
            assert exec_.states[p][4].decision == 6

    def test_decision_zero_is_traced_as_decided(self):
        seq = GraphSequence(3, (star(0, 3),) * 4)
        exec_ = run(VotingConsensus(), [0, 0, 0], seq)
        assert verification.decisions_of(exec_) == [(0, 3)] * 3
        lines = [line for line in exec_.trace_lines() if line["pid"] == 0]
        assert [(line["decided"], line["decision"]) for line in lines] == [
            (False, None), (False, None), (True, 0), (True, 0)
        ]

    def test_no_information_keeps_waiting(self):
        # A rooted but uninformative chain: until some root is detectable
        # or a vote circulates, processes keep voting "undecided".
        seq = GraphSequence(3, (g(3, [(0, 1), (1, 2)]),) * 2)
        exec_ = run(VotingConsensus(), [4, 5, 6], seq)
        assert all(exec_.states[p][2].decision is None for p in (1, 2))

    def test_sweep_agreement_and_validity(self):
        for seed in range(20):
            exec_, verdict = cli.run_once({"algorithm": "voting", "n": 4}, seed)
            assert verdict.agreement and verdict.validity, (seed, verdict.to_json())
