"""LockingConsensus under every mutation keyword: its traces, each
state's latest dissent, the walk over recent states and the dissent as the
backoff cut against slice scans of the state rows, the walk's first round
on a hand-built view, and the lock queues as windows on one log per
process. An audit replays every step of the shipped algorithms' runs
through views that record the states they serve."""

import hashlib
import itertools
import random

import pytest

from rootsim import adversary, cli
from rootsim.algorithms import LockingConsensus, LockQueue, LockState, VotingConsensus, scan_recent, sender_dissent
from rootsim.engine import NEVER, ProcessView, run

from conftest import sink_mutation_sequence

KNOB_NAMES = ("decide_rule", "backoff", "adopt_unanimous")
KNOBS = list(itertools.product(("sliding", "exact"), (True, False), (True, False)))


def locking(N, D, knobs):
    return LockingConsensus(N=N, D=D, **dict(zip(KNOB_NAMES, knobs)))


def stable_case(n, D, seed):
    """A stable-window sequence long enough for the decide deadline, with
    inputs drawn from {0, 1, 2}."""
    x = D + 1
    start = 3 + seed % (n + 2)
    horizon = start + x - 1 + n * (D + 2 * n) + 5
    seq, _ = adversary.generate_stable(n, D, x, start, horizon, seed)
    rng = random.Random(seed)
    return n, D, seq, [rng.randrange(3) for _ in range(n)]


def sink_case():
    return 3, 1, sink_mutation_sequence(20), [1, 1, 0]


# Digest of the four cases' trace hashes per knob combination, recorded
# with the window-scanning implementation of LockingConsensus.step under
# its max-prune backoff cut, the one that remains. In these cases
# decide_rule and backoff change some trace, and adopt_unanimous changes
# the sink case's.
KNOB_DIGESTS = {
    ("sliding", True, True): "dc8e205a84c84042",
    ("sliding", True, False): "23630d3e6b0bcdd9",
    ("sliding", False, True): "24d30e6a33356a58",
    ("sliding", False, False): "24d30e6a33356a58",
    ("exact", True, True): "9902fa0c46f73812",
    ("exact", True, False): "3664056f60616425",
    ("exact", False, True): "a13af04941475405",
    ("exact", False, False): "a13af04941475405",
}


KNOB_CASES = [stable_case(3, 1, 1), stable_case(4, 2, 2), stable_case(5, 4, 0), sink_case()]


def test_traces_under_every_knob_combination():
    got = {}
    for knobs in KNOBS:
        h = hashlib.sha256()
        for n, D, seq, inputs in KNOB_CASES:
            h.update(run(locking(n, D, knobs), inputs, seq).trace_hash().encode())
        got[knobs] = h.hexdigest()[:16]
    assert got == KNOB_DIGESTS


def key(st):
    return st.proposal if st.locked else None


def view_at(exec_, p, r, states=None):
    """p's view at the start of its round-r computation, with an empty
    memo; `states` serves the states in place of the run's store."""
    store = exec_.states if states is None else states
    return ProcessView(p, r, exec_.lastrounds[r - 1][p], store, exec_.seq.root_sets, {})


# The default configuration and each knob flipped on its own.
DEFAULT, FLIPPED = KNOBS[0], KNOBS[-1]
ORACLE_KNOBS = [DEFAULT] + [DEFAULT[:j] + FLIPPED[j : j + 1] + DEFAULT[j + 1 :] for j in range(len(DEFAULT))]
ORACLE_CASES = [stable_case(n, D, seed) for n, D, seed in ((3, 1, 1), (4, 2, 2), (5, 4, 0), (6, 3, 1))] + [sink_case()]


# The ids also name the backoff cut, which is always the max-prune one
# ("max"), and the decide guard's lookback, which is always the decide
# span ("deadline").
@pytest.fixture(scope="module", params=ORACLE_KNOBS, ids=lambda k: "-".join(map(str, ("max", "deadline", *k))))
def executions(request):
    return [run(locking(n, D, request.param), inputs, seq) for n, D, seq, inputs in ORACLE_CASES]


def lossy_link_runs():
    algo = LockingConsensus(N=2, D=1)
    for seed in range(4):
        yield algo, run(algo, [0, 1], adversary.scenario("lossy-link", horizon=100, seed=seed))


def test_dissent_is_the_latest_known_state_with_another_key(executions):
    # Each state's dissent against the brute-force value: the latest round
    # of a state its process knows after its step whose key differs from
    # its own, found by walking every known row down from its newest state.
    for exec_ in [*executions, *(e for _, e in lossy_link_runs())]:
        keys = [[key(st) for st in row] for row in exec_.states]
        assert all(row[0].dissent == NEVER for row in exec_.states)
        for r in range(1, exec_.rounds + 1):
            for p, known in enumerate(exec_.lastrounds[r - 1]):
                mine = keys[p][r]
                latest = NEVER
                for q, newest in enumerate(known):
                    s = next((s for s in range(newest, -1, -1) if keys[q][s] != mine), NEVER)
                    latest = max(latest, s)
                assert exec_.states[p][r].dissent == latest, (p, r)


def test_run_walk_matches_window_scans(executions):
    # At every (p, r): the locked values from scan_recent, and for every
    # proposal value the sender-derived dissent as the backoff cut, and
    # whether that dissent falls inside the N-round lookback and the
    # decide span, against slices of the rows.
    for exec_, (n, D, _, inputs) in zip(executions, ORACLE_CASES):
        N = n
        keys = [[key(st) for st in row] for row in exec_.states]
        for r in range(1, exec_.rounds + 1):
            for p in range(n):
                view = view_at(exec_, p, r)
                k, d = sender_dissent(view)
                # The heard rule spelled out from the recorded knowledge: p
                # always hears itself, its newest state being round r-1's;
                # anyone else counts from p's knowledge of it.
                known = exec_.lastrounds[r - 1][p]
                newest_round = [r - 1 if q == p else known[q] for q in range(n)]
                lo = max(0, r - N)
                window = [keys[q][lo : newest_round[q] + 1] for q in range(n) if q == p or known[q] >= lo]
                scanned_locked = {k for w in window for k in w if k is not None}

                lo2 = max(0, r - N * (D + 2 * N))
                heard = [q for q in range(n) if q == p or known[q] >= lo2]
                assert scan_recent(view, lo) == scanned_locked, (p, r)
                for v in set(inputs):
                    scanned = [s for w in window for s, k in enumerate(w, start=lo) if k != v]
                    dissent = d if v == k else r - 1
                    if scanned:
                        assert dissent == max(scanned), (p, r, v)
                    scan_guard = all(set(keys[q][lo2 : newest_round[q] + 1]) <= {v} for q in heard)
                    assert (dissent < lo) == (not scanned), (p, r, v)
                    assert (dissent < lo2) == scan_guard, (p, r, v)


def test_unanimous_adoption_walks_from_round_r_minus_N():
    # At round r = 6 with N = 2 and D = 1, unlocked process 0 knows one
    # locked state of the last N rounds: process 1's of round r - N = 4.
    # Process 1 is no sender, and the round-5 root {1} is not detected, so
    # only unanimous adoption can move process 0, and only a walk that
    # starts at round r - N finds the value.
    N, r, queue = 2, 6, LockQueue([], 0, 0)
    rest = {"decision": None, "dissent": NEVER, "detected": None}
    unlocked = LockState(proposal=0, locked=False, lockround=1, queue=queue, **rest)
    locked = LockState(proposal=7, locked=True, lockround=1, queue=queue, **rest)
    states = [[unlocked] * r, [locked] * (r - N + 1)]
    view = ProcessView(0, r, (r - 1, r - N), states, (frozenset({frozenset({1})}),) * r, {})
    assert scan_recent(view, r - N) == {7}
    assert LockingConsensus(N=N, D=1).step(unlocked, view)[:2] == (7, False)
    assert LockingConsensus(N=N, D=1, adopt_unanimous=False).step(unlocked, view)[:2] == (0, False)


def test_states_share_one_queue_log_per_process():
    n, D, seq, inputs = stable_case(8, 7, 1)
    exec_ = run(LockingConsensus(N=n, D=D), inputs, seq)
    for row in exec_.states:
        logs = {id(st.queue.log) for st in row}
        assert len(logs) == 1
        assert len(row[-1].queue.log) <= exec_.rounds
    assert len({id(row[0].queue.log) for row in exec_.states}) == n


def test_restepping_an_older_state_leaves_later_queues_unchanged():
    n, D, seq, inputs = stable_case(5, 4, 0)
    algo = LockingConsensus(N=n, D=D)
    exec_ = run(algo, inputs, seq)
    p = 0
    queues = [tuple(st.queue) for st in exec_.states[p]]
    # Re-step the states just before confirmations, whose logs already
    # hold the appends made by the states after them, and append a round
    # that no later state queued to each of them.
    confirming = [r for r in range(1, exec_.rounds) if queues[r] and queues[r][-1] == r]
    assert len(confirming) > 5
    for r in confirming:
        older = exec_.states[p][r - 1]
        again = algo.step(older, view_at(exec_, p, r))
        assert again == exec_.states[p][r]
        assert again.queue.log is not exec_.states[p][r].queue.log
        assert tuple(older.queue.append(10**6)) == queues[r - 1] + (10**6,)
    assert [tuple(st.queue) for st in exec_.states[p]] == queues


def test_queue_window_acts_as_its_tuple():
    rng = random.Random(7)
    for _ in range(300):
        log = sorted(rng.sample(range(1, 60), rng.randrange(0, 20)))
        lo = rng.randrange(0, len(log) + 1)
        hi = rng.randrange(lo, len(log) + 1)
        q, t = LockQueue(log, lo, hi), tuple(log[lo:hi])
        assert len(q) == len(t) and bool(q) == bool(t) and tuple(q) == t and list(q) == list(t)
        # A queue equals the queues with its rounds, and no tuple.
        assert q != t and t != q
        assert q == LockQueue(list(t), 0, len(t)) and hash(q) == hash(LockQueue(list(t), 0, len(t)))
        assert q != LockQueue([*t, 99], 0, len(t) + 1)
        if hi < len(log):
            assert q != LockQueue(log, lo, hi + 1)
        for x in range(0, 61):
            assert (x in q) == (x in t)
            assert tuple(q.drop_through(x)) == tuple(u for u in t if u > x)
        if t:
            assert (q[0], q[-1]) == (t[0], t[-1])
            for i in range(-len(t), len(t)):
                assert q[i] == t[i]
        for i in (len(t), -len(t) - 1):
            with pytest.raises(IndexError):
                q[i]


class RecordedRow:
    """One process's state row that records every (q, s) read from it."""

    def __init__(self, row, q, reads):
        self.row, self.q, self.reads = row, q, reads

    def __getitem__(self, s):
        self.reads.append((self.q, s))
        return self.row[s]


def audit(algo, exec_):
    """Step every (p, r) of exec_ again through a view whose store records
    each state read and whose memo starts empty. Returns the (p, r) whose
    step gave another state than the run's, the (p, r, q, s) reads outside
    p's row, and the number of reads."""
    wrong, outside, count = [], [], 0
    for r in range(1, exec_.rounds + 1):
        for p in range(exec_.n):
            reads = []
            store = [RecordedRow(row, q, reads) for q, row in enumerate(exec_.states)]
            if algo.step(exec_.states[p][r - 1], view_at(exec_, p, r, store)) != exec_.states[p][r]:
                wrong.append((p, r))
            row = exec_.lastrounds[r - 1][p]
            outside += [(p, r, q, s) for q, s in reads if not 0 <= s <= row[q]]
            count += len(reads)
    return wrong, outside, count


def audited_runs(family):
    """(algorithm, execution) pairs of one family of shipped runs."""
    if family == "locking":
        for knobs in KNOBS:
            for n, D, seq, inputs in KNOB_CASES:
                algo = locking(n, D, knobs)
                yield algo, run(algo, inputs, seq)
    elif family == "voting":
        for n, seed in ((3, 0), (4, 1), (6, 2)):
            yield VotingConsensus(), cli.run_once({"algorithm": "voting", "n": n}, seed)[0]
    else:
        yield from lossy_link_runs()


@pytest.mark.parametrize("family", ["locking", "voting", "lossy-link"])
def test_steps_read_only_their_views(family):
    # Every step, replayed with its own memo, gives the recorded state back
    # and reads only states its process knows: the shipped algorithms stay
    # inside their views and take nothing from the round's shared memo.
    # The locking family covers all 8 knob combinations on the digest
    # cases, the sink sequence among them.
    for algo, exec_ in audited_runs(family):
        wrong, outside, count = audit(algo, exec_)
        assert not wrong and not outside, (wrong[:3], outside[:3])
        assert count > 0
