"""LockingConsensus under every knob: its traces, each state's run start, and
the run walk against the window slice scans it replaced."""

import hashlib
import itertools
import random

import pytest

from rootsim import adversary
from rootsim.algorithms import LockingConsensus, key_runs
from rootsim.engine import ProcessView, run

from conftest import sink_mutation_sequence

KNOB_NAMES = ("prune", "history_window", "decide_rule", "backoff", "adopt_unanimous")
KNOBS = list(
    itertools.product(("max", "min"), ("deadline", "squared"), ("sliding", "exact"), (True, False), (True, False))
)


def locking(N, D, knobs):
    return LockingConsensus(N=N, D=D, **dict(zip(KNOB_NAMES, knobs)))


def stable_case(n, D, seed):
    """A stable-window sequence long enough for the decide deadline, with
    inputs drawn from {0, 1, 2}."""
    x = D + 1
    start = 3 + seed % (n + 2)
    horizon = start + x - 1 + n * (D + 2 * n) + 5
    spec = adversary.AdversarySpec(n=n, D=D, x=x, horizon=horizon, seed=seed, stability_start=start)
    seq, _ = adversary.generate_stable(spec)
    rng = random.Random(seed)
    return n, D, seq, [rng.randrange(3) for _ in range(n)]


def sink_case():
    return 3, 1, sink_mutation_sequence(20), [1, 1, 0]


# Digest of the four cases' trace hashes per knob combination, recorded
# with the window-scanning implementation of LockingConsensus.step. In
# these cases every knob but adopt_unanimous changes some trace, and
# adopt_unanimous changes the sink case's.
KNOB_DIGESTS = {
    ("max", "deadline", "sliding", True, True): "dc8e205a84c84042",
    ("max", "deadline", "sliding", True, False): "23630d3e6b0bcdd9",
    ("max", "deadline", "sliding", False, True): "24d30e6a33356a58",
    ("max", "deadline", "sliding", False, False): "24d30e6a33356a58",
    ("max", "deadline", "exact", True, True): "9902fa0c46f73812",
    ("max", "deadline", "exact", True, False): "3664056f60616425",
    ("max", "deadline", "exact", False, True): "a13af04941475405",
    ("max", "deadline", "exact", False, False): "a13af04941475405",
    ("max", "squared", "sliding", True, True): "0014a9ef307f1ca2",
    ("max", "squared", "sliding", True, False): "8ccfef6b5184de28",
    ("max", "squared", "sliding", False, True): "4b2d7c3167e9476a",
    ("max", "squared", "sliding", False, False): "4b2d7c3167e9476a",
    ("max", "squared", "exact", True, True): "0014a9ef307f1ca2",
    ("max", "squared", "exact", True, False): "8ccfef6b5184de28",
    ("max", "squared", "exact", False, True): "4b2d7c3167e9476a",
    ("max", "squared", "exact", False, False): "4b2d7c3167e9476a",
    ("min", "deadline", "sliding", True, True): "7ac5b5a17960f656",
    ("min", "deadline", "sliding", True, False): "97dc6f593daed60e",
    ("min", "deadline", "sliding", False, True): "24d30e6a33356a58",
    ("min", "deadline", "sliding", False, False): "24d30e6a33356a58",
    ("min", "deadline", "exact", True, True): "150f7f9468cf53e3",
    ("min", "deadline", "exact", True, False): "8f7282b811a33bb8",
    ("min", "deadline", "exact", False, True): "a13af04941475405",
    ("min", "deadline", "exact", False, False): "a13af04941475405",
    ("min", "squared", "sliding", True, True): "64b7beadd73132d5",
    ("min", "squared", "sliding", True, False): "da145898e88c217d",
    ("min", "squared", "sliding", False, True): "4b2d7c3167e9476a",
    ("min", "squared", "sliding", False, False): "4b2d7c3167e9476a",
    ("min", "squared", "exact", True, True): "64b7beadd73132d5",
    ("min", "squared", "exact", True, False): "da145898e88c217d",
    ("min", "squared", "exact", False, True): "4b2d7c3167e9476a",
    ("min", "squared", "exact", False, False): "4b2d7c3167e9476a",
}


def test_traces_under_every_knob_combination():
    cases = [stable_case(3, 1, 1), stable_case(4, 2, 2), stable_case(5, 4, 0), sink_case()]
    got = {}
    for knobs in KNOBS:
        h = hashlib.sha256()
        for n, D, seq, inputs in cases:
            h.update(run(locking(n, D, knobs), inputs, seq).trace_hash().encode())
        got[knobs] = h.hexdigest()[:16]
    assert got == KNOB_DIGESTS


def key(st):
    return st.proposal if st.locked else None


def view_at(exec_, p, r):
    """p's view at the start of its round-r computation."""
    lastround = list(exec_.lastrounds[r - 1][p])
    lastround[p] = r - 1
    return ProcessView(p, r, lastround, exec_.states, exec_.seq.graphs, {})


# The default configuration and each knob flipped on its own.
DEFAULT, FLIPPED = KNOBS[0], KNOBS[-1]
ORACLE_KNOBS = [DEFAULT] + [DEFAULT[:j] + FLIPPED[j : j + 1] + DEFAULT[j + 1 :] for j in range(len(DEFAULT))]
ORACLE_CASES = [stable_case(n, D, seed) for n, D, seed in ((3, 1, 1), (4, 2, 2), (5, 4, 0), (6, 3, 1))] + [sink_case()]


@pytest.fixture(scope="module", params=ORACLE_KNOBS, ids=lambda k: "-".join(map(str, k)))
def executions(request):
    return [run(locking(n, D, request.param), inputs, seq) for n, D, seq, inputs in ORACLE_CASES]


def test_since_starts_each_run_of_equal_keys(executions):
    for exec_ in executions:
        for p in range(exec_.n):
            keys = [key(st) for st in exec_.states[p]]
            for s, st in enumerate(exec_.states[p]):
                first = s
                while first > 0 and keys[first - 1] == keys[s]:
                    first -= 1
                assert st.since == first, (p, s)


def test_run_walk_matches_window_scans(executions):
    # At every (p, r): the locked values, the backoff cut under both prune
    # modes and the decide guard under both history windows, for every
    # proposal value, from key_runs and from slices of the state rows.
    for exec_, (n, D, _, inputs) in zip(executions, ORACLE_CASES):
        N = n
        keys = [[key(st) for st in row] for row in exec_.states]
        for r in range(1, exec_.rounds + 1):
            for p in range(n):
                view = view_at(exec_, p, r)
                # The heard rule spelled out from the recorded knowledge: p
                # always hears itself, its newest state being round r-1's;
                # anyone else counts from p's knowledge of it.
                known = exec_.lastrounds[r - 1][p]
                newest_round = [r - 1 if q == p else known[q] for q in range(n)]
                lo = max(0, r - N)
                window = [keys[q][lo : newest_round[q] + 1] for q in range(n) if q == p or known[q] >= lo]
                runs = key_runs(view, lo)
                assert sum(end - start + 1 for start, end, _ in runs) == sum(map(len, window))
                assert {k for _, _, k in runs if k is not None} == {k for w in window for k in w if k is not None}

                lo2 = max(0, r - N * (D + 2 * N))
                heard = [q for q in range(n) if q == p or known[q] >= lo2]
                for v in set(inputs):
                    scanned = [s for w in window for s, k in enumerate(w, start=lo) if k != v]
                    walked = [(start, end) for start, end, k in runs if k != v]
                    assert bool(scanned) == bool(walked)
                    if scanned:
                        assert max(scanned) == max(end for _, end in walked), (p, r, v)
                        assert min(scanned) == min(start for start, _ in walked), (p, r, v)
                    for span in (N * (D + 2 * N), (D + 2 * N) ** 2):
                        s_lo = max(0, r - span)
                        scan_guard = all(
                            set(keys[q][s_lo : newest_round[q] + 1]) <= {v} for q in heard
                        )
                        newest = [view.state(q, newest_round[q]) for q in heard]
                        walk_guard = all(key(st) == v and st.since <= s_lo for st in newest)
                        assert scan_guard == walk_guard, (p, r, v, span)
