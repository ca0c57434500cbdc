"""Acceptance suite: one test per acceptance criterion.

Each test prints a single "CRITERION <k> PASS/FAIL" line (visible with
pytest -s or in captured output). The large correctness sweep is computed
once and shared by the criteria that consume it.
"""

import random
import time

import pytest

from rootsim import adversary, cli, verification
from rootsim.algorithms import LockingConsensus
from rootsim.engine import run
from rootsim.graphs import root_components

from oracles import check_information_propagation, views_equal_until

SWEEP_GRID = [(n, D) for n in range(2, 7) for D in range(1, n)]
SEEDS = range(200)


@pytest.fixture(scope="module")
def sweep():
    """Criterion-1 sweep: N = n, x = D+1, 200 seeds per (n, D), binary
    random inputs, horizon = window end + N(D+2N) + 5."""
    records = []
    t0 = time.time()
    for n, D in SWEEP_GRID:
        for seed in SEEDS:
            cfg = {"algorithm": "locking", "n": n, "D": D}
            exec_, verdict = cli.run_once(cfg, seed)
            records.append(
                {
                    "n": n,
                    "D": D,
                    "seed": seed,
                    "verdict": verdict,
                    "hash": exec_.trace_hash(),
                }
            )
    return {"records": records, "duration": time.time() - t0}


def report(k, ok, detail=""):
    line = f"CRITERION {k} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f": {detail}"
    print(line)
    # Stash for the terminal summary hook in conftest.py, which runs outside
    # pytest's output capture, so plain `pytest -v` shows one visible line
    # per acceptance criterion.
    CRITERION_LINES.append(line)
    return ok


CRITERION_LINES = []


def test_criterion_1_correctness_sweep(sweep):
    bad = [
        (r["n"], r["D"], r["seed"])
        for r in sweep["records"]
        if not (r["verdict"].agreement and r["verdict"].validity and r["verdict"].termination)
    ]
    duration = sweep["duration"]
    ok = not bad and duration < 120
    assert report(
        1, ok, f"{len(sweep['records'])} runs, {len(bad)} failures, {duration:.1f}s"
    ), bad[:5]


def test_criterion_2_detection_contracts(sweep):
    bad = []
    for r in sweep["records"]:
        hits = [
            f
            for f in r["verdict"].invariant_failures
            if f.get("invariant") in ("estimate-soundness", "estimate-completeness")
        ]
        if hits:
            bad.append((r["n"], r["D"], r["seed"], hits[0]))
    assert report(2, not bad, f"{len(bad)} soundness/completeness exceptions"), bad[:3]


def test_criterion_3_locked_window_convergence(sweep):
    bad = [
        (r["n"], r["D"], r["seed"])
        for r in sweep["records"]
        if any(
            f.get("invariant") == "locked-root-convergence"
            for f in r["verdict"].invariant_failures
        )
    ]
    # Mutation control: with the unanimous-locked-value adoption disabled the
    # convergence checker must report at least one violation. The random
    # sweep never exercises that rule (detection-based adoption always fires
    # first), so the control includes a crafted admissible sequence whose
    # sink process can only converge through it.
    from conftest import sink_mutation_sequence

    seq = sink_mutation_sequence(20)
    mutated = run(LockingConsensus(N=3, D=1, adopt_unanimous=False), [1, 1, 0], seq)
    mutation_hits = verification.check_locked_root_convergence(mutated, 1, 3)
    ok = not bad and bool(mutation_hits)
    assert report(
        3, ok, f"{len(bad)} violations; mutation control {len(mutation_hits)} hits"
    ), bad[:3]


def test_criterion_4_information_propagation_brute_force():
    t0 = time.time()
    checked = 0
    for n in (2, 3, 4):
        rng = random.Random(n)
        for _ in range(1000):
            graphs = []
            while len(graphs) < n:
                g = adversary._random_rooted_graph(
                    rng, n, adversary._random_root_set(rng, n), density=0.3
                )
                graphs.append(g)
            # X: one representative from every root component.
            X = {min(root) for g in graphs for root in root_components(g)}
            assert check_information_propagation(graphs, X)
            checked += 1
    duration = time.time() - t0
    ok = checked == 3000 and duration < 30
    assert report(4, ok, f"{checked} instances, {duration:.1f}s")


@pytest.mark.parametrize("D", [2, 3])
def test_criterion_5_indistinguishability(D):
    # The horizon leaves indist-b's final star window 2D rounds, enough for
    # membership at x = 2D-1.
    n, tau = D + 3, 2 * D + 2
    horizon = tau + 2 * D
    seq1 = adversary.scenario("indist-a", n=n, D=D, horizon=horizon)
    seq2 = adversary.scenario("indist-b", n=n, D=D, tau=tau, horizon=horizon)
    inputs = [p % 2 for p in range(n)]
    algo = lambda: LockingConsensus(N=n, D=D)  # noqa: E731
    e1 = run(algo(), inputs, seq1)
    e2 = run(algo(), inputs, seq2)
    # Process index D is the (D+1)-th process of the construction.
    confused_ok = views_equal_until(e1, e2, D, tau)
    head_diverges = not views_equal_until(e1, e2, 0, 2 * D - 1)
    member1 = adversary.membership_report(seq1, D, 2 * D - 1)["member"]
    member2 = adversary.membership_report(seq2, D, 2 * D - 1)["member"]
    ok = confused_ok and head_diverges and member1 and member2
    assert report(
        5,
        ok,
        f"D={D}: views equal through {tau}: {confused_ok}; head diverges: {head_diverges}; "
        f"membership: {member1}/{member2}",
    )


def test_criterion_6_voting():
    bad = []
    offsets = []
    for n in (3, 4, 5):
        for seed in range(100):
            exec_, verdict = cli.run_once({"algorithm": "voting", "n": n}, seed)
            stars = adversary.check_star_window(exec_.seq, 2)
            nonsplit_ok, _ = adversary.check_nonsplit(exec_.seq)
            if not (verdict.agreement and verdict.validity and stars and nonsplit_ok):
                bad.append((n, seed, "structure-or-safety"))
                continue
            second_graph = stars[0][0] + 1
            for p in range(n):
                first = next(
                    (r for r in range(1, exec_.rounds + 1) if exec_.states[p][r].decision is not None),
                    None,
                )
                if first is None or first > second_graph + 2:
                    bad.append((n, seed, p, first))
                else:
                    offsets.append(first - second_graph)
    exact = max(offsets) if offsets else None
    ok = not bad and exact == verification.VOTING_DECISION_OFFSET
    assert report(6, ok, f"{len(bad)} violations; exact offset {exact}"), bad[:3]


def test_criterion_7_lossy_link_safety():
    # Termination need not hold on a lossy link, so each run is checked
    # with no stable window: the full verdict must show agreement,
    # validity and no invariant failure.
    bad = []
    for seed in range(20):
        seq = adversary.scenario("lossy-link", horizon=500, seed=seed)
        rng = random.Random(f"inputs-{seed}")
        inputs = [rng.randint(0, 1) for _ in range(2)]
        algo = LockingConsensus(N=2, D=1)
        verdict = verification.locking_verdict(run(algo, inputs, seq), algo, None)
        if not (verdict.agreement and verdict.validity) or verdict.invariant_failures:
            bad.append(seed)
    assert report(7, not bad, f"20 runs x 500 rounds, {len(bad)} safety or invariant violations"), bad


def test_criterion_8_determinism(sweep):
    # Re-run a sample from every criterion's workload and compare hashes.
    sample = sweep["records"][:: len(sweep["records"]) // 25]
    mismatches = []
    for r in sample:
        cfg = {"algorithm": "locking", "n": r["n"], "D": r["D"]}
        exec_, _ = cli.run_once(cfg, r["seed"])
        if exec_.trace_hash() != r["hash"]:
            mismatches.append((r["n"], r["D"], r["seed"]))
    for n, seed in ((3, 0), (5, 7)):
        e1, _ = cli.run_once({"algorithm": "voting", "n": n}, seed)
        e2, _ = cli.run_once({"algorithm": "voting", "n": n}, seed)
        if e1.trace_hash() != e2.trace_hash():
            mismatches.append(("voting", n, seed))
    seqs = [
        adversary.scenario("indist-a", n=12, D=2, horizon=8),
        adversary.scenario("indist-b", n=12, D=2, tau=6, horizon=8),
        adversary.scenario("lossy-link", horizon=100, seed=4),
    ]
    for i, seq in enumerate(seqs):
        rebuilt = [
            adversary.scenario("indist-a", n=12, D=2, horizon=8),
            adversary.scenario("indist-b", n=12, D=2, tau=6, horizon=8),
            adversary.scenario("lossy-link", horizon=100, seed=4),
        ][i]
        if seq != rebuilt:
            mismatches.append(("scenario", i))
    assert report(8, not mismatches, f"{len(sample) + 5} replays compared"), mismatches


THRESHOLD_CELLS = [(4, 2), (5, 3), (5, 4)]


def test_criterion_9_stability_threshold():
    # The paper's threshold: a stable window of D+1 rounds suffices, and
    # this algorithm needs all of it. At x = D some seeds miss the
    # deadline, while safety and every invariant hold at either length.
    unsafe, missed = [], {}
    for n, D in THRESHOLD_CELLS:
        for x in (D + 1, D):
            missed[n, D, x] = 0
            for seed in range(10):
                _, verdict = cli.run_once({"algorithm": "locking", "n": n, "D": D, "x": x}, seed)
                if not (verdict.agreement and verdict.validity) or verdict.invariant_failures:
                    unsafe.append((n, D, x, seed))
                missed[n, D, x] += not verdict.termination
    ok = not unsafe and all(
        missed[n, D, D + 1] == 0 and missed[n, D, D] > 0 for n, D in THRESHOLD_CELLS
    )
    detail = "; ".join(
        f"(n, D) = ({n}, {D}) x=D+1 {missed[n, D, D + 1]}, x=D {missed[n, D, D]}"
        for n, D in THRESHOLD_CELLS
    )
    assert report(9, ok, f"late of 10 seeds: {detail}; {len(unsafe)} unsafe"), unsafe[:3]
