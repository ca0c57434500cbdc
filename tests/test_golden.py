"""Golden bytes of the run outputs: trace files, verdict JSON, validate JSON.

Each digest is the sha256 of the exact text a command writes, so any
change to a key, its order, its value or the indentation shows here. The
bench and criterion-8 digests hash the sorted-key form of trace lines;
these pin the unsorted file form and the report JSON as well.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from conftest import short_diameter_sequence, sink_mutation_sequence
from rootsim import adversary, cli, verification
from rootsim.algorithms import LockingConsensus
from rootsim.engine import run
from rootsim.graphs import CommGraph, GraphSequence, write_jsonl


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "cfg, seed, digest",
    [
        (
            {"algorithm": "locking", "n": 5, "D": 2},
            7,
            "12a7b8099fed7b284d39579fe024fed9892c9a08d49f2838173ee6f7b13e819e",
        ),
        (
            {"algorithm": "voting", "n": 6},
            3,
            "e76906c1ff9ee3246fd36121bed82486b5402928630b376e1bc4149b65428b59",
        ),
    ],
    ids=["locking", "voting"],
)
def test_trace_file_bytes(cfg, seed, digest):
    exec_, _ = cli.run_once(cfg, seed)
    buf = io.StringIO()
    exec_.write_trace(buf)
    assert sha(buf.getvalue()) == digest


def test_failing_verdict_bytes():
    # The sink sequence with both convergence rules off: the verdict lists
    # 14 invariant failures, so every witness shape is serialized.
    seq = sink_mutation_sequence(20)
    algo = LockingConsensus(N=3, D=1, adopt_unanimous=False, backoff=False)
    exec_ = run(algo, [1, 1, 0], seq)
    verdict = verification.locking_verdict(exec_, algo, adversary.stable_window(seq, 2))
    assert len(verdict.invariant_failures) == 14
    text = json.dumps(verdict.to_json(), indent=2)
    assert sha(text) == "51baa95a65b66ec05810ab59fcacf245f18c3d9263349d87760851430a589ffe"


STAR = CommGraph(3, [(0, 1), (0, 2)])


@pytest.mark.parametrize(
    "seq, D, x, code, digest",
    [
        # A member: indist-b at n = 12, D = 2, tau = 6.
        (
            adversary.scenario("indist-b", n=12, D=2, tau=6, horizon=11),
            2, 3, 0,
            "82ec5e9961cf9b8b34b84c948ba8c8a953495c19e0d2a4865a10160240750106",
        ),
        # A non-member: round 2 is unrooted and splits processes 0 and 1.
        (
            GraphSequence(3, (STAR, CommGraph(3, [(1, 2)]), STAR, STAR)),
            1, 2, 1,
            "0c4930a399dab72ac4c00aa51b3ed520cc9a854c5e020d9f94be2e7e8c8bf75e",
        ),
        # A non-member by the diameter property alone: processes 4 and 5
        # miss members of the root {0, 1, 2} across rounds 3..4.
        (
            short_diameter_sequence(),
            2, 2, 1,
            "9ee531c9c0388a262a4f2e552a652f984bc577f3d2a068c47e39d81e590565f5",
        ),
    ],
    ids=["member", "non-member", "diameter-non-member"],
)
def test_validate_output_bytes(seq, D, x, code, digest, tmp_path, capsys):
    path = tmp_path / "seq.jsonl"
    with open(path, "w") as fh:
        write_jsonl(seq, fh)
    assert cli.main(["validate", str(path), "--D", str(D), "--x", str(x)]) == code
    assert sha(capsys.readouterr().out) == digest


def test_voting_verdict_bytes(tmp_path):
    # Twelve edgeless rounds at n = 3 compound into six split rounds. Each
    # process hears only itself and decides its own input, so the verdict
    # carries an agreement witness and the compound-nonsplit failure.
    path = tmp_path / "edgeless.jsonl"
    with open(path, "w") as fh:
        write_jsonl(GraphSequence(3, (CommGraph(3, []),) * 12), fh)
    cfg = {"algorithm": "voting", "n": 3, "sequence": str(path), "inputs": [0, 1, 1]}
    _, verdict = cli.run_once(cfg, 0)
    assert verdict.agreement_witness is not None
    assert verdict.invariant_failures == [{"invariant": "compound-nonsplit", "violation": [1, 0, 1]}]
    text = json.dumps(verdict.to_json(), indent=2)
    assert sha(text) == "d481ebcce03a3eec1aefc03b3c239a92163e00873fe94a806618ead8f65985bf"
