"""Benchmark workloads: seeded plans of `cli.run_once` calls over fixed pools.

Each workload is a list of cells (run configs) and a pool of run seeds per
cell. The trace hash of every (cell, pool seed) run is recorded in
`expected.json`, so a plan drawn from the pools by any workload seed can be
checked against the behaviour of the commit that recorded it. Regenerate the
file with `python3 bench/record.py` only when a change alters traces on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_PATH = BENCH_DIR / "expected.json"


@dataclass(frozen=True)
class Workload:
    cells: tuple[tuple[dict[str, Any], int], ...]  # (run config, runs of it per pass)
    pool: int  # run seeds 0..pool-1 are recorded for every cell


WORKLOADS: dict[str, Workload] = {
    # Many short locking runs over the criterion-1 grid: generation with its
    # membership_report re-validation and the post-hoc checkers carry about
    # half the time, and root_components is recomputed ~14x per graph.
    "grid": Workload(
        cells=tuple(
            ({"algorithm": "locking", "n": n, "D": D}, 5) for n in range(2, 7) for D in range(1, n)
        ),
        pool=40,
    ),
    # Few long locking runs (200-320 rounds): the engine merge,
    # LockingConsensus.step and estimate_root dominate. n = 12 and 16 (450
    # and 800 rounds, 1 and 3 s a run) are left out: too few repetitions fit
    # in one measurement for a steady best time on a shared host. Three runs
    # at n = 10 put the median and the 90th percentile inside one size.
    "ladder": Workload(
        cells=tuple(({"algorithm": "locking", "n": n, "D": n - 1}, k) for n, k in ((8, 2), (10, 3))),
        pool=10,
    ),
    # The same layers used differently: compound_sequence builds graphs that
    # locking only queries, and estimate_root runs uncached every round.
    "voting": Workload(
        cells=tuple(({"algorithm": "voting", "n": n}, 10) for n in (4, 8, 12, 16)),
        pool=40,
    ),
}


@dataclass(frozen=True)
class Run:
    cfg: dict[str, Any]
    seed: int
    expected: str  # recorded Execution.trace_hash()


def cell_key(cfg: dict[str, Any]) -> str:
    return json.dumps(cfg, sort_keys=True)


def load_rootsim():
    """Import rootsim from the checkout's `src`; exit with an error if it is missing."""
    src = ROOT / "src"
    if not (src / "rootsim" / "__init__.py").is_file():
        sys.exit(f"error: no rootsim package under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from rootsim import cli

    return cli


def plan(workload: str, seed: int) -> list[Run]:
    """The runs of one pass: pool seeds for every cell, drawn from `seed`."""
    wl = WORKLOADS[workload]
    expected = json.loads(EXPECTED_PATH.read_text())[workload]
    rng = random.Random(f"{workload}-{seed}")
    runs = []
    for cfg, count in wl.cells:
        hashes = expected[cell_key(cfg)]
        for s in sorted(rng.sample(range(wl.pool), count)):
            runs.append(Run(cfg, s, hashes[s]))
    return runs


def setup(workload: str, seed: int):
    """Everything before the first timed run: imports and the pass plan."""
    return load_rootsim(), plan(workload, seed)


def digest(hashes: list[str]) -> str:
    """Fold per-run trace hashes, in plan order, into one digest."""
    h = hashlib.sha256()
    for x in hashes:
        h.update(x.encode())
    return h.hexdigest()
