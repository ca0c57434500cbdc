"""Record the trace hash of every pool run into bench/expected.json.

Usage: python3 bench/record.py [workload ...]

Run it only when a change alters traces on purpose; the benchmark fails any
run whose trace hash differs from the recorded one.
"""

from __future__ import annotations

import json
import sys

from workloads import EXPECTED_PATH, WORKLOADS, cell_key, load_rootsim


def main(names: list[str]) -> int:
    cli = load_rootsim()
    expected = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for name in names or list(WORKLOADS):
        wl = WORKLOADS[name]
        table = {}
        for cfg, _ in wl.cells:
            hashes = []
            for seed in range(wl.pool):
                exec_, verdict = cli.run_once(cfg, seed)
                if not verdict.ok:
                    print(f"error: {name} {cfg} seed {seed} fails its verdict", file=sys.stderr)
                    return 1
                hashes.append(exec_.trace_hash())
            table[cell_key(cfg)] = hashes
            print(f"{name} {cell_key(cfg)}: {wl.pool} runs", flush=True)
        expected[name] = table
    EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
