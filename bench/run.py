"""rootsim benchmark: verified runs per second and run latency per workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {grid,ladder,voting} --seed N --seconds S --trace {0,1}

One process, no extra threads. A pass calls `cli.run_once` once for every
run the workload seed drew (see workloads.py); passes repeat until the next
one would end after S seconds. Every run must return `verdict.ok` and the
trace hash recorded in expected.json; hashing happens outside the timed
interval.

A run's time is the fastest of its repetitions, one per pass. On a shared
host the speed of one CPU swings by up to 2x within seconds, the same for
process time as for wall time; the fastest repetition is the one least
disturbed by other tenants, and passes spread the repetitions over the
whole measurement. The same holds for the set-up probes, which run between
passes.

The host's best speed also drifts, by up to 25% from one minute to the
next, which no repetition inside one run can average out. So every time is
scaled to a fixed reference speed: `reference_work`, fixed pure-Python work
that no change to rootsim can touch, is timed after every run, and each
time is multiplied by REFERENCE_S over its best time in this run. The
result reads as seconds on the host when its best time for that work is
REFERENCE_S. Raw times and the factor are printed and kept in the results
file.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of
tracing.LAYER_METRICS. Human-readable lines come first, the last stdout
line is one JSON object, and a results file with the environment and every
timing goes to bench/results/. Exit status 1 means a run failed or a
digest disagreed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from tracing import LAYER_METRICS, Tracer
from workloads import BENCH_DIR, ROOT, WORKLOADS, Run, digest, setup

RESULTS_DIR = BENCH_DIR / "results"

# Best time of reference_work on a 2-vCPU Intel Xeon with Python 3.11.7.
REFERENCE_S = 0.0007

# name -> unit. fail_share, which is 0 when the benchmark passes, is printed
# beside them and is the `failed` count of the result line.
E2E_METRICS = {
    "runs_per_s": "1/s",
    "run_s.p50": "s",
    "run_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_share": "share",
}


@dataclass
class Pass:
    """Outcome of each run of the plan, in plan order."""

    times: list[float | None]  # None: the run failed
    hashes: list[str | None]
    failures: list[str] = field(default_factory=list)
    reference_s: float = float("inf")  # best time of reference_work, timed after each run


def run_pass(cli, runs: list[Run], order: list[int]) -> Pass:
    """Call cli.run_once for runs[i], for i in `order`."""
    result = Pass([None] * len(runs), [None] * len(runs))
    for i in order:
        run = runs[i]
        try:
            t0 = perf_counter()
            exec_, verdict = cli.run_once(dict(run.cfg), run.seed)
            elapsed = perf_counter() - t0
            result.hashes[i] = exec_.trace_hash()
            del exec_  # free this execution before the next run builds its own
        except Exception as exc:  # a run that raises is counted as failed, not fatal
            result.failures.append(f"{run.cfg} seed {run.seed}: {type(exc).__name__}: {exc}")
            continue
        if not verdict.ok:
            result.failures.append(f"{run.cfg} seed {run.seed}: verdict not ok")
        elif result.hashes[i] != run.expected:
            result.failures.append(f"{run.cfg} seed {run.seed}: trace hash differs from the recorded one")
        else:
            result.times[i] = elapsed
        t0 = perf_counter()
        reference_work()
        result.reference_s = min(result.reference_s, perf_counter() - t0)
    return result


def reference_work() -> int:
    """Fixed pure-Python work in the style of the engine's knowledge merge:
    an elementwise max down 400 rows of 16 small ints."""
    rows = [[(i * j) % 31 for j in range(16)] for i in range(400)]
    for prev, cur in zip(rows, rows[1:]):
        for k in range(16):
            if prev[k] > cur[k]:
                cur[k] = prev[k]
    return sum(rows[-1])


def best_times(passes: list[Pass]) -> list[float]:
    """Fastest time of each run of the plan over the passes where it succeeded."""
    columns = zip(*(p.times for p in passes))
    return [min(ts) for col in columns if (ts := [t for t in col if t is not None])]


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh process until it has done the set-up."""
    code = (
        f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); "
        f"import workloads; workloads.setup({workload!r}, {seed}); print('ready', flush=True)"
    )
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()  # blocks until the line arrives, unlike a polled wait
        elapsed = perf_counter() - t0
        if proc.wait(timeout=120) != 0 or ready != "ready\n":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def environment(workload: str, seed: int, runs: list[Run]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rootsim").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": workload,
        "seed": seed,
        "runs_per_pass": len(runs),
        "plan": [[run.cfg, run.seed] for run in runs],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, runs = setup(args.workload, args.seed)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    layers: list[dict[str, float]] = []  # per traced pass; only the last tracer is kept
    setup_probes: list[float] = []
    start = perf_counter()
    while True:
        # A fresh order each pass, so that no run keeps the same place in a
        # pass and with it the same phase of any periodic disturbance.
        order = list(range(len(runs)))
        random.Random(f"order-{args.seed}-{len(untraced)}").shuffle(order)
        untraced.append(run_pass(cli, runs, order))
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(run_pass(cli, runs, order))
            layers.append(tracer.layer_metrics())
        else:
            setup_probes.append(probe_setup(args.workload, args.seed))
        elapsed = perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    passes = untraced + traced
    attempted = len(runs) * len(passes)
    failures = [f for p in passes for f in p.failures]
    expected = digest([run.expected for run in runs])
    digests = [digest([h or "" for h in p.hashes]) for p in passes]
    correct = not failures and all(d == expected for d in digests)

    env = environment(args.workload, args.seed, runs)
    print("env " + json.dumps({k: v for k, v in env.items() if k != "plan"}))
    print(f"passes {len(untraced)} untraced, {len(traced)} traced; {len(runs)} runs per pass")
    print(f"digest {expected} recorded; {sum(d == expected for d in digests)}/{len(digests)} passes match")
    print(f"fail_share {len(failures) / attempted} share ({len(failures)} of {attempted} runs)")
    for failure in failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)

    RESULTS_DIR.mkdir(exist_ok=True)
    reference_s = min(p.reference_s for p in passes)
    scale = REFERENCE_S / reference_s
    print(f"reference_work best {reference_s:.6f} s; times below are raw times x {scale:.4f}")
    raw = best_times(untraced)
    times = [t * scale for t in raw]
    samples = f"{len(times)} runs, each the best of {len(untraced)} passes"
    if args.trace:
        metrics = {
            name: min(m[name] for m in layers) * (scale if name.endswith("_s") else 1)
            for name in layers[0]
        }
        metrics["trace_overhead_share"] = sum(best_times(traced)) / sum(raw) - 1 if raw else 0.0
        units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
        tracer.write_spans(RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.csv")
    else:
        print(f"raw runs_per_s {len(raw) / sum(raw) if raw else 0.0:.6g} 1/s, setup_s {min(setup_probes):.6g} s")
        metrics = {
            "runs_per_s": len(times) / sum(times) if times else 0.0,
            "run_s.p50": statistics.median(times) if times else 0.0,
            "run_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else sum(times),
            "setup_s": min(setup_probes) * scale,
            "peak_rss_mb": peak_rss_mb,
            "verified_share": (attempted - len(failures)) / attempted,
        }
        units = E2E_METRICS
    for name, value in metrics.items():
        note = f"  ({samples})" if name.startswith("run") else ""
        note = f"  (best of {len(setup_probes)} probes)" if name == "setup_s" else note
        print(f"{name} {value:.6g} {units[name]}{note}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    timings = {
        "untraced_s": [p.times for p in untraced],
        "traced_s": [p.times for p in traced],
        "setup_probes_s": setup_probes,
        "reference_s": [p.reference_s for p in passes],
        "scale": scale,
    }
    out.write_text(json.dumps({"env": env, "digests": digests, "timings": timings, **result}) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
