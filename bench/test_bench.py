"""Quick self-test of the benchmark: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import E2E_METRICS, run_pass  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import BENCH_DIR, ROOT, WORKLOADS, cell_key, digest, setup  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Largest n kept in each workload's slice; one run per remaining cell.
SLICE_MAX_N = {"grid": 4, "ladder": 8, "voting": 8}


def tiny_slice(workload: str):
    cli, runs = setup(workload, 0)
    firsts = {cell_key(r.cfg): r for r in reversed(runs)}
    return cli, [r for r in firsts.values() if r.cfg["n"] <= SLICE_MAX_N[workload]]


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in LAYER_METRICS.items()
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tracing_keeps_traces_and_restores_names(workload):
    cli, runs = tiny_slice(workload)
    assert runs
    order = list(range(len(runs)))[::-1]
    plain = run_pass(cli, runs, order)
    tracer = Tracer()
    names = [(owner, attr) for owner, attr, _ in tracer._patches()]
    before = [getattr(owner, attr) for owner, attr in names]
    with tracer.installed():
        assert all(getattr(o, a) is not f for (o, a), f in zip(names, before))
        traced = run_pass(cli, runs, order)
    assert [getattr(owner, attr) for owner, attr in names] == before
    assert plain.failures == traced.failures == []
    assert plain.hashes == traced.hashes == [r.expected for r in runs]
    assert digest(plain.hashes) == digest(traced.hashes)

    layers = tracer.layer_metrics()
    assert set(layers) | {"trace_overhead_share"} == set(LAYER_METRICS)
    assert layers["cli.run_once_s"] >= 0 and layers["algorithms.step_calls"] > 0
    assert (layers["graphs.compound_calls"] > 0) == (workload == "voting")
    assert {span[4] for span in tracer.spans} == {
        i for i, span in enumerate(tracer.spans) if span[0] == "cli.run_once"
    }


def test_a_changed_trace_fails_its_run():
    cli, runs = tiny_slice("voting")
    runs[0] = dataclasses.replace(runs[0], expected="0" * 64)
    result = run_pass(cli, runs, list(range(len(runs))))
    assert len(result.failures) == 1 and "trace hash differs" in result.failures[0]
    assert result.times[0] is None and None not in result.times[1:]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "voting", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        assert "fail_share 0.0 " in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
