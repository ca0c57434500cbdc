"""Command-line front end: run, sweep, validate, scenario.

Exit codes: 0 all checks passed, 1 a property check failed, 2 usage or
parse error or a failed write, 141 standard output closed early (as by
`| head`). All randomness derives from the single --seed; sweeps use
seed + trial index per trial.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import statistics
import sys
import traceback
from contextlib import contextmanager
from typing import IO, Any, Iterator

from . import adversary, engine, verification
from .algorithms import LockingConsensus, VotingConsensus
from .graphs import GraphError, GraphSequence, is_json_int, read_jsonl, write_jsonl

# Config fields that the `run` and `sweep` flags override.
RUN_KEYS = ["algorithm", "n", "N", "D", "x", "seed", "horizon", "sequence", "stability_start"]
# Every key a config file may hold.
CONFIG_KEYS = {*RUN_KEYS, "inputs", "trials"}
# Config fields that only the locking algorithm reads.
LOCKING_KEYS = ("N", "D", "x", "stability_start")


class UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("config must be a JSON object")
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config key {', '.join(map(repr, unknown))}")
    return cfg


def _load_sequence(path: str, n: int | None = None) -> GraphSequence:
    """The sequence stored at `path`; with `n`, it is run on, so it must
    have n processes and at least one round."""
    try:
        with open(path, encoding="utf-8") as fh:
            seq = read_jsonl(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot load sequence: {exc}") from exc
    except GraphError as exc:
        raise UsageError(f"cannot load sequence: parse error: {exc}") from exc
    if n is not None and seq.n != n:
        raise UsageError(f"sequence has n={seq.n}, config says {n}")
    if n is not None and not seq.graphs:
        raise UsageError("the sequence has no rounds to run")
    return seq


def _merge(cfg: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    merged = dict(cfg)
    for key in RUN_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _resolve_inputs(cfg: dict[str, Any], n: int, seed: int) -> list[int]:
    inputs = cfg.get("inputs", "random-binary")
    if inputs == "random-binary":
        rng = random.Random(f"inputs-{seed}")
        return [rng.randint(0, 1) for _ in range(n)]
    if isinstance(inputs, list) and len(inputs) == n and all(map(is_json_int, inputs)):
        return inputs
    raise UsageError(f"inputs must be 'random-binary' or a list of {n} integers")


def _int(cfg: dict[str, Any], key: str, default: int | None = None) -> int:
    """Config field `key`, which must be an integer, or `default` when it is
    unset; without a default the field is required."""
    value = cfg.get(key)
    if value is None:
        if default is None:
            raise UsageError(f"{key} is required")
        return default
    if not is_json_int(value):
        raise UsageError(f"{key} must be an integer, got {value!r}")
    return value


def _sequence_path(cfg: dict[str, Any]) -> str | None:
    """The config's sequence file name, or None when it is unset."""
    path = cfg.get("sequence")
    if path is not None and not isinstance(path, str):
        raise UsageError(f"sequence must be a file name, got {path!r}")
    return path


def _horizon(cfg: dict[str, Any], default: int) -> int:
    """The configured horizon, or `default` when none is set."""
    horizon = _int(cfg, "horizon", default)
    if horizon < 1:
        raise UsageError(f"the horizon must be >= 1, got {horizon}")
    return horizon


def _run_locking(cfg: dict[str, Any], seed: int) -> tuple[engine.Execution, verification.Verdict]:
    n = _int(cfg, "n")
    N = _int(cfg, "N", n)
    D = _int(cfg, "D", max(1, n - 1))
    x = _int(cfg, "x", D + 1)
    if n < 1:
        raise UsageError(f"n must be >= 1, got n={n}")
    if N < n:
        raise UsageError(f"the size bound N must be >= n, got N={N}, n={n}")
    if not (1 <= D <= max(1, n - 1)):
        raise UsageError(f"need 1 <= D <= n-1, got D={D}")
    if x < 1:
        raise UsageError(f"the stable-window length x must be >= 1, got x={x}")
    algo = LockingConsensus(N=N, D=D)
    path = _sequence_path(cfg)
    if path is not None:
        if cfg.get("stability_start") is not None:
            raise UsageError("stability_start applies to generated sequences, not to a sequence replay")
        seq = _load_sequence(path, n)
        # Find the window on the whole file: the horizon may cut it short.
        window = adversary.stable_window(seq, x)
        seq = GraphSequence(n, seq.graphs[: _horizon(cfg, len(seq))])
    else:
        start = _int(cfg, "stability_start", adversary.window_start(n, x, seed))
        horizon = _horizon(cfg, start + x - 1 + algo.decide_span + 5)
        try:
            seq, window = adversary.generate_stable(n, D, x, start, horizon, seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    exec_ = engine.run(algo, _resolve_inputs(cfg, n, seed), seq)
    return exec_, verification.locking_verdict(exec_, algo, window)


def _run_voting(cfg: dict[str, Any], seed: int) -> tuple[engine.Execution, verification.Verdict]:
    ignored = [key for key in LOCKING_KEYS if cfg.get(key) is not None]
    if ignored:
        raise UsageError(f"the voting algorithm takes no {', '.join(map(repr, ignored))}")
    n = _int(cfg, "n")
    if n < 2:
        raise UsageError("the voting algorithm needs n >= 2")
    stable_len = 3 * (n - 1)
    path = _sequence_path(cfg)
    if path is not None:
        base = _load_sequence(path, n)
        rounds = min(_horizon(cfg, len(base)), len(base))
        rem = rounds % (n - 1)
        if rounds == rem:
            raise UsageError(f"the sequence has no full block of {n - 1} rounds to run")
        if rem:
            print(f"warning: dropping {rem} trailing round(s) not filling a block of {n - 1}", file=sys.stderr)
        base = GraphSequence(n, base.graphs[: rounds - rem])
    else:
        horizon = _horizon(cfg, stable_len + 6 * (n - 1))
        if horizon < stable_len:
            raise UsageError(f"horizon {horizon} is shorter than the {stable_len}-round stable window")
        horizon -= horizon % (n - 1)
        base = adversary.generate_rooted(n, horizon, seed, stable_len=stable_len)
    compound = adversary.compound_sequence(base)
    exec_ = engine.run(VotingConsensus(), _resolve_inputs(cfg, n, seed), compound)
    return exec_, verification.voting_verdict(exec_)


def run_once(cfg: dict[str, Any], seed: int) -> tuple[engine.Execution, verification.Verdict]:
    algorithm = cfg.get("algorithm", "locking")
    if algorithm == "locking":
        return _run_locking(cfg, seed)
    if algorithm == "voting":
        return _run_voting(cfg, seed)
    raise UsageError(f"unknown algorithm {algorithm!r} (expected 'locking' or 'voting')")


@contextmanager
def _output(path: str) -> Iterator[IO[str]]:
    """`path` opened for writing; failing to open, write or close it is a
    usage error."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_outputs(args: argparse.Namespace, exec_: engine.Execution, verdict: verification.Verdict) -> None:
    if args.out_trace:
        with _output(args.out_trace) as fh:
            exec_.write_trace(fh)
    if args.out_verdict:
        with _output(args.out_verdict) as fh:
            json.dump(verdict.to_json(), fh, indent=2)
            fh.write("\n")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _merge(_load_config(args.config), args)
    if cfg.get("trials") is not None:
        raise UsageError("run takes no 'trials': one run is one trial (use sweep)")
    seed = _int(cfg, "seed", 0)
    exec_, verdict = run_once(cfg, seed)
    _write_outputs(args, exec_, verdict)
    print(json.dumps(verdict.to_json(), indent=2))
    return 0 if verdict.ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _merge(_load_config(args.config), args)
    if args.trials is not None:
        trials, source = args.trials, "--trials"
    elif cfg.get("trials") is not None:
        trials, source = _int(cfg, "trials"), "the config's trials"
    else:
        raise UsageError("sweep needs a trial count: give --trials or the config's trials")
    if trials < 1:
        raise UsageError(f"{source} must be >= 1, got {trials}")
    base_seed = _int(cfg, "seed", 0)
    failures, crashes = [], []
    margins: list[int] = []
    for i in range(trials):
        seed = base_seed + i
        try:
            exec_, verdict = run_once(cfg, seed)
        except UsageError:
            raise
        except Exception as exc:
            print(f"seed {seed} crashed:", file=sys.stderr)
            traceback.print_exc()
            crashes.append({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            continue
        if verdict.ok:
            last_decision = max(r for _, r in verification.decisions_of(exec_))
            margins.append(verdict.deadline - last_decision)
        else:
            failures.append({"seed": seed, "verdict": verdict.to_json()})
    summary = {
        "trials": trials,
        "passed": len(margins),
        "failed": len(failures),
        "crashed": len(crashes),
        "decision_margin": {
            "min": min(margins) if margins else None,
            "median": statistics.median(margins) if margins else None,
            "max": max(margins) if margins else None,
        },
        "failures": failures[:10],
        "crashes": crashes[:10],
    }
    print(json.dumps(summary, indent=2))
    return 0 if len(margins) == trials else 1


def cmd_validate(args: argparse.Namespace) -> int:
    if args.D < 1 or args.x < 1:
        raise UsageError(f"need D >= 1 and x >= 1, got D={args.D}, x={args.x}")
    seq = _load_sequence(args.sequence)
    report = adversary.membership_report(seq, args.D, args.x)
    print(json.dumps(report, indent=2))
    return 0 if report["member"] else 1


def _scenario_params() -> dict[str, None]:
    """The parameters of every scenario builder, one integer flag each."""
    return dict.fromkeys(key for build in adversary.SCENARIOS.values() for key in inspect.signature(build).parameters)


def cmd_scenario(args: argparse.Namespace) -> int:
    params = {key: getattr(args, key) for key in _scenario_params() if getattr(args, key) is not None}
    try:
        seq = adversary.scenario(args.name, **params)
    except ValueError as exc:
        raise UsageError(f"scenario {args.name!r}: {exc}") from exc
    if args.out:
        with _output(args.out) as fh:
            write_jsonl(seq, fh)
    else:
        write_jsonl(seq, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootsim",
        description="Simulate and verify consensus over rooted dynamic network sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its fields")
        p.add_argument("--algorithm", choices=["locking", "voting"])
        p.add_argument("--n", type=int)
        p.add_argument("--N", type=int, dest="N", help="known upper bound on n")
        p.add_argument("--D", type=int, dest="D", help="information-propagation diameter")
        p.add_argument("--x", type=int, help="stable-window length")
        p.add_argument("--seed", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--sequence", help="JSON-lines sequence file to run on")
        p.add_argument("--stability-start", type=int, dest="stability_start")

    p_run = sub.add_parser("run", help="run one execution and check it")
    common(p_run)
    p_run.add_argument("--out-trace", dest="out_trace")
    p_run.add_argument("--out-verdict", dest="out_verdict")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run seeded trials and aggregate")
    common(p_sweep)
    p_sweep.add_argument("--trials", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a sequence file's admissibility")
    p_val.add_argument("sequence")
    p_val.add_argument("--D", type=int, required=True, dest="D")
    p_val.add_argument("--x", type=int, required=True)
    p_val.set_defaults(func=cmd_validate)

    p_scn = sub.add_parser("scenario", help="emit a scripted sequence")
    p_scn.add_argument("name", choices=list(adversary.SCENARIOS))
    for key in _scenario_params():
        p_scn.add_argument(f"--{key}", type=int)
    p_scn.add_argument("--out")
    p_scn.set_defaults(func=cmd_scenario)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Writing standard output failed: its reader closed it, or the
        # write itself failed (as on a full disk). Point it at the null
        # device so the final flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # as a process killed by SIGPIPE would (128 + 13)
        print(f"error: cannot write standard output: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
