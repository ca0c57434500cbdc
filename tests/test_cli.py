import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rootsim import adversary, cli, graphs, verification
from rootsim.cli import main
from rootsim.graphs import GraphSequence, read_jsonl, star, write_jsonl

# A short replay file's content: six rounds of a star centred on process 0.
STAR_SEQ = GraphSequence(3, (star(0, 3),) * 6)

# A device on which every write fails with "No space left on device".
DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


class TestRun:
    def test_passing_run_exit_zero(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        verdict = tmp_path / "verdict.json"
        code = main(
            [
                "run", "--algorithm", "locking", "--n", "4", "--D", "3",
                "--seed", "1", "--out-trace", str(trace), "--out-verdict", str(verdict),
            ]
        )
        assert code == 0
        data = json.loads(verdict.read_text())
        assert data["ok"] is True
        lines = trace.read_text().splitlines()
        assert lines and all("proposal" in json.loads(l) for l in lines)

    def test_small_n_too_small_for_big_bound(self):
        # N < n violates the known-bound requirement: usage error.
        assert main(["run", "--algorithm", "locking", "--n", "4", "--N", "2"]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "locking", "n": 3, "D": 1, "seed": 5}))
        assert main(["run", "--config", str(cfg), "--seed", "2"]) == 0

    def test_unknown_algorithm(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algorithm": "paxos", "n": 3}))
        assert main(["run", "--config", str(cfg)]) == 2

    def test_voting_run(self):
        assert main(["run", "--algorithm", "voting", "--n", "3", "--seed", "0"]) == 0


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "1"],
            ["run", "--n", "-3"],
            ["run", "--n", "3", "--x", "0"],
            ["run", "--n", "3", "--stability-start", "1"],
            ["run", "--n", "3", "--stability-start", "0"],
            ["sweep", "--n", "3", "--trials", "2", "--horizon", "4"],
            ["run", "--n", "3", "--horizon", "0", "--seed", "1"],
            ["run", "--algorithm", "voting", "--n", "4", "--horizon", "0"],
            ["run", "--algorithm", "voting", "--n", "4", "--horizon", "2"],
            ["run", "--algorithm", "voting", "--n", "4", "--horizon", "8"],
            ["sweep", "--algorithm", "voting", "--n", "4", "--horizon", "3", "--trials", "2"],
            ["run", "--n", "3", "--D", "3"],
            ["run", "--n", "3", "--D", "0"],
            ["run"],
            ["run", "--algorithm", "voting", "--n", "1"],
            ["scenario", "indist-a", "--n", "5", "--D", "2", "--horizon", "3"],
            ["scenario", "indist-b", "--n", "6", "--D", "2", "--tau", "3", "--horizon", "9"],
            ["scenario", "indist-b", "--n", "6", "--D", "2", "--tau", "6", "--horizon", "6"],
        ],
    )
    def test_exit_two_with_one_error_line(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_replay_rejects_zero_horizon(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        with open(path, "w") as fh:
            write_jsonl(STAR_SEQ, fh)
        assert main(["run", "--n", "3", "--sequence", str(path), "--horizon", "0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["run", "--algorithm", "voting"], ["sweep", "--trials", "2"]],
        ids=["locking", "voting", "sweep"],
    )
    def test_replay_without_rounds_exits_two(self, argv, tmp_path, capsys):
        # No horizon is set: the file has no rounds.
        path = tmp_path / "s.jsonl"
        path.write_text('{"n": 3, "rounds": 0}\n')
        assert main([*argv, "--n", "3", "--sequence", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: the sequence has no rounds to run"], err

    def test_voting_replay_without_a_full_block_exits_two(self, tmp_path, capsys):
        # One round at n = 3 fills no block of two: a run of no compound
        # rounds would report that nobody decided by round 0.
        path = tmp_path / "s.jsonl"
        with open(path, "w") as fh:
            write_jsonl(STAR_SEQ, fh)
        assert main(["run", "--algorithm", "voting", "--n", "3", "--sequence", str(path), "--horizon", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: the sequence has no full block of 2 rounds to run"], err

    @pytest.mark.parametrize(
        "cfg, message",
        [
            # The LockingConsensus mutation keywords are no config keys.
            ({"n": 3, "prune": "bogus"}, "unknown config key 'prune'"),
            ({"n": "abc"}, ""),
            ({"n": 3, "D": "x"}, ""),
            ({"n": 3, "inputs": [1, 2, "a"]}, ""),
            ({"n": 3, "adopt_unanimous": "no"}, "unknown config key 'adopt_unanimous'"),
            ({"n": 3, "backoff": 1}, "unknown config key 'backoff'"),
            ({"n": 3, "decide_rule": "exact"}, "unknown config key 'decide_rule'"),
            ({"n": 3, "prun": "min"}, ""),
            ({"n": 3, "history_window": "squared"}, ""),
            ({"n": 3.7, "D": 1.9}, ""),
            ({"n": 3, "D": True}, ""),
            ({"n": "3"}, ""),
            ({"n": 3, "inputs": [True, False, 1]}, ""),
            ({"n": 3, "inputs": [0, 1, 1.9]}, ""),
        ],
        ids=["prune", "n", "D", "inputs", "adopt_unanimous", "backoff", "decide_rule", "misspelled_key",
             "history_window", "float", "bool", "string", "inputs_bool", "inputs_float"],
    )
    def test_bad_config_value_exits_two(self, cfg, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}"), err

    def test_config_not_utf8_exits_two(self, tmp_path, capsys):
        # Used to end in a UnicodeDecodeError traceback.
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"n": 3\xff}\n')
        assert main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: cannot read config {path}: ") and "can't decode byte 0xff" in err, err

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 200_000,
            pytest.param(
                '{"n": ' + "1" * 5000 + "}",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"), reason="no integer-string conversion limit"
                ),
            ),
        ],
        ids=["nested", "long-integer"],
    )
    def test_config_json_too_deep_or_long_exits_two(self, text, tmp_path, capsys):
        # Used to end in a RecursionError or ValueError traceback.
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: cannot read config {path}: "), err

    @pytest.mark.parametrize("algorithm", ["locking", "voting"])
    @pytest.mark.parametrize(
        "sequence", [0, 987654, 1.5, ["seq.jsonl"]], ids=["zero", "fd", "float", "list"]
    )
    def test_non_string_sequence_exits_two(self, algorithm, sequence, tmp_path, capsys):
        # 0 used to read as unset and generate a sequence, and any other
        # integer was opened as a file descriptor (this one is not open).
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algorithm": algorithm, "n": 3, "sequence": sequence}))
        assert main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: sequence must be a file name, got {sequence!r}"]

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["--N", "5"], "N"),
            (["--D", "2"], "D"),
            (["--x", "3"], "x"),
            (["--stability-start", "2"], "stability_start"),
            (["--config", "{cfg}"], "stability_start"),
        ],
        ids=["N", "D", "x", "stability_start", "config"],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_voting_rejects_locking_settings(self, command, argv, key, tmp_path, capsys):
        # Each of these used to be ignored by a voting run, which exited 0.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stability_start": 2}))
        argv = [a.format(cfg=cfg) for a in argv]
        trials = ["--trials", "1"] if command == "sweep" else []
        assert main([command, "--algorithm", "voting", "--n", "4", *trials, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and repr(key) in err, err

    def test_run_rejects_trials(self, tmp_path, capsys):
        # A run config's trials used to be ignored: one run, exit 0.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3, "trials": 50}))
        assert main(["run", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "'trials'" in err, err

    def test_sweep_without_a_trial_count_exits_two(self, capsys):
        # Used to say "--trials must be >= 1", naming a flag nobody gave.
        assert main(["sweep", "--n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "error: sweep needs a trial count: give --trials or the config's trials"
        ], err

    def test_sweep_config_trials_below_one_names_the_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 3, "trials": 0}))
        assert main(["sweep", "--config", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: the config's trials must be >= 1, got 0"], err

    def test_replay_rejects_stability_start(self, tmp_path, capsys):
        path = tmp_path / "s.jsonl"
        with open(path, "w") as fh:
            write_jsonl(STAR_SEQ, fh)
        assert main(["run", "--n", "3", "--sequence", str(path), "--stability-start", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "stability_start" in err, err

    def test_voting_horizon_equal_to_window_runs(self):
        # The shortest accepted voting horizon is the stable window itself.
        assert main(["run", "--algorithm", "voting", "--n", "4", "--horizon", "9"]) == 0


class TestSweep:
    def test_sweep_passes(self, capsys):
        code = main(
            ["sweep", "--algorithm", "locking", "--n", "3", "--D", "2",
             "--seed", "0", "--trials", "5"]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["passed"] == 5 and summary["trials"] == 5

    @pytest.mark.parametrize("flag", ["--out-trace", "--out-verdict"])
    def test_run_output_flags_rejected(self, flag, tmp_path, capsys):
        out = tmp_path / "f"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "3", "--trials", "1", flag, str(out)])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_zero_trials(self):
        assert main(["sweep", "--algorithm", "locking", "--n", "3", "--trials", "0"]) == 2

    def test_failing_trial_recorded_against_its_seed(self, capsys):
        # A window of x = 1 round is shorter than D + 1 = 3: seed 2's
        # processes have not decided by the deadline.
        assert main(["sweep", "--n", "3", "--trials", "3", "--x", "1"]) == 1
        summary = json.loads(capsys.readouterr().out)
        assert (summary["passed"], summary["failed"], summary["crashed"]) == (2, 1, 0)
        (failure,) = summary["failures"]
        verdict = failure["verdict"]
        assert failure["seed"] == 2
        assert verdict["termination"] is False and verdict["undecided"] == [0, 1, 2]
        assert verdict["deadline"] == 27 and verdict["invariant_failures"] == []

    def test_unexpected_exception_recorded_against_its_seed(self, monkeypatch, capsys):
        original = cli.run_once

        def flaky(cfg, seed):
            if seed == 1:
                raise KeyError("boom")
            return original(cfg, seed)

        monkeypatch.setattr(cli, "run_once", flaky)
        code = main(
            ["sweep", "--algorithm", "locking", "--n", "3", "--D", "2",
             "--seed", "0", "--trials", "3"]
        )
        assert code == 1
        out, err = capsys.readouterr()
        summary = json.loads(out)
        assert summary["passed"] == 2 and summary["crashed"] == 1
        assert summary["crashes"] == [{"seed": 1, "error": "KeyError: 'boom'"}]
        assert "seed 1 crashed" in err and "Traceback" in err


class TestValidate:
    def test_generated_sequence_is_member(self, tmp_path, capsys):
        out = tmp_path / "seq.jsonl"
        assert main(["scenario", "indist-b", "--n", "12", "--D", "2", "--tau", "6",
                     "--horizon", "11", "--out", str(out)]) == 0
        code = main(["validate", str(out), "--D", "2", "--x", "3"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["member"] is True

    def test_non_member_exit_one(self, tmp_path):
        out = tmp_path / "seq.jsonl"
        assert main(["scenario", "lossy-link", "--horizon", "20", "--seed", "1",
                     "--out", str(out)]) == 0
        # A lossy link is never 2-round stable for x=2 with D=1... it can be;
        # but it is certainly not rooted with a 5-stable window for x=5.
        assert main(["validate", str(out), "--D", "1", "--x", "5"]) in (0, 1)

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"n": 2, "rounds": 1}\n{broken\n')
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "parse error" in err[0], err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: empty sequence file"),
            (
                '{"n": 2, "rounds": 3}\n{"round": 1, "edges": [[0, 1]]}\n{"round": 2, "edges": [[0, 1]]}\n',
                "line 1: header says 3 rounds, file has 2",
            ),
        ],
        ids=["empty", "short"],
    )
    def test_file_shape_error_exit_two(self, text, message, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and err.rstrip("\n").endswith(message), err

    def test_missing_file(self):
        assert main(["validate", "/nonexistent.jsonl", "--D", "1", "--x", "1"]) == 2

    @pytest.mark.parametrize(
        "header,edge",
        [
            ({"n": 2.9, "rounds": 1}, [0, 1]),
            ({"n": 2, "rounds": 1}, [0, 1.7]),
            ({"n": True, "rounds": 1}, [0, 0]),
            ({"n": "2", "rounds": 1}, [0, 1]),
            ({"n": 2, "rounds": 1.0}, [0, 1]),
            ({"n": 2, "rounds": 1}, ["0", 1]),
            ({"n": 2, "rounds": 1}, [False, True]),
        ],
        ids=["n_float", "edge_float", "n_bool", "n_string", "rounds_float", "edge_string", "edge_bool"],
    )
    def test_non_integer_sequence_field_exits_two(self, header, edge, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(header) + "\n" + json.dumps({"round": 1, "edges": [edge]}) + "\n")
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and "must be an integer" in err, err

    @pytest.mark.parametrize(
        "rounds,line,message",
        [
            ([{"round": 9, "edges": []}, {"round": 2, "edges": []}], 2, "round must be 1, got 9"),
            ([{"round": 1, "edges": []}, {"edges": []}], 3, "missing key 'round'"),
            ([{"round": 1.0, "edges": []}, {"round": 2, "edges": []}], 2, "round must be an integer"),
            ([{"round": 1, "edges": []}, {"round": "2", "edges": []}], 3, "round must be an integer"),
            ([{"round": True, "edges": []}, {"round": 2, "edges": []}], 2, "round must be an integer"),
        ],
        ids=["wrong", "missing", "float", "string", "bool"],
    )
    def test_round_field_must_match_its_line(self, rounds, line, message, tmp_path, capsys):
        # A misnumbered or unnumbered round used to be read in file order.
        bad = tmp_path / "bad.jsonl"
        header = {"n": 2, "rounds": len(rounds)}
        bad.write_text("".join(json.dumps(obj) + "\n" for obj in [header, *rounds]))
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: ") and f"line {line}: {message}" in err, err

    @pytest.mark.parametrize(
        "header,body,message",
        [
            ({"n": 2, "rounds": 1}, [1, 2], "line 2: must be a JSON object with 'round' and 'edges'"),
            ([2, 1], {"round": 1, "edges": []},
             "line 1: bad header (must be a JSON object with 'n' and 'rounds')"),
            ({"n": 3, "rounds": 1}, {"round": 1, "edges": [[0, 1, 2]]},
             "line 2: each edge must be a pair of integers, got [0, 1, 2]"),
            ({"n": 2, "rounds": 1}, {"round": 1, "edges": 5},
             "line 2: edges must be a list of integer pairs, got 5"),
        ],
        ids=["round_line_list", "header_list", "edge_triple", "edges_int"],
    )
    def test_line_of_the_wrong_shape_exits_two(self, header, body, message, tmp_path, capsys):
        # Each of these used to pass Python's own message through.
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(header) + "\n" + json.dumps(body) + "\n")
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: cannot load sequence: parse error: {message}"], err

    def test_sequence_not_utf8_exits_two(self, tmp_path, capsys):
        # Used to end in a UnicodeDecodeError traceback.
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"n": 2, "rounds": 1}\n{"round": 1, "edges": []}\xff\n')
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith("error: cannot load sequence: ") and "can't decode byte 0xff" in err, err

    @pytest.mark.parametrize(
        "lines,message",
        [
            (["[" * 200_000, '{"round": 1, "edges": []}'], "line 1: bad header ("),
            (['{"n": 2, "rounds": 1}', "[" * 200_000], "line 2: "),
        ],
        ids=["header", "round-line"],
    )
    def test_deeply_nested_line_exits_two(self, lines, message, tmp_path, capsys):
        # Used to end in a RecursionError traceback.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1, err
        assert err.startswith(f"error: cannot load sequence: parse error: {message}"), err

    @pytest.mark.parametrize("n", [0, -2])
    def test_header_without_processes_exits_two(self, n, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"n": n, "rounds": 0}) + "\n")
        assert main(["validate", str(bad), "--D", "1", "--x", "1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "line 1" in err[0], err

    @pytest.mark.parametrize("D,x", [(-1, 1), (0, 0), (0, 1), (1, 0)])
    def test_bound_below_one_exits_two(self, D, x, tmp_path, capsys):
        path = tmp_path / "seq.jsonl"
        with open(path, "w") as fh:
            write_jsonl(STAR_SEQ, fh)
        assert main(["validate", str(path), "--D", str(D), "--x", str(x)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestScenario:
    def test_scenario_file_round_trips(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert main(["scenario", "indist-a", "--n", "12", "--D", "2",
                     "--horizon", "8", "--out", str(out)]) == 0
        with open(out) as fh:
            seq = read_jsonl(fh)
        assert seq.n == 12 and len(seq) == 8

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["lossy-link", "--seed", "1"], "--horizon"),
            (["indist-a", "--n", "12", "--horizon", "8"], "--D"),
            (["indist-b", "--n", "12", "--D", "2", "--horizon", "11"], "--tau"),
        ],
    )
    def test_missing_parameter_names_its_flag(self, argv, flag, capsys):
        assert main(["scenario", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: scenario {argv[0]!r}: needs {flag}"], err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["lossy-link", "--n", "7", "--horizon", "3"], "--n"),
            (["indist-a", "--n", "12", "--D", "2", "--horizon", "8", "--seed", "1"], "--seed"),
        ],
        ids=["lossy-link", "indist-a"],
    )
    def test_parameter_the_builder_ignores_names_its_flag(self, argv, flag, capsys):
        # lossy-link --n 7 used to write an n = 2 file and exit 0.
        assert main(["scenario", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: scenario {argv[0]!r}: takes no {flag}"], err

    def test_flags_are_the_builders_parameters(self, monkeypatch, capsys):
        def flags():
            sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
            return {o for a in sub.choices["scenario"]._actions for o in a.option_strings}

        assert flags() == {"-h", "--help", "--n", "--D", "--tau", "--horizon", "--seed", "--out"}

        # A builder added to SCENARIOS is a scenario choice, and its
        # parameters are flags, with no edit to the CLI.
        def ring(n: int, horizon: int, shift: int = 1) -> GraphSequence:
            return GraphSequence(n, (graphs.CommGraph(n, [(p, (p + shift) % n) for p in range(n)]),) * horizon)

        monkeypatch.setitem(adversary.SCENARIOS, "ring", ring)
        assert flags() == {"-h", "--help", "--n", "--D", "--tau", "--horizon", "--seed", "--shift", "--out"}
        assert main(["scenario", "ring", "--n", "3", "--shift", "2", "--horizon", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == ['{"round": %d, "edges": [[0, 2], [1, 0], [2, 1]]}' % r for r in (1, 2)]
        assert main(["scenario", "ring", "--n", "3", "--tau", "2", "--horizon", "2"]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: scenario 'ring': takes no --tau"]

    def test_bad_params(self):
        assert main(["scenario", "indist-a", "--n", "3", "--D", "2", "--horizon", "8"]) == 2

    @pytest.mark.parametrize("name", ["indist-a", "indist-b"])
    def test_indist_diameter_one_exits_two(self, name, capsys):
        tau = ["--tau", "4"] if name == "indist-b" else []
        argv = ["scenario", name, "--n", "5", "--D", "1", *tau, "--horizon", "8"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lossy-link", "--horizon", "-3"],
            ["lossy-link", "--horizon", "0"],
        ],
    )
    def test_horizon_below_one_exits_two(self, argv, capsys):
        assert main(["scenario", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "3", "--seed", "1", "--out-trace", "{missing}"],
            ["run", "--n", "3", "--seed", "1", "--out-verdict", "{missing}"],
            ["run", "--n", "3", "--seed", "1", "--out-trace", "{dir}"],
            ["scenario", "lossy-link", "--horizon", "3", "--out", "{missing}"],
            # The file opens and the write fails; these used to end in an
            # OSError traceback.
            pytest.param(["run", "--n", "3", "--seed", "1", "--out-trace", "/dev/full"], marks=DEV_FULL),
            pytest.param(["run", "--n", "3", "--seed", "1", "--out-verdict", "/dev/full"], marks=DEV_FULL),
            pytest.param(["scenario", "lossy-link", "--horizon", "3", "--out", "/dev/full"], marks=DEV_FULL),
        ],
        ids=["out-trace", "out-verdict", "directory", "scenario-out",
             "out-trace-full", "out-verdict-full", "scenario-out-full"],
    )
    def test_exit_two_with_one_error_line(self, argv, tmp_path, capsys):
        paths = {"missing": str(tmp_path / "no-such-dir" / "f.jsonl"), "dir": str(tmp_path)}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write "), err


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "4", "--D", "2", "--seed", "1"],
            ["scenario", "lossy-link", "--horizon", "3000", "--seed", "1"],
            ["sweep", "--n", "3", "--D", "1", "--seed", "0", "--trials", "2"],
        ],
        ids=["run", "scenario", "sweep"],
    )
    def test_closed_stdout_exits_141_without_traceback(self, argv):
        # Standard output is a pipe whose reader is already gone, as when
        # the reader of `rootsim ... | head -1` has exited.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "rootsim.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert b"Traceback" not in proc.stderr


class TestFullStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--n", "3", "--seed", "1"],
            ["sweep", "--n", "3", "--trials", "2"],
            ["scenario", "lossy-link", "--horizon", "3"],
        ],
        ids=["run", "sweep", "scenario"],
    )
    @DEV_FULL
    def test_full_stdout_exits_two_with_one_error_line(self, argv):
        # Every write to /dev/full fails with ENOSPC.
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "rootsim.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        err = proc.stderr.decode().splitlines()
        assert proc.returncode == 2, err
        assert err == ["error: cannot write standard output: No space left on device"]


class TestSequenceInput:
    def test_run_on_sequence_file(self, tmp_path):
        # Generate a stable sequence via the library, save it, and run the
        # locking algorithm on the file.
        from rootsim.adversary import generate_stable, window_start
        from rootsim.graphs import write_jsonl

        n, D = 4, 2
        span = n * (D + 2 * n)
        seq, window = generate_stable(n, D, D + 1, window_start(n, D + 1, 3), 12 + span, 3)
        path = tmp_path / "seq.jsonl"
        with open(path, "w") as fh:
            write_jsonl(seq, fh)
        code = main(["run", "--algorithm", "locking", "--n", "4", "--D", "2",
                     "--seed", "3", "--sequence", str(path)])
        assert code == 0

    def test_locking_replay_honours_horizon(self, tmp_path):
        n, D = 3, 2
        seq, _ = adversary.generate_stable(n, D, D + 1, 4, 40, 1)
        path = tmp_path / "seq.jsonl"
        with open(path, "w") as fh:
            write_jsonl(seq, fh)
        cfg = {"algorithm": "locking", "n": n, "D": D, "sequence": str(path)}
        full, verdict = cli.run_once(cfg, 0)
        assert verdict.ok and full.rounds == 40
        for horizon in (6, 40, 500):
            cut, _ = cli.run_once(dict(cfg, horizon=horizon), 0)
            rounds = min(horizon, 40)
            assert cut.rounds == rounds
            assert list(cut.trace_lines()) == list(full.trace_lines())[: rounds * n]

    def test_sequence_process_count_mismatch(self, tmp_path):
        from rootsim.graphs import CommGraph, GraphSequence, write_jsonl

        seq = GraphSequence(3, (CommGraph(3, [(0, 1)]),) * 4)
        path = tmp_path / "seq.jsonl"
        with open(path, "w") as fh:
            write_jsonl(seq, fh)
        assert main(["run", "--algorithm", "locking", "--n", "4",
                     "--sequence", str(path)]) == 2

    def test_voting_sequence_process_count_mismatch(self, tmp_path, capsys):
        path = tmp_path / "seq.jsonl"
        with open(path, "w") as fh:
            write_jsonl(adversary.scenario("lossy-link", horizon=6), fh)
        assert main(["run", "--algorithm", "voting", "--n", "3", "--sequence", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_voting_replay_honours_horizon(self, tmp_path):
        base = adversary.generate_rooted(3, 24, 0, stable_len=6)
        path = tmp_path / "seq.jsonl"
        with open(path, "w") as fh:
            write_jsonl(base, fh)
        cfg = {"algorithm": "voting", "n": 3, "sequence": str(path)}
        full, _ = cli.run_once(cfg, 0)
        cut, _ = cli.run_once(dict(cfg, horizon=4), 0)
        assert (full.rounds, cut.rounds) == (12, 2)
        assert cut.seq.graphs == full.seq.graphs[:2]

    def test_voting_replay_partial_block_warns_in_one_line(self, tmp_path):
        path = tmp_path / "seq.jsonl"
        with open(path, "w") as fh:
            write_jsonl(adversary.generate_rooted(3, 24, 0, stable_len=6), fh)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "rootsim.cli", "run", "--algorithm", "voting", "--n", "3",
             "--sequence", str(path), "--horizon", "3"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        err = proc.stderr.splitlines()
        assert err == ["warning: dropping 1 trailing round(s) not filling a block of 2"], err
        assert "UserWarning" not in proc.stderr


class TestDerivedConstants:
    def test_voting_decision_offset_recorded(self):
        # The exact decision offset after each first star window's second
        # graph, measured by inspection and frozen as a module constant.
        offsets = []
        from rootsim import adversary

        for seed in range(10):
            exec_, verdict = cli.run_once({"algorithm": "voting", "n": 4}, seed)
            assert verdict.ok
            stars = adversary.check_star_window(exec_.seq, 2)
            second_graph = stars[0][0] + 1
            for p in range(4):
                first = next(
                    r for r in range(1, exec_.rounds + 1) if exec_.states[p][r].decision is not None
                )
                offsets.append(first - second_graph)
        assert max(offsets) == verification.VOTING_DECISION_OFFSET


def test_locking_run_once_searches_no_root(monkeypatch):
    # Generation proves each round's designed root and stores it, and its
    # validation, the engine and the checkers all read the stored roots,
    # so no root search runs; the proven roots are the searched ones.
    graphs_seen = []
    original = graphs.root_components

    def counting(g):
        graphs_seen.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "root_components", counting)
    exec_, verdict = cli.run_once({"algorithm": "locking", "n": 4, "D": 2}, 3)
    assert verdict.ok
    assert graphs_seen == []
    assert exec_.seq.root_sets == tuple(original(g) for g in exec_.seq.graphs)


def test_voting_run_once_computes_each_compound_root_once(monkeypatch):
    # Generation checks its base rounds without a root search, so the only
    # roots computed are those of the compound rounds the engine runs on.
    graphs_seen = []
    original = graphs.root_components

    def counting(g):
        graphs_seen.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "root_components", counting)
    exec_, verdict = cli.run_once({"algorithm": "voting", "n": 5}, 3)
    assert verdict.ok
    assert len(graphs_seen) == len(exec_.seq)


@pytest.mark.parametrize("n,D,seed", [(2, 1, 0), (4, 2, 3), (5, 4, 7)])
def test_run_once_places_window_by_window_start(n, D, seed):
    x = D + 1
    start = adversary.window_start(n, x, seed)
    horizon = start + x - 1 + n * (D + 2 * n) + 5
    exec_, _ = cli.run_once({"n": n, "D": D}, seed)
    assert exec_.seq == adversary.generate_stable(n, D, x, start, horizon, seed)[0]
