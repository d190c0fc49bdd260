import argparse
import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmarko import cli
from qmarko.bitstrings import string_to_index
from qmarko.cli import EXIT_NO_FEASIBLE, EXIT_OK, METHODS, main

SEEDS = (1, 2)


def test_sweep_and_report_cover_every_cell(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--n", "3", "--k", "1", "--methods", ",".join(METHODS),
        "--seeds", ",".join(map(str, SEEDS)), "--max-iter", "12",
        "--doubling-interval", "6", "--shots", "64", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    capsys.readouterr()

    cells = [(method, str(seed)) for method in METHODS for seed in SEEDS]
    with (out / "summary.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["method"], row["seed"]) for row in rows] == cells

    table_rows = (out / "report.md").read_text().splitlines()[2:]
    assert [tuple(line.split(" | ")[:2]) for line in table_rows] == [
        (f"| {method}", seed) for method, seed in cells
    ]

    for method, seed in cells:
        run_id = f"{method}_seed{seed}"
        assert not (out / run_id / "error.txt").exists()
        histogram = json.loads((out / run_id / "record.json").read_text())["histogram"]
        assert math.isclose(sum(histogram.values()), 1.0, abs_tol=1e-9)
        with (out / f"hist_{run_id}.csv").open() as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["bitstring", "probability"]
        expected = [
            [bits, repr(float(histogram[bits]))]
            for bits in sorted(histogram, key=string_to_index)
        ]
        if method.endswith("-qaoa"):
            # A marginal's rows: its entries above 1e-3, else its most probable.
            most_probable = max(expected, key=lambda row: float(row[1]))
            expected = [row for row in expected if float(row[1]) > 1e-3] or [most_probable]
        assert lines[1:] == expected


def test_solve_rejects_mixer_for_methods_without_one(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "4", "--out", instance]) == EXIT_OK

    def solve(method, mixer):
        return main(["solve", "--instance", instance, "--method", method, "--mixer", mixer,
                     "--max-iter", "6", "--doubling-interval", "3", "--shots", "32",
                     "--out", str(tmp_path / method)])

    for method in METHODS:
        if method != "slack-qaoa":
            assert solve(method, "conditional") == EXIT_INVALID
            assert not (tmp_path / method / "record.json").exists()
    assert "--mixer" in capsys.readouterr().err
    assert solve("slack-qaoa", "standard") == EXIT_OK
    record = json.loads((tmp_path / "slack-qaoa" / "record.json").read_text())
    assert record["mixer"] == "standard"


def test_penalty_needs_a_method_that_takes_a_weight(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "1", "--out", instance]) == EXIT_OK
    fast = ["--max-iter", "4", "--doubling-interval", "2", "--shots", "16"]
    for method in ("slack-qaoa", "oracle"):
        out = tmp_path / f"solve_{method}"
        assert main(["solve", "--instance", instance, "--method", method, "--penalty", "1e308",
                     *fast, "--out", str(out)]) == EXIT_INVALID, method
        assert not out.exists(), method
        err = capsys.readouterr().err
        assert "--penalty applies to penalty-qaoa, cardinality-slack-qaoa, classical-baseline" \
            in err, method
        assert method in err.rsplit("not", 1)[1], method
    # Set in a config file, the weight is refused the same way.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"penalty": 50.0}))
    assert main(["solve", "--instance", instance, "--method", "oracle", "--config", str(config),
                 "--out", str(tmp_path / "solve_config")]) == EXIT_INVALID
    assert not (tmp_path / "solve_config").exists()

    sweep = tmp_path / "sweep"
    assert main(["sweep", "--instance", instance, "--methods", "slack-qaoa,oracle", "--seeds", "1",
                 "--penalty", "50", *fast, "--out", str(sweep)]) == EXIT_INVALID
    assert not sweep.exists()
    assert "--penalty applies to" in capsys.readouterr().err
    # A grid that mixes weighted and unweighted methods takes the weight.
    assert main(["sweep", "--instance", instance, "--methods", "slack-qaoa,oracle,penalty-qaoa",
                 "--seeds", "1", "--penalty", "50", *fast, "--out", str(sweep)]) == EXIT_OK
    record = json.loads((sweep / "penalty-qaoa_seed1" / "record.json").read_text())
    assert record["final_beta_penalty"] == 50.0
    capsys.readouterr()


def test_solve_without_a_penalty_runs_each_method_at_its_default_weight(tmp_path, capsys):
    # The fixed-penalty QAOA arms at 1e3, the classical baseline at the slack
    # schedule's first weight.
    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "1", "--out", instance]) == EXIT_OK
    for method, key, weight in (("penalty-qaoa", "final_beta_penalty", 1000.0),
                                ("cardinality-slack-qaoa", "final_beta_penalty", 1000.0),
                                ("classical-baseline", "penalty", 100.0)):
        out = tmp_path / method
        assert main(["solve", "--instance", instance, "--method", method, "--max-iter", "6",
                     "--out", str(out)]) in (EXIT_OK, EXIT_NO_FEASIBLE), method
        assert json.loads((out / "record.json").read_text())[key] == weight, method
    capsys.readouterr()


def test_a_classical_baseline_record_without_a_penalty_has_the_schedules_first_weight(
        tmp_path, capsys):
    # The CLI row and oracle.classical_baseline's default both read the
    # schedule's first weight: the record says so, and a direct call at the
    # default weight finds the record's portfolio along the same trace.
    from qmarko.instance import load_instance
    from qmarko.oracle import classical_baseline
    from qmarko.qaoa import ScheduleConfig

    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "3", "--k", "1", "--methods", "classical-baseline",
                 "--seeds", "1", "--max-iter", "6", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    record = json.loads((out / "classical-baseline_seed1" / "record.json").read_text())
    assert record["penalty"] == ScheduleConfig().beta_penalty_init
    result = classical_baseline(load_instance(out / "instance_seed1.json"), budget=6, seed=1)
    assert (result.bitstring, result.value, list(result.trace)) == (
        record["bitstring"], record["value"], record["objective_trace"])


def test_a_nelder_mead_sweep_spends_its_budget_and_reruns_to_the_same_bytes(tmp_path, capsys):
    # slack-qaoa spends exactly --max-iter evaluations unless it met the
    # feasibility target, the fixed-weight arms at most that many; a second
    # sweep writes the same files, all but summary.csv's wall_ms column.
    methods = ["slack-qaoa", "penalty-qaoa", "cardinality-slack-qaoa", "classical-baseline"]
    outs = [tmp_path / "first", tmp_path / "second"]
    for out in outs:
        assert main(["sweep", "--n", "4", "--k", "2", "--methods", ",".join(methods),
                     "--seeds", "1", "--optimizer", "nelder-mead", "--max-iter", "12",
                     "--doubling-interval", "6", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    for method in methods:
        doc = json.loads((outs[0] / f"{method}_seed1" / "record.json").read_text())
        if method.endswith("-qaoa"):
            assert doc["optimizer"] == "nelder-mead", method
        if method == "slack-qaoa" and doc["terminated_by"] != "feasibility_target":
            assert doc["iterations"] == 12
        else:
            assert 0 < doc["iterations"] <= 12, method
    files = [sorted(path.relative_to(out) for path in out.rglob("*") if path.is_file())
             for out in outs]
    assert files[0] == files[1]
    for name in files[0]:
        if name.name != "summary.csv":
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def without_wall_ms(out):
        with (out / "summary.csv").open() as fh:
            return [{**row, "wall_ms": None} for row in csv.DictReader(fh)]

    assert without_wall_ms(outs[0]) == without_wall_ms(outs[1])


def test_sweep_mixer_needs_slack_qaoa_in_the_grid(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    fast = ["--n", "3", "--k", "1", "--seeds", "1", "--max-iter", "4",
            "--doubling-interval", "2", "--shots", "16"]
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--methods", "oracle,penalty-qaoa", "--mixer", "conditional", *fast,
                 "--out", str(sweep)]) == EXIT_INVALID
    assert not sweep.exists()
    err = capsys.readouterr().err
    assert "--mixer applies to slack-qaoa only, not oracle, penalty-qaoa" in err
    # Set in a config file, the mixer is refused the same way.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mixer": "standard"}))
    assert main(["sweep", "--methods", "penalty-qaoa", "--config", str(config), *fast,
                 "--out", str(sweep)]) == EXIT_INVALID
    assert not sweep.exists()
    assert "--mixer applies to" in capsys.readouterr().err
    # A grid that mixes slack-qaoa with other methods takes the mixer (slack-qaoa's
    # default is conditional).
    assert main(["sweep", "--methods", "slack-qaoa,penalty-qaoa", "--mixer", "standard", *fast,
                 "--out", str(sweep)]) == EXIT_OK
    record = json.loads((sweep / "slack-qaoa_seed1" / "record.json").read_text())
    assert record["mixer"] == "standard"
    capsys.readouterr()


def test_settings_resolve_flags_over_config_over_defaults(tmp_path, capsys, monkeypatch):
    from qmarko.cli import EXIT_INVALID

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 4, "k": 2, "seed": 7}))
    first = tmp_path / "first.json"
    assert main(["generate", "--config", str(config), "--k", "1", "--print-config",
                 "--out", str(first)]) == EXIT_OK
    printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert (printed["n"], printed["k"], printed["seed"]) == (4, 1, 7)
    written = json.loads(first.read_text())
    assert (written["n"], written["k"], written["seed"]) == (4, 1, 7)

    monkeypatch.setenv("QMARKO_SEED", "9")
    second = tmp_path / "second.json"
    assert main(["generate", "--n", "3", "--out", str(second)]) == EXIT_OK
    assert json.loads(second.read_text())["seed"] == 9

    config.write_text("{not json")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "x.json")]) \
        == EXIT_INVALID
    assert "--config" in capsys.readouterr().err


def test_sweep_rejects_bad_settings_before_writing(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    bad_flags = [["--p", "0"], ["--max-iter", "0"], ["--shots", "0"], ["--jobs", "0"],
                 ["--penalty", "nan"], ["--penalty", "inf"], ["--beta-init", "inf"]]
    bad_configs = [{"optimizer": "bfgs"}, {"mixer": "sideways"}, {"p": None}]
    for i, config in enumerate(bad_configs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        bad_flags.append(["--config", str(path)])
    for i, flags in enumerate(bad_flags):
        out = tmp_path / f"sweep{i}"
        code = main(["sweep", "--n", "3", "--k", "1", "--methods", "slack-qaoa,penalty-qaoa",
                     "--seeds", "1", "--max-iter", "4", "--doubling-interval", "2",
                     "--shots", "16", *flags, "--out", str(out)])
        assert code == EXIT_INVALID, flags
        assert not out.exists(), flags
    capsys.readouterr()


def test_non_finite_penalty_weights_are_rejected(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID
    from qmarko.encode import (
        build_cardinality_slack_qubo, build_penalty_qubo, build_slack_ancilla_qubo,
    )
    from qmarko.instance import generate_instance
    from qmarko.oracle import classical_baseline
    from qmarko.qaoa import ScheduleConfig

    inst = generate_instance(3, 1, seed=2)
    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "2", "--out", instance]) == EXIT_OK
    for bad in (float("nan"), float("inf")):
        for build in (build_slack_ancilla_qubo, build_penalty_qubo, build_cardinality_slack_qubo,
                      classical_baseline):
            with pytest.raises(ValueError):
                build(inst, bad)
        with pytest.raises(ValueError):
            ScheduleConfig(beta_penalty_init=bad)
        runs = [("slack-qaoa", "--beta-init")] + [
            (method, "--penalty")
            for method in ("penalty-qaoa", "cardinality-slack-qaoa", "classical-baseline")
        ]
        for method, flag in runs:
            out = tmp_path / f"{method}_{bad}"
            code = main(["solve", "--instance", instance, "--method", method, flag, str(bad),
                         "--max-iter", "4", "--out", str(out)])
            assert code == EXIT_INVALID, (method, bad)
            assert not out.exists(), (method, bad)
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("method, flag", [
    ("penalty-qaoa", "--penalty"),
    ("cardinality-slack-qaoa", "--penalty"),
    ("classical-baseline", "--penalty"),
    ("slack-qaoa", "--beta-init"),
])
def test_penalty_weights_that_overflow_exit_2_without_a_record(tmp_path, capsys, method, flag):
    # 1e308 passes the positive-and-finite check but overflows the program
    # (2 * weight * offset, Q + Q^T) or the relaxed objective.
    from qmarko.cli import EXIT_INVALID

    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "1", "--out", instance]) == EXIT_OK
    run = [flag, "1e308", "--max-iter", "8", "--doubling-interval", "4", "--shots", "32"]
    out = tmp_path / "solve"
    assert main(["solve", "--instance", instance, "--method", method, "--seed", "1", *run,
                 "--out", str(out)]) == EXIT_INVALID
    assert not out.exists()
    assert "penalty weight" in capsys.readouterr().err
    # A sweep cell records the error instead, and the sweep goes on.
    sweep = tmp_path / "sweep"
    assert main(["sweep", "--instance", instance, "--methods", f"oracle,{method}",
                 "--seeds", "1", *run, "--out", str(sweep)]) == EXIT_OK
    cell = sweep / f"{method}_seed1"
    assert not (cell / "record.json").exists()
    assert (cell / "error.txt").read_text().startswith("ValueError: ")
    assert (sweep / "oracle_seed1" / "record.json").exists()
    capsys.readouterr()


def test_a_rerun_sweep_cell_holds_only_its_own_outcome(tmp_path, capsys):
    # A cell that fails after a success keeps neither the record nor the
    # histogram file of the earlier run, even once a report has run on it;
    # a cell that succeeds after a failure keeps no error, nor the trace.csv
    # an older version wrote.
    sweep = tmp_path / "sweep"
    cell = sweep / "penalty-qaoa_seed1"
    histogram = sweep / "hist_penalty-qaoa_seed1.csv"
    run = ["sweep", "--n", "3", "--k", "1", "--methods", "penalty-qaoa", "--seeds", "1",
           "--max-iter", "10", "--out", str(sweep)]
    assert main(run) == EXIT_OK
    assert [path.name for path in cell.iterdir()] == ["record.json"]
    assert main(["report", "--run-dir", str(sweep)]) == EXIT_OK
    assert histogram.exists()
    assert main([*run, "--penalty", "1e308"]) == EXIT_OK
    assert (cell / "error.txt").read_text().startswith("ValueError: ")
    assert not (cell / "record.json").exists()
    assert [path.name for path in cell.iterdir()] == ["error.txt"]
    assert main(["report", "--run-dir", str(sweep)]) == EXIT_OK
    assert not histogram.exists()
    (cell / "trace.csv").write_text("iteration,expectation,beta_penalty,feasible_fraction\n")
    assert main(run) == EXIT_OK
    assert not (cell / "error.txt").exists()
    assert [path.name for path in cell.iterdir()] == ["record.json"]
    assert histogram.exists()
    capsys.readouterr()


def test_a_print_config_dump_reads_back_as_the_same_settings(tmp_path, capsys):
    # seed, penalty and mixer have no default: a dump prints them as null
    # when they are unset, and a config file's null leaves them unset.
    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "3", "--out", instance]) == EXIT_OK
    runs = {
        "generate": (["generate"], ["--n", "4", "--k", "2", "--seed", "5", "--q-risk", "5"]),
        "solve": (["solve", "--instance", instance, "--method", "oracle"],
                  ["--seed", "2", "--p", "3", "--shots", "64"]),
        "sweep": (["sweep", "--methods", "oracle", "--seeds", "1"],
                  ["--n", "3", "--k", "1", "--max-iter", "9", "--jobs", "2"]),
    }
    for command, (argv, flags) in runs.items():
        capsys.readouterr()
        out = tmp_path / f"{command}-flags"
        assert main([*argv, *flags, "--print-config", "--out", str(out)]) == EXIT_OK, command
        dump, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        if command != "generate":
            assert dump["penalty"] is None and dump["mixer"] is None, command
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(dump))
        out = tmp_path / f"{command}-config"
        assert main([*argv, "--config", str(config), "--print-config",
                     "--out", str(out)]) == EXIT_OK, command
        again, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        assert again == dump, command


def test_null_and_list_settings_exit_2_without_writing(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    runs = []
    for key in ("n", "k", "lambda_weight", "q_risk"):
        runs += [("generate", {key: bad}) for bad in (None, [1])]
    for key in ("n", "k", "jobs"):
        runs += [("sweep", {key: bad}) for bad in (None, [1])]
    runs.append(("sweep", [1]))  # the file itself must hold an object
    for i, (command, config) in enumerate(runs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / f"out{i}"
        if command == "generate":
            argv = ["generate", "--out", str(out / "instance.json")]
        else:
            argv = ["sweep", "--methods", "oracle", "--seeds", "1", "--out", str(out)]
        assert main([*argv, "--config", str(path)]) == EXIT_INVALID, (command, config)
        assert not out.exists(), (command, config)
    capsys.readouterr()


def test_inputs_are_checked_before_any_file_is_written(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    wide = str(tmp_path / "wide.json")  # 13 assets: 26 slack-qaoa qubits, over MAX_QUBITS
    assert main(["generate", "--n", "13", "--k", "2", "--seed", "1", "--out", wide]) == EXIT_OK
    small = str(tmp_path / "small.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "1", "--out", small]) == EXIT_OK
    sweep = ["sweep", "--methods", "oracle", "--seeds", "1"]
    runs = [
        [*sweep, "--n", "0", "--k", "1"],
        [*sweep, "--n", "3", "--k", "4"],
        [*sweep, "--instance", str(tmp_path / "missing.json")],
        # The file sets n and k: a flag that would size another is refused.
        [*sweep, "--instance", small, "--n", "7", "--k", "2"],
        [*sweep, "--instance", small, "--k", "1"],
        ["solve", "--instance", wide, "--method", "slack-qaoa"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--out", str(out)]) == EXIT_INVALID, argv
        assert not out.exists(), argv
    capsys.readouterr()


def test_sweep_refuses_a_register_over_the_limit_before_writing(tmp_path, capsys):
    # A cell would only record the error, so sweep exits 2 as solve does:
    # 13 assets give slack-qaoa 26 qubits, and 25 assets give the oracle a
    # 2^25-entry table and penalty-qaoa 25 qubits.
    from qmarko.cli import EXIT_INVALID
    from qmarko.simulate import MAX_QUBITS

    runs = [
        ("13", "slack-qaoa,oracle", f"slack-qaoa would tabulate 26 variables (limit {MAX_QUBITS})"),
        (str(MAX_QUBITS + 1), "oracle", f"oracle would tabulate {MAX_QUBITS + 1} variables"),
        (str(MAX_QUBITS + 1), "classical-baseline,penalty-qaoa", "penalty-qaoa would tabulate"),
    ]
    for i, (n, methods, message) in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main(["sweep", "--n", n, "--k", "2", "--methods", methods, "--seeds", "1",
                     "--out", str(out)]) == EXIT_INVALID, methods
        assert not out.exists(), methods
        assert message in capsys.readouterr().err, methods


def test_sweep_grid_lists_each_entry_once(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    grids = [(",", "1"), ("oracle,oracle", "1"), ("oracle", ","), ("oracle", "1,1")]
    for i, (methods, seeds) in enumerate(grids):
        out = tmp_path / f"sweep{i}"
        code = main(["sweep", "--n", "3", "--k", "1", "--methods", methods, "--seeds", seeds,
                     "--out", str(out)])
        assert code == EXIT_INVALID, (methods, seeds)
        assert not out.exists(), (methods, seeds)
    capsys.readouterr()


def test_integer_settings_accept_only_integers(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "3", "--out", instance]) == EXIT_OK
    config = tmp_path / "config.json"

    def solve(settings, out, *flags):
        config.write_text(json.dumps(settings))
        return main(["solve", "--instance", instance, "--method", "oracle",
                     "--config", str(config), *flags, "--out", str(tmp_path / out)])

    for key in ("shots", "p", "max_iter"):
        for bad in (1.5, True):
            assert solve({key: bad}, f"{key}_{bad}") == EXIT_INVALID, (key, bad)
            assert not (tmp_path / f"{key}_{bad}").exists(), (key, bad)
    capsys.readouterr()
    # Whatever int() takes without losing a digit still converts.
    assert solve({"shots": "16", "p": 1.0, "max_iter": "6"}, "ok", "--print-config") == EXIT_OK
    printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert (printed["shots"], printed["p"], printed["max_iter"]) == (16, 1, 6)


def _flag_in(flag: str, text: str) -> bool:
    """Whether `text` names the flag itself, not a longer one it starts (--seed, --seeds)."""
    import re

    return re.search(re.escape(flag) + r"(?![\w-])", text) is not None


def test_help_lists_one_flag_per_declared_setting(capsys):
    qaoa_flags = ["--p", "--optimizer", "--penalty", "--beta-init", "--doubling-interval",
                  "--shots", "--feasibility-target", "--max-iter", "--mixer"]
    declared = {
        ("generate", "--help"): ["--n", "--k", "--seed", "--lambda-weight", "--q-risk"],
        ("solve", "--help"): ["--seed", *qaoa_flags],
        ("sweep", "--help"): ["--n", "--k", *qaoa_flags, "--jobs"],
        ("report", "--help"): ["--run-dir"],
        ("--help",): ["generate", "solve", "sweep", "report"],
    }
    for argv, flags in declared.items():
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert _flag_in(flag, text), (argv, flag)
        if argv[0] == "sweep":
            assert not _flag_in("--seed", text)
            assert _flag_in("--seeds", text)


def _outcome(capsys, argv) -> tuple:
    """main(argv)'s exit code (or SystemExit code), stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"], ["generate", "--help"], ["solve", "--help"], ["sweep", "--help"],
    ["report", "--help"], [], ["reprot", "--run-dir", "x"], ["report", "--bogus"],
    ["sweep", "--seed", "1", "--methods", "oracle", "--seeds", "1", "--out", "x"],
    ["solve", "--instance", "x.json", "--method", "oracle"], ["--"],
    ["--", "report", "--run-dir", "x"],
    # A named command that ends in an error or in the top-level usage: with
    # one subparser built, that usage still lists every command.
    ["report", "--run-dir", "x", "extra"], ["report"], ["sweep", "--jobs"],
    ["generate", "--out", "x", "--n", "3", "extra"],
])
def test_main_parses_as_the_full_parser_does(argv, capsys, monkeypatch):
    own = _outcome(capsys, argv)
    full_build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_build())
    assert own == _outcome(capsys, argv)
    assert own[0] == ("SystemExit", 0 if "--help" in argv else 2)


def _flags_by_command(parser: argparse.ArgumentParser) -> dict:
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return {name: {flag for action in sp._actions for flag in action.option_strings}
            for name, sp in commands.choices.items()}


def test_a_parser_holds_only_the_flags_of_its_command(monkeypatch):
    full = _flags_by_command(cli.build_parser())
    assert list(full) == ["generate", "solve", "sweep", "report"]
    assert full["report"] == {"-h", "--help", "--run-dir"}
    for command in ("generate", "solve", "sweep"):
        assert {"--config", "--print-config", "--out"} <= full[command], command
    for command in full:
        assert _flags_by_command(cli.build_parser(command)) == {command: full[command]}, command
    # main builds the parser of the command argv[0] names, else the full one.
    built_for = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built_for.append(command) or build(command))
    for argv in (["report", "--help"], ["--help"], ["reprot"], ["--", "report"]):
        with pytest.raises(SystemExit):
            main(argv)
    assert built_for == ["report", None, None, None]


def test_sweep_has_no_seed_setting(tmp_path, capsys):
    out = tmp_path / "flag"
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--seed", "5", "--seeds", "1", "--methods", "oracle", "--out", str(out)])
    assert exit_info.value.code == 2
    assert not out.exists()
    capsys.readouterr()

    # A shared config may hold a seed; no sweep cell reads it.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "n": 3, "k": 1}))
    out = tmp_path / "config"
    assert main(["sweep", "--config", str(config), "--seeds", "1", "--methods", "oracle",
                 "--print-config", "--out", str(out)]) == EXIT_OK
    printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert "seed" not in printed
    assert json.loads((out / "oracle_seed1" / "record.json").read_text())["seed"] == 1


def test_sweep_on_an_instance_file_prints_no_size_setting(tmp_path, capsys):
    # The file sets n and k; the defaults (n = 3, k = 1) or a config file's
    # would name sizes the sweep does not run.
    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "5", "--k", "2", "--seed", "1", "--out", instance]) == EXIT_OK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "k": 1}))
    for extra in ([], ["--config", str(config)]):
        out = tmp_path / f"out{len(extra)}"
        capsys.readouterr()
        assert main(["sweep", "--instance", instance, "--seeds", "1", "--methods", "oracle",
                     "--print-config", *extra, "--out", str(out)]) == EXIT_OK
        printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        assert "n" not in printed and "k" not in printed, extra
        bitstring = json.loads((out / "oracle_seed1" / "record.json").read_text())["bitstring"]
        assert len(bitstring) == 5 and bitstring.count("1") <= 2, extra


def test_feasibility_target_is_a_flag(tmp_path, capsys):
    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "3", "--out", instance]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--instance", instance, "--method", "oracle",
                 "--feasibility-target", "0.5", "--print-config",
                 "--out", str(tmp_path / "run")]) == EXIT_OK
    printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    assert printed["feasibility_target"] == 0.5


def test_bad_choice_flags_exit_2_through_the_settings_check(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "3", "--out", instance]) == EXIT_OK
    capsys.readouterr()
    for flag, bad in (("--optimizer", "bfgs"), ("--mixer", "sideways")):
        for argv in (["solve", "--instance", instance, "--method", "slack-qaoa"],
                     ["sweep", "--n", "3", "--k", "1", "--methods", "slack-qaoa", "--seeds", "1"]):
            out = tmp_path / f"{argv[0]}_{bad}"
            assert main([*argv, flag, bad, "--out", str(out)]) == EXIT_INVALID, (argv, flag)
            assert not out.exists(), (argv, flag)
            assert f"error: invalid setting {flag[2:]}='{bad}'" in capsys.readouterr().err


def test_solve_checks_the_method_before_loading_the_instance(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    out = tmp_path / "run"
    assert main(["solve", "--instance", str(tmp_path / "missing.json"), "--method", "annealing",
                 "--out", str(out)]) == EXIT_INVALID
    assert not out.exists()
    assert "annealing" in capsys.readouterr().err


def test_negative_seeds_exit_2_without_writing(tmp_path, capsys, monkeypatch):
    from qmarko.cli import EXIT_INVALID

    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "3", "--out", instance]) == EXIT_OK
    solve = ["solve", "--instance", instance, "--method", "oracle"]
    runs = [
        ["sweep", "--instance", instance, "--methods", "oracle,penalty-qaoa", "--seeds", "-1"],
        ["sweep", "--instance", instance, "--methods", "oracle", "--seeds", "1,-2"],
        [*solve, "--seed", "-1"],
        ["generate", "--n", "3", "--k", "1", "--seed", "-1"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--out", str(out)]) == EXIT_INVALID, argv
        assert not out.exists(), argv
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": -3}))
    out = tmp_path / "config"
    assert main([*solve, "--config", str(config), "--out", str(out)]) == EXIT_INVALID
    assert not out.exists()
    monkeypatch.setenv("QMARKO_SEED", "-1")
    out = tmp_path / "env"
    assert main([*solve, "--out", str(out)]) == EXIT_INVALID
    assert not out.exists()
    assert "non-negative" in capsys.readouterr().err


def test_jobs_are_capped_by_the_number_of_cells(tmp_path, capsys, monkeypatch):
    pools = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    sweep = ["sweep", "--n", "3", "--k", "1", "--methods", "oracle", "--jobs", "500"]
    assert main([*sweep, "--seeds", "1,2", "--out", str(tmp_path / "two")]) == EXIT_OK
    assert pools == [2]
    assert main([*sweep, "--seeds", "1", "--out", str(tmp_path / "one")]) == EXIT_OK
    assert pools == [2]  # a single cell runs serially
    with (tmp_path / "two" / "summary.csv").open() as fh:
        assert [row["seed"] for row in csv.DictReader(fh)] == ["1", "2"]
    capsys.readouterr()


def test_importing_the_cli_loads_no_process_pool():
    # Only a sweep with more than one worker imports ProcessPoolExecutor,
    # and with it multiprocessing; a fresh interpreter shows what the
    # import alone loads.
    src = str(Path(cli.__file__).parents[1])
    probe = "import sys, qmarko.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout == "False\n"


def test_config_key_that_names_no_setting_exits_2(tmp_path, capsys):
    from qmarko.cli import EXIT_INVALID

    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "3", "--k", "1", "--seed", "3", "--out", instance]) == EXIT_OK
    solve = ["solve", "--instance", instance, "--method", "oracle"]
    sweep = ["sweep", "--n", "3", "--k", "1", "--methods", "oracle", "--seeds", "1"]
    bad = [(solve, {"max_iters": 50}), (sweep, {"max_iters": 50}),
           (sweep, {"methods": "oracle"}), (sweep, {"seeds": [1]}), (sweep, {"out": "elsewhere"}),
           (["generate"], {"n": 3, "q_risks": 0.5})]
    for i, (argv, settings) in enumerate(bad):
        config = tmp_path / f"config{i}.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / f"out{i}"
        assert main([*argv, "--config", str(config), "--out", str(out)]) == EXIT_INVALID, settings
        assert not out.exists(), settings
        (key,) = set(settings) - {"n"}
        assert key in capsys.readouterr().err, settings

    # One config serves every command: each reads its own settings.
    shared = tmp_path / "shared.json"
    shared.write_text(json.dumps({"n": 3, "k": 1, "seed": 4, "q_risk": 0.5, "max_iter": 6,
                                  "jobs": 1}))
    assert main(["generate", "--config", str(shared),
                 "--out", str(tmp_path / "shared" / "instance.json")]) == EXIT_OK
    assert main([*solve, "--config", str(shared), "--out", str(tmp_path / "shared_solve")]) \
        == EXIT_OK
    assert main([*sweep, "--config", str(shared), "--out", str(tmp_path / "shared_sweep")]) \
        == EXIT_OK
    # A sweep on an instance file takes its size from the file, not the config.
    assert main(["sweep", "--instance", instance, "--methods", "oracle", "--seeds", "1",
                 "--config", str(shared), "--out", str(tmp_path / "shared_file")]) == EXIT_OK
    capsys.readouterr()


def test_slack_qaoa_refuses_caps_the_encoding_cannot_close(tmp_path, capsys):
    from dataclasses import replace

    import numpy as np

    from qmarko.cli import EXIT_INVALID
    from qmarko.instance import generate_instance, to_json

    inst = generate_instance(4, 2, 3)
    uncapped = np.flatnonzero(inst.alpha == 0.0)[0]
    fractional = inst.alpha.copy()
    fractional[uncapped] = 0.5
    over_k = np.ones(4)
    over_k[uncapped] = 0.0  # three caps at 1, k = 2
    for name, alpha in (("fractional", fractional), ("over_k", over_k)):
        path = tmp_path / f"{name}.json"
        path.write_text(to_json(replace(inst, alpha=alpha)))
        runs = (["solve", "--instance", str(path), "--method", "slack-qaoa"],
                ["sweep", "--instance", str(path), "--methods", "oracle,slack-qaoa",
                 "--seeds", "1"])
        for argv in runs:
            out = tmp_path / f"{name}_{argv[0]}"
            assert main([*argv, "--out", str(out)]) == EXIT_INVALID, (name, argv)
            assert not out.exists(), (name, argv)
            assert "slack-ancilla encoding" in capsys.readouterr().err
        # Methods that do not encode the caps with slack bits still run.
        out = tmp_path / f"{name}_oracle"
        assert main(["sweep", "--instance", str(path), "--methods", "oracle", "--seeds", "1",
                     "--out", str(out)]) == EXIT_OK
        assert (out / "oracle_seed1" / "record.json").exists()
    capsys.readouterr()


def test_records_and_histogram_files_hold_the_asset_marginal(tmp_path, capsys):
    from helpers import final_register, record_json
    from qmarko.instance import from_json
    from qmarko.qaoa import ScheduleConfig, run_schedule

    n, seed = 4, 1
    out = tmp_path / "sweep"
    assert main([
        "sweep", "--n", str(n), "--k", "2", "--methods", ",".join(METHODS),
        "--seeds", str(seed), "--max-iter", "12", "--doubling-interval", "6",
        "--shots", "64", "--out", str(out),
    ]) == EXIT_OK
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    capsys.readouterr()

    for method in METHODS:
        run_id = f"{method}_seed{seed}"
        histogram = json.loads((out / run_id / "record.json").read_text())["histogram"]
        with (out / f"hist_{run_id}.csv").open() as fh:
            rows = list(csv.reader(fh))[1:]
        for keys in (list(histogram), [bits for bits, _ in rows]):
            assert all(len(bits) == n and set(bits) <= {"0", "1"} for bits in keys), method
        if method.endswith("-qaoa"):
            assert len(histogram) == 1 << n, method
            # Its histogram file lists entries of that marginal.
            assert rows and {bits for bits, _ in rows} <= set(histogram), method

    # The slack cell's whole record is smaller than the 2^(2n)-entry register
    # histogram of the same run would be on its own.
    record_text = (out / f"slack-qaoa_seed{seed}" / "record.json").read_text()
    inst = from_json((out / f"instance_seed{seed}.json").read_text())
    config = ScheduleConfig(doubling_interval=6, feasibility_shots=64, max_iterations=12)
    rerun = run_schedule(inst, config, seed=seed)
    assert json.loads(json.dumps(record_json(rerun))) == json.loads(record_text)
    register = final_register(rerun, inst)
    assert len(register) == 1 << (2 * n)
    assert len(record_text) < len(json.dumps(register, indent=2))
