import csv
import json
import math

import pytest

from qmarko.bitstrings import string_to_index
from qmarko.cli import EXIT_OK, METHODS, main

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
        with (out / f"hist_{run_id}.csv").open() as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == ["bitstring", "probability"]
        expected = [
            [bits, repr(float(histogram[bits]))]
            for bits in sorted(histogram, key=string_to_index)
        ]
        assert lines[1:] == expected
        assert math.isclose(sum(float(p) for _, p in lines[1:]), 1.0, abs_tol=1e-9)


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
    sweep = ["sweep", "--methods", "oracle", "--seeds", "1"]
    runs = [
        [*sweep, "--n", "0", "--k", "1"],
        [*sweep, "--n", "3", "--k", "4"],
        [*sweep, "--instance", str(tmp_path / "missing.json")],
        ["solve", "--instance", wide, "--method", "slack-qaoa"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"out{i}"
        assert main([*argv, "--out", str(out)]) == EXIT_INVALID, argv
        assert not out.exists(), argv
    capsys.readouterr()


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
        "generate": ["--n", "--k", "--seed", "--lambda-weight", "--q-risk"],
        "solve": ["--seed", *qaoa_flags],
        "sweep": ["--n", "--k", *qaoa_flags, "--jobs"],
    }
    for command, flags in declared.items():
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        text = capsys.readouterr().out
        for flag in flags:
            assert _flag_in(flag, text), (command, flag)
        if command == "sweep":
            assert not _flag_in("--seed", text)
            assert _flag_in("--seeds", text)


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
    from qmarko import cli

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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    sweep = ["sweep", "--n", "3", "--k", "1", "--methods", "oracle", "--jobs", "500"]
    assert main([*sweep, "--seeds", "1,2", "--out", str(tmp_path / "two")]) == EXIT_OK
    assert pools == [2]
    assert main([*sweep, "--seeds", "1", "--out", str(tmp_path / "one")]) == EXIT_OK
    assert pools == [2]  # a single cell runs serially
    with (tmp_path / "two" / "summary.csv").open() as fh:
        assert [row["seed"] for row in csv.DictReader(fh)] == ["1", "2"]
    capsys.readouterr()


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
    from helpers import final_register
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
            assert len(histogram) == len(rows) == 1 << n, method

    # The slack cell's whole record is smaller than the 2^(2n)-entry register
    # histogram of the same run would be on its own.
    record_text = (out / f"slack-qaoa_seed{seed}" / "record.json").read_text()
    inst = from_json((out / f"instance_seed{seed}.json").read_text())
    config = ScheduleConfig(doubling_interval=6, feasibility_shots=64, max_iterations=12)
    rerun = run_schedule(inst, config, seed=seed)
    assert json.loads(json.dumps(rerun.to_dict())) == json.loads(record_text)
    register = final_register(rerun, inst)
    assert len(register) == 1 << (2 * n)
    assert len(record_text) < len(json.dumps(register, indent=2))
