import csv
import json
import math

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
