"""record.json's writer and the histogram files `qmarko report` copies from it."""

import csv
import json

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmarko import cli
from qmarko.cli import EXIT_INVALID, EXIT_NO_FEASIBLE, EXIT_OK, METHODS, SUMMARY_COLUMNS, main
from qmarko.instance import generate_instance
from qmarko.qaoa import (
    ScheduleConfig,
    run_baseline_penalty_qaoa,
    run_cardinality_slack_qaoa,
    run_schedule,
)

FAST = ["--max-iter", "12", "--doubling-interval", "6", "--shots", "64"]


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def test_records_and_histogram_files_of_every_method(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "4", "--k", "2", "--methods", ",".join(METHODS),
                 "--seeds", "1", *FAST, "--out", str(out)]) == EXIT_OK
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    for method in METHODS:
        text = (out / f"{method}_seed1" / "record.json").read_text()
        doc = json.loads(text)
        assert cli._record_text(doc) == _dumps(doc) == text, method
        # hist_<cell>.csv holds each probability's text as the record does.
        histogram = json.loads(text, parse_float=str)["histogram"]
        with (out / f"hist_{method}_seed1.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [["bitstring", "probability"], *map(list, histogram.items())], method


def test_record_writer_matches_json_dumps_on_a_register_wide_penalty_record():
    record = run_baseline_penalty_qaoa(generate_instance(8, 3, 2), p=1, budget=6, seed=2)
    doc = record.to_dict()
    assert len(doc["histogram"]) == 1 << 8
    assert cli._record_text(record.document()) == cli._record_text(doc) == _dumps(doc)


@pytest.mark.parametrize("histogram", [
    {},
    {"0": float("nan"), "1": 0.5},
    {"00": float("inf"), "01": float("-inf")},
    {"ab": 0.5, "10": 0.5},
    {"0\n1": 0.5, '"': 0.25, "\\": 0.25, "é": 0.0},
    {"\ud800": 0.5, "1": 0.5},
    {1: 0.5, "1": 0.5},
    {"0": 1, "1": True, "10": None},
    {"0": 1e308, "1": 1e308},
    {"": 1.0},
    {"01": -0.0, "10": 5e-324, "11": 1e16},
])
def test_record_writer_matches_json_dumps_on_any_histogram(histogram):
    doc = {"method": "x", "histogram": histogram, "trace": [{"a": 1.0}], "value": None}
    assert cli._record_text(doc) == _dumps(doc)


def test_record_writer_finds_only_the_top_level_histogram():
    doc = {"method": '\n  "histogram": {}', "nested": {"histogram": {}},
           "histogram": np.array([0.75, 0.25]), "tail": [{"histogram": {}}]}
    assert cli._record_text(doc) == _dumps(_labelled(doc))
    doc = {"histogram": np.array([0.0, 1.0])}
    assert cli._record_text(doc) == _dumps(_labelled(doc))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.text("01x\"\n", max_size=3) | st.integers(-2, 2),
    st.floats() | st.integers() | st.booleans() | st.none(),
    max_size=6,
))
def test_record_writer_gives_json_dumps_bytes_on_generated_histograms(histogram):
    doc = {"seed": 1, "histogram": histogram, "iterations": 0}
    assert cli._record_text(doc) == _dumps(doc)


def test_solve_and_sweep_write_the_same_record(tmp_path, capsys):
    out = tmp_path / "sweep"
    methods = ("slack-qaoa", "penalty-qaoa", "classical-baseline")
    assert main(["sweep", "--n", "4", "--k", "2", "--methods", ",".join(methods),
                 "--seeds", "3", *FAST, "--out", str(out)]) == EXIT_OK
    for method in methods:
        solved = tmp_path / f"solve_{method}"
        code = main(["solve", "--instance", str(out / "instance_seed3.json"), "--method", method,
                     "--seed", "3", *FAST, "--out", str(solved)])
        assert code in (EXIT_OK, EXIT_NO_FEASIBLE), method
        assert (solved / "record.json").read_bytes() == \
            (out / f"{method}_seed3" / "record.json").read_bytes(), method
    capsys.readouterr()


def _hand_written_run(run_dir, record_text: str):
    """A run directory with one summary row whose record.json is `record_text`."""
    record_dir = run_dir / "oracle_seed1"
    record_dir.mkdir(parents=True)
    (record_dir / "record.json").write_text(record_text)
    with (run_dir / "summary.csv").open("w") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(SUMMARY_COLUMNS), lineterminator="\n")
        writer.writeheader()
        writer.writerow({**dict.fromkeys(SUMMARY_COLUMNS, ""), "method": "oracle", "seed": "1"})
    return record_dir / "record.json"


def test_histogram_files_copy_the_record_text(tmp_path, capsys):
    # JSON numbers keep their text, whatever their form: 1e-5 is not
    # rewritten as repr(1e-05). Numeric text and integers are accepted.
    run_dir = tmp_path / "hand"
    _hand_written_run(run_dir, '{"histogram": {"000": 1e-5, "001": 2.5E-1, "010": 0.12500, '
                               '"011": 0, "100": "0.375", "101": -0.0, "110": 1.2e+2}}\n')
    assert main(["report", "--run-dir", str(run_dir)]) == EXIT_OK
    assert (run_dir / "hist_oracle_seed1.csv").read_text() == (
        "bitstring,probability\n000,1e-5\n001,2.5E-1\n010,0.12500\n011,0\n100,0.375\n"
        "101,-0.0\n110,1.2e+2\n"
    )

    # Values float() takes that are not bare number text are written as
    # repr(float(value)), as before.
    run_dir = tmp_path / "other"
    _hand_written_run(run_dir, '{"histogram": {"0": true, "1": NaN, "10": " 0.5\\n", '
                               '"11": "\\u0661"}}')
    assert main(["report", "--run-dir", str(run_dir)]) == EXIT_OK
    assert (run_dir / "hist_oracle_seed1.csv").read_text() == (
        "bitstring,probability\n0,1.0\n1,nan\n10,0.5\n11,1.0\n"
    )

    # A record without a histogram gives a header-only file, as before.
    run_dir = tmp_path / "none"
    _hand_written_run(run_dir, '{"method": "oracle"}')
    assert main(["report", "--run-dir", str(run_dir)]) == EXIT_OK
    assert (run_dir / "hist_oracle_seed1.csv").read_text() == "bitstring,probability\n"
    capsys.readouterr()


@pytest.mark.parametrize("record_text", [
    '{"histogram": {"100": null}}',
    '{"histogram": {"100": [0.5]}}',
    '{"histogram": {"100": "half"}}',
    '{"histogram": [0.5, 0.5]}',
    '[1, 2]',
    '{"histogram": {"100": 0.5}',
])
def test_report_exits_2_on_a_malformed_record(tmp_path, capsys, record_text):
    record_path = _hand_written_run(tmp_path / "run", record_text)
    assert main(["report", "--run-dir", str(tmp_path / "run")]) == EXIT_INVALID
    assert str(record_path) in capsys.readouterr().err
    assert not (tmp_path / "run" / "hist_oracle_seed1.csv").exists()


def _labelled(doc: dict) -> dict:
    """`doc` with its marginal array keyed by n-bit labels, qubit 0 first,
    labelled here without the package's labeller."""
    marginal = doc["histogram"]
    bits = marginal.size.bit_length() - 1
    labels = [format(index, f"0{bits}b")[::-1] for index in range(marginal.size)]
    return {**doc, "histogram": dict(zip(labels, marginal.tolist()))}


@st.composite
def _marginals(draw):
    """Arrays of 2^1 ... 2^14 probabilities, below, at and above one writer
    chunk, with 0.0, the smallest subnormal and 1.0 forced in."""
    size = 1 << draw(st.integers(1, 14))
    marginal = draw(arrays(np.float64, size, elements=st.floats(0, 1), fill=st.floats(0, 1)))
    forced = [0.0, 5e-324, 1.0][:size]
    positions = draw(st.lists(st.integers(0, size - 1), min_size=len(forced),
                              max_size=len(forced), unique=True))
    marginal[positions] = forced
    return marginal


# No shrink phase: a failure turns on the size, a power of two, and shrinking
# up to 2^14 floats one at a time takes minutes.
@settings(max_examples=60, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_marginals())
def test_record_writer_formats_a_marginal_array_as_json_dumps_of_its_labels(marginal):
    doc = {"method": "x", "histogram": marginal, "trace": [{"a": 1.0}], "value": None}
    assert cli._record_text(doc) == _dumps(_labelled(doc))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_record_writer_labels_a_non_finite_marginal_for_json_dumps(value):
    marginal = np.full(1 << 13, 1.0 / (1 << 13))
    marginal[4097] = value
    doc = {"seed": 1, "histogram": marginal, "iterations": 0}
    assert cli._record_text(doc) == _dumps(_labelled(doc))


@pytest.mark.parametrize("run", [
    lambda inst: run_schedule(inst, ScheduleConfig(doubling_interval=6, feasibility_shots=64,
                                                   max_iterations=12), seed=2),
    lambda inst: run_baseline_penalty_qaoa(inst, p=1, budget=6, seed=2),
    lambda inst: run_cardinality_slack_qaoa(inst, p=1, budget=6, seed=2),
], ids=["slack-qaoa", "penalty-qaoa", "cardinality-slack-qaoa"])
def test_record_writer_gives_the_same_text_for_the_array_document(run):
    record = run(generate_instance(4, 2, 5))
    assert isinstance(record.document()["histogram"], np.ndarray)
    assert cli._record_text(record.document()) == cli._record_text(record.to_dict())


def test_report_writes_nothing_when_a_later_record_is_malformed(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "3", "--k", "1", "--methods", "oracle,penalty-qaoa",
                 "--seeds", "1", *FAST, "--out", str(out)]) == EXIT_OK
    second = out / "penalty-qaoa_seed1" / "record.json"
    good_record = second.read_text()
    second.write_text('{"histogram": {"100": null}}')
    assert main(["report", "--run-dir", str(out)]) == EXIT_INVALID
    assert str(second) in capsys.readouterr().err
    assert not [path.name for path in out.iterdir()
                if path.name == "report.md" or path.name.startswith("hist_") or ".tmp." in path.name]

    # An earlier report is left as it was.
    second.write_text(good_record)
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    assert {"report.md", "hist_oracle_seed1.csv", "hist_penalty-qaoa_seed1.csv"} <= set(before)
    second.write_text('{"histogram": {"100": null}}')
    assert main(["report", "--run-dir", str(out)]) == EXIT_INVALID
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before
    capsys.readouterr()
