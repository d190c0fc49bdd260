"""record.json's writer; the hist_<cell>.csv a sweep cell writes after its
record, each file through `_write_atomic`, so a record that fails midway (a
non-finite marginal among others) leaves neither; its rows (a marginal's
entries above qaoa.REPORTING_THRESHOLD in basis-index order, else its most
probable entry; a dict histogram's every entry), each its record text; and
summary.csv as `qmarko report` reads it."""

import codecs
import csv
import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import record_json
from qmarko import cli
from qmarko.cli import EXIT_INVALID, EXIT_NO_FEASIBLE, EXIT_OK, METHODS, SUMMARY_COLUMNS, main
from qmarko.instance import generate_instance, to_json
from qmarko.qaoa import ScheduleConfig, run_fixed_penalty, run_schedule

FAST = ["--max-iter", "12", "--doubling-interval", "6", "--shots", "64"]


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _record_text(doc) -> str:
    """record.json's text: the writer's chunks, joined, which are ASCII bytes."""
    return b"".join(cli._record_chunks(doc)).decode("ascii")


_INSTANCE = to_json(generate_instance(1, 1, 0))


def _run_cell(doc, sweep: Path) -> Path:
    """Run the sweep cell `sweep`/x, whose method returns `doc`; its directory."""
    with mock.patch.dict(METHODS, oracle=(lambda *_: doc, None)):
        cli._run_cell(("oracle", 1, _INSTANCE, {"penalty": None}, str(sweep / "x")))
    return sweep / "x"


def _written(doc) -> tuple[str, str]:
    """The record.json and hist_<cell>.csv texts a sweep cell writes for `doc`;
    a cell that fails raises the text of its error.txt."""
    with tempfile.TemporaryDirectory() as tmp:
        cell = _run_cell(doc, Path(tmp))
        if (cell / "error.txt").exists():
            raise RuntimeError((cell / "error.txt").read_text())
        return (cell / "record.json").read_text(), (Path(tmp) / "hist_x.csv").read_text()


def _csv(histogram: dict) -> str:
    """hist_<cell>.csv of a labelled histogram: each probability as its repr."""
    return "bitstring,probability\n" + "".join(f"{key},{p!r}\n" for key, p in histogram.items())


def _reportable(histogram: dict) -> dict:
    """The entries of a labelled marginal (values floats or their texts) that
    hist_<cell>.csv lists: those above 1e-3 in order, else the first most
    probable one."""
    above = {key: p for key, p in histogram.items() if float(p) > 1e-3}
    top = max(histogram, key=lambda key: float(histogram[key]))
    return above or {top: histogram[top]}


def test_records_and_histogram_files_of_every_method(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "4", "--k", "2", "--methods", ",".join(METHODS),
                 "--seeds", "1", *FAST, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    for method in METHODS:
        text = (out / f"{method}_seed1" / "record.json").read_text()
        doc = json.loads(text)
        assert _record_text(doc) == _dumps(doc) == text, method
        # hist_<cell>.csv holds its entries' texts as the record does: a
        # marginal's reportable entries, a dict histogram whole.
        histogram = json.loads(text, parse_float=str)["histogram"]
        if method.endswith("-qaoa"):
            histogram = _reportable(histogram)
        with (out / f"hist_{method}_seed1.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [["bitstring", "probability"], *map(list, histogram.items())], method


@pytest.mark.parametrize("method", METHODS)
def test_a_cell_holds_only_its_record_and_the_record_holds_the_trace(tmp_path, capsys, method):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "3", "--k", "1", "--methods", method, "--seeds", "1",
                 *FAST, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    cell = out / f"{method}_seed1"
    assert [path.name for path in cell.iterdir()] == ["record.json"]
    doc = json.loads((cell / "record.json").read_text())
    if method == "oracle":
        assert doc["iterations"] == 0
    elif method == "classical-baseline":
        assert len(doc["objective_trace"]) == doc["iterations"] > 0
        assert doc["penalty"] == METHODS[method][1]
    else:
        trace = doc["trace"]
        assert [row["iteration"] for row in trace] == list(range(1, doc["iterations"] + 1))
        assert doc["iterations"] > 0
        if method != "slack-qaoa":
            assert {row["beta_penalty"] for row in trace} == {doc["final_beta_penalty"]}


# record.json's top-level keys for a QAOA arm, in the order they are written.
QAOA_RECORD_KEYS = [
    "method", "seed", "mixer", "optimizer", "initial_params", "final_params",
    "final_beta_penalty", "histogram", "best_feasible", "most_probable", "bitstring",
    "feasible", "value", "feasible_fraction", "sampled_feasible_fraction", "iterations",
    "terminated_by", "trace",
]


def test_the_record_and_summary_contract(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "3", "--k", "1", "--methods", "slack-qaoa,penalty-qaoa",
                 "--seeds", "1", *FAST, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    for method in ("slack-qaoa", "penalty-qaoa"):
        doc = json.loads((out / f"{method}_seed1" / "record.json").read_text())
        assert list(doc) == QAOA_RECORD_KEYS, method
    with (out / "summary.csv").open(newline="") as fh:
        assert next(csv.reader(fh)) == list(SUMMARY_COLUMNS)


def test_record_writer_matches_json_dumps_on_a_register_wide_penalty_record():
    record = run_fixed_penalty(generate_instance(8, 3, 2), "penalty-qaoa", p=1, budget=6, seed=2)
    doc = record_json(record)
    assert len(doc["histogram"]) == 1 << 8
    assert _record_text(record.document()) == _record_text(doc) == _dumps(doc)


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
    # A histogram-shaped dict (any keys and values, the oracle's one-entry
    # histogram among them) on either side of a marginal array: the
    # entries spliced in must leave the rest as json.dumps writes it.
    marginal = np.array([0.125, 0.375, 0.0, 0.5])
    doc = {"method": "x", "best_feasible": {"histogram": histogram}, "histogram": marginal,
           "trace": [histogram], "value": None}
    assert _record_text(doc) == _dumps(_labelled(doc))


def test_record_writer_finds_only_the_top_level_histogram():
    doc = {"method": '\n  "histogram": {}', "nested": {"histogram": {}},
           "histogram": np.array([0.75, 0.25]), "tail": [{"histogram": {}}]}
    assert _record_text(doc) == _dumps(_labelled(doc))
    doc = {"histogram": np.array([0.0, 1.0])}
    assert _record_text(doc) == _dumps(_labelled(doc))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(
    st.text("01x\"\n", max_size=3) | st.integers(-2, 2) | st.just("histogram"),
    st.floats() | st.integers() | st.booleans() | st.none() | st.just({}),
    max_size=6,
), st.sampled_from([2, 8]))
def test_record_writer_gives_json_dumps_bytes_on_generated_histograms(histogram, size):
    # Generated dicts, nested "histogram": {} keys among them, before and
    # after the top-level marginal array: only that one is spliced.
    doc = {"seed": 1, "before": histogram, "histogram": np.full(size, 1.0 / size),
           "iterations": 0, "after": [histogram]}
    assert _record_text(doc) == _dumps(_labelled(doc))


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
    labelled = _labelled(doc)
    assert _written(doc) == (_dumps(labelled), _csv(_reportable(labelled["histogram"])))


def _reprs(values: np.ndarray) -> list[bytes]:
    return [repr(value).encode() for value in values.tolist()]


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(1, 300),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_float_texts_are_repr_of_any_finite_double(values):
    # Every exponent, both signs and subnormals: orjson's text mapped to
    # repr's is repr's, whichever layout orjson picks.
    assert cli._float_reprs(values) == _reprs(values)


@pytest.mark.parametrize("values, pads", [
    # A records-n18 chunk: every probability in [8.6e-7, 4.7e-6].
    (np.random.default_rng(18).uniform(8.6e-7, 4.7e-6, 1 << 12), 1 << 12),
    # The last entry's pad rests on the comma appended after the block.
    (np.array([0.5, 0.25, 3e-7]), 1),
    (np.array([-1.5e-7]), 1),
    # Exponents -10 and -100 next to -6: only -6 and -9 are padded.
    (np.array([1e-6, 1e-10, 2.5e-6, 1e-100, 3e-9, 7e-10]), 3),
    (np.array([0.5, 0.125, 1e-3, 1e-100, 1e-10, 5e-324, 1e16]), 0),
], ids=["every-entry", "last-entry", "negative", "two-digit-neighbours", "no-pad"])
def test_float_texts_pad_exactly_the_one_digit_exponents(values, pads):
    # orjson writes exponents -6 to -9 with one digit: each of those, and
    # no other, gains repr's leading zero.
    block = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b","
    assert len(re.findall(rb"e-[0-9],", block)) == pads
    texts = cli._float_reprs(values)
    assert texts == _reprs(values)
    assert sum(b"e-0" in text for text in texts) == pads


def test_float_texts_are_repr_at_the_layout_boundaries():
    # Where orjson's layout turns from decimal to exponent (1e-5) and
    # repr's does (1e-4), where repr's exponent gains a "+" (1e16), the
    # one-digit exponents orjson writes without repr's leading zero, the
    # smallest subnormal, both zeros and the largest double.
    boundaries = [1e-5, -1e-5, np.nextafter(1e-4, 0), 1e-4, 9.99e-6, 1e-6, -2.5e-7, 1e-8,
                  1e-9, 1e-10, 1e-100, 5e-324, 0.0, -0.0, np.nextafter(1e16, 0), 1e16,
                  -1e16, 1e22, np.finfo(np.float64).max, 0.5, 1.0]
    values = np.array(boundaries)
    assert cli._float_reprs(values) == _reprs(values)
    for value in values:
        assert cli._float_reprs(np.array([value])) == _reprs(np.array([value])), value


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_record_writer_refuses_a_non_finite_marginal(tmp_path, value):
    # JSON has no NaN or Infinity: the writer refuses before its first chunk
    # and leaves no record and no temp file; a sweep cell then writes no
    # histogram file either, only its error.txt.
    marginal = np.full(1 << 13, 1.0 / (1 << 13))
    marginal[4097] = value
    doc = {"seed": 1, "histogram": marginal, "iterations": 0}
    with pytest.raises(ValueError, match="not all finite"):
        next(cli._record_chunks(doc))
    with pytest.raises(ValueError, match="not all finite"):
        cli._write_atomic(tmp_path / "record.json", cli._record_chunks(doc))
    assert list(tmp_path.iterdir()) == []
    cell = _run_cell(doc, tmp_path)
    assert [path.name for path in tmp_path.iterdir()] == ["x"]
    assert [path.name for path in cell.iterdir()] == ["error.txt"]


def test_no_command_writes_a_record_of_a_non_finite_marginal(tmp_path, capsys, monkeypatch):
    # solve exits 2 with no record.json; a sweep cell writes only error.txt.
    def non_finite(inst, method, cfg, penalty):
        return {"method": method, "seed": cfg["seed"], "histogram": np.array([0.5, np.nan])}

    monkeypatch.setitem(METHODS, "oracle", (non_finite, None))
    instance = str(tmp_path / "instance.json")
    assert main(["generate", "--n", "1", "--k", "1", "--out", instance]) == EXIT_OK
    solve = tmp_path / "solve"
    assert main(["solve", "--instance", instance, "--method", "oracle",
                 "--out", str(solve)]) == EXIT_INVALID
    assert "not all finite" in capsys.readouterr().err
    assert list(solve.iterdir()) == []
    out = tmp_path / "sweep"
    assert main(["sweep", "--instance", instance, "--methods", "oracle", "--seeds", "1",
                 "--out", str(out)]) == EXIT_OK
    assert sorted(path.name for path in out.iterdir()) == [
        "instance.json", "oracle_seed1", "summary.csv"]
    assert [path.name for path in (out / "oracle_seed1").iterdir()] == ["error.txt"]
    assert "not all finite" in (out / "oracle_seed1" / "error.txt").read_text()
    capsys.readouterr()


@pytest.mark.parametrize("run", [
    lambda inst: run_schedule(inst, ScheduleConfig(doubling_interval=6, feasibility_shots=64,
                                                   max_iterations=12), seed=2),
    lambda inst: run_fixed_penalty(inst, "penalty-qaoa", p=1, budget=6, seed=2),
    lambda inst: run_fixed_penalty(inst, "cardinality-slack-qaoa", p=1, budget=6, seed=2),
], ids=["slack-qaoa", "penalty-qaoa", "cardinality-slack-qaoa"])
def test_record_writer_gives_the_same_text_for_the_array_document(run):
    record = run(generate_instance(4, 2, 5))
    assert isinstance(record.document()["histogram"], np.ndarray)
    assert _record_text(record.document()) == _record_text(record_json(record))


def test_histogram_files_copy_the_record_text():
    # hist_<cell>.csv holds each probability's text as the record holds it:
    # a whole 1.0, 1e+16 and 120.0 among a marginal's reportable entries, a
    # padded exponent as the most probable of a marginal with none above
    # the threshold, and the oracle's and the classical baseline's
    # one-entry dicts whole.
    for histogram, expected in (
        (np.array([1e-05, 5e-324, -0.0, 1.0, 0.125, 1e16, 2.5e-1, 1.2e+2]),
         [["110", "1.0"], ["001", "0.125"], ["101", "1e+16"], ["011", "0.25"], ["111", "120.0"]]),
        (np.array([5e-324, 2.5e-07, -0.0, 1e-09]), [["10", "2.5e-07"]]),
        ({"0101": 1.0}, [["0101", "1.0"]]),
        ({"110": 1e-05}, [["110", "1e-05"]]),
    ):
        record, rows = _written({"method": "x", "histogram": histogram, "value": None})
        entries = json.loads(record, parse_float=str)["histogram"]
        assert list(csv.reader(rows.splitlines())) == [["bitstring", "probability"], *expected]
        assert all(entries[key] == text for key, text in expected)

    # A dict histogram's probability JSON spells NaN, Infinity or -Infinity
    # is written as repr(float(value)): nan, inf or -inf. A marginal array
    # holding one is refused.
    record, rows = _written({"histogram": {"00": np.nan, "10": np.inf, "01": -np.inf, "11": 0.5}})
    items = json.loads(record, parse_constant=str)["histogram"].items()
    assert rows == "bitstring,probability\n" + "".join(
        f"{key},{float(value)!r}\n" for key, value in items)
    assert "NaN" in record and "nan" in rows
    with pytest.raises(RuntimeError, match="not all finite"):
        _written({"histogram": np.array([np.nan, np.inf, -np.inf, 0.5])})


def _rows(histogram: np.ndarray) -> list[list[str]]:
    """hist_<cell>.csv's rows below its header, as a sweep cell writes them."""
    return list(csv.reader(_written({"method": "x", "histogram": histogram})[1].splitlines()))[1:]


@pytest.mark.parametrize("marginal, rows", [
    # None above the threshold: the most probable entry, the lower index of
    # two that tie.
    (np.array([1e-4, 5e-4, 2e-4, 5e-4]), [["10", "0.0005"]]),
    (np.full(1 << 10, 1.0 / (1 << 10)), [["0" * 10, "0.0009765625"]]),
    # An entry exactly at the threshold is left out; when every entry is at
    # it, none is above, so the first is listed.
    (np.array([1e-3, 0.25, np.nextafter(1e-3, 1), 1e-3]),
     [["10", "0.25"], ["01", "0.0010000000000000002"]]),
    (np.array([1e-3, 1e-3]), [["0", "0.001"]]),
    # Entries above it are listed in basis-index order, not by probability.
    (np.array([1e-4, 0.2, 1e-4, 1e-4, 0.5, 1e-4, 0.3, 1e-4]),
     [["100", "0.2"], ["001", "0.5"], ["011", "0.3"]]),
], ids=["none-above-tie", "none-above-uniform", "exactly-at", "all-at", "index-order"])
def test_histogram_file_lists_the_reportable_entries(marginal, rows):
    assert _rows(marginal) == rows


@pytest.mark.parametrize("run", [
    lambda: run_schedule(generate_instance(4, 2, 5), ScheduleConfig(
        doubling_interval=6, feasibility_shots=64, max_iterations=12), seed=2),
    lambda: run_schedule(generate_instance(5, 2, 1), ScheduleConfig(
        doubling_interval=6, feasibility_shots=64, max_iterations=12), mixer="standard", seed=1),
    lambda: run_fixed_penalty(generate_instance(4, 2, 5), "penalty-qaoa", p=1, budget=6, seed=2),
    lambda: run_fixed_penalty(generate_instance(5, 2, 3), "cardinality-slack-qaoa", p=1,
                              budget=6, seed=3),
    # No entry of this marginal is above the threshold: best_feasible is unset.
    lambda: run_fixed_penalty(generate_instance(12, 3, 1), "penalty-qaoa", p=1, budget=2, seed=1),
], ids=["slack-qaoa", "slack-qaoa-standard", "penalty-qaoa", "cardinality-slack-qaoa",
        "penalty-qaoa-n12"])
def test_histogram_file_lists_the_records_picks(run):
    # best_feasible, when set, is above the threshold, and most_probable is
    # the marginal's first maximum: each is a row of the cell's histogram
    # file.
    doc = run().document()
    labels = {label for label, _ in _rows(doc["histogram"])}
    picks = {pick["bitstring"] for pick in (doc["best_feasible"], doc["most_probable"]) if pick}
    assert picks <= labels, (labels, picks)


@pytest.mark.parametrize("reportable", [0, 5])
def test_histogram_file_of_a_wide_marginal_allocates_under_a_quarter_of_it(reportable):
    # Only the listed entries are labelled and formatted: building the CSV
    # of a 2^16-entry marginal holds its one-byte mask, not a 2^16-entry
    # container of labels, texts or float64s.
    marginal = np.random.default_rng(16).random(1 << 16)
    marginal /= marginal.sum()
    marginal[:reportable] = 0.01
    tracemalloc.start()
    try:
        rows = cli._histogram_csv(marginal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < marginal.nbytes / 4
    assert rows.count(b"\n") == 1 + max(reportable, 1)


def test_record_writer_peaks_under_twice_the_record_it_writes(tmp_path):
    # A sweep cell writes its record chunk by chunk and then its few CSV
    # rows: it holds one chunk's text, not a whole-record copy of the text,
    # of its rows or of a labelled dict.
    marginal = np.random.default_rng(16).random(1 << 16)
    doc = {"method": "x", "histogram": marginal / marginal.sum(), "trace": [{"a": 1.0}],
           "value": None}
    tracemalloc.start()
    try:
        cell = _run_cell(doc, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (cell / "record.json").stat().st_size
    # No entry is above the threshold: the CSV holds the most probable one.
    assert len((tmp_path / "hist_x.csv").read_text().splitlines()) == 1 + 1


def _set_last_value(summary_path: Path, value: str) -> None:
    """Rewrite summary.csv with its last row's value column set to `value`."""
    with summary_path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        fieldnames, rows = reader.fieldnames, list(reader)
    rows[-1]["value"] = value
    with summary_path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_report_writes_nothing_when_a_later_record_is_malformed(tmp_path, capsys):
    # report reads every record (row) of summary.csv before it writes: a
    # later one whose value is not a number exits 2 and leaves no report.md
    # and no temp file, and an earlier report as it was.
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "3", "--k", "1", "--methods", "oracle,penalty-qaoa",
                 "--seeds", "1", *FAST, "--out", str(out)]) == EXIT_OK
    summary_path = out / "summary.csv"
    good_summary = summary_path.read_text()
    _set_last_value(summary_path, "half")
    assert main(["report", "--run-dir", str(out)]) == EXIT_INVALID
    assert "'half'" in capsys.readouterr().err
    assert not [path.name for path in out.iterdir()
                if path.name == "report.md" or ".tmp." in path.name]

    # An earlier report is left as it was.
    summary_path.write_text(good_summary)
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    assert "report.md" in before
    _set_last_value(summary_path, "half")
    before["summary.csv"] = summary_path.read_bytes()
    assert main(["report", "--run-dir", str(out)]) == EXIT_INVALID
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == before
    capsys.readouterr()


@pytest.mark.parametrize("edit", [
    lambda data: codecs.BOM_UTF8 + data,
    lambda data: data.replace(b"oracle", b"\xffracle"),
], ids=["utf-8-bom", "non-utf-8-byte"])
def test_report_exits_2_on_a_written_record_open_does_not_read(tmp_path, capsys, edit):
    # report reads the summary.csv the sweep wrote as open() decodes text
    # (UTF-8 here, strictly): a leading BOM becomes part of the first column's
    # name, so the method column is missing, and a byte that is not UTF-8
    # does not decode. Both exit 2 and write no report.md.
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "3", "--k", "1", "--methods", "oracle", "--seeds", "1",
                 "--out", str(out)]) == EXIT_OK
    summary_path = out / "summary.csv"
    summary_path.write_bytes(edit(summary_path.read_bytes()))
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")
    assert not [path.name for path in out.iterdir()
                if path.name == "report.md" or ".tmp." in path.name]


@pytest.mark.parametrize("summary_text, missing", [
    ("method,seed\noracle,1\n", "bitstring, feasible, value"),
    ("method,seed,bitstring,feasible,iterations\noracle,1,010,True,0\n", "value"),
    ("", "method, seed, bitstring, feasible, value"),
], ids=["method-and-seed", "no-value", "empty"])
def test_report_exits_2_on_a_summary_that_lacks_a_column_it_reads(
    tmp_path, capsys, summary_text, missing
):
    (tmp_path / "summary.csv").write_text(summary_text)
    assert main(["report", "--run-dir", str(tmp_path)]) == EXIT_INVALID
    assert f"lacks the column(s) {missing}" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["summary.csv"]


def test_report_reads_a_summary_with_a_column_it_does_not_read(tmp_path, capsys):
    # A summary.csv written by an older version may hold a column that
    # report no longer reads (a dropped statistic); report ignores it.
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "3", "--k", "1", "--methods", "oracle,penalty-qaoa",
                 "--seeds", "1", *FAST, "--out", str(out)]) == EXIT_OK
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    outputs = {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()}
    with (out / "summary.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    with (out / "summary.csv").open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(
            [*row, slack] for row, slack in zip(rows, ["dropped_statistic", "", "0.25"]))
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    for name, data in outputs.items():
        if name != "summary.csv":
            assert (out / name).read_bytes() == data, name


def test_a_record_whose_chunks_fail_midway_leaves_no_file(tmp_path, monkeypatch):
    # record.json is written chunk by chunk under a temp name: a chunk that
    # fails to build leaves neither the record nor the temp file.
    def chunks():
        yield b'{\n  "method": "x",'
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        cli._write_atomic(tmp_path / "record.json", chunks())
    assert list(tmp_path.iterdir()) == []

    # A sweep cell writes its histogram CSV after its record: a marginal
    # chunk that fails after the first ones were written leaves neither
    # file nor a temp file, only the cell's error.txt.
    written_entries = cli._marginal_entries

    def entries(marginal):
        yield from [*written_entries(marginal)][:2]
        raise RuntimeError("chunk failed")

    monkeypatch.setattr(cli, "_marginal_entries", entries)
    doc = {"method": "x", "histogram": np.full(1 << 13, 1.0 / (1 << 13)), "value": None}
    cell = _run_cell(doc, tmp_path / "sweep")
    assert [path.name for path in (tmp_path / "sweep").iterdir()] == ["x"]
    assert [path.name for path in cell.iterdir()] == ["error.txt"]
    assert "chunk failed" in (cell / "error.txt").read_text()
