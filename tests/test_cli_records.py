"""record.json's writer and the histogram files `qmarko report` copies from it."""

import codecs
import csv
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import record_json
from qmarko import cli
from qmarko.cli import EXIT_INVALID, EXIT_NO_FEASIBLE, EXIT_OK, METHODS, SUMMARY_COLUMNS, main
from qmarko.instance import generate_instance
from qmarko.qaoa import ScheduleConfig, run_fixed_penalty, run_schedule

FAST = ["--max-iter", "12", "--doubling-interval", "6", "--shots", "64"]


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _record_text(doc) -> str:
    """record.json's text: the writer's chunks, joined."""
    return "".join(cli._record_chunks(doc))


def test_records_and_histogram_files_of_every_method(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--n", "4", "--k", "2", "--methods", ",".join(METHODS),
                 "--seeds", "1", *FAST, "--out", str(out)]) == EXIT_OK
    assert main(["report", "--run-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    for method in METHODS:
        text = (out / f"{method}_seed1" / "record.json").read_text()
        doc = json.loads(text)
        assert _record_text(doc) == _dumps(doc) == text, method
        # hist_<cell>.csv holds each probability's text as the record does.
        histogram = json.loads(text, parse_float=str)["histogram"]
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

    # Keys holding the CSV's delimiter, its quote or either half of a line
    # break are quoted, so the file reads back as the record's items.
    run_dir = tmp_path / "quoted"
    record_path = _hand_written_run(
        run_dir, '{"histogram": {"a,b": 0.25, "c\\nd": 0.25, "e\\"f": 0.25, "g\\rh": 0.25}}')
    assert main(["report", "--run-dir", str(run_dir)]) == EXIT_OK
    histogram = json.loads(record_path.read_text(), parse_float=str)["histogram"]
    with (run_dir / "hist_oracle_seed1.csv").open(newline="") as fh:
        assert list(csv.reader(fh)) == [["bitstring", "probability"],
                                        *map(list, histogram.items())]

    # A record without a histogram gives a header-only file, as before.
    run_dir = tmp_path / "none"
    _hand_written_run(run_dir, '{"method": "oracle"}')
    assert main(["report", "--run-dir", str(run_dir)]) == EXIT_OK
    assert (run_dir / "hist_oracle_seed1.csv").read_text() == "bitstring,probability\n"
    capsys.readouterr()


# The error's naming of a histogram that is not a JSON object.
_NOT_AN_OBJECT = {
    '{"histogram": [0.5, 0.5]}': "the histogram is an array",
    '{"histogram": null}': "the histogram is null",
    '{"histogram": []}': "the histogram is an array",
    '{"histogram": ""}': "the histogram is a string",
    '{"histogram": false}': "the histogram is a boolean",
    '{"histogram": 0}': "the histogram is a number",
    '{"histogram": NaN}': "the histogram is a number",
    '[1, 2]': "holds an array",
}


@pytest.mark.parametrize("record_text", [
    '{"histogram": {"100": null}}',
    '{"histogram": {"100": [0.5]}}',
    '{"histogram": {"100": "half"}}',
    '{"histogram": [0.5, 0.5]}',
    '[1, 2]',
    '{"histogram": {"100": 0.5}',
    # Falsy values are refused too; only a missing key gives a header-only file.
    '{"histogram": null}',
    '{"histogram": []}',
    '{"histogram": ""}',
    '{"histogram": false}',
    '{"histogram": 0}',
    '{"histogram": NaN}',
])
def test_report_exits_2_on_a_malformed_record(tmp_path, capsys, record_text):
    record_path = _hand_written_run(tmp_path / "run", record_text)
    assert main(["report", "--run-dir", str(tmp_path / "run")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert str(record_path) in err
    if record_text in _NOT_AN_OBJECT:
        assert f"{_NOT_AN_OBJECT[record_text]}, not a JSON object" in err
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
    chunk, with 0.0, the smallest subnormal and 1.0 forced in. A 2^14-entry
    record holds at least 27 bytes per entry, so it spans two report slices."""
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
    text = _record_text(doc)
    assert text == _dumps(_labelled(doc))
    # report converts the written text in bulk, to the general path's bytes.
    rows = io.StringIO()
    assert cli._bulk_histogram_csv(text.encode("ascii"), rows)
    assert rows.getvalue() == "".join(cli._histogram_lines(Path("record.json"), text))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_record_writer_labels_a_non_finite_marginal_for_json_dumps(value):
    marginal = np.full(1 << 13, 1.0 / (1 << 13))
    marginal[4097] = value
    doc = {"seed": 1, "histogram": marginal, "iterations": 0}
    assert _record_text(doc) == _dumps(_labelled(doc))


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


# A written 3-bit record; its labels in index order are 000, 100, 010, 110,
# 001, 101, 011, 111.
_WRITTEN = _record_text({"method": "x", "histogram": np.array([0.5, 0.25, 0.125, 0.0625,
                                                             0.03125, 0.015625, 0.0078125,
                                                             0.0078125]),
                         "trace": [{"a": 1.0}], "value": None})
_NESTED = '{"outer": {\n  "histogram": {\n    "0": 0.5,\n    "1": 0.5\n  }}%s}\n'


def _written_marginal_record(bits: int) -> str:
    """A written record of a seeded 2^bits-entry marginal."""
    marginal = np.random.default_rng(bits).random(1 << bits)
    return _record_text({"method": "x", "histogram": marginal / marginal.sum(),
                         "trace": [{"a": 1.0}], "value": None})


def _last_slice_defects():
    """A written 2^14-entry record with one defect in its last entry, past
    its first report slice: the name of each defect and the record's text.
    The bulk path writes the earlier slices before it meets the defect."""
    text = _written_marginal_record(14)
    head, separator, last = text.rpartition(cli._NEXT_ENTRY)
    label, key_end, value_and_tail = last.partition(cli._KEY_END)
    value, close, tail = value_and_tail.partition(cli._HISTOGRAM_CLOSE)
    previous_label = head.rpartition(cli._NEXT_ENTRY)[2].partition(cli._KEY_END)[0]
    assert len(head) - text.index(cli._HISTOGRAM_OPEN) > cli._SLICE
    return {
        "value-1.": head + separator + label + key_end + "1." + close + tail,
        "label-repeated": head + separator + previous_label + key_end + value + close + tail,
        "label-missing": head + close + tail,
        "crlf-from-mid-file": head + (separator + last).replace("\n", "\r\n"),
    }


_LAST_SLICE_DEFECTS = _last_slice_defects()


@pytest.mark.parametrize("text", [
    _WRITTEN.replace('"000"', '"tmp"').replace('"100"', '"000"').replace('"tmp"', '"100"'),
    _WRITTEN.replace('"100"', '"000"'),
    _WRITTEN.replace(',\n    "111": 0.0078125', ""),
    '{\n  "histogram": {\n    "0": 0.5,\n    "1": 0.25,\n    "0": 0.25\n  }\n}\n',
    _WRITTEN.replace('\n    "', '\n    "0'),
    *(_WRITTEN.replace('"000": 0.5', '"000": ' + value)
      for value in ("01", "1.", ".5", "+1", "NaN", '"0.5"')),
    _NESTED % "",
    _NESTED % ', "histogram": {}',
    _NESTED % ', "hist\\u006fgram": {}',
    _NESTED % ', "histogram": {"1": 1.0}',
    _WRITTEN.replace("\n}\n", ',\n  "histogram": {}\n}\n'),
    _WRITTEN.replace("{\n", '{\n  "histogram": {},\n', 1),
    _WRITTEN.replace("\n", "\r\n"),
    _WRITTEN.replace('"000": ', '"000" : '),
    _WRITTEN.replace('"000": ', '"000":  '),
    *_LAST_SLICE_DEFECTS.values(),
], ids=["labels-out-of-order", "label-repeated", "label-missing", "label-repeated-past-2^n",
        "labels-one-bit-longer",
        "value-01", "value-1.", "value-.5", "value-+1", "value-NaN", "value-string",
        "nested", "nested-and-empty", "nested-and-escaped-key", "nested-and-top-level",
        "histogram-twice", "histogram-twice-first-empty", "crlf", "space-before-colon",
        "two-spaces-after-colon", *(f"last-slice-{name}" for name in _LAST_SLICE_DEFECTS)])
def test_report_converts_a_near_miss_record_as_any_other(tmp_path, capsys, text):
    # Each falls through to the general path, so report writes what it wrote
    # before the bulk path: the top-level histogram's items, number texts
    # copied and NaN as repr(float), or exits 2 on a text json refuses. The
    # bulk path leaves no rows behind, from earlier slices either.
    assert cli._bulk_histogram_csv(_WRITTEN.encode(), io.StringIO())
    rows = io.StringIO()
    rows.write(cli._CSV_HEADER)
    assert not cli._bulk_histogram_csv(text.encode(), rows)
    assert rows.getvalue() == cli._CSV_HEADER
    _hand_written_run(tmp_path / "run", text)
    try:
        histogram = json.loads(text, parse_float=str, parse_int=str).get("histogram", {})
    except ValueError:
        assert main(["report", "--run-dir", str(tmp_path / "run")]) == EXIT_INVALID
        assert not (tmp_path / "run" / "hist_oracle_seed1.csv").exists()
        return
    assert main(["report", "--run-dir", str(tmp_path / "run")]) == EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "run" / "hist_oracle_seed1.csv").read_text() == "".join(
        [cli._CSV_HEADER,
         *(f"{key},{value if type(value) is str else repr(float(value))}\n"
           for key, value in histogram.items())])


@pytest.mark.parametrize("edit", [
    lambda data: codecs.BOM_UTF8 + data,
    lambda data: data.replace(b'"method": "x"', b'"method": "\xff"'),
], ids=["utf-8-bom", "non-utf-8-byte"])
def test_report_exits_2_on_a_written_record_open_does_not_read(tmp_path, capsys, edit):
    # The record is decoded as open() decodes text (UTF-8 here, strictly),
    # not as json.loads(bytes) would, which takes a BOM: both exit 2.
    record_path = _hand_written_run(tmp_path / "run", "")
    record_path.write_bytes(edit(_WRITTEN.encode("ascii")))
    assert main(["report", "--run-dir", str(tmp_path / "run")]) == EXIT_INVALID
    assert str(record_path) in capsys.readouterr().err
    assert not (tmp_path / "run" / "hist_oracle_seed1.csv").exists()


def test_report_converts_a_written_record_in_under_twice_its_size(tmp_path):
    # Bulk conversion holds the record's bytes and one slice's rows, not
    # whole-record copies of the text and its rows.
    record_path = tmp_path / "record.json"
    record_path.write_text(_written_marginal_record(16))
    tracemalloc.start()
    try:
        with (tmp_path / "hist.csv").open("w") as fh:
            cli._write_histogram_csv(record_path, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * record_path.stat().st_size
    assert len((tmp_path / "hist.csv").read_text().splitlines()) == 1 + (1 << 16)


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


def test_a_record_whose_chunks_fail_midway_leaves_no_file(tmp_path):
    # record.json is written chunk by chunk under a temp name: a chunk that
    # fails to build leaves neither the record nor the temp file.
    def chunks():
        yield '{\n  "method": "x",'
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="chunk failed"):
        cli._write_atomic(tmp_path / "record.json", chunks())
    assert list(tmp_path.iterdir()) == []
