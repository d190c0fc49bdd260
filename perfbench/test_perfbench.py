"""Self-test of the benchmark: checks, metric names and the result line.

    python3 -m pytest -q perfbench

Uses the seconds-long ``selftest`` workload; not part of the package's
test suite.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from checks import Instance, check_record  # noqa: E402
from run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(trace: int) -> dict:
    proc = _run("--workload", "selftest", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert list(END_TO_END_UNITS) == [m["name"] for m in SPEC["end_to_end"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()
    assert [w["name"] for w in SPEC["workloads"]] == ["schedule-m18", "records-n18"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric(trace):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "records-n18", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def sample():
    """A record from a real selftest pass, and its instance."""
    proc = _run("--workload", "selftest", "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    pass_dir = BENCH / ".work" / "selftest" / "pass1"
    inst = Instance.load(pass_dir / "inputs" / "instance.json")
    cell = WORKLOADS["selftest"].cells(5)[0]
    record = json.loads((pass_dir / "sweep" / cell / "record.json").read_text())
    return record, inst


def _problems(record, inst):
    return check_record(record, inst, inst.oracle()[1], WORKLOADS["selftest"])


def test_clean_record_passes(sample):
    record, inst = sample
    assert _problems(record, inst) == []


def test_oracle_matches_brute_force(sample):
    _, inst = sample
    best = min(
        (inst.objective(bits), bits)
        for bits in (format(i, f"0{inst.n}b")[::-1] for i in range(1 << inst.n))
        if inst.is_feasible(bits)
    )
    assert inst.oracle() == (best[1], best[0])


def test_checks_catch_corruption(sample):
    record, inst = sample

    def corrupt(edit):
        broken = copy.deepcopy(record)
        edit(broken)
        return _problems(broken, inst)

    assert corrupt(lambda r: r.update(feasible=not r["feasible"]))
    assert corrupt(lambda r: r.update(value=r["value"] - 1.0))
    assert corrupt(lambda r: r["histogram"].update({next(iter(r["histogram"])): 2.0}))
    assert corrupt(lambda r: r.update(iterations=r["iterations"] - 1, terminated_by="max_iterations"))
    assert not corrupt(lambda r: r.update(iterations=1, terminated_by="feasibility_target"))
    assert corrupt(lambda r: r.pop("histogram"))
