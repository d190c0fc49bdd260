"""qmarko benchmark: `qmarko sweep` then `qmarko report` on a seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop with one client: passes run one after another, each in a fresh
interpreter (child.py) that sets up, sweeps and reports with ``--jobs 1``
and BLAS pinned to one thread. Passes repeat on the same inputs for about
``--seconds`` (at least two run, so every record can be compared byte for
byte across repeats). Every pass is checked (checks.py). Times are
rescaled to reference machine speed by the child's speed probe (see
``at_reference_speed``). With ``--trace 0`` the last line reports the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it reports the per-layer split from the traced ones.
README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Instance, check_pass, quality_ratios
from tracer import per_layer_metric_names
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

SETUP_PROBES = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
# Speed-probe loop time that counts as reference speed: its median on a
# 2-vCPU Xeon (Python 3.11), so reported times stay close to wall times.
PROBE_REFERENCE_S = 2.0e-4

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "report_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "output_mb": "MB",
}
RECORD_METRICS = (
    "qaoa.evals",
    "qaoa.records",
    "qaoa.sampled_shots",
    "qaoa.sampled_feasible_fraction",
    "qaoa.feasible_mass",
    "qaoa.p_oracle_optimum",
)
TRACE_METRICS = ("trace.overhead_s", "trace.spans")


UNIT_BY_SUFFIX = {
    "calls": "count", "self_s": "s", "computed_gb": "GB", "peak_mb": "MB",
    "overhead_s": "s", "evals": "count", "records": "count",
    "sampled_shots": "count", "spans": "count",
}


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric; fractions are ratios."""
    return {
        name: UNIT_BY_SUFFIX.get(name.rsplit(".", 1)[1], "ratio")
        for name in per_layer_metric_names() + list(RECORD_METRICS) + list(TRACE_METRICS)
    }


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in THREAD_VARS:
        env[key] = PINNED_THREADS
    return env


def run_child(workload: str, seed: int, pass_dir: Path, *, trace: int = 0,
              setup_only: bool = False, timeout: float) -> dict:
    """Run child.py to completion; returns its result with ``setup_s`` added."""
    pass_dir.mkdir(parents=True)
    # Flush earlier passes' files, so their writeback lands in no timed window.
    os.sync()
    result_path = pass_dir / "result.json"
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(pass_dir), "--result", str(result_path),
            "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    log_path = pass_dir / "child.log"
    with log_path.open("w") as log:
        spawned = _now()
        try:
            proc = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                  env=_child_env(), cwd=ROOT, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"pass in {pass_dir} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise ChildFailed(f"child exited {proc.returncode} in {pass_dir}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def machine_context() -> dict:
    caches = {}
    # glibc sysconf codes for _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    for label, code in (("l1d_bytes", 188), ("l2_bytes", 191), ("l3_bytes", 194)):
        try:
            caches[label] = os.sysconf(code)
        except (OSError, ValueError):
            caches[label] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
    }


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """Wall time rescaled to the machine running at reference speed.

    ``probe_s`` is the mean time of the child's speed-probe loop over the
    same window. On a shared machine the CPU slows by up to 2x for seconds
    to minutes at a time; the probe slows with it, so the ratio keeps the
    program's own cost and drops the machine's.
    """
    return seconds * PROBE_REFERENCE_S / probe_s


def summarize(values: list[float]) -> dict:
    """Median and maximum with the sample count. Runs are too short to give
    ten samples beyond any percentile below the maximum."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def run(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    started = _now()
    workload = WORKLOADS[workload_name]
    work = WORK / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = started + seconds

    def timeout() -> float:
        return RUN_LIMIT_S - (_now() - started)

    setups = []
    if not trace:
        for probe in range(SETUP_PROBES):
            setups.append(run_child(workload_name, seed, work / f"setup{probe}",
                                    setup_only=True, timeout=timeout()))

    passes = []
    reference_digests: dict[str, str] = {}
    known: dict[str, tuple[list[str], int]] = {}  # record digest -> (problems, iterations)
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    durations = []
    inst = None
    while True:
        index = len(passes)
        traced = bool(trace) and index % 2 == 1
        pass_dir = work / f"pass{index}"
        pass_started = _now()
        result = run_child(workload_name, seed, pass_dir, trace=int(traced), timeout=timeout())
        if inst is None:
            inst = Instance.load(pass_dir / "inputs" / "instance.json")
        checked = check_pass(pass_dir / "sweep", inst, workload, seed,
                             (result["sweep_rc"], result["report_rc"]), known, keep_records=traced)
        for cell, digest in checked.digests.items():
            reference = reference_digests.setdefault(cell, digest)
            if digest != reference:
                checked.fail(cell, "record.json differs from the first pass")
        cells = workload.cells(seed)
        attempted += len(cells)
        failed += sum(1 for cell in cells if cell in checked.problems)
        for cell, messages in checked.problems.items():
            problems.setdefault(f"pass{index}/{cell}", messages)
        result["traced"] = traced
        result["output_mb"] = _tree_bytes(pass_dir / "sweep") / 1e6
        result["qaoa_evals"] = checked.qaoa_evals
        if traced:
            result["ratios"] = quality_ratios(checked.records, inst, workload.shots)
        setups.append(result)
        passes.append(result)
        durations.append(_now() - pass_started)
        # Start another pass only if it should end less than half a pass
        # after the deadline.
        if len(passes) >= MIN_PASSES and _now() + statistics.median(durations) / 2 > deadline:
            break
    for stale in range(len(passes) - 1):
        shutil.rmtree(work / f"pass{stale}" / "sweep", ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    wall = {
        "setup_s": [p["setup_s"] for p in setups],
        "sweep_s": [p["sweep_s"] for p in untraced],
        "report_s": [t for p in untraced for t in p["report_s"]],
    }
    samples = {
        "setup_s": [at_reference_speed(p["setup_s"], p["probe_setup"]) for p in setups],
        "sweep_s": [at_reference_speed(p["sweep_s"], p["probe_sweep"]) for p in untraced],
        "report_s": [at_reference_speed(t, p["probe_report"]) for p in untraced for t in p["report_s"]],
        "evals_per_s": [p["qaoa_evals"] / at_reference_speed(p["sweep_s"], p["probe_sweep"])
                        for p in untraced],
        "peak_rss_mb": [p["peak_rss_kib"] * 1024 / 1e6 for p in untraced],
        "output_mb": [p["output_mb"] for p in untraced],
    }
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "measured_s": _now() - started,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "context": {**machine_context(), **passes[-1]["context"],
                    "threads": passes[-1]["threads"], "jobs": 1},
        "end_to_end": {name: summarize(values) for name, values in samples.items()},
        "wall": {name: summarize(values) for name, values in wall.items()},
        "probe_us": summarize([p["probe_sweep"] * 1e6 for p in passes]),
        "samples": samples,
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        layers = {}
        for name in per_layer_metric_names():
            layers[name] = statistics.median(p["layers"][name] for p in traced_passes)
        layers.update(traced_passes[-1]["ratios"])
        traced_sweeps = [at_reference_speed(p["sweep_s"], p["probe_sweep"]) for p in traced_passes]
        layers["trace.overhead_s"] = (
            statistics.median(traced_sweeps) - statistics.median(samples["sweep_s"])
        )
        layers["trace.spans"] = statistics.median(p["spans"] for p in traced_passes)
        report["per_layer"] = layers
        report["traced_sweep_s"] = summarize(traced_sweeps)
    (work / "result.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: {report['passes']} passes "
          f"in {report['measured_s']:.1f} s, closed loop, 1 client, --jobs 1")
    print("context " + json.dumps(report["context"], sort_keys=True))
    probe = report["probe_us"]
    print(f"speed probe median {probe['median']:.4g} us (reference "
          f"{PROBE_REFERENCE_S * 1e6:.4g} us); times below are at reference speed")
    for name, stats in report["end_to_end"].items():
        unit = END_TO_END_UNITS[name]
        wall = report["wall"].get(name)
        wall_text = f"  (wall median {wall['median']:.6g} {unit})" if wall else ""
        print(f"{name:<12} median {stats['median']:.6g} {unit}  max {stats['max']:.6g} {unit}"
              f"  n={stats['n']}{wall_text}")
    rate = report["failed"] / report["attempted"]
    print(f"{'error_rate':<12} {rate:.6g} ratio  ({report['failed']} of {report['attempted']} "
          "cells failed a check)")
    for where, messages in sorted(report["problems"].items()):
        print(f"  FAILED {where}: {'; '.join(messages)}")
    if "per_layer" in report:
        units = per_layer_units()
        traced = report["traced_sweep_s"]
        print(f"traced sweep_s median {traced['median']:.6g} s  n={traced['n']}; "
              f"tracing overhead {report['per_layer']['trace.overhead_s']:.6g} s")
        for name, value in report["per_layer"].items():
            print(f"  {name:<44} {value:.6g} {units[name]}")


def result_line(report: dict) -> str:
    if "per_layer" in report:
        units = per_layer_units()
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in report["per_layer"].items()}
    else:
        metrics = {name: {"value": stats["median"], "unit": END_TO_END_UNITS[name]}
                   for name, stats in report["end_to_end"].items()}
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "qmarko" / "__init__.py").is_file():
        print(f"error: qmarko sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_report(report)
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
