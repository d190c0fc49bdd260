"""One benchmark pass in a fresh interpreter.

Set-up (imports and input generation) runs first; then `qmarko sweep` and
`qmarko report` are called in-process through ``qmarko.cli.main``, with or
without the tracer. The timings go to a JSON file named by ``--result``.
Started by run.py; the parent measures set-up time from the moment it
spawned this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import time
from pathlib import Path

REPORT_MIN_S = 1.0
PROBE_PERIOD_S = 0.02
# Iterating bytes yields cached small ints: the loop allocates nothing, so
# tracemalloc and the allocator's state do not change its speed.
PROBE_DATA = bytes(range(256)) * 32


def _now() -> float:
    # System-wide clock, comparable with the parent's reading at spawn.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SpeedProbe:
    """Samples how fast this CPU runs right now, from inside the process.

    Every PROBE_PERIOD_S a SIGALRM handler times a fixed Python loop. The
    mean loop time over a timed window tells how fast the machine ran
    during that window, so run.py can separate a slower program from a
    slower machine (see README.md). Costs about 1% of the window.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0
        for byte in PROBE_DATA:
            total ^= byte
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self.samples)

    def mean_since(self, mark: int) -> float:
        """Mean loop time since ``mark``; the whole run's mean if the window
        was too short to be sampled."""
        window = self.samples[mark:] or self.samples
        return sum(window) / len(window)


def _software_context() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="pass directory")
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    probe = SpeedProbe()
    probe.start()

    from qmarko import cli, instance

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    pass_dir = Path(args.dir)
    (pass_dir / "inputs").mkdir(parents=True, exist_ok=True)
    instance_path = pass_dir / "inputs" / "instance.json"
    instance.save_instance(
        instance.generate_instance(workload.n, workload.k, args.seed), instance_path
    )
    result: dict = {"ready": _now(), "probe_setup": probe.mean_since(0)}

    if not args.setup_only:
        sweep_dir = pass_dir / "sweep"
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        started, mark = _now(), probe.mark()
        result["sweep_rc"] = cli.main(workload.sweep_argv(str(instance_path), str(sweep_dir), args.seed))
        result["sweep_s"] = _now() - started
        result["probe_sweep"] = probe.mean_since(mark)
        # Report is short on small grids: repeat it until REPORT_MIN_S is
        # spent so its median rests on several samples. Traced passes
        # report once, so per-layer call counts stay exact.
        result["report_rc"], result["report_s"], mark = 0, [], probe.mark()
        while not result["report_s"] or (not args.trace and sum(result["report_s"]) < REPORT_MIN_S):
            started = _now()
            result["report_rc"] |= cli.main(["report", "--run-dir", str(sweep_dir)])
            result["report_s"].append(_now() - started)
        result["probe_report"] = probe.mean_since(mark)
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            result["spans"] = len(tracer.spans)
            tracer.write_spans(pass_dir / "spans.jsonl")
        result["context"] = _software_context()
    probe.stop()

    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["threads"] = {
        key: os.environ.get(key) for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
