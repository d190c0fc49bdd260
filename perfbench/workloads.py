"""The benchmark's workloads: which instance each pass generates and which
`qmarko sweep` grid runs on it.

Every input derives from the run seed. The instance is written to a file
and handed to the CLI through ``--instance``; the method seeds of the grid
are derived from the same run seed.
"""

from __future__ import annotations

from dataclasses import dataclass

QAOA_METHODS = ("slack-qaoa", "penalty-qaoa", "cardinality-slack-qaoa")


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    k: int
    methods: tuple[str, ...]
    method_seeds: int
    flags: tuple[str, ...] = ()
    # Iterations every QAOA record must report, unless it stopped on the
    # feasibility target; None when the optimizer decides.
    pinned_budget: int | None = None
    # Shots per feasibility check, as `qmarko sweep` defaults them.
    shots: int = 1000

    def seeds(self, run_seed: int) -> list[int]:
        return [run_seed * 16 + i for i in range(self.method_seeds)]

    def cells(self, run_seed: int) -> list[str]:
        """Run directory names, in the order `qmarko sweep` writes them."""
        return [f"{m}_seed{s}" for m in self.methods for s in self.seeds(run_seed)]

    def sweep_argv(self, instance_path: str, out_dir: str, run_seed: int) -> list[str]:
        return [
            "sweep",
            "--instance", instance_path,
            "--methods", ",".join(self.methods),
            "--seeds", ",".join(str(s) for s in self.seeds(run_seed)),
            "--jobs", "1",
            "--out", out_dir,
            *self.flags,
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's method at the largest size that fits a ~15 s pass:
        # 18 qubits, a 4 MiB statevector that overflows the per-core L2.
        Workload(
            "schedule-m18", 9, 3, ("slack-qaoa",), 1,
            ("--p", "2", "--max-iter", "40", "--doubling-interval", "20"),
            pinned_budget=40,
        ),
        # The five-method comparison a user runs, with default budgets;
        # working sets <= 64 KiB, so per-call overhead, COBYLA and per-cell
        # file I/O dominate. Runnable, but not in BENCHMARK.json: where
        # COBYLA stops moves with the seed, and its times spread too widely
        # across seeds to gate on (see README.md).
        Workload(
            "sweep-n6", 6, 2,
            ("slack-qaoa", "penalty-qaoa", "cardinality-slack-qaoa", "oracle",
             "classical-baseline"),
            4,
        ),
        # Standard mixer, one Hamiltonian, few evaluations: per-record work
        # over 2^18 basis states dominates.
        Workload(
            "records-n18", 18, 3, ("penalty-qaoa", "oracle"), 1,
            ("--p", "2", "--max-iter", "8"),
            pinned_budget=8,
        ),
        # Seconds-long grid for the benchmark's own self-test; not listed
        # in BENCHMARK.json.
        Workload(
            "selftest", 3, 1, ("slack-qaoa", "penalty-qaoa", "oracle"), 1,
            ("--max-iter", "6", "--doubling-interval", "3", "--shots", "50"),
            pinned_budget=6, shots=50,
        ),
    )
}
