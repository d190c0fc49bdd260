"""Output checks for one benchmark pass, independent of qmarko's own code.

Feasibility, objective values and the oracle optimum are recomputed here
from the instance file in plain Python, so a defect in the package cannot
vouch for itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import QAOA_METHODS, Workload

HISTOGRAM_TOLERANCE = 1e-9
VALUE_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Instance:
    n: int
    k: int
    mu: list[float]
    sigma: list[list[float]]
    alpha: list[float]
    lambda_weight: float
    q_risk: float

    @classmethod
    def load(cls, path) -> "Instance":
        doc = json.loads(Path(path).read_text())
        return cls(doc["n"], doc["k"], doc["mu"], doc["sigma"], doc["alpha"],
                   doc["lambda"], doc["q"])

    def selected(self, bitstring: str) -> list[int]:
        if len(bitstring) != self.n or set(bitstring) - {"0", "1"}:
            raise ValueError(f"not an {self.n}-asset bitstring: {bitstring!r}")
        return [i for i, ch in enumerate(bitstring) if ch == "1"]

    def is_feasible(self, bitstring: str) -> bool:
        chosen = self.selected(bitstring)
        return all(self.alpha[i] >= 1.0 for i in chosen) and len(chosen) <= self.k

    def _value(self, chosen) -> float:
        risk = sum(self.sigma[i][j] for i in chosen for j in chosen)
        return self.q_risk * risk - self.lambda_weight * sum(self.mu[i] for i in chosen)

    def objective(self, bitstring: str) -> float:
        return self._value(self.selected(bitstring))

    def oracle(self) -> tuple[str, float]:
        """Lowest-objective feasible portfolio; ties go to the lowest index."""
        allowed = [i for i in range(self.n) if self.alpha[i] >= 1.0]
        candidates = [
            chosen
            for size in range(min(self.k, len(allowed)) + 1)
            for chosen in itertools.combinations(allowed, size)
        ]
        best = min(candidates, key=lambda c: (self._value(c), sum(1 << i for i in c)))
        bits = "".join("1" if i in best else "0" for i in range(self.n))
        return bits, self._value(best)


@dataclass
class PassCheck:
    """Outcome of checking one pass: per-cell problems, record digests and
    iteration counts, and the parsed records when asked for."""

    problems: dict[str, list[str]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    iterations: dict[str, int] = field(default_factory=dict)
    records: dict[str, dict] = field(default_factory=dict)

    def fail(self, cell: str, message: str) -> None:
        self.problems.setdefault(cell, []).append(message)

    @property
    def qaoa_evals(self) -> int:
        """QAOA objective evaluations, from the records' ``iterations``."""
        return sum(
            count for cell, count in self.iterations.items()
            if cell.rsplit("_seed", 1)[0] in QAOA_METHODS
        )


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOLERANCE * max(1.0, abs(a), abs(b))


def check_record(record: dict, inst: Instance, oracle_value: float, workload: Workload) -> list[str]:
    problems = []
    bitstring = record.get("bitstring")
    if bitstring is None:
        if record.get("feasible"):
            problems.append("feasible flag set without a bitstring")
    else:
        if bool(record.get("feasible")) != inst.is_feasible(bitstring):
            problems.append(f"feasible flag {record.get('feasible')} wrong for {bitstring}")
        if record.get("value") is None or not _close(record["value"], inst.objective(bitstring)):
            problems.append(f"value {record.get('value')} is not the objective of {bitstring}")

    picks = [record] + [record[key] for key in ("best_feasible", "most_probable") if record.get(key)]
    for pick in picks:
        if pick.get("bitstring") is None or not inst.is_feasible(pick["bitstring"]):
            continue
        if pick.get("value") is not None and pick["value"] < oracle_value - VALUE_TOLERANCE:
            problems.append(f"feasible pick {pick['bitstring']} beats the oracle value")

    histogram = record.get("histogram")
    if not isinstance(histogram, dict) or not histogram:
        problems.append("record has no histogram")
    elif abs(math.fsum(histogram.values()) - 1.0) > HISTOGRAM_TOLERANCE:
        problems.append(f"histogram sums to {math.fsum(histogram.values())!r}")

    if (
        workload.pinned_budget is not None
        and record.get("method") in QAOA_METHODS
        and record.get("iterations") != workload.pinned_budget
        and record.get("terminated_by") != "feasibility_target"
    ):
        problems.append(
            f"{record.get('iterations')} iterations, budget pins {workload.pinned_budget}"
        )
    return problems


def check_pass(
    sweep_dir: Path,
    inst: Instance,
    workload: Workload,
    run_seed: int,
    exit_codes: tuple[int, int],
    known: dict[str, tuple[list[str], int]],
    keep_records: bool = False,
) -> PassCheck:
    """Check every cell of one sweep + report; see README.md for the list.

    ``known`` maps record digests already checked to their (problems,
    iterations), so a byte-identical repeat is not parsed again; new
    digests are added to it.
    """
    result = PassCheck()
    cells = workload.cells(run_seed)
    _, oracle_value = inst.oracle()
    sweep_rc, report_rc = exit_codes
    summary_cells = set()
    summary = sweep_dir / "summary.csv"
    if summary.exists():
        for line in summary.read_text().splitlines()[1:]:
            method, seed = line.split(",")[:2]
            summary_cells.add(f"{method}_seed{seed}")
    for cell in cells:
        if sweep_rc != 0:
            result.fail(cell, f"qmarko sweep exited {sweep_rc}")
        if report_rc != 0:
            result.fail(cell, f"qmarko report exited {report_rc}")
        if cell not in summary_cells:
            result.fail(cell, "missing from summary.csv")
        if not (sweep_dir / f"hist_{cell}.csv").exists():
            result.fail(cell, "report wrote no histogram CSV")
        error = sweep_dir / cell / "error.txt"
        if error.exists():
            result.fail(cell, f"error.txt: {error.read_text().strip()}")
        record_path = sweep_dir / cell / "record.json"
        if not record_path.exists():
            result.fail(cell, "no record.json")
            continue
        raw = record_path.read_bytes()
        digest = result.digests[cell] = hashlib.sha256(raw).hexdigest()
        if digest not in known or keep_records:
            try:
                record = json.loads(raw)
                known[digest] = (check_record(record, inst, oracle_value, workload),
                                 int(record.get("iterations", 0)))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                known[digest] = ([f"unreadable record: {type(exc).__name__}: {exc}"], 0)
                record = None
            if keep_records and record is not None:
                result.records[cell] = record
        problems, result.iterations[cell] = known[digest]
        for problem in problems:
            result.fail(cell, problem)
    return result


def quality_ratios(records: dict[str, dict], inst: Instance, shots: int) -> dict[str, float]:
    """Useful-over-attempted ratios of the QAOA records of one pass.

    ``sampled_feasible_fraction`` is feasible shots over shots across every
    feasibility check; ``feasible_mass`` and ``p_oracle_optimum`` are means
    over QAOA records of the exact probability on feasible portfolios and
    on the oracle optimum, recomputed from the full-register histogram.
    """
    oracle_bits, _ = inst.oracle()
    qaoa_records = [r for r in records.values() if r.get("method") in QAOA_METHODS]
    feasible_of: dict[str, bool] = {}
    checked_shots = feasible_shots = 0
    mass = oracle_mass = 0.0
    evals = 0
    for record in qaoa_records:
        evals += int(record.get("iterations", 0))
        for row in record.get("trace", []):
            if row.get("feasible_fraction") is not None:
                checked_shots += shots
                feasible_shots += round(row["feasible_fraction"] * shots)
        for key, probability in record["histogram"].items():
            assets = key[: inst.n]
            if assets not in feasible_of:
                feasible_of[assets] = inst.is_feasible(assets)
            if feasible_of[assets]:
                mass += probability
            if assets == oracle_bits:
                oracle_mass += probability
    count = len(qaoa_records)
    return {
        "qaoa.evals": evals,
        "qaoa.records": count,
        "qaoa.sampled_shots": checked_shots,
        "qaoa.sampled_feasible_fraction": feasible_shots / checked_shots if checked_shots else 0.0,
        "qaoa.feasible_mass": mass / count if count else 0.0,
        "qaoa.p_oracle_optimum": oracle_mass / count if count else 0.0,
    }

