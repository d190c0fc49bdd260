"""Spans around the calls into qmarko's layers, installed from outside the
package.

Each traced function is wrapped under every name that binds it: the
modules use ``from ... import``, so ``qmarko.qaoa.apply_mixer`` and
``qmarko.simulate.apply_mixer`` are two bindings of one function, and
only patching both catches every call. Spans (name, start, end, parent)
are kept in memory and written out once the pass ends. A function that
runs once per basis state is counted, not spanned, so that tracing does
not dominate the records it measures.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import tracemalloc
import types

LAYERS = ("instance", "encode", "simulate", "qaoa", "bounds", "oracle", "cli", "bitstrings")

# Functions timed with spans, as "<module>.<qualified name>".
SPANNED = (
    "simulate.energy_table",
    "simulate.uniform_superposition",
    "simulate.apply_phase_separation",
    "simulate.apply_mixer",
    "simulate.apply_conditional_mixer",
    "simulate.expectation",
    "simulate.sample",
    "encode.build_slack_ancilla_qubo",
    "encode.build_penalty_qubo",
    "encode.build_cardinality_slack_qubo",
    "encode.to_ising",
    "qaoa.run_schedule",
    "qaoa.run_baseline_penalty_qaoa",
    "qaoa.run_cardinality_slack_qaoa",
    "qaoa.optimize_angles",
    "qaoa.minimize_with_budget",
    "qaoa.ExperimentRecord.to_dict",
    "bounds.check_variance_bound",
    "bounds.asset_marginal",
    "bounds.risk_observable",
    "bounds.return_observable",
    "oracle.exhaustive_portfolio_optimum",
    "oracle.classical_baseline",
    "instance.from_json",
    "instance.to_json",
    "instance.load_instance",
    "cli.cmd_sweep",
    "cli.cmd_report",
    "cli._write_atomic",
    "cli.json.dumps",
    "cli.json.loads",
)

# Called once per basis state or shot: counted only.
COUNTED = (
    "bitstrings.index_to_string",
    "bitstrings.index_to_bits",
    "bitstrings.string_to_index",
    "instance.is_feasible",
    "instance.classical_objective",
)

# bitstrings is counted only, so it has no self time of its own.
SPANNED_LAYERS = tuple(layer for layer in LAYERS if any(n.startswith(layer + ".") for n in SPANNED))

BYTES_PER_AMPLITUDE = 16
BYTES_PER_ENERGY = 8


def _computed_bytes(name: str, args, kwargs) -> int:
    """Compulsory memory traffic of one kernel call, from array sizes.

    A model, not a measurement: every working set that MAX_QUBITS allows
    fits the shared L3 of the reference machine, so bandwidth cannot be
    observed from a CPU run.
    """
    kernel = name.rsplit(".", 1)[1]
    if kernel == "energy_table":
        return (1 << args[0].num_qubits) * BYTES_PER_ENERGY  # write the table
    state = args[0]
    size = state.amplitudes.size
    amp, energy = BYTES_PER_AMPLITUDE, BYTES_PER_ENERGY
    if kernel == "apply_phase_separation":
        return size * (2 * amp + energy)  # read and write amplitudes, read energies
    if kernel == "apply_mixer":
        return size * 2 * amp * state.num_qubits  # one read-write sweep per qubit
    if kernel == "apply_conditional_mixer":
        # Per pair: a controlled rotation over the half with the control
        # set, then a full rotation of the asset qubit.
        pairs = args[2] if len(args) > 2 else kwargs["pairs"]
        return size * 3 * amp * len(list(pairs))
    if kernel == "expectation":
        return size * (amp + energy)
    if kernel == "sample":
        return size * amp
    raise KeyError(name)


COMPUTED_BYTES = (
    "simulate.energy_table",
    "simulate.apply_phase_separation",
    "simulate.apply_mixer",
    "simulate.apply_conditional_mixer",
    "simulate.expectation",
    "simulate.sample",
)


def per_layer_metric_names() -> list[str]:
    """Every metric a traced run reports, in output order."""
    names = []
    for fn in SPANNED:
        names += [f"{fn}.calls", f"{fn}.self_s"]
    names += [f"{fn}.calls" for fn in COUNTED]
    names += [f"{fn}.computed_gb" for fn in COMPUTED_BYTES]
    names.append("simulate.energy_table.peak_mb")
    names += [f"layer.{layer}.self_s" for layer in SPANNED_LAYERS]
    return names


class Tracer:
    """Installs wrappers on install(), restores the originals on uninstall()."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts = {name: 0 for name in COUNTED}
        self.computed_bytes = {name: 0 for name in COMPUTED_BYTES}
        self.energy_table_peak = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        track_bytes = name in self.computed_bytes
        track_peak = name == "simulate.energy_table"

        def wrapper(*args, **kwargs):
            if track_bytes:
                self.computed_bytes[name] += _computed_bytes(name, args, kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            if track_peak:
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if track_peak:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.energy_table_peak = max(self.energy_table_peak, peak)
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _bind_everywhere(self, original, wrapped) -> None:
        """Replace every module-level binding of ``original`` in qmarko."""
        for layer in LAYERS:
            module = sys.modules.get(f"qmarko.{layer}")
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapped)

    def install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"qmarko.{layer}")
        cli = sys.modules["qmarko.cli"]
        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(json.__dict__)
        for fn_name in ("dumps", "loads"):
            setattr(json_proxy, fn_name,
                    self._spanned(f"cli.json.{fn_name}", getattr(json, fn_name)))
        self._set(cli, "json", json_proxy)

        for name in SPANNED + COUNTED:
            layer, _, qualname = name.partition(".")
            if qualname.startswith("json."):
                continue
            owner = sys.modules[f"qmarko.{layer}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:  # removed since the benchmark was written
                continue
            wrap = self._counted if name in COUNTED else self._spanned
            wrapped = wrap(name, original)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
            else:
                self._bind_everywhere(original, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per spanned name; self time is the span
        minus the time covered by its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = {name: (0, 0.0) for name in SPANNED}
        for index, (name, start, end, _) in enumerate(self.spans):
            calls, seconds = totals[name]
            totals[name] = (calls + 1, seconds + (end - start) - covered[index])
        return totals

    def metrics(self) -> dict[str, float]:
        values: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in SPANNED_LAYERS}
        for name, (calls, seconds) in self.self_times().items():
            values[f"{name}.calls"] = calls
            values[f"{name}.self_s"] = seconds
            layer_self[name.split(".", 1)[0]] += seconds
        for name, calls in self.counts.items():
            values[f"{name}.calls"] = calls
        for name, nbytes in self.computed_bytes.items():
            values[f"{name}.computed_gb"] = nbytes / 1e9
        values["simulate.energy_table.peak_mb"] = self.energy_table_peak / 2**20
        for layer, seconds in layer_self.items():
            values[f"layer.{layer}.self_s"] = seconds
        return values

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": index, "name": name, "start": start, "end": end, "parent": parent}
                ) + "\n")
