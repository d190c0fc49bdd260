"""Command-line harness: generate instances, solve them, sweep, report.

Exit codes are a stable scripting contract: 0 success, 2 invalid input,
3 the selected method reported no feasible portfolio.

Settings contract: each setting of `generate`, `solve` and `sweep` is
declared once in SETTINGS (type, default, help), and each command lists its
settings once in COMMAND_SETTINGS. Every setting is a flag named after its
key (`max_iter` is `--max-iter`); flags are not abbreviated. A value is the
flag, else the config-file entry, else the default (QMARKO_SEED, then 0, for
an unset seed), converted to its type. A value that does not convert (null,
a list, text, or a fraction or boolean for an integer) exits 2, and so does
a negative seed. A config file may hold other commands' settings, so one
file serves all three; a key that names no setting exits 2. `sweep --jobs`
is capped by the number of cells. A command checks every input before it
writes any file.

Records: `solve` and `sweep` write `record.json` as exactly
`json.dumps(doc, indent=2)` plus a newline, formatting each histogram
probability once. A QAOA record's histogram is formatted straight from its
asset-marginal array, one chunk of entries per template, with no 2^n-entry
container; a marginal that is not all finite is labelled and goes through
json.dumps, and so do the oracle's and the classical baseline's one-entry
dict histograms. `report` copies each probability's decimal text from the
record into `hist_<cell>.csv` unchanged, after `float()` has checked it. A
record that is not a JSON object, or whose histogram is not an object of
numbers, exits 2 with an error naming the record, and `report` leaves no
file behind: it renames its outputs into place only after the last record
has converted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import instance as instance_mod
from . import encode, oracle, qaoa
from .bitstrings import basis_label_block
from .instance import as_integer

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_FEASIBLE = 3

MIXERS = ("standard", "conditional")

SUMMARY_COLUMNS = (
    "method",
    "seed",
    "bitstring",
    "feasible",
    "value",
    "iterations",
    "wall_ms",
    "variance_bound_slack",
)

def _seed(value) -> int:
    """A non-negative integer: the seed setting, QMARKO_SEED and each --seeds entry."""
    seed = as_integer(value)
    if seed < 0:
        raise ValueError(f"a seed must be non-negative, got {seed}")
    return seed


def _choice(*choices: str):
    """A converter that passes only the listed values."""
    def convert(value) -> str:
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {choices}")
        return value
    return convert


_SCHEDULE_DEFAULTS = qaoa.ScheduleConfig()
# key: (type, default, help). A None default may stay unset: the seed falls
# back to QMARKO_SEED, penalty is per method (METHODS) and the mixer is
# conditional.
SETTINGS = {
    "n": (as_integer, 3, "asset count"),
    "k": (as_integer, 1, "cardinality bound"),
    "seed": (_seed, None, "non-negative random seed (falls back to QMARKO_SEED, then 0)"),
    "lambda_weight": (float, 1.0, "return weight lambda of the generated instance"),
    "q_risk": (float, 0.5, "risk weight q of the generated instance"),
    "p": (as_integer, 2, "ansatz depth; one slack-qaoa layer takes ~1 s at the 24-qubit limit "
                          "(12 assets; extrapolated from 0.04 s at 20 qubits and 0.24 s at 22)"),
    "optimizer": (_choice(*qaoa.SCIPY_METHODS), "cobyla",
                  f"one of {', '.join(sorted(qaoa.SCIPY_METHODS))}"),
    "penalty": (float, None, "fixed penalty weight of the baselines (default per method)"),
    "beta_init": (float, _SCHEDULE_DEFAULTS.beta_penalty_init, "initial schedule penalty weight"),
    "doubling_interval": (as_integer, _SCHEDULE_DEFAULTS.doubling_interval,
                          "optimizer iterations between penalty checks"),
    "shots": (as_integer, _SCHEDULE_DEFAULTS.feasibility_shots, "feasibility-check sample count"),
    "feasibility_target": (float, _SCHEDULE_DEFAULTS.feasibility_target,
                           "sampled feasible fraction that ends the schedule"),
    "max_iter": (as_integer, _SCHEDULE_DEFAULTS.max_iterations, "objective-evaluation budget"),
    "mixer": (_choice(*MIXERS), None,
              f"slack-qaoa mixer, one of {', '.join(MIXERS)} (default conditional)"),
    "jobs": (as_integer, 1, "worker processes, capped at the number of cells"),
}
_QAOA_KEYS = ("p", "optimizer", "penalty", "beta_init", "doubling_interval", "shots",
              "feasibility_target", "max_iter", "mixer")
# The settings each command reads; each is also its flag.
COMMAND_SETTINGS = {
    "generate": ("n", "k", "seed", "lambda_weight", "q_risk"),
    "solve": ("seed", *_QAOA_KEYS),
    "sweep": ("n", "k", *_QAOA_KEYS, "jobs"),
}


def _temp_path(path: Path) -> Path:
    return path.with_name(path.name + f".tmp.{os.getpid()}")


def _write_atomic(path: Path, text: str) -> None:
    tmp = _temp_path(path)
    tmp.write_text(text)
    os.replace(tmp, path)


# Histogram entries per template in _marginal_entries, and the text between
# one entry's value and the next entry's label.
_CHUNK = 1 << 12
_NEXT_ENTRY = ',\n    "'
_ENTRY_END = ('": %r' + _NEXT_ENTRY).encode("ascii")


def _marginal_entries(marginal: np.ndarray) -> list[str]:
    """The entries of a finite marginal's histogram as json.dumps(indent=2)
    writes them, in chunks.

    Each chunk is one template: its labels' ASCII block from `bitstrings`,
    each label followed by `": %r,` and the next entry's indent and quote,
    filled with the chunk's probabilities (%r is the repr json uses for a
    finite float). No 2^n-entry container is built."""
    num_bits = marginal.size.bit_length() - 1
    chunks = ['"']
    for start in range(0, marginal.size, _CHUNK):
        stop = min(start + _CHUNK, marginal.size)
        labels = basis_label_block(np.arange(start, stop), num_bits, _ENTRY_END)
        chunks.append(labels.decode("ascii") % tuple(marginal[start:stop].tolist()))
    chunks[-1] = chunks[-1].removesuffix(_NEXT_ENTRY)
    return chunks


def _record_text(doc: dict) -> str:
    """record.json's text: exactly `json.dumps(doc, indent=2) + "\\n"`, where an
    array histogram (`ExperimentRecord.document`) stands for its labelled
    dict (`ExperimentRecord.to_dict`).

    `indent` makes json fall back to its pure-Python encoder, which formats a
    2^n-entry histogram one entry at a time. Instead a finite array's
    document is dumped with an empty histogram and the entries are spliced
    in chunk by chunk (`_marginal_entries`). An array that is not all finite
    is labelled and goes through json.dumps whole, as does any other
    histogram: the oracle's and the classical baseline's are one entry."""
    histogram = doc.get("histogram")
    if not isinstance(histogram, np.ndarray):
        return json.dumps(doc, indent=2) + "\n"
    if not np.isfinite(histogram).all():
        return json.dumps({**doc, "histogram": qaoa.labelled_histogram(histogram)},
                          indent=2) + "\n"
    # Only a top-level key follows a newline and exactly two spaces.
    head, _, tail = json.dumps({**doc, "histogram": {}}, indent=2).partition(
        '\n  "histogram": {}')
    return "".join([head, '\n  "histogram": {\n    ', *_marginal_entries(histogram), "\n  }",
                    tail, "\n"])


def _resolve(args) -> dict:
    """flags > config file > defaults, each converted to its declared type."""
    file_cfg = {}
    if args.config:
        try:
            file_cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"--config: cannot read {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"--config: {args.config} does not hold a JSON object")
        unknown = sorted(set(file_cfg) - set(SETTINGS))
        if unknown:
            raise ValueError(f"--config: {args.config} names no setting: {', '.join(unknown)}")
    resolved = {}
    for key in COMMAND_SETTINGS[args.command]:
        convert, default, _ = SETTINGS[key]
        value = getattr(args, key)
        if value is None:
            value = file_cfg.get(key, default)
        if value is None and key == "seed":
            value = os.environ.get("QMARKO_SEED", "0")
        if value is not None or default is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"invalid setting {key}={value!r}: {exc}") from exc
        resolved[key] = value
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
    return resolved


def _schedule(cfg: dict) -> qaoa.ScheduleConfig:
    """Check the solve settings and build the slack-qaoa schedule from them;
    commands call it before writing any file, so a bad setting exits 2."""
    if cfg["p"] < 1:
        raise ValueError(f"--p must be >= 1, got {cfg['p']}")
    if cfg["penalty"] is not None and not 0 < cfg["penalty"] < math.inf:
        raise ValueError(f"--penalty must be positive and finite, got {cfg['penalty']}")
    return qaoa.ScheduleConfig(
        beta_penalty_init=cfg["beta_init"],
        doubling_interval=cfg["doubling_interval"],
        feasibility_shots=cfg["shots"],
        feasibility_target=cfg["feasibility_target"],
        max_iterations=cfg["max_iter"],
    )


def _trace_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", "expectation", "beta_penalty", "feasible_fraction"])
    for row in rows:
        frac = "" if row.feasible_fraction is None else repr(row.feasible_fraction)
        writer.writerow([row.iteration, repr(row.expectation), repr(row.beta_penalty), frac])
    return buf.getvalue()


def _oracle(inst, cfg, schedule, penalty) -> tuple[dict, list]:
    bitstring, value = oracle.exhaustive_portfolio_optimum(inst)
    doc = {"method": "oracle", "seed": cfg["seed"], "bitstring": bitstring, "feasible": True,
           "value": value, "iterations": 0, "histogram": {bitstring: 1.0}}
    return doc, []


def _classical_baseline(inst, cfg, schedule, penalty) -> tuple[dict, list]:
    result = oracle.classical_baseline(
        inst, beta_penalty=penalty, budget=cfg["max_iter"], seed=cfg["seed"],
        optimizer=cfg["optimizer"],
    )
    doc = {"method": "classical-baseline", "seed": cfg["seed"], "bitstring": result.bitstring,
           "feasible": result.feasible, "value": result.value, "iterations": len(result.trace),
           "penalty": penalty, "histogram": {result.bitstring: 1.0},
           "objective_trace": list(result.trace)}
    return doc, [qaoa.TraceRow(i + 1, v, penalty) for i, v in enumerate(result.trace)]


def _slack_qaoa(inst, cfg, schedule, penalty) -> tuple[dict, list]:
    record = qaoa.run_schedule(
        inst, schedule, p=cfg["p"], mixer=cfg["mixer"] or "conditional",
        seed=cfg["seed"], optimizer=cfg["optimizer"],
    )
    return record.document(), record.trace


def _fixed_penalty_qaoa(entry_point: str):
    """The runner of a fixed-penalty QAOA baseline. It looks `qaoa.<entry_point>`
    up per call, so a wrapper installed on the module (the benchmark's tracer)
    sees every run."""
    def run(inst, cfg, schedule, penalty) -> tuple[dict, list]:
        record = getattr(qaoa, entry_point)(inst, a_card=penalty, p=cfg["p"],
                                            budget=cfg["max_iter"], seed=cfg["seed"],
                                            optimizer=cfg["optimizer"])
        return record.document(), record.trace
    return run


# name: (runner, default penalty weight). Fixed-penalty QAOA baselines run at
# 1e3; the classical baseline uses the same weight the slack schedule starts
# from. The oracle and the slack schedule take no fixed weight.
METHODS = {
    "slack-qaoa": (_slack_qaoa, None),
    "penalty-qaoa": (_fixed_penalty_qaoa("run_baseline_penalty_qaoa"), 1000.0),
    "cardinality-slack-qaoa": (_fixed_penalty_qaoa("run_cardinality_slack_qaoa"), 1000.0),
    "oracle": (_oracle, None),
    "classical-baseline": (_classical_baseline, 100.0),
}


def _run_method(
    inst: instance_mod.PortfolioInstance, method: str, cfg: dict, schedule: qaoa.ScheduleConfig
) -> tuple[dict, str]:
    """Execute one method; returns (record document, trace.csv text)."""
    run, weight = METHODS[method]
    doc, rows = run(inst, cfg, schedule, weight if cfg["penalty"] is None else cfg["penalty"])
    return doc, _trace_csv(rows)


def _print_solve_row(doc: dict) -> None:
    bitstring = doc.get("bitstring") or "-"
    value = doc.get("value")
    value_text = "-" if value is None else f"{value:.6g}"
    print(f"{doc['method']}\t{bitstring}\tfeasible={doc['feasible']}\tvalue={value_text}")


def cmd_generate(args) -> int:
    cfg = _resolve(args)
    inst = instance_mod.generate_instance(
        cfg["n"], cfg["k"], cfg["seed"],
        lambda_weight=cfg["lambda_weight"], q_risk=cfg["q_risk"],
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(out, instance_mod.to_json(inst) + "\n")
    active = int(inst.alpha.sum())
    print(f"wrote {out}: n={inst.n} k={inst.k} seed={inst.seed} active_thresholds={active}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _resolve(args)
    method = _choice(*METHODS)(args.method)
    if cfg["mixer"] is not None and method != "slack-qaoa":
        raise ValueError(f"--mixer applies to slack-qaoa only, not {method}")
    schedule = _schedule(cfg)
    inst = instance_mod.load_instance(args.instance)
    doc, trace_text = _run_method(inst, method, cfg, schedule)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "record.json", _record_text(doc))
    _write_atomic(out_dir / "trace.csv", trace_text)
    _print_solve_row(doc)
    if not doc.get("feasible") or doc.get("bitstring") is None:
        return EXIT_NO_FEASIBLE
    return EXIT_OK


def _run_cell(payload: tuple) -> dict:
    """One sweep cell; returns its summary row. Runs in worker processes."""
    method, seed, instance_text, cfg, schedule, run_dir_text = payload
    run_dir = Path(run_dir_text)
    run_dir.mkdir(parents=True, exist_ok=True)
    row = {key: "" for key in SUMMARY_COLUMNS}
    row["method"] = method
    row["seed"] = seed
    started = time.perf_counter()
    try:
        inst = instance_mod.from_json(instance_text)
        doc, trace_text = _run_method(inst, method, {**cfg, "seed": seed}, schedule)
        _write_atomic(run_dir / "record.json", _record_text(doc))
        _write_atomic(run_dir / "trace.csv", trace_text)
        row["bitstring"] = doc.get("bitstring") or ""
        row["feasible"] = str(bool(doc.get("feasible")))
        row["value"] = "" if doc.get("value") is None else repr(doc["value"])
        row["iterations"] = str(doc.get("iterations", 0))
        bound = doc.get("variance_bound")
        row["variance_bound_slack"] = repr(bound["slack"]) if bound else ""
    except Exception as exc:  # cell failures are recorded, the sweep continues
        _write_atomic(run_dir / "error.txt", f"{type(exc).__name__}: {exc}\n")
        row["feasible"] = "False"
    row["wall_ms"] = f"{(time.perf_counter() - started) * 1000.0:.3f}"
    return row


def _grid(text: str, flag: str, convert) -> list:
    """One comma-separated sweep axis: at least one entry, each listed once."""
    entries = [convert(entry.strip()) for entry in text.split(",") if entry.strip()]
    if not entries or len(set(entries)) < len(entries):
        raise ValueError(f"{flag} must list at least one entry, each once; got {text!r}")
    return entries


def cmd_sweep(args) -> int:
    cfg = _resolve(args)
    methods = _grid(args.methods, "--methods", _choice(*METHODS))
    seeds = _grid(args.seeds, "--seeds", _seed)
    schedule = _schedule(cfg)
    if cfg["jobs"] < 1:
        raise ValueError(f"--jobs must be >= 1, got {cfg['jobs']}")
    if args.instance:
        inst = instance_mod.load_instance(args.instance)
        if "slack-qaoa" in methods:
            # A cell records its error and the sweep goes on, so refuse caps
            # the slack encoding cannot close before anything is written.
            # Generated instances are k-hot by construction.
            encode.check_slack_caps(inst)
        text = instance_mod.to_json(inst) + "\n"
        instance_texts = dict.fromkeys(seeds, text)
        instance_files = {"instance.json": text}
    else:
        instance_texts = {}
        for seed in seeds:
            inst = instance_mod.generate_instance(cfg["n"], cfg["k"], seed)
            instance_texts[seed] = instance_mod.to_json(inst) + "\n"
        instance_files = {f"instance_seed{seed}.json": instance_texts[seed] for seed in seeds}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in instance_files.items():
        _write_atomic(out_dir / name, text)

    payloads = [
        (method, seed, instance_texts[seed], cfg, schedule, str(out_dir / f"{method}_seed{seed}"))
        for method in methods
        for seed in seeds
    ]
    workers = min(cfg["jobs"], len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, payloads))
    else:
        rows = [_run_cell(payload) for payload in payloads]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(SUMMARY_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _write_atomic(out_dir / "summary.csv", buf.getvalue())
    print(f"wrote {out_dir / 'summary.csv'} ({len(rows)} runs)")
    return EXIT_OK


def _histogram_csv(record_path: Path) -> str:
    """hist_<cell>.csv of one record, in the record's order.

    Every JSON number is loaded as its text, checked with float() and copied,
    so no probability is parsed to a float and formatted again. A value that
    float() takes but that is not bare ASCII text (a boolean, NaN, text with
    surrounding spaces) is written as repr(float(value)), which keeps the CSV
    one row per line.
    """
    try:
        record = json.loads(record_path.read_text(), parse_float=str, parse_int=str)
    except ValueError as exc:
        raise ValueError(f"{record_path}: {exc}") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{record_path}: holds a {type(record).__name__}, not a JSON object")
    histogram = record.get("histogram") or {}
    if not isinstance(histogram, dict):
        raise ValueError(f"{record_path}: the histogram is a {type(histogram).__name__}, "
                         "not a JSON object")
    try:
        deque(map(float, histogram.values()), maxlen=0)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{record_path}: a histogram probability is not a number: {exc}") from exc
    return "bitstring,probability\n" + "".join([
        f"{bitstring},{text}\n" if type(text) is str and text.isascii() and text.strip() == text
        else f"{bitstring},{float(text)!r}\n"
        for bitstring, text in histogram.items()
    ])


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.csv"
    if not summary_path.exists():
        raise ValueError(f"no summary.csv under {run_dir}; run `qmarko sweep` first")
    with summary_path.open() as fh:
        rows = list(csv.DictReader(fh))

    lines = [
        "| Method | Seed | Optimal Portfolio | Is Feasible? | Value |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        value = row["value"]
        value_text = f"{float(value):.6g}" if value else "-"
        lines.append(
            f"| {row['method']} | {row['seed']} | {row['bitstring'] or '-'} "
            f"| {row['feasible']} | {value_text} |"
        )
    table = "\n".join(lines) + "\n"

    # Every output is written under its temp name and renamed only once the
    # last record has converted, so a malformed record leaves no file behind.
    outputs = [run_dir / "report.md"]
    try:
        _temp_path(outputs[0]).write_text(table)
        for row in rows:
            run_id = f"{row['method']}_seed{row['seed']}"
            record_path = run_dir / run_id / "record.json"
            if not record_path.exists():
                continue
            text = _histogram_csv(record_path)
            outputs.append(run_dir / f"hist_{run_id}.csv")
            _temp_path(outputs[-1]).write_text(text)
    except BaseException:
        for path in outputs:
            _temp_path(path).unlink(missing_ok=True)
        raise
    for path in dict.fromkeys(outputs):  # a summary row may repeat a cell
        os.replace(_temp_path(path), path)
    print(table, end="")
    print(f"wrote report.md and {len(outputs) - 1} histogram files under {run_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarko",
        description="Slack-ancilla QAOA laboratory for constrained portfolio selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def settings_parser(command, func, help):
        # No prefix abbreviations: `sweep --seed` must not pass as `--seeds`.
        sp = sub.add_parser(command, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        sp.add_argument("--config", help="JSON config file; flags take precedence")
        sp.add_argument("--print-config", action="store_true",
                        help="dump the resolved configuration before running")
        for key in COMMAND_SETTINGS[command]:
            sp.add_argument("--" + key.replace("_", "-"), help=SETTINGS[key][2])
        return sp

    gen = settings_parser("generate", cmd_generate, "write a random instance file")
    gen.add_argument("--out", required=True, help="output instance.json path")

    solve = settings_parser("solve", cmd_solve, "run one method on one instance")
    solve.add_argument("--instance", required=True, help="instance.json path")
    solve.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    solve.add_argument("--out", required=True, help="output run directory")

    sweep = settings_parser("sweep", cmd_sweep, "run a methods x seeds grid")
    sweep.add_argument("--instance",
                       help="fixed instance file (otherwise one is generated per seed)")
    sweep.add_argument("--methods", required=True, help="comma-separated method list")
    sweep.add_argument("--seeds", required=True, help="comma-separated list of non-negative seeds")
    sweep.add_argument("--out", required=True, help="sweep output directory")

    report = sub.add_parser("report", help="emit the comparison table and each record's "
                                           "asset-marginal histogram (hist_<cell>.csv, "
                                           "each probability's text copied from the record)",
                            allow_abbrev=False)
    report.add_argument("--run-dir", required=True, dest="run_dir")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
