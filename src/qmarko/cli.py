"""Command-line harness: generate instances, solve them, sweep, report.

Exit codes are a stable scripting contract: 0 success, 2 invalid input,
3 the selected method reported no feasible portfolio.

Settings contract: each setting of `generate`, `solve` and `sweep` is
declared once in SETTINGS (type, default, help), and each command lists its
settings once in COMMAND_SETTINGS. Every setting is a flag named after its
key (`max_iter` is `--max-iter`); flags are not abbreviated. A value is the
flag, else the config-file entry, else the default (QMARKO_SEED, then 0, for
an unset seed), converted to its type. A value that does not convert (a
list, text, or a fraction or boolean for an integer) exits 2, and so does
a negative seed. A null config-file entry exits 2 for a setting with a
default, but leaves `seed`, `penalty` and `mixer`, whose defaults are unset,
unset: so a `--print-config` dump, which prints `"penalty": null` and
`"mixer": null` when they are unset, reads back in through `--config` as
the same settings. A config file may hold other commands' settings, so one
file serves all three; a key that names no setting exits 2. A set mixer or
penalty weight that no method would read exits 2: `--mixer` on a `solve`
method, or a `sweep` grid, without slack-qaoa, and `--penalty` on a `solve`
method, or a `sweep` grid, that takes no fixed weight (slack-qaoa and the
oracle take none). The schedule settings `--beta-init`,
`--doubling-interval`, `--shots` and `--feasibility-target` are read by
slack-qaoa only; for other methods a valid value is ignored, and an invalid
one still exits 2.
`sweep --jobs` is capped by the number of cells. `sweep --n` or `--k` beside
`--instance` exits 2, since the file sets both (a config file's n and k are
ignored there, and `--print-config` leaves them out). A command checks
every input, and `sweep` every method's register size, before it writes
any file.
`solve` writes `record.json` only. A sweep cell writes its `record.json`
and `<out>/hist_<cell>.csv`, or `error.txt` if it fails. A sweep cell first
deletes the `record.json`, `error.txt`, `hist_<cell>.csv` and (older
versions') `trace.csv` left from an earlier run, so it holds only its own
run's outcome.

Records: `solve` and `sweep` write `record.json` as exactly
`json.dumps(doc, indent=2)` plus a newline, formatting each histogram
probability once. A QAOA record's histogram is formatted straight from its
asset-marginal array, one chunk of entries per template, with no 2^n-entry
container, and each chunk is written to the file as it is built. A chunk's
probabilities are written as orjson text mapped to exactly `repr`'s, the
text json writes for a finite float, its one-digit exponents padded by one
numpy insert. A chunk stays bytes from orjson to the file: it is never
decoded, and every file is written in binary, with no text layer (texts are
UTF-8). A marginal that is not all finite is refused before its record is
written (JSON has no NaN or Infinity): `solve` exits 2 with no
`record.json`, and a sweep cell writes only its `error.txt`. The oracle's
and the classical baseline's one-entry dict histograms go through
json.dumps whole. A sweep cell writes `record.json` and then
`hist_<cell>.csv`, each through `_write_atomic` (a temp name renamed into
place once whole), so a record that fails midway (a non-finite marginal
among others) leaves neither. The CSV is a `bitstring,probability` header
and one `label,repr(p)` row per reportable entry, its probability's record
text: a marginal's entries above `qaoa.REPORTING_THRESHOLD` in basis-index
order, or, if none is, its most probable (lowest index on ties); a dict
histogram's every entry, in order (`nan`, `inf` or `-inf` where its record
holds NaN, Infinity or -Infinity). The full marginal is in `record.json`
only.

`report` reads `summary.csv` only and writes `report.md` from it; a
summary.csv that lacks a column of REPORT_COLUMNS exits 2 and writes
nothing. It reads no record, so it writes no histogram for a sweep
directory made by a version that left that to `report`.

Parsing: COMMANDS lists each command's handler, help and own flags. Each
`main` call builds its parser with the subparser of the command it runs
only (`build_parser(command)`); argv whose first entry names no command
gets every command's subparser. The one subparser's usage names every
command (its subparsers action takes the full choice list as metavar), and
the other subparsers are never read when a command is named, so usage,
help and error texts are the same as with every subparser built. The
process pool is imported only when a sweep runs more than one worker.
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
from pathlib import Path

import numpy as np
import orjson

from . import instance as instance_mod
from . import encode, oracle, qaoa
from .bitstrings import MAX_QUBITS, basis_label_block
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
)
# The summary.csv columns `report` reads; other columns are ignored.
REPORT_COLUMNS = ("method", "seed", "bitstring", "feasible", "value")


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
    "p": (as_integer, 2, "ansatz depth; one p = 2 slack-qaoa evaluation takes 0.98 s at the "
                          "24-qubit limit (12 assets, best of 3 on one BLAS thread), growing "
                          "5.4-5.5x per two qubits above 20"),
    "optimizer": (_choice(*qaoa.SCIPY_METHODS), "cobyla",
                  f"one of {', '.join(sorted(qaoa.SCIPY_METHODS))}"),
    "penalty": (float, None, "fixed penalty weight of the baselines (default per method)"),
    "beta_init": (float, _SCHEDULE_DEFAULTS.beta_penalty_init, "initial schedule penalty weight"),
    "doubling_interval": (as_integer, _SCHEDULE_DEFAULTS.doubling_interval,
                          "optimizer iterations between penalty checks"),
    "shots": (as_integer, _SCHEDULE_DEFAULTS.feasibility_shots, "feasibility-check sample count"),
    "feasibility_target": (float, _SCHEDULE_DEFAULTS.feasibility_target,
                           "sampled feasible fraction that ends the schedule; 1.0 needs every "
                           "draw feasible, and all 24 runs at (n, k) = (3, 1), (6, 2), seeds 1-12, "
                           "p = 2 end at max-iter (fractions 0.53-0.997)"),
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


def _write_atomic(path: Path, chunks) -> None:
    """Write the bytes of ``chunks``, an iterable read one at a time, to
    ``path``: they go to a binary file under a temp name, renamed to
    ``path`` once whole, so a chunk that fails to build leaves no file."""
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    try:
        with tmp.open("wb") as fh:
            fh.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


# The layout of a QAOA record's histogram, written by _record_chunks: the
# member's opening (only a top-level key follows a newline and exactly two
# spaces), each entry's indent, the text between an entry's label and its
# value, the text between one entry's value and the next entry's label, and
# the member's closing. Histogram entries per template in _marginal_entries.
_HISTOGRAM_OPEN = b'\n  "histogram": {'
_ENTRY_INDENT = b"\n    "
_KEY_END = b'": '
_NEXT_ENTRY = b"," + _ENTRY_INDENT + b'"'
_HISTOGRAM_CLOSE = b"\n  }"
_ENTRY_END = _KEY_END + b"%b" + _NEXT_ENTRY
_CHUNK = 1 << 12
_CSV_HEADER = b"bitstring,probability\n"


def _float_reprs(values: np.ndarray) -> list[bytes]:
    """`[repr(v).encode() for v in values.tolist()]` for a finite, contiguous
    1-D float64 array, formatted by one orjson call.

    orjson's Ryu formatter writes the same shortest round-trip digits as
    repr; only the layout differs. orjson writes exponents -6 to -9 with one
    digit, repr with two: each text is followed by a comma, so such an
    exponent ends in "e-D,", and one numpy comparison over the block's bytes
    finds those digits, which one np.insert pads with a "0". orjson writes
    1e-5 <= |v| < 1e-4 in decimal where repr takes an exponent, and
    |v| >= 1e16 with no "+" after the "e": those entries are formatted by
    repr itself."""
    text = np.frombuffer(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1] + b",",
                         dtype=np.uint8)
    # "e-D," is the only 4-byte run from an "e" to a comma with a "-" second.
    short = np.flatnonzero((text[:-3] == ord("e")) & (text[1:-2] == ord("-"))
                           & (text[3:] == ord(",")))
    texts = np.insert(text, short + 2, ord("0")).tobytes().split(b",")[:-1]
    magnitudes = np.abs(values)
    relaid = (magnitudes >= 1e16) | ((magnitudes >= 1e-5) & (magnitudes < 1e-4))
    for index in np.flatnonzero(relaid):
        texts[index] = repr(float(values[index])).encode("ascii")
    return texts


def _marginal_entries(marginal: np.ndarray):
    """The entries of a finite marginal's histogram as json.dumps(indent=2)
    writes them, as ASCII bytes in chunks, each built when it is asked for.

    Each chunk is one template: its labels' ASCII block from `bitstrings`,
    each label followed by `": %b,` and the next entry's indent and quote,
    filled with the chunk's probabilities as orjson text mapped to repr's
    (_float_reprs, which pads short exponents with one np.insert), the text
    json writes for a finite float. No 2^n-entry container is built."""
    num_bits = marginal.size.bit_length() - 1
    yield b'"'
    for start in range(0, marginal.size, _CHUNK):
        stop = min(start + _CHUNK, marginal.size)
        labels = basis_label_block(np.arange(start, stop), num_bits, _ENTRY_END)
        chunk = labels % tuple(_float_reprs(marginal[start:stop]))
        yield chunk.removesuffix(_NEXT_ENTRY) if stop == marginal.size else chunk


def _record_chunks(doc: dict):
    """record.json's bytes, in chunks built when they are asked for, which
    join to exactly `json.dumps(doc, indent=2) + "\\n"` in ASCII, where an
    array histogram (`ExperimentRecord.document`) stands for the dict of its
    probabilities keyed by their n-bit labels in basis-index order.

    `indent` makes json fall back to its pure-Python encoder, which formats a
    2^n-entry histogram one entry at a time. Instead a finite array's
    document is dumped with an empty histogram and the entries are spliced
    in chunk by chunk (`_marginal_entries`, each chunk's probabilities as
    orjson bytes mapped to repr's), so a writer holds one chunk at a time,
    formats each probability once and never decodes it. An array that is not
    all finite raises ValueError before the first chunk. Any other histogram
    goes through json.dumps whole: the oracle's and the classical baseline's
    are one entry."""
    histogram = doc["histogram"]
    if not isinstance(histogram, np.ndarray):
        yield (json.dumps(doc, indent=2) + "\n").encode("ascii")
        return
    if not np.isfinite(histogram).all():
        raise ValueError("refusing to write a record whose marginal is not all finite "
                         "(JSON has no NaN or Infinity)")
    head, _, tail = json.dumps({**doc, "histogram": {}}, indent=2).encode("ascii").partition(
        _HISTOGRAM_OPEN + b"}")
    yield head + _HISTOGRAM_OPEN + _ENTRY_INDENT
    yield from _marginal_entries(histogram)
    yield _HISTOGRAM_CLOSE + tail + b"\n"


def _histogram_csv(histogram) -> bytes:
    """hist_<cell>.csv of a record's histogram (module docstring), in UTF-8;
    of a marginal only its rows' entries are formatted. A dict label that
    UTF-8 cannot hold (a lone surrogate) is written as its backslash escape,
    the text json writes for it."""
    if not isinstance(histogram, np.ndarray):
        rows = "".join(f"{key},{value!r}\n" for key, value in histogram.items())
        return _CSV_HEADER + rows.encode("utf-8", "backslashreplace")
    indices = np.flatnonzero(qaoa.reportable(histogram))
    if not indices.size:
        indices = np.argmax(histogram, keepdims=True)
    labels = basis_label_block(indices, histogram.size.bit_length() - 1, b",%b\n")
    return _CSV_HEADER + labels % tuple(_float_reprs(histogram[indices]))


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
    keys = COMMAND_SETTINGS[args.command]
    if getattr(args, "instance", None):
        # An instance file sets n and k, so a config file's are not read.
        keys = [key for key in keys if key not in ("n", "k")]
    resolved = {}
    for key in keys:
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
    """The slack-qaoa schedule of the settings; a bad one raises ValueError."""
    return qaoa.ScheduleConfig(
        beta_penalty_init=cfg["beta_init"],
        doubling_interval=cfg["doubling_interval"],
        feasibility_shots=cfg["shots"],
        feasibility_target=cfg["feasibility_target"],
        max_iterations=cfg["max_iter"],
    )


def _oracle(inst, method, cfg, penalty) -> dict:
    bitstring, value = oracle.exhaustive_portfolio_optimum(inst)
    return {"method": method, "seed": cfg["seed"], "bitstring": bitstring, "feasible": True,
            "value": value, "iterations": 0, "histogram": {bitstring: 1.0}}


def _classical_baseline(inst, method, cfg, penalty) -> dict:
    result = oracle.classical_baseline(
        inst, beta_penalty=penalty, budget=cfg["max_iter"], seed=cfg["seed"],
        optimizer=cfg["optimizer"],
    )
    return {"method": method, "seed": cfg["seed"], "bitstring": result.bitstring,
            "feasible": result.feasible, "value": result.value, "iterations": len(result.trace),
            "penalty": penalty, "histogram": {result.bitstring: 1.0},
            "objective_trace": list(result.trace)}


def _slack_qaoa(inst, method, cfg, penalty) -> dict:
    return qaoa.run_schedule(
        inst, _schedule(cfg), p=cfg["p"], mixer=cfg["mixer"] or "conditional",
        seed=cfg["seed"], optimizer=cfg["optimizer"],
    ).document()


def _fixed_penalty_qaoa(inst, method, cfg, penalty) -> dict:
    return qaoa.run_fixed_penalty(inst, method, a_card=penalty, p=cfg["p"],
                                  budget=cfg["max_iter"], seed=cfg["seed"],
                                  optimizer=cfg["optimizer"]).document()


# name: (runner, default penalty weight); every runner is (instance, method,
# settings, weight) -> record document. Each fixed-penalty QAOA arm's row is
# read from its qaoa.FIXED_PENALTY_ARMS row, weight included; the classical
# baseline runs at the slack schedule's first weight; the others take none.
METHODS = {
    "slack-qaoa": (_slack_qaoa, None),
    **{arm: (_fixed_penalty_qaoa, weight)
       for arm, (*_, weight) in qaoa.FIXED_PENALTY_ARMS.items()},
    "oracle": (_oracle, None),
    "classical-baseline": (_classical_baseline, _SCHEDULE_DEFAULTS.beta_penalty_init),
}


def _check_methods(cfg: dict, methods) -> None:
    """Refuse the settings before any file is written: a set mixer or
    penalty weight that no method in ``methods`` reads (the others would
    drop it without a word: the fixed-penalty arms run the standard mixer,
    and the slack schedule and the oracle take no weight), then a bad
    depth, penalty weight or schedule setting."""
    weighted = [method for method, (_, weight) in METHODS.items() if weight is not None]
    for key, takers in (("mixer", ["slack-qaoa"]), ("penalty", weighted)):
        if cfg[key] is not None and not set(takers) & set(methods):
            raise ValueError(f"--{key} applies to {', '.join(takers)} only, "
                             f"not {', '.join(methods)}")
    if cfg["p"] < 1:
        raise ValueError(f"--p must be >= 1, got {cfg['p']}")
    if cfg["penalty"] is not None and not 0 < cfg["penalty"] < math.inf:
        raise ValueError(f"--penalty must be positive and finite, got {cfg['penalty']}")
    _schedule(cfg)


def _check_registers(inst: instance_mod.PortfolioInstance, methods) -> None:
    """Refuse a method whose register (the oracle: its 2^n table) is over
    MAX_QUBITS. A program's size does not depend on its weight, so each is
    built at weight 1, in O(m^2); the slack build also checks the caps."""
    builders = {"slack-qaoa": encode.build_slack_ancilla_qubo,
                **{arm: build for arm, (build, *_) in qaoa.FIXED_PENALTY_ARMS.items()}}
    qubits = {"oracle": inst.n}
    for method in methods:
        if method in builders:
            qubits[method] = builders[method](inst, 1.0).num_qubits
        if qubits.get(method, 0) > MAX_QUBITS:
            raise ValueError(f"{method} would tabulate {qubits[method]} variables "
                             f"(limit {MAX_QUBITS})")


def _run_method(inst: instance_mod.PortfolioInstance, method: str, cfg: dict) -> dict:
    """Execute one method; returns its record document."""
    run, weight = METHODS[method]
    return run(inst, method, cfg, weight if cfg["penalty"] is None else cfg["penalty"])


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
    _write_atomic(out, [(instance_mod.to_json(inst) + "\n").encode()])
    active = int(inst.alpha.sum())
    print(f"wrote {out}: n={inst.n} k={inst.k} seed={inst.seed} active_thresholds={active}")
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = _resolve(args)
    method = _choice(*METHODS)(args.method)
    _check_methods(cfg, [method])
    inst = instance_mod.load_instance(args.instance)
    doc = _run_method(inst, method, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "record.json", _record_chunks(doc))
    _print_solve_row(doc)
    if not doc.get("feasible") or doc.get("bitstring") is None:
        return EXIT_NO_FEASIBLE
    return EXIT_OK


def _run_cell(payload: tuple) -> dict:
    """One sweep cell; returns its summary row. Runs in worker processes."""
    method, seed, instance_text, cfg, run_dir_text = payload
    run_dir = Path(run_dir_text)
    run_dir.mkdir(parents=True, exist_ok=True)
    histogram_path = run_dir.parent / f"hist_{run_dir.name}.csv"
    for path in (run_dir / "record.json", run_dir / "trace.csv", run_dir / "error.txt",
                 histogram_path):
        path.unlink(missing_ok=True)
    row = {key: "" for key in SUMMARY_COLUMNS}
    row["method"] = method
    row["seed"] = seed
    started = time.perf_counter()
    try:
        inst = instance_mod.from_json(instance_text)
        doc = _run_method(inst, method, {**cfg, "seed": seed})
        _write_atomic(run_dir / "record.json", _record_chunks(doc))
        _write_atomic(histogram_path, [_histogram_csv(doc["histogram"])])
        row["bitstring"] = doc.get("bitstring") or ""
        row["feasible"] = str(bool(doc.get("feasible")))
        row["value"] = "" if doc.get("value") is None else repr(doc["value"])
        row["iterations"] = str(doc.get("iterations", 0))
    except Exception as exc:  # cell failures are recorded, the sweep continues
        _write_atomic(run_dir / "error.txt", [f"{type(exc).__name__}: {exc}\n".encode()])
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
    _check_methods(cfg, methods)
    if cfg["jobs"] < 1:
        raise ValueError(f"--jobs must be >= 1, got {cfg['jobs']}")
    if args.instance and (args.n is not None or args.k is not None):
        raise ValueError("--n and --k size generated instances; an --instance file has its own")
    if args.instance:
        inst = instance_mod.load_instance(args.instance)
        text = instance_mod.to_json(inst) + "\n"
        instance_texts = dict.fromkeys(seeds, text)
        instance_files = {"instance.json": text}
    else:
        instance_texts = {}
        for seed in seeds:
            inst = instance_mod.generate_instance(cfg["n"], cfg["k"], seed)
            instance_texts[seed] = instance_mod.to_json(inst) + "\n"
        instance_files = {f"instance_seed{seed}.json": instance_texts[seed] for seed in seeds}
    # Generated instances share n and k and have k-hot caps: one stands for all.
    _check_registers(inst, methods)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in instance_files.items():
        _write_atomic(out_dir / name, [text.encode()])

    payloads = [
        (method, seed, instance_texts[seed], cfg, str(out_dir / f"{method}_seed{seed}"))
        for method in methods
        for seed in seeds
    ]
    workers = min(cfg["jobs"], len(payloads))
    if workers > 1:
        # Imported here: it loads multiprocessing, which a serial sweep never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, payloads))
    else:
        rows = [_run_cell(payload) for payload in payloads]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(SUMMARY_COLUMNS), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    _write_atomic(out_dir / "summary.csv", [buf.getvalue().encode()])
    print(f"wrote {out_dir / 'summary.csv'} ({len(rows)} runs)")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    summary_path = run_dir / "summary.csv"
    if not summary_path.exists():
        raise ValueError(f"no summary.csv under {run_dir}; run `qmarko sweep` first")
    with summary_path.open() as fh:
        reader = csv.DictReader(fh)
        missing = [column for column in REPORT_COLUMNS if column not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{summary_path} lacks the column(s) {', '.join(missing)}")
        rows = list(reader)

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
    _write_atomic(run_dir / "report.md", [table.encode()])
    print(table, end="")
    print(f"wrote {run_dir / 'report.md'}")
    return EXIT_OK


# name: (handler, help, own flags as {flag: add_argument keywords}). generate,
# solve and sweep also take --config, --print-config and one flag per entry of
# their COMMAND_SETTINGS, added before their own flags.
COMMANDS = {
    "generate": (cmd_generate, "write a random instance file", {
        "--out": {"required": True, "help": "output instance.json path"},
    }),
    "solve": (cmd_solve, "run one method on one instance", {
        "--instance": {"required": True, "help": "instance.json path"},
        "--method": {"required": True, "help": f"one of {', '.join(METHODS)}"},
        "--out": {"required": True, "help": "output run directory"},
    }),
    "sweep": (cmd_sweep, "run a methods x seeds grid", {
        "--instance": {"help": "fixed instance file (otherwise one is generated per seed from "
                               "--n and --k)"},
        "--methods": {"required": True, "help": "comma-separated method list"},
        "--seeds": {"required": True, "help": "comma-separated list of non-negative seeds"},
        "--out": {"required": True, "help": "sweep output directory"},
    }),
    "report": (cmd_report, "write report.md, the comparison table of a sweep's summary.csv "
                           "(the sweep itself writes each cell's hist_<cell>.csv)", {
        "--run-dir": {"required": True},
    }),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The qmarko parser with the subparser of ``command`` only, or of every
    command when it is None. Building a subparser costs more than parsing
    with it, and parsing ``command`` never reads the others. The usage line
    still lists every command: a named command's subparsers action takes as
    metavar the text argparse builds from the full choice list. The full
    parser keeps argparse's own, so its "invalid choice" and "required"
    errors name the ``command`` argument as before."""
    parser = argparse.ArgumentParser(
        prog="qmarko",
        description="Slack-ancilla QAOA laboratory for constrained portfolio selection",
    )
    if command is None:
        names, usage = COMMANDS, {}
    else:
        names, usage = (command,), {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **usage)
    for name in names:
        func, help, flags = COMMANDS[name]
        # No prefix abbreviations: `sweep --seed` must not pass as `--seeds`.
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        if name in COMMAND_SETTINGS:
            sp.add_argument("--config", help="JSON config file; flags take precedence")
            sp.add_argument("--print-config", action="store_true",
                            help="dump the resolved configuration before running")
            for key in COMMAND_SETTINGS[name]:
                sp.add_argument("--" + key.replace("_", "-"), help=SETTINGS[key][2])
        for flag, options in flags.items():
            sp.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code. Each call builds its parser
    with the subparser of the command ``argv[0]`` names only, or with every
    subparser when it names none (``-h``, ``--``, a typo, no arguments);
    its usage, help and error texts are the same either way."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
