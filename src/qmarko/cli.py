"""Command-line harness: generate instances, solve them, sweep, report.

Exit codes are a stable scripting contract: 0 success, 2 invalid input,
3 the selected method reported no feasible portfolio.

Settings contract: every setting of `generate`, `solve` and `sweep` is
declared once in SETTINGS with one type and one default. Its value is the
flag, else the config-file entry, else the default (QMARKO_SEED, then 0,
for an unset seed), converted to that type. A value that does not convert
(null, a list, text, or a fraction or boolean for an integer) exits 2. A
command checks every input before it writes any file.
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
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import instance as instance_mod
from . import oracle, qaoa

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_FEASIBLE = 3

METHODS = (
    "slack-qaoa",
    "penalty-qaoa",
    "cardinality-slack-qaoa",
    "oracle",
    "classical-baseline",
)

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

def _integer(value) -> int:
    """int() that refuses booleans and fractions instead of truncating them."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _choice(*choices: str):
    """A converter that passes only the listed values."""
    def convert(value) -> str:
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {choices}")
        return value
    return convert


_SCHEDULE_DEFAULTS = qaoa.ScheduleConfig()
# key: (type, default). A None default may stay unset: the seed falls back
# to QMARKO_SEED, penalty is per method (_run_method) and the mixer is
# conditional.
SETTINGS = {
    "n": (_integer, 3),
    "k": (_integer, 1),
    "seed": (_integer, None),
    "lambda_weight": (float, 1.0),
    "q_risk": (float, 0.5),
    "p": (_integer, 2),
    "optimizer": (_choice(*qaoa.SCIPY_METHODS), "cobyla"),
    "penalty": (float, None),
    "beta_init": (float, _SCHEDULE_DEFAULTS.beta_penalty_init),
    "doubling_interval": (_integer, _SCHEDULE_DEFAULTS.doubling_interval),
    "shots": (_integer, _SCHEDULE_DEFAULTS.feasibility_shots),
    "feasibility_target": (float, _SCHEDULE_DEFAULTS.feasibility_target),
    "max_iter": (_integer, _SCHEDULE_DEFAULTS.max_iterations),
    "mixer": (_choice(*MIXERS), None),
    "jobs": (_integer, 1),
}
_SOLVE_KEYS = ("seed", "p", "optimizer", "penalty", "beta_init", "doubling_interval", "shots",
               "feasibility_target", "max_iter", "mixer")


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _resolve(args, keys: tuple[str, ...]) -> dict:
    """flags > config file > defaults, each converted to its declared type."""
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"--config: cannot read {config_path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ValueError(f"--config: {config_path} does not hold a JSON object")
    resolved = {}
    for key in keys:
        convert, default = SETTINGS[key]
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key, default)
        if value is not None or default is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"invalid setting {key}={value!r}: {exc}") from exc
        resolved[key] = value
    if resolved.get("seed") is None:
        resolved["seed"] = _integer(os.environ.get("QMARKO_SEED", "0"))
    if getattr(args, "print_config", False):
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


def _run_method(
    inst: instance_mod.PortfolioInstance, method: str, cfg: dict, schedule: qaoa.ScheduleConfig
) -> tuple[dict, str]:
    """Execute one method; returns (record document, trace.csv text)."""
    seed = cfg["seed"]
    penalty = cfg["penalty"]
    if penalty is None:
        # Fixed-penalty QAOA baselines run at 1e3; the classical baseline uses
        # the same weight the slack schedule starts from.
        penalty = 100.0 if method == "classical-baseline" else 1000.0
    if method == "oracle":
        bitstring, value = oracle.exhaustive_portfolio_optimum(inst)
        doc = {
            "method": method,
            "seed": seed,
            "bitstring": bitstring,
            "feasible": True,
            "value": value,
            "iterations": 0,
            "histogram": {bitstring: 1.0},
        }
        return doc, _trace_csv([])
    if method == "classical-baseline":
        result = oracle.classical_baseline(
            inst,
            beta_penalty=penalty,
            budget=cfg["max_iter"],
            seed=seed,
            optimizer=cfg["optimizer"],
        )
        doc = {
            "method": method,
            "seed": seed,
            "bitstring": result.bitstring,
            "feasible": result.feasible,
            "value": result.value,
            "iterations": len(result.trace),
            "penalty": penalty,
            "histogram": {result.bitstring: 1.0},
            "objective_trace": list(result.trace),
        }
        rows = [qaoa.TraceRow(i + 1, v, penalty) for i, v in enumerate(result.trace)]
        return doc, _trace_csv(rows)
    if method == "slack-qaoa":
        record = qaoa.run_schedule(
            inst, schedule, p=cfg["p"], mixer=cfg.get("mixer") or "conditional",
            seed=seed, optimizer=cfg["optimizer"],
        )
    elif method == "penalty-qaoa":
        record = qaoa.run_baseline_penalty_qaoa(
            inst, a_card=penalty, p=cfg["p"], budget=cfg["max_iter"],
            seed=seed, optimizer=cfg["optimizer"],
        )
    elif method == "cardinality-slack-qaoa":
        record = qaoa.run_cardinality_slack_qaoa(
            inst, a_card=penalty, p=cfg["p"], budget=cfg["max_iter"],
            seed=seed, optimizer=cfg["optimizer"],
        )
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    return record.to_dict(), _trace_csv(record.trace)


def _print_solve_row(doc: dict) -> None:
    bitstring = doc.get("bitstring") or "-"
    value = doc.get("value")
    value_text = "-" if value is None else f"{value:.6g}"
    print(f"{doc['method']}\t{bitstring}\tfeasible={doc['feasible']}\tvalue={value_text}")


def cmd_generate(args) -> int:
    cfg = _resolve(args, ("n", "k", "seed", "lambda_weight", "q_risk"))
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
    cfg = _resolve(args, _SOLVE_KEYS)
    if cfg["mixer"] is not None and args.method != "slack-qaoa":
        raise ValueError(f"--mixer applies to slack-qaoa only, not {args.method}")
    schedule = _schedule(cfg)
    inst = instance_mod.load_instance(args.instance)
    doc, trace_text = _run_method(inst, args.method, cfg, schedule)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "record.json", json.dumps(doc, indent=2) + "\n")
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
        _write_atomic(run_dir / "record.json", json.dumps(doc, indent=2) + "\n")
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
    cfg = _resolve(args, (*_SOLVE_KEYS, "n", "k", "jobs"))
    methods = _grid(args.methods, "--methods", _choice(*METHODS))
    seeds = _grid(args.seeds, "--seeds", int)
    schedule = _schedule(cfg)
    if cfg["jobs"] < 1:
        raise ValueError(f"--jobs must be >= 1, got {cfg['jobs']}")
    if args.instance:
        text = instance_mod.to_json(instance_mod.load_instance(args.instance)) + "\n"
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
    if cfg["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=cfg["jobs"]) as pool:
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
    _write_atomic(run_dir / "report.md", table)
    print(table, end="")

    written = 0
    for row in rows:
        run_id = f"{row['method']}_seed{row['seed']}"
        record_path = run_dir / run_id / "record.json"
        if not record_path.exists():
            continue
        record = json.loads(record_path.read_text())
        histogram = record.get("histogram") or {}
        text = "bitstring,probability\n" + "".join(
            f"{bitstring},{float(probability)!r}\n" for bitstring, probability in histogram.items()
        )
        _write_atomic(run_dir / f"hist_{run_id}.csv", text)
        written += 1
    print(f"wrote report.md and {written} histogram files under {run_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarko",
        description="Slack-ancilla QAOA laboratory for constrained portfolio selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON config file; flags take precedence")
        sp.add_argument("--print-config", action="store_true", dest="print_config",
                        help="dump the resolved configuration before running")
        sp.add_argument("--seed", help="random seed (falls back to QMARKO_SEED, then 0)")

    gen = sub.add_parser("generate", help="write a random instance file")
    common(gen)
    gen.add_argument("--n", help="asset count")
    gen.add_argument("--k", help="cardinality bound")
    gen.add_argument("--lambda-weight", dest="lambda_weight")
    gen.add_argument("--q-risk", dest="q_risk")
    gen.add_argument("--out", required=True, help="output instance.json path")
    gen.set_defaults(func=cmd_generate)

    def solve_flags(sp, mixer_help):
        sp.add_argument("--p", help="ansatz depth")
        sp.add_argument("--optimizer", choices=sorted(qaoa.SCIPY_METHODS))
        sp.add_argument("--penalty", help="fixed penalty weight (baselines)")
        sp.add_argument("--beta-init", dest="beta_init", help="initial schedule penalty weight")
        sp.add_argument("--doubling-interval", dest="doubling_interval")
        sp.add_argument("--shots", help="feasibility-check sample count")
        sp.add_argument("--max-iter", dest="max_iter")
        sp.add_argument("--mixer", choices=MIXERS, help=mixer_help)

    solve = sub.add_parser("solve", help="run one method on one instance")
    common(solve)
    solve.add_argument("--instance", required=True, help="instance.json path")
    solve.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    solve_flags(solve, "mixer of slack-qaoa (default conditional); other methods reject it")
    solve.add_argument("--out", required=True, help="output run directory")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="run a methods x seeds grid")
    common(sweep)
    sweep.add_argument("--instance",
                       help="fixed instance file (otherwise one is generated per seed)")
    sweep.add_argument("--n", help="asset count when generating")
    sweep.add_argument("--k", help="cardinality when generating")
    sweep.add_argument("--methods", required=True, help="comma-separated method list")
    sweep.add_argument("--seeds", required=True, help="comma-separated seed list")
    solve_flags(sweep, "mixer of the slack-qaoa cells (default conditional)")
    sweep.add_argument("--jobs", help="concurrent cells")
    sweep.add_argument("--out", required=True, help="sweep output directory")
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="emit comparison table and histograms")
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
