"""Command-line harness: generate instances, solve them, sweep, report.

Exit codes are a stable scripting contract: 0 success, 2 invalid input,
3 the selected method reported no feasible portfolio. Flags override
config-file entries, which override built-in defaults; QMARKO_SEED
supplies the seed when neither does.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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

_SCHEDULE_DEFAULTS = qaoa.ScheduleConfig()
_SOLVE_DEFAULTS = {
    "p": 2,
    "optimizer": "cobyla",
    "penalty": None,  # per-method default, see _penalty_default
    "beta_init": _SCHEDULE_DEFAULTS.beta_penalty_init,
    "doubling_interval": _SCHEDULE_DEFAULTS.doubling_interval,
    "shots": _SCHEDULE_DEFAULTS.feasibility_shots,
    "feasibility_target": _SCHEDULE_DEFAULTS.feasibility_target,
    "max_iter": _SCHEDULE_DEFAULTS.max_iterations,
    "mixer": None,  # slack-qaoa only; conditional unless set
}


def _default_seed() -> int:
    return int(os.environ.get("QMARKO_SEED", "0"))


def _penalty_default(method: str) -> float:
    # Fixed-penalty QAOA baselines run at 1e3; the classical baseline uses
    # the same weight the slack schedule starts from.
    return 100.0 if method == "classical-baseline" else 1000.0


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _resolve(args, spec: dict, extra: dict | None = None) -> dict:
    """flags > config file > defaults."""
    file_cfg = {}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            file_cfg = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"--config: cannot read {config_path}: {exc}") from exc
    resolved = {}
    for key, default in spec.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in file_cfg:
            resolved[key] = file_cfg[key]
        else:
            resolved[key] = default
    if extra:
        resolved.update(extra)
    if resolved.get("seed") is None:
        resolved["seed"] = _default_seed()
    if getattr(args, "print_config", False):
        print(json.dumps(resolved, indent=2, sort_keys=True))
    return resolved


def _trace_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["iteration", "expectation", "beta_penalty", "feasible_fraction"])
    for row in rows:
        frac = "" if row.feasible_fraction is None else repr(row.feasible_fraction)
        writer.writerow([row.iteration, repr(row.expectation), repr(row.beta_penalty), frac])
    return buf.getvalue()


def _run_method(inst: instance_mod.PortfolioInstance, method: str, cfg: dict) -> tuple[dict, str]:
    """Execute one method; returns (record document, trace.csv text)."""
    seed = int(cfg["seed"])
    penalty = cfg.get("penalty")
    if penalty is None:
        penalty = _penalty_default(method)
    penalty = float(penalty)
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
            budget=int(cfg["max_iter"]),
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
        schedule = qaoa.ScheduleConfig(
            beta_penalty_init=float(cfg["beta_init"]),
            doubling_interval=int(cfg["doubling_interval"]),
            feasibility_shots=int(cfg["shots"]),
            feasibility_target=float(cfg["feasibility_target"]),
            max_iterations=int(cfg["max_iter"]),
        )
        record = qaoa.run_schedule(
            inst, schedule, p=int(cfg["p"]), mixer=cfg.get("mixer") or "conditional",
            seed=seed, optimizer=cfg["optimizer"],
        )
    elif method == "penalty-qaoa":
        record = qaoa.run_baseline_penalty_qaoa(
            inst, a_card=penalty, p=int(cfg["p"]), budget=int(cfg["max_iter"]),
            seed=seed, optimizer=cfg["optimizer"],
        )
    elif method == "cardinality-slack-qaoa":
        record = qaoa.run_cardinality_slack_qaoa(
            inst, a_card=penalty, p=int(cfg["p"]), budget=int(cfg["max_iter"]),
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
    cfg = _resolve(
        args,
        {"n": 3, "k": 1, "seed": None, "lambda_weight": 1.0, "q_risk": 0.5},
    )
    n, k = int(cfg["n"]), int(cfg["k"])
    if n < 1:
        raise ValueError("--n must be a positive integer")
    if not 1 <= k <= n:
        raise ValueError("--k must lie in [1, --n]")
    inst = instance_mod.generate_instance(
        n, k, int(cfg["seed"]),
        lambda_weight=float(cfg["lambda_weight"]),
        q_risk=float(cfg["q_risk"]),
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(out, instance_mod.to_json(inst) + "\n")
    active = int(inst.alpha.sum())
    print(f"wrote {out}: n={n} k={k} seed={cfg['seed']} active_thresholds={active}")
    return EXIT_OK


def _load_instance(path: str) -> instance_mod.PortfolioInstance:
    try:
        return instance_mod.load_instance(path)
    except FileNotFoundError as exc:
        raise ValueError(f"instance file not found: {path}") from exc


def cmd_solve(args) -> int:
    cfg = _resolve(args, {**_SOLVE_DEFAULTS, "seed": None})
    if args.method not in METHODS:
        raise ValueError(f"unknown method {args.method!r}; choose from {METHODS}")
    if cfg["mixer"] is not None and args.method != "slack-qaoa":
        raise ValueError(f"--mixer applies to slack-qaoa only, not {args.method}")
    inst = _load_instance(args.instance)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc, trace_text = _run_method(inst, args.method, cfg)
    _write_atomic(out_dir / "record.json", json.dumps(doc, indent=2) + "\n")
    _write_atomic(out_dir / "trace.csv", trace_text)
    _print_solve_row(doc)
    if not doc.get("feasible") or doc.get("bitstring") is None:
        return EXIT_NO_FEASIBLE
    return EXIT_OK


def _run_cell(payload: tuple) -> dict:
    """One sweep cell; returns its summary row. Runs in worker processes."""
    method, seed, instance_text, cfg, run_dir_text = payload
    run_dir = Path(run_dir_text)
    run_dir.mkdir(parents=True, exist_ok=True)
    row = {key: "" for key in SUMMARY_COLUMNS}
    row["method"] = method
    row["seed"] = seed
    started = time.perf_counter()
    try:
        inst = instance_mod.from_json(instance_text)
        cell_cfg = dict(cfg)
        cell_cfg["seed"] = seed
        doc, trace_text = _run_method(inst, method, cell_cfg)
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


def cmd_sweep(args) -> int:
    cfg = _resolve(args, {**_SOLVE_DEFAULTS, "n": 3, "k": 1, "jobs": 1})
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if not seeds:
        raise ValueError("--seeds must list at least one seed")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    instance_texts: dict[int, str] = {}
    if args.instance:
        text = instance_mod.to_json(_load_instance(args.instance)) + "\n"
        _write_atomic(out_dir / "instance.json", text)
        for seed in seeds:
            instance_texts[seed] = text
    else:
        for seed in seeds:
            inst = instance_mod.generate_instance(int(cfg["n"]), int(cfg["k"]), seed)
            text = instance_mod.to_json(inst) + "\n"
            _write_atomic(out_dir / f"instance_seed{seed}.json", text)
            instance_texts[seed] = text

    payloads = [
        (method, seed, instance_texts[seed], cfg, str(out_dir / f"{method}_seed{seed}"))
        for method in methods
        for seed in seeds
    ]
    jobs = int(cfg["jobs"])
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["bitstring", "probability"])
        for bitstring, probability in histogram.items():
            writer.writerow([bitstring, repr(float(probability))])
        _write_atomic(run_dir / f"hist_{run_id}.csv", buf.getvalue())
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
        sp.add_argument("--seed", type=int, default=None,
                        help="random seed (falls back to QMARKO_SEED, then 0)")

    gen = sub.add_parser("generate", help="write a random instance file")
    common(gen)
    gen.add_argument("--n", type=int, default=None, help="asset count")
    gen.add_argument("--k", type=int, default=None, help="cardinality bound")
    gen.add_argument("--lambda-weight", type=float, default=None, dest="lambda_weight")
    gen.add_argument("--q-risk", type=float, default=None, dest="q_risk")
    gen.add_argument("--out", required=True, help="output instance.json path")
    gen.set_defaults(func=cmd_generate)

    def solve_flags(sp, mixer_help):
        sp.add_argument("--p", type=int, default=None, help="ansatz depth")
        sp.add_argument("--optimizer", choices=sorted(qaoa.SCIPY_METHODS), default=None)
        sp.add_argument("--penalty", type=float, default=None,
                        help="fixed penalty weight (baselines)")
        sp.add_argument("--beta-init", type=float, default=None, dest="beta_init",
                        help="initial schedule penalty weight")
        sp.add_argument("--doubling-interval", type=int, default=None, dest="doubling_interval")
        sp.add_argument("--shots", type=int, default=None, help="feasibility-check sample count")
        sp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
        sp.add_argument("--mixer", choices=("standard", "conditional"), default=None,
                        help=mixer_help)

    solve = sub.add_parser("solve", help="run one method on one instance")
    common(solve)
    solve.add_argument("--instance", required=True, help="instance.json path")
    solve.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    solve_flags(solve, "mixer of slack-qaoa (default conditional); other methods reject it")
    solve.add_argument("--out", required=True, help="output run directory")
    solve.set_defaults(func=cmd_solve)

    sweep = sub.add_parser("sweep", help="run a methods x seeds grid")
    common(sweep)
    sweep.add_argument("--instance", default=None,
                       help="fixed instance file (otherwise one is generated per seed)")
    sweep.add_argument("--n", type=int, default=None, help="asset count when generating")
    sweep.add_argument("--k", type=int, default=None, help="cardinality when generating")
    sweep.add_argument("--methods", required=True, help="comma-separated method list")
    sweep.add_argument("--seeds", required=True, help="comma-separated seed list")
    solve_flags(sweep, "mixer of the slack-qaoa cells (default conditional)")
    sweep.add_argument("--jobs", type=int, default=None, help="concurrent cells")
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
