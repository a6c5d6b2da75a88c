"""Batch front-end: reconcile forecast files, generate synthetic
experiments, evaluate candidates, verify the equivalence/convergence
results, and benchmark methods.

Exit codes: 0 success; 2 invalid inputs; 3 numerical failure;
4 non-convergence (outputs are still written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import io
from .covariance import COVARIANCE_NAMES, build_sigma
from .errors import NumericalError, ReconciliationError, ValidationError
from .evaluate import EvalFrame, mcb_nemenyi, nrmse_table, perf_summary
from .hierarchy import CrossTemporalStructure, build_cs, build_ct, build_te
from .reconcile import (
    METHODS as RECONCILE_METHODS,
    ForecastBlock,
    ReconcileReport,
    baseline_bu,
    baseline_pers_bu,
    prepare,
    run_batch,
    sntz,
)
from .simulate import pv324_structure, simulate_dataset

METHODS = RECONCILE_METHODS + ("bu", "pers-bu")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NON_CONVERGENCE = 4


@dataclass
class RunConfig:
    """Everything one batch run depends on; a fixed seed pins all generation."""

    hierarchy: Path | None = None
    orders: list[int] | None = None
    method: str = "oct"
    covariance: str = "ols"
    delta: float = 1e-6
    max_iter: int = 100
    apply_sntz: bool = False
    seed: int = 0
    reps: int = 1
    threads: int = 1
    timings: bool = False
    memory: bool = False
    out: Path = Path(".")


def _load_structure(config: RunConfig) -> CrossTemporalStructure:
    if config.hierarchy is None:
        raise ValidationError("--hierarchy is required")
    agg, labels, orders = io.read_hierarchy_file(config.hierarchy)
    if config.orders:
        orders = config.orders
    return build_ct(build_cs(agg, labels), build_te(orders))


def _strategy(config: RunConfig, ct: CrossTemporalStructure, residuals, histories):
    """Bind a method name to a per-origin callable returning a report.

    A reconciling method is prepared once here and builds its operator on
    the first origin's call, so a batch factors it once.
    """
    method = config.method
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {METHODS}")
    if method in RECONCILE_METHODS:
        sigma = build_sigma(config.covariance, ct, residuals)
        reconcile = prepare(
            method, ct, sigma, delta=config.delta, max_iter=config.max_iter,
            measure_memory=config.memory,
        )
    else:
        reconcile = _baseline(method, ct, histories)

    if not config.apply_sntz:
        return reconcile
    return lambda block: sntz(reconcile(block))


def _baseline(method: str, ct: CrossTemporalStructure, histories):
    """The bu / pers-bu baselines as a per-origin callable."""

    def run(block: ForecastBlock) -> ReconcileReport:
        if method == "bu":
            out = baseline_bu(block)
        elif histories is None or block.origin_id not in histories:
            raise ValidationError(
                f"pers-bu needs --history covering origin {block.origin_id}"
            )
        else:
            out = baseline_pers_bu(histories[block.origin_id], ct, block.origin_id)
        return ReconcileReport(
            block=out,
            method=method,
            covariance="none",
            iterations=1,
            trace=(0.0,),
            coherence=ct.coherence_residuals(out.values),
            elapsed=0.0,
            peak_mem=0,
        )

    return run


def cmd_reconcile(config: RunConfig, input_path: Path, residuals_path, history_path) -> int:
    ct = _load_structure(config)
    blocks = io.read_blocks_csv(input_path, ct)
    residuals = (
        io.read_residuals_csv(residuals_path, ct) if residuals_path else None
    )
    histories = io.read_history_csv(history_path, ct) if history_path else None
    strategy = _strategy(config, ct, residuals, histories)
    reports = run_batch(blocks, strategy, max_workers=config.threads)
    if len(reports) != len(blocks):
        raise ReconciliationError(f"{len(reports)} reports for {len(blocks)} origins")
    config.out.mkdir(parents=True, exist_ok=True)
    io.write_blocks_csv(config.out / "reconciled.csv", [r.block for r in reports])
    io.write_reports_jsonl(
        config.out / "reports.jsonl", reports, timings=config.timings,
        memory=config.memory,
    )
    print(f"reconciled {len(reports)} origins -> {config.out}")
    if any("non-converged" in r.flags for r in reports):
        return EXIT_NON_CONVERGENCE
    return EXIT_OK


def cmd_simulate(config: RunConfig, noise: float, residual_origins: int) -> int:
    ct = _load_structure(config)
    data = simulate_dataset(
        ct,
        n_origins=config.reps,
        n_residual_origins=residual_origins,
        noise_sd=noise,
        seed=config.seed,
    )
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    io.write_blocks_csv(out / "actuals.csv", data.actuals)
    io.write_blocks_csv(out / "base.csv", data.bases)
    if data.residuals is not None:
        io.write_residuals_csv(out / "residuals.csv", data.residuals, ct)
    io.write_history_csv(out / "history.csv", data.histories, ct)
    io.write_hierarchy_file(out / "hierarchy.txt", ct)
    print(f"simulated {config.reps} origins -> {out}")
    return EXIT_OK


def cmd_evaluate(
    config: RunConfig,
    actuals_path: Path,
    candidate_args: list[str],
    reports_path,
    levels_path,
    alpha: float,
    baseline,
) -> int:
    ct = _load_structure(config)
    actuals = io.read_blocks_csv(actuals_path, ct)
    candidates = {}
    for spec in candidate_args:
        name, _, path = spec.partition("=")
        if not path:
            raise ValidationError(f"--candidate wants name=path, got {spec!r}")
        candidates[name] = tuple(io.read_blocks_csv(Path(path), ct))
    levels = ()
    if levels_path:
        levels = _read_levels(levels_path, ct)
    frame = EvalFrame(ct, tuple(actuals), candidates, levels)
    out = config.out
    out.mkdir(parents=True, exist_ok=True)
    table = nrmse_table(frame, baseline=baseline)
    io.write_nrmse_csv(out / "nrmse.csv", table)
    if len(candidates) >= 2:
        ranks = {
            k: mcb_nemenyi(frame, k, alpha=alpha)
            for k in (ct.te.m, 1)
        }
        io.write_ranks_csv(out / "ranks.csv", ranks)
    if reports_path:
        records = io.read_reports_jsonl(reports_path)
        rows = []
        for record in records:
            for i, gap in enumerate(record.get("trace", []), start=1):
                rows.append(
                    (record["method"], i, gap, record.get("delta", float("nan")))
                )
        io.write_trace_csv(out / "trace.csv", rows)
        if any("elapsed" in record or "peak_mem" in record for record in records):
            from .evaluate import perf_summary_from_records

            io.write_perf_csv(out / "perf.csv", perf_summary_from_records(records))
    print(f"evaluation tables -> {out}")
    return EXIT_OK


def _read_levels(path, ct: CrossTemporalStructure) -> tuple[str, ...]:
    import csv as _csv

    mapping = {}
    with io.open_input(path) as fh:
        for row in _csv.reader(fh):
            if len(row) >= 2 and row[0] != "series":
                mapping[row[0]] = row[1]
    missing = [s for s in ct.cs.labels if s not in mapping]
    if missing:
        raise ValidationError(f"level map is missing series {missing[:5]}")
    return tuple(mapping[s] for s in ct.cs.labels)


def cmd_verify(config: RunConfig, instances) -> int:
    from .verify import run_all  # the sparse reference path: scipy, only here

    results = run_all(seed=config.seed, instances=instances)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else 1


def cmd_bench(config: RunConfig, methods: list[str], covariances: list[str], noise: float) -> int:
    """Timing/memory comparison on a synthetic instance (default: the
    324-series hourly shape), one line per method x covariance."""
    ct = pv324_structure() if config.hierarchy is None else _load_structure(config)
    data = simulate_dataset(
        ct, n_origins=config.reps, n_residual_origins=20, noise_sd=noise, seed=config.seed
    )
    histories = {b.origin_id: h for b, h in zip(data.bases, data.histories)}
    reports: list[ReconcileReport] = []
    for cov in covariances:
        for method in methods:
            run = _strategy(
                replace(
                    config, method=method, covariance=cov, timings=True, memory=True
                ),
                ct, data.residuals, histories,
            )
            for block in data.bases:
                reports.append(replace(run(block), method=f"{method}[{cov}]"))
    rows = perf_summary(reports)
    config.out.mkdir(parents=True, exist_ok=True)
    io.write_perf_csv(config.out / "perf.csv", rows)
    width = max(len(r.method) for r in rows)
    for row in sorted(rows, key=lambda r: r.elapsed_median):
        print(
            f"{row.method:<{width}}  median {row.elapsed_median * 1e3:9.2f} ms   "
            f"peak {row.mem_median / 1e6:8.2f} MB   ({row.runs} runs)"
        )
    print(f"perf table -> {config.out / 'perf.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrec",
        description="Cross-temporal forecast reconciliation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, hierarchy_required=True):
        p.add_argument("--hierarchy", type=Path, required=hierarchy_required,
                       help="hierarchy spec file (orders + aggregation rows)")
        p.add_argument("--orders", type=str, default=None,
                       help="override temporal orders, e.g. 24,12,8,6,4,3,2,1")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("reconcile", help="reconcile base forecast CSVs")
    common(p)
    p.add_argument("--input", type=Path, required=True, help="base forecasts CSV")
    p.add_argument("--method", default="oct", choices=METHODS)
    p.add_argument("--cov", default="ols",
                   choices=[name.replace("_", "-") for name in COVARIANCE_NAMES])
    p.add_argument("--residuals", type=Path, default=None,
                   help="residual CSV (required for wlsv)")
    p.add_argument("--history", type=Path, default=None,
                   help="previous-cycle bottom observations (for pers-bu)")
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--sntz", action="store_true",
                   help="clamp negative finest bottom values and rebuild")
    p.add_argument("--timings", action="store_true",
                   help="include wall time in reports.jsonl "
                        "(off by default so equal runs are byte-identical)")
    p.add_argument("--memory", action="store_true",
                   help="trace allocations and include the peak in reports.jsonl; "
                        "tracing slows the run, so take timings in another one")

    p = sub.add_parser("simulate", help="generate a synthetic experiment")
    common(p)
    p.add_argument("--reps", type=int, default=4, help="forecast origins to generate")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--residual-origins", type=int, default=20)

    p = sub.add_parser("evaluate", help="accuracy tables and rank test")
    common(p)
    p.add_argument("--actuals", type=Path, required=True)
    p.add_argument("--candidate", action="append", default=[],
                   metavar="NAME=PATH", help="repeatable: candidate CSVs")
    p.add_argument("--reports", type=Path, default=None,
                   help="reports.jsonl to turn into a trace CSV")
    p.add_argument("--levels", type=Path, default=None,
                   help="CSV mapping series,level for level-wise tables")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--baseline", type=str, default=None,
                   help="candidate name to flag against in the nRMSE table")

    p = sub.add_parser("verify", help="run the randomized verification suites")
    common(p, hierarchy_required=False)
    p.add_argument("--instances", type=int, default=None,
                   help="instance count for the two heavy suites")

    p = sub.add_parser("bench", help="timing/memory comparison on synthetic data")
    common(p, hierarchy_required=False)
    p.add_argument("--reps", type=int, default=3, help="origins per combination")
    p.add_argument("--methods", type=str, default="ite-tcs,ite-cst,ka-tcs,ka-cst,oct")
    p.add_argument("--covs", type=str, default="ols,str,wlsv")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=1000)
    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    orders = None
    if getattr(args, "orders", None):
        try:
            orders = [int(tok) for tok in args.orders.replace(",", " ").split()]
        except ValueError:
            raise ValidationError(f"bad --orders value {args.orders!r}")
    return RunConfig(
        hierarchy=getattr(args, "hierarchy", None),
        orders=orders,
        method=getattr(args, "method", "oct"),
        covariance=getattr(args, "cov", "ols").replace("-", "_"),
        delta=getattr(args, "delta", 1e-6),
        max_iter=getattr(args, "max_iter", 100),
        apply_sntz=getattr(args, "sntz", False),
        seed=args.seed,
        reps=getattr(args, "reps", 1),
        threads=args.threads,
        timings=getattr(args, "timings", False),
        memory=getattr(args, "memory", False),
        out=args.out,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from(args)
        if args.command == "reconcile":
            return cmd_reconcile(config, args.input, args.residuals, args.history)
        if args.command == "simulate":
            return cmd_simulate(config, args.noise, args.residual_origins)
        if args.command == "evaluate":
            return cmd_evaluate(
                config,
                args.actuals,
                args.candidate,
                args.reports,
                args.levels,
                args.alpha,
                args.baseline,
            )
        if args.command == "verify":
            return cmd_verify(config, args.instances)
        if args.command == "bench":
            return cmd_bench(
                config,
                [m.strip() for m in args.methods.split(",") if m.strip()],
                [c.strip().replace("-", "_") for c in args.covs.split(",") if c.strip()],
                args.noise,
            )
        raise ValidationError(f"unknown command {args.command!r}")
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ReconciliationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
