"""Batch front-end: reconcile forecast files, generate synthetic
experiments, evaluate candidates, verify the equivalence/convergence
results, and benchmark methods.

Each command returns its exit code and the summary to print once its
outputs are in place. Exit codes: 0 success; 2 invalid inputs;
3 numerical failure; 4 non-convergence (outputs are still written).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from . import covariance, io
from .errors import NumericalError, ReconciliationError, StructureError, ValidationError
from .evaluate import DEFAULT_ALPHA, EvalFrame, mcb_nemenyi, nrmse_table, perf_summary
from .hierarchy import (
    CrossTemporalStructure, TemporalStructure, build_cs, build_ct, build_te,
)
from .reconcile import (
    ITERATIVE_DEFAULT_DELTA,
    ITERATIVE_DEFAULT_MAX_ITER,
    METHODS as RECONCILE_METHODS,
    ForecastBlock,
    ReconcileReport,
    _Meter,
    baseline_bu,
    baseline_pers_bu,
    prepare,
    run_batch,
    sntz,
)
from .simulate import PV324_ORDERS, pv324_structure, simulate_dataset

METHODS = (*RECONCILE_METHODS, "bu", "pers-bu")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_NON_CONVERGENCE = 4


def _load_structure(args: argparse.Namespace) -> CrossTemporalStructure:
    """The structure of --hierarchy (bench without one: the built-in
    324-series shape), its temporal orders replaced by --orders when given
    (checked before the file is read). A structure fault is prefixed with
    its source: --orders or the hierarchy file."""
    te = _orders(args.orders)
    if args.hierarchy is None:
        return pv324_structure(te.orders if te else PV324_ORDERS)
    agg, labels, orders = io.read_hierarchy_file(args.hierarchy)
    with _naming(args.hierarchy):
        cs = build_cs(agg, labels)
        te = te or build_te(orders)
    return build_ct(cs, te)


@contextmanager
def _naming(source):
    """Prefix ``source`` to a structure fault raised inside."""
    try:
        yield
    except StructureError as exc:
        raise StructureError(f"{source}: {exc}") from None


def _strategy(args: argparse.Namespace, ct: CrossTemporalStructure, residuals, histories):
    """Bind a method name to a per-origin callable returning a report.

    A reconciling method is built here, once per batch, before any origin
    runs; each origin then only applies it, and every report carries that
    build's cost as ``prepare_s`` and ``prepare_peak_mem``.
    """
    method = args.method
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {METHODS}")
    if method in RECONCILE_METHODS:
        sigma = covariance.build_sigma(args.cov.replace("-", "_"), ct, residuals)
        reconcile = prepare(
            method, ct, sigma, delta=args.delta, max_iter=args.max_iter,
            measure_memory=args.memory,
        )
    else:
        reconcile = _baseline(method, ct, histories, args.memory)

    if not args.sntz:
        return reconcile
    return lambda block: sntz(reconcile(block))


def _baseline(method: str, ct: CrossTemporalStructure, histories, memory: bool):
    """The bu / pers-bu baselines as a per-origin callable, timed (and with
    ``memory``, traced) as ``prepare`` times a reconciling method."""

    def run(block: ForecastBlock) -> ReconcileReport:
        if method == "pers-bu" and (histories is None or block.origin_id not in histories):
            raise ValidationError(
                f"pers-bu needs --history covering origin {block.origin_id}"
            )
        with _Meter(memory) as meter:
            if method == "bu":
                out = baseline_bu(block)
            else:
                out = baseline_pers_bu(histories[block.origin_id], ct, block.origin_id)
        return ReconcileReport(
            block=out,
            method=method,
            covariance="none",
            iterations=1,
            trace=(0.0,),
            coherence=ct.coherence_residuals(out.values),
            elapsed=meter.elapsed,
            peak_mem=meter.peak,
        )

    return run


def cmd_reconcile(args: argparse.Namespace) -> tuple[int, str]:
    if args.threads < 1:
        raise ValidationError(f"--threads must be at least 1, got {args.threads}")
    if args.memory and args.threads > 1:
        # tracemalloc is process-wide: one origin's meter would stop or reset
        # the trace while another origin is still measuring
        raise ValidationError("--memory needs --threads 1: traced peaks are process-wide")
    if args.sntz and not all(RECONCILE_METHODS.get(args.method, (True, True))):
        raise ValidationError(f"--sntz needs a fully coherent method; {args.method} is not")
    ct = _load_structure(args)
    blocks = io.read_blocks_csv(args.input, ct)
    residuals = io.read_residuals_csv(args.residuals, ct) if args.residuals else None
    histories = io.read_history_csv(args.history, ct) if args.history else None
    strategy = _strategy(args, ct, residuals, histories)
    reports = run_batch(blocks, strategy, max_workers=args.threads)
    if len(reports) != len(blocks):
        raise ReconciliationError(f"{len(reports)} reports for {len(blocks)} origins")
    io.write_blocks_csv(args.out / "reconciled.csv", [r.block for r in reports])
    io.write_reports_jsonl(
        args.out / "reports.jsonl", reports, timings=args.timings, memory=args.memory
    )
    code = EXIT_NON_CONVERGENCE if any("non-converged" in r.flags for r in reports) else EXIT_OK
    return code, f"reconciled {len(reports)} origins -> {args.out}"


def cmd_simulate(args: argparse.Namespace) -> tuple[int, str]:
    ct = _load_structure(args)
    data = simulate_dataset(
        ct,
        n_origins=args.reps,
        n_residual_origins=args.residual_origins,
        noise_sd=args.noise,
        seed=args.seed,
    )
    out = args.out
    io.write_blocks_csv(out / "actuals.csv", data.actuals)
    io.write_blocks_csv(out / "base.csv", data.bases)
    if data.residuals is not None:
        io.write_residuals_csv(out / "residuals.csv", data.residuals, ct)
    io.write_history_csv(out / "history.csv", data.histories, ct)
    io.write_hierarchy_file(out / "hierarchy.txt", ct)
    return EXIT_OK, f"simulated {args.reps} origins -> {out}"


def cmd_evaluate(args: argparse.Namespace) -> tuple[int, str]:
    ct = _load_structure(args)
    actuals = io.read_blocks_csv(args.actuals, ct)
    candidates = {}
    for spec in args.candidate:
        name, _, path = spec.partition("=")
        if not path:
            raise ValidationError(f"--candidate wants name=path, got {spec!r}")
        if name in candidates:
            raise ValidationError(f"--candidate name {name!r} given twice")
        candidates[name] = tuple(io.read_blocks_csv(Path(path), ct))
    levels = io.read_levels_csv(args.levels, ct) if args.levels else ()
    records = io.read_reports_jsonl(args.reports) if args.reports else None
    frame = EvalFrame(ct, tuple(actuals), candidates, levels)
    out = args.out
    io.write_nrmse_csv(out / "nrmse.csv", nrmse_table(frame, baseline=args.baseline))
    if len(candidates) >= 2:
        ranks = {k: mcb_nemenyi(frame, k, alpha=args.alpha) for k in (ct.te.m, 1)}
        io.write_ranks_csv(out / "ranks.csv", ranks)
    if records is not None:
        rows = [
            (record["method"], i, gap, record.get("delta", float("nan")))
            for record in records
            for i, gap in enumerate(record.get("trace", []), start=1)
        ]
        io.write_trace_csv(out / "trace.csv", rows)
        if any("elapsed" in record or "peak_mem" in record for record in records):
            io.write_perf_csv(out / "perf.csv", perf_summary(records))
    return EXIT_OK, f"evaluation tables -> {out}"


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    from .verify import run_all  # ctrec.reference and scipy load only here

    results = run_all(seed=args.seed, instances=args.instances)
    code = EXIT_OK if all(r.passed for r in results) else 1
    return code, "\n".join(result.line() for result in results)


def _names(text: str, option: str) -> list[str]:
    """The names of a comma-separated option value; none at all is an error."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise ValidationError(f"{option} names no entry: {text!r}")
    return names


def cmd_bench(args: argparse.Namespace) -> tuple[int, str]:
    """Timing/memory comparison on a synthetic instance (default: the
    324-series hourly shape), one line per method x covariance."""
    methods = _names(args.methods, "--methods")
    covariances = [c.replace("-", "_") for c in _names(args.covs, "--covs")]
    ct = _load_structure(args)
    data = simulate_dataset(
        ct, n_origins=args.reps, n_residual_origins=20, noise_sd=args.noise, seed=args.seed
    )
    histories = {b.origin_id: h for b, h in zip(data.bases, data.histories)}
    records = []
    for cov in covariances:
        for method in methods:
            run = _strategy(
                argparse.Namespace(**vars(args), method=method, cov=cov),
                ct, data.residuals, histories,
            )
            for block in data.bases:
                record = io.report_dict(run(block), timings=True, memory=True)
                records.append({**record, "method": f"{method}[{cov}]"})
    rows = perf_summary(records)
    io.write_perf_csv(args.out / "perf.csv", rows)
    width = max(len(r.method) for r in rows)
    lines = [
        f"{row.method:<{width}}  median {row.elapsed_median * 1e3:9.2f} ms   "
        f"peak {row.mem_median / 1e6:8.2f} MB   ({row.runs} runs)"
        for row in sorted(rows, key=lambda r: r.elapsed_median)
    ]
    return EXIT_OK, "\n".join([*lines, f"perf table -> {args.out / 'perf.csv'}"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctrec",
        description="Cross-temporal forecast reconciliation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, structure=True):
        """A subcommand; with ``structure``, --hierarchy (required when
        ``structure`` is True), --orders and --out."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if structure is not None:
            p.add_argument("--hierarchy", type=Path, required=structure,
                           help="hierarchy spec file (orders + aggregation rows)")
            p.add_argument("--orders", type=str, default=None,
                           help="override temporal orders, e.g. 24,12,8,6,4,3,2,1")
            p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        return p

    p = command("reconcile", cmd_reconcile, "reconcile base forecast CSVs")
    p.add_argument("--input", type=Path, required=True, help="base forecasts CSV")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--method", default="oct", choices=METHODS)
    p.add_argument("--cov", default="ols",
                   choices=[name.replace("_", "-") for name in covariance.COVARIANCE_NAMES])
    p.add_argument("--residuals", type=Path, default=None,
                   help="residual CSV (required for wlsv)")
    p.add_argument("--history", type=Path, default=None,
                   help="previous-cycle bottom observations (for pers-bu)")
    p.add_argument("--delta", type=float, default=ITERATIVE_DEFAULT_DELTA)
    p.add_argument("--max-iter", type=int, default=ITERATIVE_DEFAULT_MAX_ITER)
    p.add_argument("--sntz", action="store_true",
                   help="clamp negative finest bottom values and rebuild")
    p.add_argument("--timings", action="store_true",
                   help="include wall time in reports.jsonl "
                        "(off by default so equal runs are byte-identical)")
    p.add_argument("--memory", action="store_true",
                   help="trace allocations and include the peak in reports.jsonl; "
                        "needs --threads 1, and tracing slows the run, so take "
                        "timings in another one")

    p = command("simulate", cmd_simulate, "generate a synthetic experiment")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=4, help="forecast origins to generate")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--residual-origins", type=int, default=20)

    p = command("evaluate", cmd_evaluate, "accuracy tables and rank test")
    p.add_argument("--actuals", type=Path, required=True)
    p.add_argument("--candidate", action="append", default=[],
                   metavar="NAME=PATH", help="repeatable: candidate CSVs")
    p.add_argument("--reports", type=Path, default=None,
                   help="reports.jsonl to turn into a trace CSV")
    p.add_argument("--levels", type=Path, default=None,
                   help="CSV mapping series,level for level-wise tables")
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--baseline", type=str, default=None,
                   help="candidate name to flag against in the nRMSE table")

    p = command("verify", cmd_verify, "run the randomized verification suites",
                structure=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=None,
                   help="instance count for the two heavy suites")

    p = command("bench", cmd_bench, "timing/memory comparison on synthetic data",
                structure=False)
    p.add_argument("--seed", type=int, default=0)
    # bench always traces memory (so its timings carry tracemalloc) and never clamps
    p.set_defaults(memory=True, sntz=False)
    p.add_argument("--reps", type=int, default=3, help="origins per combination")
    p.add_argument("--methods", type=str, default="ite-tcs,ite-cst,ka-tcs,ka-cst,oct")
    p.add_argument("--covs", type=str, default="ols,str,wlsv")
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=ITERATIVE_DEFAULT_DELTA)
    p.add_argument("--max-iter", type=int, default=1000)
    return parser


def _orders(text: str | None) -> TemporalStructure | None:
    """``--orders`` as a temporal structure."""
    if not text:
        return None
    try:
        orders = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValidationError(f"bad --orders value {text!r}")
    with _naming("--orders"):
        return build_te(orders)


def main(argv=None) -> int:
    """Run one command. Its outputs move into place together when it
    returns, and only then is its summary printed; a command that raises
    leaves every earlier output as it was and prints no summary."""
    args = build_parser().parse_args(argv)
    try:
        with io.committing():
            code, summary = args.run(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ReconciliationError as exc:  # ValidationError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
