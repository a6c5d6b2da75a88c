"""Benchmark of `ctrec reconcile` on the pv324 shape, end to end and per layer.

    python3 perfbench/run.py --workload oct-wlsv --seed 1 --seconds 60 --trace 0

Run it from the repository root; it imports `ctrec` from `src/` and writes
only under `.perfbench/`. It generates the inputs from the seed, then, until
`--seconds` are used up, launches one fresh `ctrec reconcile` process after
another on those files (a closed loop with one client) and times each from
launch to exit. After the last process it checks every output with the gate
in `gate.py`. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; `attempted` and
`failed` count origins.

`--trace 0` reports the end-to-end metrics over the plain processes.
`--trace 1` alternates plain processes with traced ones and reports the
per-layer metrics, as medians over the traced processes. See README.md for
why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from child import clock
from gate import Gate

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# Forecast origins per `ctrec reconcile` process, the same on every workload.
ORIGINS = 2
RESIDUAL_ORIGINS = 20
# At least two processes per run, so that every run compares the bytes of
# two outputs of the same input.
MIN_PROCESSES = 2
# A process still running after this long is killed and its origins fail.
PROCESS_LIMIT_S = 120.0


# Both workloads weight by the diagonal of the in-sample residual covariance,
# so both read a residual file. `--cov str`, whose covariance is separable,
# is not a workload: see README.md.
COVARIANCE = "wlsv"
WORKLOADS = {
    # One-shot projection through the sparse constraint Gram (11 808 x 11 808),
    # rebuilt and factored once per origin.
    "oct-wlsv": ("--method", "oct", "--cov", "wlsv"),
    # Alternating cross-sectional/temporal projections, about 5 cycles per
    # origin, small dense Gram factorizations only; no sparse solve.
    "ite-wlsv": ("--method", "ite-tcs", "--cov", "wlsv", "--delta", "1e-10"),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "origins_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "hierarchy.load_s": "s",
    "io.read_base_s": "s",
    "io.read_residuals_s": "s",
    "io.read_bytes": "bytes",
    "covariance.build_s": "s",
    "projection.sparse_prepare_s": "s",
    "projection.sparse_prepare_calls": "count",
    "projection.sparse_apply_s": "s",
    "projection.dense_factor_s": "s",
    "projection.dense_factor_calls": "count",
    "reconcile.batch_s": "s",
    "reconcile.origin_s_p50": "s",
    "reconcile.origin_s_max": "s",
    "reconcile.cycles": "count",
    "hierarchy.coherence_s": "s",
    "hierarchy.coherence_calls": "count",
    "io.write_s": "s",
    "io.write_bytes": "bytes",
    "cli.self_s": "s",
    "hierarchy.self_s": "s",
    "io.self_s": "s",
    "covariance.self_s": "s",
    "projection.self_s": "s",
    "reconcile.self_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "fraction",
}


@dataclass
class Process:
    traced: bool
    code: int
    launched: float
    wall_s: float
    rss_mb: float
    spans: list
    missing: list  # hooks the traced process could not install
    read_bytes: int  # input bytes the traced process's readers opened
    out: Path

    def origin_spans(self) -> list:
        return [s for s in self.spans if s[0] == "reconcile.origin"]


# -- inputs --------------------------------------------------------------------


def load_package(root: Path):
    """Import `ctrec` from the checkout's `src/`, never from anywhere else."""
    package = root / "src" / "ctrec"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: {package} not found; run from the repository root")
    sys.path.insert(0, str(package.parent))
    import ctrec

    if Path(ctrec.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported ctrec from {ctrec.__file__}, not {package}")


def make_inputs(work: Path, ct, workload: tuple[str, ...], seed: int):
    """Write the program's input files; return its arguments and the gate
    for its outputs."""
    from ctrec import io
    from ctrec.covariance import build_sigma
    from ctrec.simulate import simulate_dataset

    data = simulate_dataset(
        ct, n_origins=ORIGINS, n_residual_origins=RESIDUAL_ORIGINS, seed=seed
    )
    hierarchy, base, residuals = (
        work / "hierarchy.txt", work / "base.csv", work / "residuals.csv"
    )
    io.write_hierarchy_file(hierarchy, ct)
    io.write_blocks_csv(base, data.bases)
    io.write_residuals_csv(residuals, data.residuals, ct)
    args = [
        "reconcile", "--hierarchy", str(hierarchy), "--input", str(base),
        "--residuals", str(residuals), "--threads", "1", *workload,
    ]
    return args, Gate(ct, data.bases, build_sigma(COVARIANCE, ct, data.residuals))


# -- processes -----------------------------------------------------------------


def launch(root: Path, work: Path, args: list[str], index: int, traced: bool) -> Process:
    """Run one `ctrec` process to completion; its peak RSS comes from its own
    rusage (`os.wait4`), not RUSAGE_CHILDREN, which keeps the maximum over
    every child reaped so far."""
    out = work / f"out-{index:02d}"
    record = work / f"record-{index:02d}.json"
    command = [
        sys.executable, str(CHILD), str(record), "1" if traced else "0",
        "--", *args, "--out", str(out),
    ]
    paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    with open(work / f"log-{index:02d}.txt", "w") as log:
        launched = clock()
        proc = subprocess.Popen(command, cwd=root, env=env, stdout=log, stderr=log)
        killer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        ended = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    recorded = json.loads(record.read_text()) if record.exists() else {}
    return Process(
        traced=traced,
        code=proc.returncode,
        launched=launched,
        wall_s=ended - launched,
        rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        spans=recorded.get("spans", []),
        missing=recorded.get("missing", []),
        read_bytes=recorded.get("read_bytes", 0),
        out=out,
    )


def measure(root: Path, work: Path, args: list[str], seconds: float, trace: bool):
    """Launch processes back to back for `seconds`: a process is launched
    only while it is expected to end within them (as long as the slowest so
    far took), so every run measures about `seconds` and no more. With
    tracing, every second process is traced."""
    processes: list[Process] = []
    start = clock()
    least = 2 * MIN_PROCESSES if trace else MIN_PROCESSES
    while len(processes) < least or (
        clock() - start + max(p.wall_s for p in processes) <= seconds
    ):
        traced = trace and len(processes) % 2 == 1
        processes.append(launch(root, work, args, len(processes), traced))
        if processes[-1].code != 0:
            break
    return processes


def check(processes: list[Process], gate: Gate) -> int:
    """Failed origins: those of a process that exited non-zero, those the
    gate rejects, and all of a process whose bytes differ from the first."""
    failed = 0
    reference = None
    for p in processes:
        if p.code != 0:
            failed += ORIGINS
            continue
        bad, digest = gate.check(p.out / "reconciled.csv")
        reference = reference or digest
        failed += ORIGINS if digest != reference else len(bad)
    return failed


# -- metrics -------------------------------------------------------------------


def end_to_end(processes: list[Process]) -> dict[str, float]:
    """Figures of the plain processes. `wall_s` and `origins_per_s` are
    whole-run figures (the mean wall time; all origins over all the time
    spent reconciling them). On a shared 2-vCPU VM the noise is a drift in
    machine speed lasting minutes, not outliers, and over 15-minute series
    of oct-wlsv processes there these spread about 15% less from run to run
    than medians did.
    `setup_s` and `peak_rss_mb` are medians."""
    runs = [p for p in processes if not p.traced and p.code == 0 and p.origin_spans()]
    if not runs:
        return {}
    setup, origins, reconciling = [], 0, 0.0
    for p in runs:
        spans = p.origin_spans()
        first = min(s[1] for s in spans)
        setup.append(first - p.launched)
        origins += len(spans)
        reconciling += max(s[2] for s in spans) - first
    return {
        "wall_s": statistics.fmean(p.wall_s for p in runs),
        "setup_s": statistics.median(setup),
        "origins_per_s": origins / reconciling,
        "peak_rss_mb": statistics.median(p.rss_mb for p in runs),
    }


def span_metrics(spans: list) -> dict[str, float]:
    """Layer figures of one traced process.

    A span counts toward its name's total only when no enclosing span has
    the same name, so recursion is not counted twice. A layer's self time
    is the time its spans cover minus the time their child spans cover;
    the layer is the part of the span name before the first dot.
    """
    names = [s[0] for s in spans]
    duration = [s[2] - s[1] for s in spans]
    covered = defaultdict(float)
    for s, d in zip(spans, duration):
        if s[3] is not None:
            covered[s[3]] += d

    def ancestors(i):
        while spans[i][3] is not None:
            i = spans[i][3]
            yield names[i]

    def outermost(name, outside=()):
        return [
            i for i, n in enumerate(names)
            if n == name and not any(a == name or a in outside for a in ancestors(i))
        ]

    def total(name, outside=()):
        return sum(duration[i] for i in outermost(name, outside))

    origins = [duration[i] for i in outermost("reconcile.origin")]
    out = {
        "cli.import_s": total("cli.import"),
        "hierarchy.load_s": total("hierarchy.load"),
        # read_residuals_csv reads through read_blocks_csv; that inner read
        # belongs to the residual figure.
        "io.read_base_s": total("io.read_blocks", outside=("io.read_residuals",)),
        "io.read_residuals_s": total("io.read_residuals"),
        "covariance.build_s": total("covariance.build"),
        "projection.sparse_prepare_s": total("projection.sparse_prepare"),
        "projection.sparse_prepare_calls": len(outermost("projection.sparse_prepare")),
        "projection.sparse_apply_s": total("projection.sparse_apply"),
        "projection.dense_factor_s": total("projection.dense_factor"),
        "projection.dense_factor_calls": len(outermost("projection.dense_factor")),
        "reconcile.batch_s": total("reconcile.batch"),
        "reconcile.origin_s_p50": statistics.median(origins) if origins else 0.0,
        "reconcile.origin_s_max": max(origins, default=0.0),
        "hierarchy.coherence_s": total("hierarchy.coherence"),
        "hierarchy.coherence_calls": len(outermost("hierarchy.coherence")),
        "io.write_s": total("io.write"),
    }
    for layer in ("cli", "hierarchy", "io", "covariance", "projection", "reconcile"):
        out[f"{layer}.self_s"] = sum(
            duration[i] - covered[i]
            for i, n in enumerate(names)
            if n.split(".", 1)[0] == layer
        )
    return out


def output_metrics(out: Path) -> dict[str, float]:
    """Figures read from one process's output files."""
    reports = out / "reports.jsonl"
    cycles = sum(
        json.loads(line)["iterations"]
        for line in reports.read_text().splitlines()
        if line.strip()
    )
    return {
        "reconcile.cycles": cycles,
        "io.write_bytes": reports.stat().st_size + (out / "reconciled.csv").stat().st_size,
    }


def per_layer(processes: list[Process]) -> dict[str, float]:
    """Medians over the traced processes. The tracing overhead is the median
    of each traced wall time minus that of the plain process just before it,
    so that a drift in machine speed cancels within each pair."""
    pairs = [
        (plain, traced)
        for plain, traced in zip(processes[::2], processes[1::2])
        if plain.code == 0 and traced.code == 0
    ]
    if not pairs:
        return {}
    samples = defaultdict(list)
    for _, p in pairs:
        figures = {**span_metrics(p.spans), **output_metrics(p.out)}
        figures["io.read_bytes"] = p.read_bytes
        for name, value in figures.items():
            samples[name].append(value)
    out = {name: statistics.median(values) for name, values in samples.items()}
    out["trace.overhead_s"] = statistics.median(t.wall_s - p.wall_s for p, t in pairs)
    return out


# -- environment ---------------------------------------------------------------


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or None when it cannot be asked."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- entry point ---------------------------------------------------------------


def run(
    root: Path,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    ct=None,
) -> dict:
    """One benchmark run; `ct` defaults to the pv324 structure."""
    from ctrec.simulate import pv324_structure

    work = root / ".perfbench" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    args, gate = make_inputs(work, ct or pv324_structure(), WORKLOADS[workload], seed)
    env = environment()
    (work / "env.json").write_text(json.dumps(env, indent=1) + "\n")
    print("# env " + json.dumps(env, sort_keys=True))

    processes = measure(root, work, args, seconds, trace)
    attempted = ORIGINS * len(processes)
    failed = check(processes, gate)
    if trace:
        metrics = per_layer(processes)
        if metrics:
            metrics["failed_frac"] = failed / attempted
        units = PER_LAYER
    else:
        metrics, units = end_to_end(processes), END_TO_END
    print(
        f"# {workload} seed {seed}: {len(processes)} processes "
        f"({sum(p.traced for p in processes)} traced), "
        f"{attempted} origins, {failed} failed; walls "
        + " ".join(f"{p.wall_s:.3f}{'t' if p.traced else ''}" for p in processes)
    )
    missing = sorted({hook for p in processes for hook in p.missing})
    if missing:
        print("# hooks not found, traced processes failed: " + ", ".join(missing))
    return {
        "correct": failed == 0 and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    load_package(root)
    result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
