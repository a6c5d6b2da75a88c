"""Run one `ctrec` command in this process, as the `ctrec` console script
does, and record when each origin starts and ends.

    python3 child.py RECORD TRACE -- reconcile ARGS...

With TRACE=0 the only instrument is a wrapper around the per-origin callable
that `ctrec.cli` hands to `run_batch`: two clock reads per origin. With
TRACE=1 every public function that `ctrec.cli` reaches on the reconcile path
is wrapped as well, patched at the name its caller looks up, and each call
becomes a span; a hook that no longer exists fails the process before the
command runs. Spans are kept in memory and written to RECORD as JSON when
the command ends, so file I/O never lands inside a span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time


def clock() -> float:
    """CLOCK_MONOTONIC is system-wide on Linux, so this process and the
    benchmark that launched it read the same clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# A projection constructor; the `_apply` of the operator it returns is timed
# as "projection.sparse_apply".
PREPARE = "projection.sparse_prepare"

# (module, attribute, span name). Each name is patched where its caller looks
# it up: `ctrec.cli` imported `build_*` and `run_batch` by name, and
# `ctrec.reconcile` imported the projection constructors and `sym_solver` by
# name, so patching only `ctrec.projection` would miss every call.
HOOKS = (
    ("ctrec.io", "read_hierarchy_file", "hierarchy.load"),
    ("ctrec.cli", "build_cs", "hierarchy.load"),
    ("ctrec.cli", "build_te", "hierarchy.load"),
    ("ctrec.cli", "build_ct", "hierarchy.load"),
    ("ctrec.io", "read_blocks_csv", "io.read_blocks"),
    ("ctrec.io", "read_residuals_csv", "io.read_residuals"),
    ("ctrec.covariance", "build_sigma", "covariance.build"),
    ("ctrec.reconcile", "sym_solver", "projection.dense_factor"),
    ("ctrec.projection", "sym_solver", "projection.dense_factor"),
    ("ctrec.hierarchy", "CrossTemporalStructure.coherence_residuals", "hierarchy.coherence"),
    ("ctrec.io", "write_blocks_csv", "io.write"),
    ("ctrec.io", "write_reports_jsonl", "io.write"),
    ("ctrec.reconcile", "zero_projector", PREPARE),
    ("ctrec.reconcile", "structural_projector", PREPARE),
    ("ctrec.projection", "zero_projector", PREPARE),
    ("ctrec.projection", "structural_projector", PREPARE),
)
# Hooks that open an input file; the size of that file counts as read.
READERS = {
    ("ctrec.io", "read_hierarchy_file"),
    ("ctrec.io", "read_blocks_csv"),
    ("ctrec.io", "read_residuals_csv"),
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, origin id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.read_bytes = 0
        self._reading = 0
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.origin = [], None
        return local

    def wrap(self, name, fn, origin_of=None):
        """Return `fn` recording one span per call; `origin_of(*args)` gives
        the origin id that the call and every span inside it carry."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            outer_origin = state.origin
            if origin_of is not None:
                state.origin = origin_of(*args)
            parent = state.stack[-1] if state.stack else None
            span = [name, clock(), None, parent, state.origin]
            state.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                state.stack.pop()
                state.origin = outer_origin

        return traced

    def count_reads(self, read):
        """Return `read` adding the size of the file at its first argument to
        `read_bytes`, unless an enclosing read already counted it
        (`read_residuals_csv` reads through `read_blocks_csv`)."""

        @functools.wraps(read)
        def counted(path, *args, **kwargs):
            if not self._reading:
                self.read_bytes += os.path.getsize(path)
            self._reading += 1
            try:
                return read(path, *args, **kwargs)
            finally:
                self._reading -= 1

        return counted


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _timing_apply(tracer: Tracer, build):
    @functools.wraps(build)
    def prepare(*args, **kwargs):
        operator = build(*args, **kwargs)
        if hasattr(operator, "_apply"):
            operator._apply = tracer.wrap("projection.sparse_apply", operator._apply)
        return operator

    return prepare


def install(tracer: Tracer, cli, full: bool) -> list[str]:
    """Patch the hooks into the imported package; return the hooks that no
    longer exist."""
    missing = []
    real_run_batch = cli.run_batch

    def run_batch(blocks, strategy, *args, **kwargs):
        per_origin = tracer.wrap(
            "reconcile.origin", strategy, origin_of=lambda block: block.origin_id
        )
        return real_run_batch(blocks, per_origin, *args, **kwargs)

    cli.run_batch = tracer.wrap("reconcile.batch", run_batch) if full else run_batch
    if not full:
        return missing

    for module_name, path, span in HOOKS:
        try:
            owner, attr = _resolve(module_name, path)
            target = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        if span == PREPARE:
            target = _timing_apply(tracer, target)
        target = tracer.wrap(span, target)
        if (module_name, path) in READERS:
            target = tracer.count_reads(target)
        setattr(owner, attr, target)
    return missing


def main() -> int:
    record, trace, separator, *argv = sys.argv[1:]
    if separator != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py RECORD 0|1 -- COMMAND ARGS...")
    full = trace == "1"
    tracer = Tracer()
    start = clock()
    import ctrec.cli as cli

    if full:
        tracer.spans.append(["cli.import", start, clock(), None, None])
    missing = install(tracer, cli, full)
    run = tracer.wrap("cli.main", cli.main) if full else cli.main
    code = 2
    try:
        if missing:
            # A layer whose hook is gone would read 0, which looks like a gain.
            print("error: hooks not found: " + ", ".join(missing), file=sys.stderr)
        else:
            code = run(argv)
    finally:
        with open(record, "w") as fh:
            json.dump(
                {
                    "spans": tracer.spans,
                    "missing": missing,
                    "read_bytes": tracer.read_bytes,
                    "exit": code,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
