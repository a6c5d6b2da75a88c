"""Self-test of the benchmark: every workload end to end, plain and traced,
on a tiny random structure; a traced run failing when a hook's target is
gone; and the gate counting a perturbed output cell, a changed byte and a
failed exit as failures.

    python3 perfbench/selftest.py      (from the repository root)

Exits 0 when every check passes and prints each failed check otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import run as bench


def check_workloads(root: Path, ct) -> list[str]:
    problems = []
    for name in bench.WORKLOADS:
        for trace in (False, True):
            result = bench.run(root, name, seed=3, seconds=0, trace=trace, ct=ct)
            expected = bench.PER_LAYER if trace else bench.END_TO_END
            where = f"{name} trace={int(trace)}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            if set(result["metrics"]) != set(expected):
                problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    return problems


def check_missing_hook(root: Path, ct) -> list[str]:
    """Rename `zero_projector` away from the hooks, as a package change that
    moved it would: the traced run must fail rather than read 0 for it."""
    work = root / ".perfbench" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    script = work / "child_renamed.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {str(bench.HERE)!r})\n"
        "import child\n"
        "child.HOOKS = tuple(\n"
        "    (m, p.replace('zero_projector', 'zero_projector_moved'), s)\n"
        "    for m, p, s in child.HOOKS\n"
        ")\n"
        "sys.exit(child.main())\n"
    )
    real, bench.CHILD = bench.CHILD, script
    try:
        result = bench.run(root, "oct-wlsv", seed=3, seconds=0, trace=True, ct=ct)
    finally:
        bench.CHILD = real
    if result["correct"] or not result["failed"] or result["metrics"]:
        return [f"traced run without the zero_projector hook gave {result}"]
    return []


def check_gate(root: Path, ct) -> list[str]:
    from ctrec import io
    from ctrec.covariance import build_sigma
    from ctrec.reconcile import reconcile_oct
    from ctrec.simulate import simulate_dataset

    data = simulate_dataset(ct, n_origins=bench.ORIGINS, seed=5)
    sigma = build_sigma("wlsv", ct, data.residuals)
    gate = bench.Gate(ct, data.bases, sigma)
    work = root / ".perfbench" / "selftest"
    good, bad = work / "good", work / "bad"
    for out in (good, bad):
        out.mkdir(parents=True, exist_ok=True)
    io.write_blocks_csv(
        good / "reconciled.csv", [reconcile_oct(b, sigma).block for b in data.bases]
    )
    lines = (good / "reconciled.csv").read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    origin = cells[0]
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    (bad / "reconciled.csv").write_text("".join(lines))

    def process(out, code=0):
        return bench.Process(False, code, 0.0, 0.0, 0.0, [], [], 0, out)

    problems = []
    failed, _ = gate.check(good / "reconciled.csv")
    if failed:
        problems.append(f"gate rejects the exact solution for origins {sorted(failed)}")
    failed, _ = gate.check(bad / "reconciled.csv")
    if failed != {origin}:
        problems.append(f"gate flags {sorted(failed)} for a cell perturbed in {origin}")
    counts = {
        "repeat": bench.check([process(good), process(good)], gate),
        "changed bytes": bench.check([process(good), process(bad)], gate),
        "non-zero exit": bench.check([process(good), process(good, code=3)], gate),
    }
    every = bench.ORIGINS
    if counts != {"repeat": 0, "changed bytes": every, "non-zero exit": every}:
        problems.append(f"failed-origin counts {counts}")
    return problems


def main() -> int:
    root = Path.cwd()
    bench.load_package(root)
    from ctrec.simulate import random_structure

    ct = random_structure(np.random.default_rng(11), max_series=12, max_upper=4)
    problems = check_workloads(root, ct) + check_missing_hook(root, ct) + check_gate(root, ct)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
