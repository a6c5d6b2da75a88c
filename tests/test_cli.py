"""End-to-end tests of the command-line interface."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ctrec
import ctrec.cli
import ctrec.projection as projection
import ctrec.reconcile as reconcile
from ctrec.cli import main
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.covariance import ResidualSet
from ctrec.io import (
    read_blocks_csv,
    read_hierarchy_file,
    read_history_csv,
    read_reports_jsonl,
    write_blocks_csv,
    write_residuals_csv,
)
from ctrec.reconcile import ForecastBlock, frobenius_gap
from ctrec.simulate import simulate_dataset

TOY_HIERARCHY = """\
orders = 4,2,1
total: p1, p2, p3, p4
zone1: p1, p2
zone2: p3, p4
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "hier.txt").write_text(TOY_HIERARCHY)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def simulate(workdir, out="sim", seed=7, noise=0.4, reps=3):
    assert (
        run(
            [
                "simulate",
                "--hierarchy", workdir / "hier.txt",
                "--reps", reps,
                "--noise", noise,
                "--seed", seed,
                "--out", workdir / out,
            ]
        )
        == 0
    )
    return workdir / out


def test_simulate_writes_complete_dataset(workdir):
    sim = simulate(workdir)
    for name in ("actuals.csv", "base.csv", "residuals.csv", "history.csv", "hierarchy.txt"):
        assert (sim / name).exists()
    agg, labels, orders = read_hierarchy_file(sim / "hierarchy.txt")
    assert orders == [4, 2, 1]
    assert labels[0] == "total"


def test_simulate_zero_noise_is_coherent_and_methods_keep_it(workdir):
    sim0 = workdir / "sim0"
    assert run(
        ["simulate", "--hierarchy", workdir / "hier.txt", "--reps", 2,
         "--noise", 0.0, "--seed", 1, "--out", sim0]
    ) == 0
    assert not (sim0 / "residuals.csv").exists()  # nothing to estimate from
    out = workdir / "out0"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim0 / "base.csv",
         "--method", "oct", "--cov", "ols", "--out", out]
    ) == 0
    agg, labels, orders = read_hierarchy_file(workdir / "hier.txt")
    ct = build_ct(build_cs(agg, labels), build_te(orders))
    before = read_blocks_csv(sim0 / "base.csv", ct)
    after = read_blocks_csv(out / "reconciled.csv", ct)
    for a, b in zip(before, after):
        assert np.allclose(a.values, b.values, atol=1e-9)


@pytest.mark.parametrize(
    "method,cov",
    [("oct", "ols"), ("seq-cst", "str"), ("ka-tcs", "wlsv"), ("ite-tcs", "wlsv")],
)
def test_reconcile_methods_produce_reports(workdir, method, cov):
    sim = simulate(workdir)
    out = workdir / f"out-{method}-{cov}"
    args = [
        "reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
        "--method", method, "--cov", cov, "--out", out,
    ]
    if cov == "wlsv":
        args += ["--residuals", sim / "residuals.csv"]
    assert run(args) == 0
    records = read_reports_jsonl(out / "reports.jsonl")
    assert len(records) == 3  # no origin dropped
    assert all(r["method"] == method for r in records)
    if cov == "wlsv":  # healthy noise level: no variance floor engaged
        assert all("variance-floor" not in r["flags"] for r in records)


def test_reconcile_builds_the_covariance_through_the_covariance_module(
    workdir, monkeypatch
):
    # the command looks build_sigma up on ctrec.covariance at call time, so a
    # wrapper patched there (the benchmark's covariance.build span) sees it
    import ctrec.covariance as covariance

    sim = simulate(workdir)
    calls = []
    real = covariance.build_sigma

    def recording(name, *args, **kwargs):
        calls.append(name)
        return real(name, *args, **kwargs)

    monkeypatch.setattr(covariance, "build_sigma", recording)
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "ite-tcs", "--cov", "wlsv", "--residuals", sim / "residuals.csv",
         "--out", workdir / "out-hooked"]
    ) == 0
    assert calls == ["wlsv"]


def test_reconcile_oct_matches_projection_oracle(workdir):
    # a toy column (3, 1, 1) under the identity covariance
    hier = workdir / "mini.txt"
    hier.write_text("orders = 1\ntotal: a, b\n")
    base = workdir / "base.csv"
    base.write_text("origin,series,k1_1\n0,total,3.0\n0,a,1.0\n0,b,1.0\n")
    out = workdir / "mini-out"
    assert run(
        ["reconcile", "--hierarchy", hier, "--input", base,
         "--method", "oct", "--cov", "ols", "--out", out]
    ) == 0
    text = (out / "reconciled.csv").read_text().splitlines()
    values = {line.split(",")[1]: float(line.split(",")[2]) for line in text[1:]}
    assert abs(values["total"] - 8 / 3) < 1e-12
    assert abs(values["a"] - 4 / 3) < 1e-12
    assert abs(values["b"] - 4 / 3) < 1e-12


def test_reconcile_iterative_constant_covariance_single_cycle(workdir):
    sim = simulate(workdir)
    out = workdir / "out-ite-ols"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "ite-cst", "--cov", "ols", "--out", out]
    ) == 0
    records = read_reports_jsonl(out / "reports.jsonl")
    assert all(r["iterations"] == 1 for r in records)


def test_reconcile_pers_bu_and_sntz(workdir):
    sim = simulate(workdir)
    out = workdir / "out-pers"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "pers-bu", "--history", sim / "history.csv", "--sntz", "--out", out]
    ) == 0
    records = read_reports_jsonl(out / "reports.jsonl")
    assert all(r["method"] == "pers-bu+sntz" for r in records)
    assert all("sntz" in r["flags"] for r in records)


@pytest.mark.parametrize("method", ["bu", "pers-bu"])
def test_baselines_report_their_time_and_memory(workdir, method):
    # both fields used to be written as 0 for the two baselines
    sim = simulate(workdir)
    out = workdir / f"timed-{method}"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", method, "--history", sim / "history.csv", "--timings", "--memory",
         "--out", out]
    ) == 0
    records = read_reports_jsonl(out / "reports.jsonl")
    assert all(r["elapsed"] > 0 and r["peak_mem"] > 0 for r in records)
    assert all(r["prepare_s"] > 0 and r["prepare_peak_mem"] > 0 for r in records)
    bench = workdir / f"bench-{method}"
    assert run(
        ["bench", "--hierarchy", workdir / "hier.txt", "--reps", 2, "--methods", method,
         "--covs", "ols", "--out", bench]
    ) == 0
    header, row = (bench / "perf.csv").read_text().splitlines()
    perf = dict(zip(header.split(","), row.split(",")))
    assert float(perf["elapsed_median"]) > 0 and float(perf["mem_median"]) > 0


def test_bu_traces_the_change_it_makes(workdir):
    # the bu report used to carry a trace of 0.0 whatever it changed
    sim = simulate(workdir)
    out = workdir / "out-bu"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "bu", "--out", out]
    ) == 0
    agg, labels, orders = read_hierarchy_file(workdir / "hier.txt")
    ct = build_ct(build_cs(agg, labels), build_te(orders))
    bases = read_blocks_csv(sim / "base.csv", ct)
    outs = read_blocks_csv(out / "reconciled.csv", ct)
    records = read_reports_jsonl(out / "reports.jsonl")
    for base, block, record in zip(bases, outs, records, strict=True):
        assert record["covariance"] == "none"
        assert record["trace"] == [frobenius_gap(block, base)] and record["trace"][0] > 0


def test_pers_bu_reconciles_the_persistence_forecast_unchanged(workdir):
    sim = simulate(workdir)
    out = workdir / "out-pers-bu"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "pers-bu", "--history", sim / "history.csv", "--out", out]
    ) == 0
    agg, labels, orders = read_hierarchy_file(workdir / "hier.txt")
    ct = build_ct(build_cs(agg, labels), build_te(orders))
    histories = read_history_csv(sim / "history.csv", ct)
    outs = read_blocks_csv(out / "reconciled.csv", ct)
    records = read_reports_jsonl(out / "reports.jsonl")
    assert len(outs) == len(records) == 3
    for block, record in zip(outs, records):
        assert record["method"] == "pers-bu" and record["trace"] == [0.0]
        history = histories[block.origin_id]
        assert np.array_equal(block.values, ct.from_bottom_hf(history[:, -ct.te.m:]))


def test_bu_reads_the_cov_option_like_every_method(workdir, capsys):
    # --cov applies to every method: wlsv needs --residuals even for bu
    sim = simulate(workdir)
    out = workdir / "out"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "bu", "--cov", "wlsv", "--out", out]
    ) == 2
    assert "error: wlsv needs a residual set" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["cs", "te", "seq-cst", "seq-tcs"])
def test_reconcile_refuses_sntz_after_a_partly_coherent_method(workdir, capsys, method):
    # sntz rebuilds every level from the finest bottom values, so after a
    # method that leaves one dimension incoherent it would overwrite that
    # method's result; the refusal comes before any file is read
    code = run(
        ["reconcile", "--hierarchy", workdir / "missing.txt", "--input",
         workdir / "missing.csv", "--method", method, "--sntz", "--out", workdir / "out"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"--sntz needs a fully coherent method; {method} is not" in err
    assert not (workdir / "out").exists()


def test_reconcile_validation_exit_codes(workdir):
    sim = simulate(workdir)
    # missing residuals for wlsv
    code = run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "oct", "--cov", "wlsv", "--out", workdir / "x"]
    )
    assert code == 2
    # unparsable hierarchy
    (workdir / "broken.txt").write_text("nonsense\n")
    code = run(
        ["reconcile", "--hierarchy", workdir / "broken.txt", "--input", sim / "base.csv",
         "--method", "oct", "--out", workdir / "y"]
    )
    assert code == 2


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_reconcile_rejects_a_non_finite_delta(workdir, capsys, delta):
    # a NaN delta would run every cycle and write "delta": NaN, which is not
    # JSON; an infinite one would stop after one cycle as converged
    sim = simulate(workdir)
    out = workdir / "out"
    code = run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "ite-tcs", f"--delta={delta}", "--out", out]
    )
    assert code == 2
    assert "delta must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_reconcile_malformed_rows_exit_2_with_file_and_line(workdir, capsys):
    sim = simulate(workdir)
    lines = (sim / "base.csv").read_text().splitlines()
    dup = workdir / "dup.csv"
    dup.write_text("\n".join(lines + [lines[1]]) + "\n")
    code = run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", dup,
         "--method", "oct", "--out", workdir / "x"]
    )
    assert code == 2
    assert f"dup.csv:{len(lines) + 1}:" in capsys.readouterr().err

    hist_lines = (sim / "history.csv").read_text().splitlines()
    first = hist_lines[1].split(",")
    hist_lines[1] = ",".join(first[:2] + ["n/a"] + first[3:])
    bad_hist = workdir / "hist.csv"
    bad_hist.write_text("\n".join(hist_lines) + "\n")
    code = run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "pers-bu", "--history", bad_hist, "--out", workdir / "y"]
    )
    assert code == 2
    assert "hist.csv:2:" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["forecasts", "unquoted", "levels", "matrix"])
def test_a_csv_cell_over_the_field_size_limit_exits_2_naming_the_line(
    workdir, capsys, reader
):
    # the csv module refuses a cell over 131 072 characters; each reader that
    # uses it (the unquoted forecasts reach it once numpy rejects the cell)
    # names the file and line instead of ending in a traceback
    sim = simulate(workdir)
    big = "1" * 200_000
    hierarchy, bad = workdir / "hier.txt", workdir / "bad.csv"
    argv = ["reconcile", "--input", bad]
    if reader == "levels":
        bad.write_text(f'series,level\ntotal,"{big}"\n')
        argv = ["evaluate", "--actuals", sim / "actuals.csv", "--levels", bad]
    elif reader == "matrix":
        bad.write_text(f'series,a,b\ntotal,1,1\nzone,"{big}",0\n')
        hierarchy = workdir / "matrix.txt"
        hierarchy.write_text("orders = 4,2,1\nmatrix = bad.csv\n")
    else:
        lines = (sim / "base.csv").read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = f'"{big}"' if reader == "forecasts" else f"x{big}"
        lines[2] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
    code = run(argv + ["--hierarchy", hierarchy, "--out", workdir / "x"])
    assert code == 2
    line = 2 if reader == "levels" else 3
    assert f"bad.csv:{line}: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--hierarchy", "--input", "--residuals", "--history"])
def test_reconcile_missing_input_file_exits_2_naming_it(workdir, capsys, flag):
    sim = simulate(workdir)
    args = {
        "--hierarchy": workdir / "hier.txt",
        "--input": sim / "base.csv",
        "--residuals": sim / "residuals.csv",
        "--history": sim / "history.csv",
    }
    missing = workdir / "no-such-file.csv"
    args[flag] = missing
    method = ["--method", "pers-bu"] if flag == "--history" else ["--cov", "wlsv"]
    argv = ["reconcile", "--out", workdir / "x"] + method
    for name, path in args.items():
        argv += [name, path]
    assert run(argv) == 2
    assert str(missing) in capsys.readouterr().err


def _unusable_output_commands(workdir):
    """(arguments less --out, first file written) of each writing command."""
    sim = simulate(workdir)
    hier = ["--hierarchy", workdir / "hier.txt"]
    return {
        "reconcile": (["reconcile", *hier, "--input", sim / "base.csv"], "reconciled.csv"),
        "simulate": (["simulate", *hier, "--reps", 1], "actuals.csv"),
        "evaluate": (
            ["evaluate", *hier, "--actuals", sim / "actuals.csv",
             "--candidate", f"base={sim / 'base.csv'}"],
            "nrmse.csv",
        ),
        "bench": (
            ["bench", *hier, "--reps", 1, "--methods", "oct", "--covs", "ols"], "perf.csv"
        ),
    }


@pytest.mark.parametrize("command", ["reconcile", "simulate", "evaluate", "bench"])
@pytest.mark.parametrize(
    "case", ["out-is-a-file", "out-below-a-file", "file-is-a-dir", "nul-byte"]
)
def test_an_unusable_output_path_exits_2_naming_it(workdir, capsys, command, case):
    args, first = _unusable_output_commands(workdir)[command]
    blocker = workdir / "blocker"
    if case == "out-is-a-file":
        blocker.write_text("")
        out = blocker
    elif case == "out-below-a-file":
        blocker.write_text("")
        out = blocker / "sub"
    elif case == "file-is-a-dir":
        out = workdir / "taken"
        (out / first).mkdir(parents=True)
    else:
        out = workdir / "bad\0dir"
    capsys.readouterr()
    assert run([*args, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out / first}: ")
    assert "Traceback" not in captured.err
    # no summary line either, also when the commit fails (file-is-a-dir)
    assert captured.out == ""


def test_a_failed_command_keeps_earlier_outputs_and_adds_no_file(
    workdir, capsys, monkeypatch
):
    sim = simulate(workdir)
    reconcile_args = ["reconcile", "--hierarchy", workdir / "hier.txt",
                      "--input", sim / "base.csv"]
    kept, empty = workdir / "kept", workdir / "empty"
    (kept / "reports.jsonl").mkdir(parents=True)
    (kept / "reconciled.csv").write_bytes(b"earlier\n")
    (empty / "reports.jsonl").mkdir(parents=True)
    for out in (kept, empty):
        assert run([*reconcile_args, "--out", out]) == 2
        assert f"cannot write {out / 'reports.jsonl'}: " in capsys.readouterr().err
    assert (kept / "reconciled.csv").read_bytes() == b"earlier\n"
    assert sorted(p.name for p in kept.iterdir()) == ["reconciled.csv", "reports.jsonl"]
    assert [p.name for p in empty.iterdir()] == ["reports.jsonl"]
    # evaluate reads --reports with its other inputs, before any table
    monkeypatch.setattr(ctrec.cli, "nrmse_table", lambda *a, **k: pytest.fail("computed"))
    reports = workdir / "bad.jsonl"
    reports.write_text('{"method": "oct", "trace": 5}\n')
    evald = workdir / "eval-bad-report"
    code = run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"base={sim / 'base.csv'}", "--reports", reports, "--out", evald]
    )
    assert code == 2
    assert "bad.jsonl:1: field trace: expected list of numbers" in capsys.readouterr().err
    assert not evald.exists()


@pytest.mark.parametrize("method", ctrec.cli.METHODS)
def test_every_method_writes_reports_the_reader_accepts(workdir, method):
    sim = simulate(workdir, reps=1)
    args = [
        "reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
        "--method", method, "--cov", "wlsv", "--residuals", sim / "residuals.csv",
        "--history", sim / "history.csv",
    ]
    flag_sets = [(), ("--timings", "--memory")]
    if all(reconcile.METHODS.get(method, (True, True))):
        flag_sets.append(("--sntz", "--timings"))
    for flags in flag_sets:
        out = workdir / ("out" + "".join(flags))
        assert run([*args, *flags, "--out", out]) == 0
        (record,) = read_reports_jsonl(out / "reports.jsonl")
        assert ("delta" in record) == method.startswith("ite-")
        assert ("elapsed" in record) == ("--timings" in flags)
        assert ("peak_mem" in record) == ("--memory" in flags)


def test_a_floored_covariance_is_flagged_once_in_reports_jsonl(tmp_path):
    # series a has zero residuals, so wlsv floors its cells; seq-cst weighs
    # both of its steps with that one covariance
    (tmp_path / "hier.txt").write_text("orders = 2,1\ntot: a, b\n")
    ct = build_ct(build_cs(np.array([[1.0, 1.0]]), ["tot", "a", "b"]), build_te([2, 1]))
    rng = np.random.default_rng(6)
    write_blocks_csv(tmp_path / "base.csv", [ForecastBlock(rng.normal(size=(3, 3)), ct, "0")])
    residuals = rng.normal(size=(5, 3, 3))
    residuals[:, 1] = 0.0
    write_residuals_csv(tmp_path / "res.csv", ResidualSet(residuals), ct)
    assert run(
        ["reconcile", "--hierarchy", tmp_path / "hier.txt", "--input", tmp_path / "base.csv",
         "--method", "seq-cst", "--cov", "wlsv", "--residuals", tmp_path / "res.csv",
         "--out", tmp_path / "out"]
    ) == 0
    (record,) = read_reports_jsonl(tmp_path / "out" / "reports.jsonl")
    assert record["flags"] == ["variance-floor"]


@pytest.mark.parametrize(
    "spec, line",
    [
        ("orders = 2,1\nt: a, b\norders = 4,2,1\n", 3),
        ("orders = 2,1\nmatrix = w.csv\n# again\nmatrix = w.csv\n", 4),
    ],
    ids=["orders", "matrix"],
)
def test_a_key_repeated_in_a_hierarchy_spec_exits_2_naming_its_line(
    workdir, capsys, spec, line
):
    # the last value used to win silently
    (workdir / "w.csv").write_text("series,a,b\nt,1,1\n")
    (workdir / "twice.txt").write_text(spec)
    out = workdir / "sim-twice"
    assert run(["simulate", "--hierarchy", workdir / "twice.txt", "--out", out]) == 2
    assert f"twice.txt:{line}: repeated key" in capsys.readouterr().err
    assert not out.exists()


def test_structure_faults_name_their_source(workdir, capsys):
    (workdir / "dup.txt").write_text("orders = 2,1\nt: a, b\nt: b\n")
    out = workdir / "s"
    assert run(["simulate", "--hierarchy", workdir / "dup.txt", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"error: {workdir / 'dup.txt'}: duplicate series label 't'" in err
    for args in (["simulate", "--hierarchy", workdir / "hier.txt"], ["bench"]):
        assert run([*args, "--orders", "0", "--out", out]) == 2
        assert "error: --orders: orders must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_reconcile_non_convergence_exit_code_and_outputs(workdir):
    sim = simulate(workdir)
    out = workdir / "out-nc"
    code = run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "ite-tcs", "--cov", "wlsv", "--residuals", sim / "residuals.csv",
         "--delta", 1e-14, "--max-iter", 2, "--out", out]
    )
    assert code == 4
    assert (out / "reconciled.csv").exists()  # outputs still written
    records = read_reports_jsonl(out / "reports.jsonl")
    assert any("non-converged" in r["flags"] for r in records)


def test_evaluate_writes_tables(workdir):
    sim = simulate(workdir)
    out = workdir / "out-oct"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "oct", "--cov", "str", "--out", out]
    ) == 0
    evald = workdir / "eval"
    assert run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"oct={out / 'reconciled.csv'}",
         "--candidate", f"base={sim / 'base.csv'}",
         "--baseline", "base", "--reports", out / "reports.jsonl", "--out", evald]
    ) == 0
    assert (evald / "nrmse.csv").exists()
    assert (evald / "ranks.csv").exists()
    assert (evald / "trace.csv").exists()


def test_evaluate_rejects_malformed_reports_with_exit_2(workdir, capsys):
    sim = simulate(workdir)
    reports = workdir / "bad.jsonl"
    reports.write_text('{"method": "oct"}\nnot json\n')
    code = run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"base={sim / 'base.csv'}", "--reports", reports,
         "--out", workdir / "eval-bad"]
    )
    assert code == 2
    assert "bad.jsonl:2" in capsys.readouterr().err


def test_evaluate_rejects_a_mistyped_prepare_field_naming_it(workdir, capsys):
    sim = simulate(workdir)
    reports = workdir / "bad.jsonl"
    reports.write_text('{"method": "oct"}\n{"method": "oct", "prepare_s": "slow"}\n')
    code = run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"base={sim / 'base.csv'}", "--reports", reports,
         "--out", workdir / "eval-bad"]
    )
    assert code == 2
    assert "bad.jsonl:2: field prepare_s: expected number" in capsys.readouterr().err


def test_reconcile_refuses_memory_with_more_than_one_thread(workdir, capsys):
    # traced origins run one at a time, so the threads would be ignored.
    # Refused before any file is read, so the missing input goes unread
    out = workdir / "out"
    code = run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", workdir / "none.csv",
         "--memory", "--threads", 2, "--out", out]
    )
    assert code == 2
    assert "--memory needs --threads 1" in capsys.readouterr().err
    assert not out.exists()


def test_reconcile_memory_counts_the_clamp_in_the_peak(workdir, monkeypatch):
    # --sntz used to time the clamp but leave its allocations out of peak_mem
    from ctrec.hierarchy import CrossTemporalStructure

    real = CrossTemporalStructure.from_bottom_hf

    def allocating(self, bottom):
        np.ones(1_000_000)  # 8 MB, traced and freed inside the clamp
        return real(self, bottom)

    sim = simulate(workdir)
    monkeypatch.setattr(CrossTemporalStructure, "from_bottom_hf", allocating)
    out = workdir / "out"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "oct", "--sntz", "--memory", "--out", out]
    ) == 0
    records = read_reports_jsonl(out / "reports.jsonl")
    assert records and all(r["peak_mem"] >= 8_000_000 for r in records)


def test_reconcile_memory_leaves_one_off_caches_out_of_origin_0(tmp_path):
    # the clamp's bottom-up rebuild used to build the 324 x 318 cross-sectional
    # summing matrix inside origin 0's meter: 1.3 MB more than later origins
    from ctrec.io import write_hierarchy_file
    from ctrec.simulate import pv324_structure

    write_hierarchy_file(tmp_path / "hier.txt", pv324_structure())
    sim = simulate(tmp_path, reps=2)
    out = tmp_path / "out"
    assert run(
        ["reconcile", "--hierarchy", tmp_path / "hier.txt", "--input", sim / "base.csv",
         "--method", "oct", "--sntz", "--memory", "--out", out]
    ) == 0
    first, second = (r["peak_mem"] for r in read_reports_jsonl(out / "reports.jsonl"))
    assert abs(first - second) <= 16 * 1024


SINGULAR = np.ones((7, 7))
SINGULAR[0, -1] = 1e-20  # one finest cell dominates its series' temporal Gram
VARYING = np.ones((7, 7))
VARYING[0, 1] = 2.0  # order 2's first position only


@pytest.mark.parametrize(
    "method, weights, code, message",
    [
        ("oct", SINGULAR, 3,
         "numerical failure: temporal structural Gram matrix (column 0) is singular"),
        ("ka-tcs", VARYING, 2,
         "error: the averaging heuristic needs one cross-sectional weight per order"),
        ("oct", np.ones((7, 6)), 2,
         "error: weights of shape (7, 6) are not an (7, 7) cell table"),
    ],
    ids=["singular", "ka-per-order", "misshapen"],
)
def test_a_weight_fault_exits_before_any_origin_runs(
    workdir, capsys, monkeypatch, method, weights, code, message
):
    import ctrec.covariance as covariance

    sim = simulate(workdir)
    monkeypatch.setattr(covariance, "build_sigma", lambda *args: weights)
    monkeypatch.setattr(ctrec.cli, "run_batch", lambda *a, **k: pytest.fail("applied"))
    out = workdir / "out"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", method, "--out", out]
    ) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_prepare_s_carries_the_build_and_elapsed_only_the_apply(workdir, monkeypatch):
    real = reconcile.cross_temporal_projector

    def slow_build(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(reconcile, "cross_temporal_projector", slow_build)
    sim = simulate(workdir, reps=3)
    out = workdir / "out"
    assert run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
         "--method", "oct", "--timings", "--out", out]
    ) == 0
    records = read_reports_jsonl(out / "reports.jsonl")
    assert len(records) == 3
    assert all(r["prepare_s"] >= 0.05 and r["elapsed"] < 0.05 for r in records)


def test_determinism_across_runs_and_thread_counts(workdir):
    sim_a = simulate(workdir, out="sim-a", seed=11)
    sim_b = simulate(workdir, out="sim-b", seed=11)
    for name in ("actuals.csv", "base.csv", "residuals.csv", "history.csv"):
        assert (sim_a / name).read_bytes() == (sim_b / name).read_bytes()

    outputs = []
    for threads, tag in ((1, "t1"), (8, "t8")):
        out = workdir / f"det-{tag}"
        assert run(
            ["reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim_a / "base.csv",
             "--method", "ite-tcs", "--cov", "wlsv", "--residuals", sim_a / "residuals.csv",
             "--threads", threads, "--out", out]
        ) == 0
        outputs.append(
            ((out / "reconciled.csv").read_bytes(), (out / "reports.jsonl").read_bytes())
        )
    assert outputs[0] == outputs[1]


def test_batch_prepares_once_and_is_deterministic(workdir, monkeypatch):
    # a batch builds its operator once, before any origin, whatever the
    # thread count, and the output bytes do not depend on either; that build
    # factors one Gram stack per dimension (oct: the temporal stack and the
    # Schur system), each by a single dense factorization
    sim = simulate(workdir, reps=4)
    calls, factored = [], []

    def counting(name):
        real = getattr(reconcile, name)

        def count(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return count

    for name in (
        "zero_projector", "structural_projector", "batched_projector",
        "cross_temporal_projector",
    ):
        monkeypatch.setattr(reconcile, name, counting(name))
    real_solver = projection.sym_solver

    def recording_solver(A, context):
        factored.append((context, A.shape))
        return real_solver(A, context)

    monkeypatch.setattr(projection, "sym_solver", recording_solver)
    # toy structure: 7 series (3 upper), orders 4,2,1 (7 positions, 3
    # temporal constraints), so both steps take the constraint form
    expected_calls = {
        "oct": (
            ["cross_temporal_projector"],  # never the combined sparse Gram
            [("temporal structural Gram matrix", (7, 4, 4)),
             ("cross-sectional Schur complement", (12, 12))],
        ),
        "ite-tcs": (
            ["batched_projector"] * 2,  # one temporal, one cross-sectional
            [("constraint Gram matrix", (7, 3, 3))] * 2,
        ),
    }
    for method, (expected, expected_factored) in expected_calls.items():
        outputs = set()
        for threads in (1, 2, 1, 2):
            calls.clear()
            factored.clear()
            out = workdir / f"{method}-{threads}"
            assert run(
                ["reconcile", "--hierarchy", workdir / "hier.txt",
                 "--input", sim / "base.csv", "--method", method, "--cov", "wlsv",
                 "--residuals", sim / "residuals.csv", "--threads", threads,
                 "--out", out]
            ) == 0
            assert calls == expected
            assert factored == expected_factored
            outputs.add((out / "reconciled.csv").read_bytes())
        assert len(outputs) == 1


def test_evaluate_with_level_map_and_bad_candidate_spec(workdir):
    sim = simulate(workdir)
    levels = workdir / "levels.csv"
    levels.write_text(
        "series,level\ntotal,L0\nzone1,L1\nzone2,L1\n"
        "p1,L2\np2,L2\np3,L2\np4,L2\n"
    )
    evald = workdir / "eval-lvl"
    assert run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"base={sim / 'base.csv'}",
         "--candidate", f"again={sim / 'base.csv'}",
         "--levels", levels, "--out", evald]
    ) == 0
    header, *rows = (evald / "nrmse.csv").read_text().splitlines()
    assert {r.split(",")[0] for r in rows} == {"L0", "L1", "L2"}
    # malformed candidate spec is a validation error
    assert run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", "justaname", "--out", workdir / "x"]
    ) == 2
    # incomplete level map too
    levels.write_text("series,level\ntotal,L0\n")
    assert run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"base={sim / 'base.csv'}", "--levels", levels,
         "--out", workdir / "y"]
    ) == 2


def test_evaluate_rejects_a_candidate_name_given_twice(workdir, capsys):
    # the second `a` used to replace the first, scoring the actuals against
    # themselves
    sim = simulate(workdir)
    code = run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"a={sim / 'base.csv'}", "--candidate", f"a={sim / 'actuals.csv'}",
         "--out", workdir / "eval-dup"]
    )
    assert code == 2
    assert "'a' given twice" in capsys.readouterr().err
    assert not (workdir / "eval-dup" / "nrmse.csv").exists()


@pytest.mark.parametrize("alpha", ["2", "0"])
def test_evaluate_rejects_alpha_outside_the_unit_interval(workdir, capsys, alpha):
    sim = simulate(workdir)
    code = run(
        ["evaluate", "--hierarchy", workdir / "hier.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"base={sim / 'base.csv'}", "--candidate", f"act={sim / 'actuals.csv'}",
         "--alpha", alpha, "--out", workdir / "eval-alpha"]
    )
    assert code == 2
    assert "alpha" in capsys.readouterr().err
    assert not (workdir / "eval-alpha" / "ranks.csv").exists()


def test_simulate_rejects_negative_noise(workdir, capsys):
    out = workdir / "sim-neg"
    code = run(
        ["simulate", "--hierarchy", workdir / "hier.txt", "--noise", -1, "--out", out]
    )
    assert code == 2
    assert "noise_sd" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, named",
    [
        (["simulate", "--hierarchy", "{hier}", "--seed", "-1", "--out", "{out}"], "--seed"),
        (["bench", "--hierarchy", "{hier}", "--reps", "1", "--seed", "-1", "--out", "{out}"],
         "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["evaluate", "--hierarchy", "{hier}", "--actuals", "{sim}/actuals.csv",
          "--candidate", "base={sim}/base.csv", "--alpha", "7", "--out", "{out}"], "--alpha"),
        (["simulate", "--hierarchy", "{hier}", "--noise", "inf", "--out", "{out}"], "noise_sd"),
    ],
    ids=["simulate-seed", "bench-seed", "verify-seed", "evaluate-alpha", "simulate-noise"],
)
def test_an_out_of_range_number_exits_2_naming_its_option(workdir, capsys, argv, named):
    sim = simulate(workdir) if argv[0] == "evaluate" else None
    capsys.readouterr()
    out = workdir / "out"
    paths = {"hier": workdir / "hier.txt", "sim": sim, "out": out}
    assert run([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def test_orders_override_must_match_input_columns(workdir):
    sim = simulate(workdir)
    # overriding the temporal grid changes the expected CSV columns
    code = run(
        ["reconcile", "--hierarchy", workdir / "hier.txt", "--orders", "2,1",
         "--input", sim / "base.csv", "--method", "oct", "--out", workdir / "z"]
    )
    assert code == 2


def test_verify_command_passes(workdir):
    assert run(["verify", "--seed", 0, "--instances", 4]) == 0


@pytest.mark.parametrize("count", [-2, 0])
def test_verify_rejects_an_instance_count_below_one(count, capsys):
    assert run(["verify", "--instances", count]) == 2
    captured = capsys.readouterr()
    assert "at least 1" in captured.err and "PASS" not in captured.out


@pytest.mark.parametrize(
    "option, value, minimum",
    [
        ("--threads", 0, 1),
        ("--threads", -4, 1),
        ("--residual-origins", 1, 2),
        ("--residual-origins", 0, 2),
        ("--residual-origins", -3, 2),
    ],
)
def test_counts_below_their_minimum_exit_2(workdir, capsys, option, value, minimum):
    # a thread count below 1 used to run serially, and fewer than 2 residual
    # origins silently wrote no residuals.csv
    argv = ["simulate"]
    if option == "--threads":
        sim = simulate(workdir)
        argv = ["reconcile", "--input", sim / "base.csv", "--method", "oct"]
    out = workdir / "out"
    code = run(argv + ["--hierarchy", workdir / "hier.txt", option, value, "--out", out])
    assert code == 2
    assert f"at least {minimum}, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--threads", "9"],
        ["verify", "--hierarchy", "/nonexistent.txt"],
        ["verify", "--orders", "2,1"],
        ["verify", "--out", "elsewhere"],
        ["bench", "--threads", "9"],
        ["simulate", "--threads", "9", "--hierarchy", "h.txt"],
        ["evaluate", "--threads", "9", "--hierarchy", "h.txt", "--actuals", "a.csv"],
        ["reconcile", "--seed", "9", "--hierarchy", "h.txt", "--input", "b.csv"],
        ["evaluate", "--seed", "9", "--hierarchy", "h.txt", "--actuals", "a.csv"],
    ],
    ids=lambda args: " ".join(args[:2]),
)
def test_commands_reject_options_they_would_ignore(args, capsys):
    # verify reads only --seed and --instances; only reconcile runs threads,
    # and only simulate, verify and bench draw random numbers
    with pytest.raises(SystemExit) as exit_:
        main(args)
    assert exit_.value.code == 2
    assert "unrecognized arguments: " + args[1] in capsys.readouterr().err


def test_bench_command_smoke(workdir, capsys):
    sim = workdir  # unused; bench generates its own data
    out = workdir / "bench"
    assert run(
        ["bench", "--hierarchy", workdir / "hier.txt", "--reps", 2,
         "--methods", "ite-tcs,oct", "--covs", "ols,wlsv", "--out", out, "--seed", 5]
    ) == 0
    assert (out / "perf.csv").exists()
    captured = capsys.readouterr().out
    assert "ite-tcs[ols]" in captured
    # every reconcile method is benchmarked through the same dispatch
    assert run(
        ["bench", "--hierarchy", workdir / "hier.txt", "--reps", 2,
         "--methods", "cs,seq-cst,ka-tcs,bu", "--covs", "wlsv", "--out", out]
    ) == 0
    captured = capsys.readouterr().out
    for name in ("cs[wlsv]", "seq-cst[wlsv]", "ka-tcs[wlsv]", "bu[wlsv]"):
        assert name in captured


def test_bench_applies_orders_to_the_built_in_shape(workdir, monkeypatch, capsys):
    # without --hierarchy, --orders reshapes the 324-series instance
    simulated = []

    def record(ct, **kwargs):
        simulated.append(ct)
        return simulate_dataset(ct, **kwargs)

    monkeypatch.setattr(ctrec.cli, "simulate_dataset", record)
    assert run(
        ["bench", "--orders", "2,1", "--reps", 1, "--methods", "bu", "--covs", "ols",
         "--out", workdir / "bench-orders"]
    ) == 0
    [ct] = simulated
    assert ct.te.orders == (2, 1) and ct.n_series == 324
    assert "bu[ols]" in capsys.readouterr().out


@pytest.mark.parametrize("option", ["--methods", "--covs"])
def test_bench_rejects_an_empty_name_list(workdir, capsys, option):
    # an empty list used to end in a traceback from max() over no rows
    out = workdir / "bench-empty"
    code = run(
        ["bench", "--hierarchy", workdir / "hier.txt", "--reps", 1, option, " , ",
         "--out", out]
    )
    assert code == 2
    assert f"{option} names no entry" in capsys.readouterr().err
    assert not out.exists()


def test_no_module_imports_another_modules_private_name():
    # a private name is its module's own: sharing one means it belongs in the API
    import ast

    package = Path(ctrec.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "ctrec"
            ):
                private += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names if alias.name.startswith("_")
                ]
    assert private == []


def test_cli_import_leaves_scipy_stats_unloaded(workdir):
    # importing scipy is most of a reconcile process's cold start, and only
    # verify, the sparse reference path (ctrec.reference), the rank test and
    # Gram systems of more than INVERSE_CUTOFF rows need it: neither the
    # imports nor a reconcile run of oct or ite-tcs under wlsv may load any
    # of it, nor ctrec.reference; nor, with one thread, concurrent.futures
    sim = simulate(workdir)
    env = dict(os.environ, PYTHONPATH=str(Path(ctrec.__file__).parents[1]))
    code = """if True:
        import sys
        def unwanted():
            return sorted(
                m for m in sys.modules
                if m.split(".")[0] in ("scipy", "concurrent")
                or m == "ctrec.reference"
            )
        import ctrec
        assert not unwanted(), ("import ctrec", unwanted())
        import ctrec.cli
        assert not unwanted(), ("import ctrec.cli", unwanted())
        for method in ("oct", "ite-tcs"):
            code = ctrec.cli.main(["reconcile", *sys.argv[1:], "--method", method])
            assert code == 0 and not unwanted(), (method, code, unwanted())
    """
    args = [
        "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
        "--cov", "wlsv", "--residuals", sim / "residuals.csv",
        "--out", workdir / "cold",
    ]
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert (workdir / "cold" / "reconciled.csv").exists()


def test_commands_read_and_write_utf8_whatever_the_locale(workdir):
    # every file is opened as UTF-8, never in the locale's encoding: no
    # command warns under -X warn_default_encoding, and a label outside
    # ASCII goes from the hierarchy through every output
    (workdir / "hier.txt").write_text(TOY_HIERARCHY.replace("p1", "Zürich"), "utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(ctrec.__file__).parents[1]))
    code = "import sys; from ctrec.cli import main; sys.exit(main(sys.argv[1:]))"
    sim, out = workdir / "sim", workdir / "out"
    for args in (
        ["simulate", "--hierarchy", workdir / "hier.txt", "--out", sim],
        ["reconcile", "--hierarchy", sim / "hierarchy.txt", "--input", sim / "base.csv",
         "--cov", "wlsv", "--residuals", sim / "residuals.csv", "--out", out],
        ["evaluate", "--hierarchy", sim / "hierarchy.txt", "--actuals", sim / "actuals.csv",
         "--candidate", f"oct={out / 'reconciled.csv'}", "--out", out],
    ):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", code, *map(str, args)],
            env=env, capture_output=True, text=True, encoding="utf-8",
        )
        assert done.returncode == 0, (args[0], done.stderr)
    assert "Zürich" in (out / "reconciled.csv").read_text("utf-8")


def test_timings_measure_wall_time_without_tracing_memory(workdir, monkeypatch):
    # --timings reports wall time only: tracemalloc would inflate it ~2x;
    # --memory adds the traced peak; with neither the stream is unchanged
    import tracemalloc

    sim = simulate(workdir)
    started = []
    real_start = tracemalloc.start
    monkeypatch.setattr(
        tracemalloc, "start", lambda *a: started.append(1) or real_start(*a)
    )
    args = [
        "reconcile", "--hierarchy", workdir / "hier.txt", "--input", sim / "base.csv",
        "--method", "ite-tcs", "--cov", "wlsv", "--residuals", sim / "residuals.csv",
    ]
    streams = {}
    for flags in ((), ("--timings",), ("--memory",), ("--timings", "--memory"), ()):
        out = workdir / ("plain" if not flags else "-".join(flags).strip("-"))
        assert run(args + list(flags) + ["--out", out]) == 0
        records = read_reports_jsonl(out / "reports.jsonl")
        assert all(("elapsed" in r) == ("--timings" in flags) for r in records)
        assert all(("prepare_s" in r) == ("--timings" in flags) for r in records)
        assert all(("peak_mem" in r) == ("--memory" in flags) for r in records)
        assert all(("prepare_peak_mem" in r) == ("--memory" in flags) for r in records)
        assert bool(started) == ("--memory" in flags)
        started.clear()
        streams.setdefault(flags, []).append((out / "reports.jsonl").read_bytes())
    assert streams[()][0] == streams[()][1]
