"""Smoke test: every demo runs to completion against the current API, and
the README's code and names refer only to what the package has."""

import ast
import importlib
import re
import runpy
from pathlib import Path

import pytest

import ctrec

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demo_set_is_complete():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos may write their CSVs to the working dir
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_readme_python_blocks_import_only_exported_names():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    imported = set()
    for source in blocks:
        compile(source, "README.md", "exec")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "ctrec":
                imported.update(alias.name for alias in node.names)
    assert imported, "no `from ctrec import ...` in the README's python blocks"
    assert imported <= set(ctrec.__all__), sorted(imported - set(ctrec.__all__))


def _resolve(dotted: str):
    """The object a dotted name refers to: its longest importable module
    prefix, then attribute lookups for the rest."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj


def test_readme_ctrec_names_resolve():
    # a backticked `ctrec.`-qualified name outside the code blocks must import
    # and resolve, so that renaming or removing it leaves no stale reference
    prose = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    names = {
        name
        for span in re.findall(r"`([^`]+)`", prose)
        for name in re.findall(r"\bctrec(?:\.\w+)+", span)
    }
    assert "ctrec.io.REPORT_FIELDS" in names and "ctrec.reference.Projector.dense" in names
    unresolved = []
    for name in sorted(names):
        try:
            _resolve(name)
        except AttributeError:
            unresolved.append(name)
    assert not unresolved, unresolved
