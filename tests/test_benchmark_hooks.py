"""The traced benchmark patches package names by path; a refactor that drops
one of them must fail here, not silently break the traced run."""

import runpy
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
# run from source, so nothing is written next to the script
child = runpy.run_path(str(CHILD))


@pytest.mark.parametrize("module, path, span", child["HOOKS"], ids=str)
def test_every_benchmark_hook_resolves_in_the_package(module, path, span):
    owner, attr = child["_resolve"](module, path)
    assert callable(getattr(owner, attr))
