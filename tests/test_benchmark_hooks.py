"""The traced benchmark patches package names by path; a refactor that drops
one of them must fail here, not silently break the traced run."""

import runpy
from pathlib import Path

import pytest

import ctrec.projection
import ctrec.reference

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
# run from source, so nothing is written next to the script
child = runpy.run_path(str(CHILD))
# hooks that `ctrec.reconcile` and `ctrec.projection` resolve on demand, and
# the definitions they must hand out
LAZY = {
    ("ctrec.reconcile", "sym_solver"): ctrec.projection.sym_solver,
    ("ctrec.reconcile", "zero_projector"): ctrec.reference.zero_projector,
    ("ctrec.reconcile", "structural_projector"): ctrec.reference.structural_projector,
    ("ctrec.projection", "zero_projector"): ctrec.reference.zero_projector,
    ("ctrec.projection", "structural_projector"): ctrec.reference.structural_projector,
}


@pytest.mark.parametrize("module, path, span", child["HOOKS"], ids=str)
def test_every_benchmark_hook_resolves_in_the_package(module, path, span):
    owner, attr = child["_resolve"](module, path)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("module, name", sorted(LAZY), ids=str)
def test_lazy_hooks_resolve_to_their_definitions(module, name):
    owner, attr = child["_resolve"](module, name)
    assert getattr(owner, attr) is LAZY[module, name]
    with pytest.raises(AttributeError, match="no attribute 'not_a_hook'"):
        getattr(owner, "not_a_hook")
