"""The benchmark tracer (``perfbench/spans.py``) imports every module its
``ENTRY_POINTS`` table names, outside any ``try``, so a module missing from
the package would crash every traced run.  An attribute may be missing (the
tracer lists it as not found); a module may not."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def entry_point_modules():
    """The module names of ``ENTRY_POINTS``, read from the source without
    running it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if names == ["ENTRY_POINTS"]:
            return sorted({module for module, _, _ in ast.literal_eval(node.value)})
    raise AssertionError(f"{SPANS} assigns no ENTRY_POINTS")


@pytest.mark.parametrize("module", entry_point_modules())
def test_entry_point_module_imports(module):
    importlib.import_module(module)
