"""The benchmark tracer (``perfbench/spans.py``) imports every module its
``ENTRY_POINTS`` table names, outside any ``try``, so a module missing from
the package would crash every traced run.  An attribute may be missing (the
tracer lists it as not found); a module may not, and the attributes that
resolve today must keep resolving, or their spans would silently read 0."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def entry_points():
    """(module, attribute) of every ``ENTRY_POINTS`` entry, read from the
    source without running it."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        names = [getattr(target, "id", None) for target in getattr(node, "targets", ())]
        if names == ["ENTRY_POINTS"]:
            return [(module, name) for module, name, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"{SPANS} assigns no ENTRY_POINTS")


def entry_point_modules():
    """The module names of ``ENTRY_POINTS``."""
    return sorted({module for module, _ in entry_points()})


@pytest.mark.parametrize("module", entry_point_modules())
def test_entry_point_module_imports(module):
    importlib.import_module(module)


# The entry points a traced run finds: each must stay an attribute of its
# module, where the tracer wraps it, so that every span keeps recording.
RESOLVING = [
    "lsvd.cli.rpm_model",
    "lsvd.cli.fmo_model",
    "lsvd.cli.theta_sweep",
    "lsvd.cli.quantum_evolve",
    "lsvd.models.rpm_model",
    "lsvd.pipeline.build_superoperator",
    "lsvd.pipeline.propagator",
    "lsvd.pipeline.build_svd_circuit",
    "lsvd.pipeline.sample",
    "lsvd.pipeline.estimate_populations",
    "lsvd.lindblad.expm",
    "lsvd.circuit.apply_circuit",
]


def test_resolving_entry_points_are_traced():
    traced = {f"{module}.{name}" for module, name in entry_points()}
    assert set(RESOLVING) <= traced


@pytest.mark.parametrize("target", RESOLVING)
def test_entry_point_resolves(target):
    module, _, name = target.rpartition(".")
    assert callable(getattr(importlib.import_module(module), name))
