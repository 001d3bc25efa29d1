"""The package imports nothing beyond the standard library and its declared
dependencies: scipy, hypothesis and mpmath are test-only."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is in the standard library from 3.11")

ROOT = Path(__file__).resolve().parents[1]


def imported_packages(source: str) -> set[str]:
    """Top-level names of every absolute import in a module, nested ones too."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in project["dependencies"]}
    third_party = set()
    for path in sorted((ROOT / "src" / "lsvd").glob("*.py")):
        third_party |= imported_packages(path.read_text()) - set(sys.stdlib_module_names)
    assert "numpy" in third_party  # the scan saw the package's imports
    assert third_party <= declared
