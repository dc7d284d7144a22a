"""The names the benchmark harness imports or wraps exist in the package.

bench/tracing.py skips a wrapper target the package no longer has, so a
rename would silently read 0 in a per-layer metric; this test fails instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "staircase"
        for alias in node.names
    ]


def _resolves(module: str, attr: str) -> bool:
    """from module import attr works: an attribute, or a submodule."""
    return hasattr(importlib.import_module(module), attr) or importlib.util.find_spec(f"{module}.{attr}") is not None


@pytest.mark.parametrize("name", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_resolve(name):
    for module, attr in _package_imports(BENCH / name):
        assert _resolves(module, attr), f"{name} imports {module}.{attr}"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    from staircase.polytope import NewtonPolytope

    assert isinstance(vars(NewtonPolytope).get("facets"), property)
