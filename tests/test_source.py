"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "hamdec").glob("*.py"))


def test_package_sources_are_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariants must raise real exceptions: `python -O` strips asserts
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(
        (line, name) for name, line in imported.items() if name not in used
    )
    assert unused == [], f"{path.name}: unused imports {unused}"


def test_every_traced_name_resolves():
    # the bench tracer patches these names where their callers look them
    # up; a refactor that drops one would only fail the bench's own tests
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (module, attr) for module, attr, _, _ in tracer.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracer.PATCHES and missing == []
