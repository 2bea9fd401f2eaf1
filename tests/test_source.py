"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


# entry points that only a user, a test or argparse calls
ENTRY_POINTS = {
    ("ilp", None, "parse_lp"),
    ("oracle", None, "has_second_decomposition"),
    ("cli", "_Parser", "error"),
}


def _definitions(tree, module, owner=None):
    """(module, class or None, name) of every def and class in `tree`."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield module, owner, node.name
            inner = node.name if isinstance(node, ast.ClassDef) else owner
            yield from _definitions(node, module, inner)
        else:
            yield from _definitions(node, module, owner)


def _references(tree):
    """Every name that `tree` loads, reads as an attribute, imports or
    lists in `__all__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            yield from (e.value for e in node.value.elts)


def test_every_definition_is_referenced_in_the_package():
    # no package code that only tests call: a def or class no other
    # package code names is dead, or belongs in the tests
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in SOURCES}
    named = {ref for tree in trees.values() for ref in _references(tree)}
    unnamed = {
        d for module, tree in trees.items()
        for d in _definitions(tree, module)
        if d[2] not in named and not d[2].startswith("__")
    }
    assert unnamed == ENTRY_POINTS


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_import(path):
    # numpy is a test dependency only; instances.py draws numpy's
    # streams in pure Python
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []


def test_importing_the_package_and_cli_loads_no_numpy():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hamdec, hamdec.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
