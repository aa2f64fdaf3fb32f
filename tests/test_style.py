"""Source style rules checked with ``ast``: line length, imports that nothing uses, environment reads.

An import that a module never reads is allowed only where the benchmark's
tracer (``bench/spans.py``, ``BINDINGS``) rebinds that name in that module,
so such an import goes stale, and fails here, once the tracer stops
binding it.  ``__init__.py`` only re-exports and is not checked for imports.

No module reads or sets an environment variable: a run is what its
configuration says, so no setting hides outside it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "flocklab").glob("*.py"))
MAX_LINE = 110
ENVIRONMENT = {"environ", "getenv", "putenv"}


def _bindings() -> dict:
    """``bench/spans.py``'s BINDINGS, read without importing the benchmark."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BINDINGS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no BINDINGS")


def _environment_uses(tree: ast.Module) -> set:
    """Line numbers that name ``os.environ``, ``os.getenv`` or ``os.putenv``, as an attribute or an import."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os":
            names = {node.attr}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
        else:
            continue
        if names & ENVIRONMENT:
            lines.add(node.lineno)
    return lines


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name exported in __all__ is used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_line_longer_than_the_limit(path):
    long = [i for i, line in enumerate(path.read_text().splitlines(), 1) if len(line) > MAX_LINE]
    assert not long, f"{path.name}: lines longer than {MAX_LINE} characters: {long}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_unused_imports_are_the_tracers_bindings(path):
    if path.name == "__init__.py":
        return
    unused = _unused_imports(ast.parse(path.read_text()))
    rebound = set(_bindings().get(f"flocklab.{path.stem}", ()))
    assert unused <= rebound, f"{path.name}: imported, never used, not rebound by the tracer: {unused - rebound}"


def test_unused_import_detection():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom __future__ import annotations\nprint(b)\n")
    assert _unused_imports(tree) == {"os", "d"}
    tree = ast.parse("from a import b\n__all__ = ['b']\n")
    assert _unused_imports(tree) == set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_environment_variable_is_read(path):
    uses = _environment_uses(ast.parse(path.read_text()))
    assert not uses, f"{path.name}: reads the environment on lines {sorted(uses)}"


def test_environment_use_detection():
    tree = ast.parse("import os\nos.environ.get('A')\nx = os.getenv('B')\nos.putenv('C', '1')\nos.sep\n")
    assert _environment_uses(tree) == {2, 3, 4}
    assert _environment_uses(ast.parse("from os import environ, path\n")) == {1}
