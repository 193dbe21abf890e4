"""The runtime package imports nothing outside the standard library, the
command line uses only the package's public names, and ``__all__`` lists
exactly the public names the package imports."""

import ast
import sys
from pathlib import Path

import pytest

import ramsey_forge

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ramsey_forge"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    """Top-level module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_sources_are_found():
    assert {"__init__.py", "cli.py", "constructions.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    foreign = sorted(set(absolute_imports(path)) - sys.stdlib_module_names)
    assert foreign == [], f"{path.name} imports {foreign}"


def private_package_imports(path):
    """``_``-prefixed names one source file imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name
        ):
            yield from (a.name for a in node.names if a.name.startswith("_"))


def test_cli_imports_only_public_names():
    private = sorted(private_package_imports(PACKAGE / "cli.py"))
    assert private == [], f"cli.py imports {private}"


def test_all_lists_exactly_the_public_imports():
    # a public name dropped from the package cannot leave a stale export
    exported = ramsey_forge.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(ramsey_forge, name) for name in exported)
    imported = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    assert set(exported) == {name for name in imported if not name.startswith("_")}
