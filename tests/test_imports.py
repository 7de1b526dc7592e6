"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

from conftest import _package_caches

SOURCES = sorted(
    path for path in (Path(__file__).resolve().parents[1] / "src" / "ottospin").glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, skipping ``from __future__``
    and any name whose line carries ``# noqa: F401``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_has_no_unused_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nimport os  # noqa: F401\nfrom typing import Any, List\nx: Any = 1\n"
    assert _unused_imports(source) == ["line 1: math", "line 3: List"]


def test_every_package_cache_is_cleared_between_tests():
    # the autouse fixture in conftest.py clears what _package_caches finds;
    # a cache it missed could answer a later test from an earlier one
    decorated = sorted(
        f"{path.stem}.{node.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(d).split("(")[0].endswith("cache") for d in node.decorator_list)
    )
    found = sorted(f"{c.__module__.rpartition('.')[2]}.{c.__name__}" for c in _package_caches())
    assert decorated and found == decorated
