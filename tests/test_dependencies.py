"""The package imports nothing outside numpy and the standard library."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1]
                  / "src" / "dir_sparse").glob("*.py"))


def absolute_imports(path):
    """Top-level package names of the absolute imports in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_numpy_and_stdlib_only():
    assert SOURCES
    foreign = {(path.name, name) for path in SOURCES
               for name in absolute_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not foreign, f"imports outside numpy and the stdlib: {foreign}"


def test_finds_the_packages_in_use():
    # The walk sees the imports the package has today, so an empty result
    # above is not a parse that found nothing.
    found = {name for path in SOURCES for name in absolute_imports(path)}
    assert {"numpy", "dataclasses", "time"} <= found
