"""Package layout rules, checked on the source: modules share no private
names, and the only runtime dependencies are numpy and PyYAML."""

import ast
import sys
from pathlib import Path

import planbench

SOURCES = sorted(Path(planbench.__file__).parent.rglob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "yaml", "planbench"}


def _imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_private_imports_across_modules():
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in SOURCES for node in _imports(path)
             if isinstance(node, ast.ImportFrom)
             for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_imports_only_stdlib_numpy_and_yaml():
    found = []
    for path in SOURCES:
        for node in _imports(path):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                names = [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert found == []
