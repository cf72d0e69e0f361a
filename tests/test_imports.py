"""Every name imported in the package, its tests and scripts is read."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))


def _unused_imports(source):
    """(name, line) of each imported name the module never reads; names
    listed in __all__ count as read."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported.items() if name not in read)


def test_scan_flags_unused_import():
    source = "import os\nimport numpy.linalg\nfrom sys import argv as a, path\n" \
             "__all__ = ['path']\nprint(numpy.linalg.norm, a)\n"
    assert _unused_imports(source) == [("os", 1)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
