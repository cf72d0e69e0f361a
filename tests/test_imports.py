"""Every name imported in the package, its tests and scripts is read, and
every private function, method or class of the package is referenced."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
SRC = sorted((ROOT / "src").rglob("*.py"))


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


def _unreferenced_private_defs(sources):
    """(module, name, line) of each _-prefixed function, method or class
    defined in sources, a {module: source} map, that no module there names,
    as a plain name, an attribute or an imported name; dunders are exempt."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return sorted(
        (module, node.name, node.lineno)
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.endswith("__")
        and node.name not in named)


def test_scan_flags_unreferenced_private_defs():
    a = textwrap.dedent("""\
        def _dead():
            pass


        def _imported():
            pass


        class _Gone:
            def __init__(self):
                self._called()

            def _called(self):
                pass

            def _stale(self):
                pass
        """)
    b = "from a import _imported\n"
    assert _unreferenced_private_defs({"a": a, "b": b}) == [
        ("a", "_Gone", 9), ("a", "_dead", 1), ("a", "_stale", 16)]


def test_no_unreferenced_private_defs_in_src():
    assert _unreferenced_private_defs(
        {str(p.relative_to(ROOT)): p.read_text() for p in SRC}) == []


def test_library_imports_no_scipy():
    """A fresh interpreter imports pcbf.cli, then builds the three pinned
    scenarios and their controllers, without importing scipy."""
    code = textwrap.dedent("""\
        import sys
        from pathlib import Path
        import pcbf.cli, pcbf.simulate
        for path in sorted(Path("configs").glob("*.txt")):
            cfg = pcbf.cli.parse_config(path.read_text())
            model, h, path, mu_law, x0 = pcbf.simulate.build_scenario(cfg)
            pcbf.simulate.make_controller(cfg, model, h, path, mu_law)
            print(cfg.scenario)
        print("scipy" in sys.modules)
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["intersection_cross", "intersection_left_turn", "satellite",
                           "False"]
